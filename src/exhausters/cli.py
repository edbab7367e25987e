"""Command line interface.

``analyze`` ingests a problem description, builds the derivative trees and
all derivable families at the point, and decides the requested optimality
conditions. ``check`` runs selected conditions against user-supplied
families. ``oracle`` compares finite-difference estimates with family
evaluations. Exit codes: 0 all requested conditions hold, 1 a condition is
violated, 2 input error, 3 a cap left a verdict inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .conditions import (
    CONSTRAINED_IDS,
    ConditionID,
    Verdict,
    evaluate_condition,
    necessary_condition_oracle,
    regularity_check,
)
from .deriv import (
    Expr,
    Leaf,
    MinMaxTree,
    directional_derivative_tree,
    eval_expr,
    expr_dim,
    expr_from_json,
    fd_directional_derivative,
)
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    ExhausterKindError,
    IterationCapError,
)
from .exhauster import (DEFAULT_COMBINATION_CAP, Exhauster, eval_exhauster,
                        exhauster_from_tree, reduce_exhauster)
from .geometry import TOL, Vector, as_int, as_vector, sample_unit_directions
from .report import AnalysisReport, render_report, render_svg

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

_DEFAULT_CONSTRAINED = {
    "min": [ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER,
            ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER],
    "max": [ConditionID.MAX_LOWER_LOWER, ConditionID.MAX_LOWER_UPPER,
            ConditionID.MAX_UPPER_LOWER, ConditionID.MAX_UPPER_UPPER],
}
_DEFAULT_UNCONSTRAINED = {
    "min": [ConditionID.UNC_MIN_UPPER, ConditionID.UNC_MIN_LOWER],
    "max": [ConditionID.UNC_MAX_LOWER, ConditionID.UNC_MAX_UPPER],
}


class InputError(Exception):
    """Bad file, JSON, or option combination; maps to exit code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _parse_condition_ids(spec: Optional[str]) -> Optional[list[ConditionID]]:
    if not spec:
        return None
    ids = []
    for token in spec.split(","):
        token = token.strip().upper()
        if not token:
            continue
        try:
            ids.append(ConditionID(token))
        except ValueError as exc:
            raise InputError(f"unknown condition id {token!r}") from exc
    if not ids:
        raise InputError("no condition ids given")
    return ids


def _senses(sense: str) -> list[str]:
    return ["min", "max"] if sense == "both" else [sense]


def _exit_code(conditions: dict[str, Verdict], oracle: dict[str, Verdict]) -> int:
    statuses = [v.status for v in conditions.values()]
    if "violated" in statuses or any(v.status == "violated" for v in oracle.values()):
        return EXIT_VIOLATED
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _parse_problem(problem) -> tuple[int, Vector, Expr, Optional[Expr]]:
    """Dimension, point, objective and optional constraint of a problem
    object; every defect is an InputError."""
    if not isinstance(problem, dict):
        raise InputError("problem file must hold a JSON object")
    for key in ("dim", "objective", "point"):
        if key not in problem:
            raise InputError(f"problem is missing {key!r}")
    try:
        dim = as_int(problem["dim"])
        point = as_vector(problem["point"])
        f_expr = expr_from_json(problem["objective"])
        u_expr = expr_from_json(problem["constraint"]) \
            if problem.get("constraint") is not None else None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed problem: {exc}") from exc
    if len(point) != dim:
        raise InputError(f"point has length {len(point)}, expected {dim}")
    if expr_dim(f_expr) != dim:
        raise InputError("objective dimension disagrees with problem dimension")
    if u_expr is not None and expr_dim(u_expr) != dim:
        raise InputError("constraint dimension disagrees with problem dimension")
    return dim, point, f_expr, u_expr


def _at_point(label: str, expr: Expr, point: Vector) -> tuple[float, MinMaxTree]:
    """Value and derivative tree of ``expr`` at the point; a value or a
    gradient beyond the float range is an InputError."""
    try:
        value = eval_expr(expr, point)
        if math.isfinite(value):
            return value, directional_derivative_tree(expr, point)
        reason = f"value {value}"
    except (OverflowError, ValueError) as exc:
        reason = str(exc)
    raise InputError(f"{label} overflows the floats at the point: {reason}")


def analyze_problem(problem: dict, *, sense: Optional[str] = None,
                    condition_ids: Optional[list[ConditionID]] = None,
                    tol: float = TOL, oracle_tol: float = 1e-3,
                    samples: int = 720, seed: int = 0,
                    max_combinations: int = DEFAULT_COMBINATION_CAP
                    ) -> tuple[AnalysisReport, int]:
    """Full pipeline on a parsed problem; returns the report and exit code."""
    dim, point, f_expr, u_expr = _parse_problem(problem)
    if samples < 1:
        raise InputError("need a positive sample count")
    sense = sense or problem.get("sense", "min")
    if sense not in ("min", "max", "both"):
        raise InputError(f"sense must be min, max or both, got {sense!r}")

    f_value, f_tree = _at_point("objective", f_expr, point)
    values = {"f": f_value}
    u_tree = None
    if u_expr is not None:
        values["u"], u_tree = _at_point("constraint", u_expr, point)
    trees = {"f": f_tree} if u_tree is None else {"f": f_tree, "u": u_tree}
    families = {
        (func, kind): reduce_exhauster(exhauster_from_tree(tree, kind),
                                       max_combinations=max_combinations)
        for func, tree in trees.items() for kind in ("upper", "lower")
    }

    if condition_ids is None:
        table = _DEFAULT_CONSTRAINED if u_tree is not None else _DEFAULT_UNCONSTRAINED
        condition_ids = [cid for s in _senses(sense) for cid in table[s]]
    verdicts: dict[str, Verdict] = {}
    for cid in condition_ids:
        parts = cid.value.split("_")
        if parts[0] == "UNC":
            ef = families[("f", parts[2].lower())]
            verdict = evaluate_condition(cid, ef,
                                         max_combinations=max_combinations)
        else:
            if u_tree is None:
                raise InputError(
                    f"{cid.value} needs a constraint, none was given")
            ef = families[("f", parts[1].lower())]
            eu = families[("u", parts[2].lower())]
            verdict = evaluate_condition(cid, ef, eu,
                                         max_combinations=max_combinations)
        verdicts[cid.value] = verdict

    regularity = None
    if u_tree is not None:
        regularity = replace(
            regularity_check(u_tree, tol=tol, samples=samples, seed=seed),
            condition="REGULARITY")
    gate_tree = u_tree if u_tree is not None else Leaf((0.0,) * dim)
    oracle = {
        s: replace(
            necessary_condition_oracle(f_tree, gate_tree, s, samples, seed, tol=tol),
            condition=f"ORACLE_{s.upper()}")
        for s in _senses(sense)
    }

    warnings = []
    if u_expr is not None:
        u_value = values["u"]
        if u_value < -tol:
            warnings.append(
                "constraint is inactive at the point (value below zero): the "
                "point is interior to the feasible set")
        elif u_value > tol:
            warnings.append(
                "constraint value is positive at the point: the point is "
                "infeasible")

    exhausters_json: dict = {"f": {
        "upper": families[("f", "upper")].to_json(),
        "lower": families[("f", "lower")].to_json(),
    }}
    if u_tree is not None:
        exhausters_json["u"] = {
            "upper": families[("u", "upper")].to_json(),
            "lower": families[("u", "lower")].to_json(),
        }
    report = AnalysisReport(
        problem=problem,
        conditions=verdicts,
        point=point,
        sense=sense,
        values=values,
        exhausters=exhausters_json,
        regularity=regularity,
        oracle=oracle,
        warnings=tuple(warnings),
        metadata={
            "tol": tol,
            "oracle_tol": oracle_tol,
            "samples": samples,
            "seed": seed,
            "max_combinations": max_combinations,
        },
    )
    return report, _exit_code(verdicts, oracle)


def _families_for_svg(report: AnalysisReport):
    from .geometry import Polytope

    items = []
    for func in sorted(report.exhausters):
        for kind in ("upper", "lower"):
            data = report.exhausters[func].get(kind)
            if not data:
                continue
            for vertices in data["sets"]:
                items.append(Polytope.from_vertices(vertices))
    return items


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        problem = _load_json(args.problem)
        condition_ids = _parse_condition_ids(args.conditions)
        report, code = analyze_problem(
            problem, sense=args.sense, condition_ids=condition_ids,
            tol=args.tol, oracle_tol=args.oracle_tol, samples=args.samples,
            seed=args.seed, max_combinations=args.max_combinations)
    except (InputError, DimensionMismatchError, ExhausterKindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceededError, IterationCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    sys.stdout.write(render_report(report, args.format).decode("utf-8"))
    if args.svg:
        items = _families_for_svg(report)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_svg(items))
    return code


def _load_family(path: str) -> Exhauster:
    try:
        return Exhauster.from_json(_load_json(path))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed family in {path}: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    try:
        condition_ids = _parse_condition_ids(args.conditions)
        if not condition_ids:
            raise InputError("check needs --conditions")
        ef = _load_family(args.f_exhauster)
        eu = _load_family(args.u_exhauster) if args.u_exhauster else None
        verdicts: dict[str, Verdict] = {}
        for cid in condition_ids:
            if cid in CONSTRAINED_IDS and eu is None:
                raise InputError(f"{cid.value} needs --u-exhauster")
            verdicts[cid.value] = evaluate_condition(
                cid, ef, eu if cid in CONSTRAINED_IDS else None,
                max_combinations=args.max_combinations)
    except (InputError, ValueError, DimensionMismatchError,
            ExhausterKindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceededError, IterationCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    problem_echo = {"f_exhauster": args.f_exhauster,
                    "u_exhauster": args.u_exhauster}
    report = AnalysisReport(
        problem=problem_echo,
        conditions=verdicts,
        metadata={"max_combinations": args.max_combinations},
    )
    sys.stdout.write(render_report(report, args.format).decode("utf-8"))
    return _exit_code(verdicts, {})


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        problem = _load_json(args.problem)
        if args.samples < 1:
            raise InputError("need a positive sample count")
        dim, point, f_expr, u_expr = _parse_problem(problem)
        parts = [("objective", f_expr)]
        if u_expr is not None:
            parts.append(("constraint", u_expr))
        trees = [_at_point(label, expr, point)[1] for label, expr in parts]
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    directions = sample_unit_directions(dim, args.samples, args.seed)
    code = EXIT_OK
    for (label, expr), tree in zip(parts, trees):
        try:
            estimates = [fd_directional_derivative(expr, point, g) for g in directions]
            reason = (None if all(map(math.isfinite, estimates))
                      else "a difference quotient is not finite")
        except OverflowError as exc:
            reason = str(exc)
        if reason is not None:
            print(f"error: {label} overflows the floats at a finite-difference "
                  f"step: {reason}", file=sys.stderr)
            return EXIT_INPUT
        families = [exhauster_from_tree(tree, kind) for kind in ("upper", "lower")]
        deviation = max(abs(estimate - eval_exhauster(family, g))
                        for family in families
                        for g, estimate in zip(directions, estimates))
        # The difference quotient errs in proportion to the derivative.
        scale = max(1.0, max(map(abs, estimates)))
        print(f"{label}: max deviation {deviation:.3e} of the upper and lower "
              f"families over {len(directions)} directions (tolerance "
              f"{args.oracle_tol:g} x derivative scale {scale:.3g})")
        if deviation > args.oracle_tol * scale:
            code = EXIT_VIOLATED
    return code


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-combinations", type=int, default=DEFAULT_COMBINATION_CAP,
                        help="vertex-selection enumeration cap")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format on stdout")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--oracle-tol", type=float, default=1e-3,
                        help="acceptable finite-difference deviation, relative "
                             "to max(1, largest |derivative|) over the sampled "
                             "directions")
    parser.add_argument("--samples", type=int, default=720,
                        help="sampled directions for the oracle and the "
                             "regularity check")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exhausters",
        description="Build min/max polytope families for piecewise-smooth "
                    "functions and check optimality conditions exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full analysis of a problem file")
    analyze.add_argument("problem", help="problem JSON file")
    analyze.add_argument("--sense", choices=("min", "max", "both"),
                         help="override the problem's sense")
    analyze.add_argument("--conditions",
                         help="comma-separated condition ids (default: all "
                              "applicable for the sense)")
    analyze.add_argument("--svg", help="write a figure of the families here")
    analyze.add_argument("--tol", type=float, default=TOL,
                         help="sign tolerance of the regularity check, the "
                              "sampled cross-check and the value warnings "
                              "(default 1e-9)")
    _add_common(analyze)
    _add_sampling(analyze)
    analyze.set_defaults(func=cmd_analyze)

    check = sub.add_parser("check", help="check conditions on given families")
    check.add_argument("--f-exhauster", required=True,
                       help="objective family JSON file")
    check.add_argument("--u-exhauster", help="constraint family JSON file")
    check.add_argument("--conditions", required=True,
                       help="comma-separated condition ids")
    _add_common(check)
    check.set_defaults(func=cmd_check)

    oracle = sub.add_parser("oracle",
                            help="compare finite differences with family "
                                 "evaluations")
    oracle.add_argument("problem", help="problem JSON file")
    _add_sampling(oracle)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
