"""Command line interface.

``analyze`` ingests a problem description, builds the derivative trees and
all derivable families at the point, and decides the requested optimality
conditions. ``check`` runs selected conditions against user-supplied
families. ``oracle`` compares finite-difference estimates with family
evaluations. Exit codes: 0 all requested conditions hold, 1 a condition is
violated, 2 input error, 3 a cap left a verdict inconclusive or stopped
the work, or the solver's witness failed verification. ``main`` alone
maps exceptions to the codes 2 and 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from .conditions import (
    DEFAULT_COMBINATION_CAP,
    ConditionID,
    RunMemo,
    Verdict,
    build_condition,
    evaluate_condition,
    necessary_condition_oracle,
    reduce_exhauster,
    regularity_check,
)
from .deriv import (
    FD_BLOCK,
    Expr,
    Leaf,
    MinMaxTree,
    _minmax_columns,
    directional_derivative_tree,
    eval_expr,
    expr_dim,
    expr_from_json,
    fd_directional_derivatives,
)
from .errors import CapExceededError, SolverError
from .exhauster import Exhauster, exhauster_from_tree, exhauster_tree
from .geometry import (TOL, Vector, as_int, as_vector, json_numbers,
                       sample_unit_directions)
from .report import AnalysisReport, render_report, render_svg

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class InputError(ValueError):
    """Bad file, JSON, or option combination; maps to exit code 2."""


def _load_json(path: str):
    """The JSON value in ``path``. The constants NaN, Infinity and -Infinity
    are not JSON, nor is a non-integer number beyond the float range once
    read as inf and echoed, so a report carrying one would not parse. A
    huge integer stays an int and echoes back as valid JSON."""
    def reject(name: str):
        raise InputError(f"{name} in {path} is not a JSON number")

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise InputError(f"{text} in {path} overflows the floats")
        return value

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=reject, parse_float=finite)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _parse_condition_ids(spec: str | None) -> list[ConditionID] | None:
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


def _parse_problem(problem) -> tuple[int, Vector, Expr, Expr | None]:
    """Dimension, point, objective and optional constraint of a problem
    object; every defect is an InputError."""
    if not isinstance(problem, dict):
        raise InputError("problem file must hold a JSON object")
    for key in ("dim", "objective", "point"):
        if key not in problem:
            raise InputError(f"problem is missing {key!r}")
    try:
        dim = as_int(problem["dim"])
        point = as_vector(json_numbers(problem["point"], "the point"))
        f_expr = expr_from_json(problem["objective"])
        u_expr = expr_from_json(problem["constraint"]) \
            if problem.get("constraint") is not None else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed problem: {exc}") from exc
    if len(point) != dim:
        raise InputError(f"point has length {len(point)}, expected {dim}")
    if expr_dim(f_expr) != dim:
        raise InputError("objective dimension disagrees with problem dimension")
    if u_expr is not None and expr_dim(u_expr) != dim:
        raise InputError("constraint dimension disagrees with problem dimension")
    return dim, point, f_expr, u_expr


def _at_point(label: str, expr: Expr, point: Vector
              ) -> tuple[float, MinMaxTree, dict[str, Exhauster]]:
    """Value, derivative tree and unreduced families by kind of ``expr`` at
    the point; a value, a gradient or a family vertex beyond the float
    range is an InputError. A vertex of a sum can overflow where none of
    the summands' gradients does."""
    try:
        value = eval_expr(expr, point)
        if math.isfinite(value):
            tree = directional_derivative_tree(expr, point)
            return value, tree, {kind: exhauster_from_tree(tree, kind)
                                 for kind in ("upper", "lower")}
        reason = f"value {value}"
    except (OverflowError, ValueError) as exc:
        reason = str(exc)
    raise InputError(f"{label} overflows the floats at the point: {reason}")


def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise InputError(f"{name} must be finite and nonnegative, got {value!r}")


def analyze_problem(problem: dict, *, sense: str | None = None,
                    condition_ids: list[ConditionID] | None = None,
                    tol: float = TOL, samples: int = 720, seed: int = 0,
                    max_combinations: int = DEFAULT_COMBINATION_CAP
                    ) -> tuple[AnalysisReport, int]:
    """Full pipeline on a parsed problem; returns the report and exit code.
    Every input error is raised before any family is built."""
    dim, point, f_expr, u_expr = _parse_problem(problem)
    if samples < 1:
        raise InputError("need a positive sample count")
    _check_tolerance("tol", tol)
    memo = RunMemo(max_combinations)
    sense = sense or problem.get("sense", "min")
    if sense not in ("min", "max", "both"):
        raise InputError(f"sense must be min, max or both, got {sense!r}")
    if condition_ids is None:
        condition_ids = [cid for s in _senses(sense) for cid in ConditionID
                         if cid.sense == s
                         and (cid.u_kind is None) == (u_expr is None)]
    for cid in condition_ids:
        if cid.u_kind is not None and u_expr is None:
            raise InputError(f"{cid.value} needs a constraint, none was given")

    f_value, f_tree, f_families = _at_point("objective", f_expr, point)
    values = {"f": f_value}
    built = {"f": f_families}
    u_tree = None
    if u_expr is not None:
        values["u"], u_tree, built["u"] = _at_point("constraint", u_expr, point)
    families = {}
    for func, kinds in built.items():
        try:
            families[func] = {kind: reduce_exhauster(family, memo=memo)
                              for kind, family in kinds.items()}
        except ValueError as exc:  # a difference of two finite vertices overflowed
            label = "objective" if func == "f" else "constraint"
            raise InputError(f"{label} overflows the floats in a vertex difference: {exc}") from exc

    verdicts = {cid.value: evaluate_condition(
        cid, families["f"][cid.f_kind],
        families["u"][cid.u_kind] if cid.u_kind is not None else None, memo=memo)
        for cid in condition_ids}

    regularity = None
    if u_tree is not None:
        regularity = regularity_check(families["u"]["upper"], memo=memo)
    gate_tree = u_tree if u_tree is not None else Leaf((0.0,) * dim)
    oracle = necessary_condition_oracle(
        f_tree, gate_tree, _senses(sense), samples, seed, tol=tol)

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

    report = AnalysisReport(
        problem=problem,
        conditions=verdicts,
        point=point,
        sense=sense,
        values=values,
        exhausters=families,
        regularity=regularity,
        oracle=oracle,
        warnings=tuple(warnings),
        metadata={
            "tol": tol,
            "samples": samples,
            "seed": seed,
            "max_combinations": max_combinations,
        },
    )
    return report, _exit_code(verdicts, oracle)


def cmd_analyze(args: argparse.Namespace) -> int:
    report, code = analyze_problem(
        _load_json(args.problem), sense=args.sense,
        condition_ids=_parse_condition_ids(args.conditions), tol=args.tol,
        samples=args.samples, seed=args.seed,
        max_combinations=args.max_combinations)
    # The figure comes first, so a figure that fails leaves no report.
    if args.svg:
        figure = render_svg([s for kinds in report.exhausters.values()
                             for family in kinds.values() for s in family.sets])
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(figure)
    sys.stdout.write(render_report(report, args.format).decode("utf-8"))
    return code


def _load_family(path: str) -> Exhauster:
    data = _load_json(path)
    try:
        return Exhauster.from_json(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed family in {path}: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    condition_ids = _parse_condition_ids(args.conditions)
    if not condition_ids:
        raise InputError("check needs --conditions")
    memo = RunMemo(args.max_combinations)
    for cid in condition_ids:
        if cid.u_kind is not None and not args.u_exhauster:
            raise InputError(f"{cid.value} needs --u-exhauster")
    if args.u_exhauster and all(cid.u_kind is None for cid in condition_ids):
        raise InputError("--u-exhauster given, but no requested condition "
                         "has a constraint")
    ef = _load_family(args.f_exhauster)
    eu = _load_family(args.u_exhauster) if args.u_exhauster else None
    # Kinds and dimensions too, so that no id is decided before a bad one.
    for cid in condition_ids:
        build_condition(cid, ef, eu)
    verdicts = {cid.value: evaluate_condition(cid, ef, eu, memo=memo)
                for cid in condition_ids}
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
    problem = _load_json(args.problem)
    if args.samples < 1:
        raise InputError("need a positive sample count")
    _check_tolerance("oracle-tol", args.oracle_tol)
    dim, point, f_expr, u_expr = _parse_problem(problem)
    parts = [("objective", f_expr)]
    if u_expr is not None:
        parts.append(("constraint", u_expr))
    built = [_at_point(label, expr, point)[2] for label, expr in parts]
    directions = sample_unit_directions(dim, args.samples, args.seed)
    code = EXIT_OK
    lines = []  # printed once every part is through, so a failure prints none
    for (label, expr), families in zip(parts, built):
        deviation, scale = _oracle_deviation(label, expr, families, point, directions)
        lines.append(f"{label}: max deviation {deviation:.3e} of the upper and "
                     f"lower families over {len(directions)} directions "
                     f"(tolerance {args.oracle_tol:g} x derivative scale "
                     f"{scale:.3g})")
        if deviation > args.oracle_tol * scale:
            code = EXIT_VIOLATED
    print("\n".join(lines))
    return code


def _oracle_deviation(label: str, expr: Expr, families: dict[str, Exhauster],
                      point: Vector, directions: list[Vector]) -> tuple[float, float]:
    """Largest deviation of ``expr``'s finite-difference estimates from its
    families over the directions, and the derivative scale it is judged
    against; an overflow at a difference step, or an estimate that is not
    finite, is an InputError. The directions are walked one ``FD_BLOCK`` at
    a time, so that only one block's estimates and family values are held,
    whatever --samples is. They are sampled in the expression's dimension,
    which is each family tree's, so no length is checked again."""
    trees = [exhauster_tree(family) for family in families.values()]
    deviation = scale = 0.0
    for start in range(0, len(directions), FD_BLOCK):
        block = directions[start:start + FD_BLOCK]
        try:
            estimates = fd_directional_derivatives(expr, point, block)
            reason = (None if all(map(math.isfinite, estimates))
                      else "in a finite-difference estimate: the estimate is not finite")
        except OverflowError as exc:
            reason = f"at a finite-difference step: {exc}"
        if reason is not None:
            raise InputError(f"{label} overflows the floats {reason}")
        for tree in trees:
            deviation = max(deviation, *(abs(estimate - value) for estimate, value
                                         in zip(estimates, _minmax_columns(tree, block))))
        scale = max(scale, *map(abs, estimates))
    # The difference quotient errs in proportion to the derivative.
    return deviation, max(1.0, scale)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-combinations", type=int, default=DEFAULT_COMBINATION_CAP,
                        help="vertex-selection enumeration cap")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format on stdout")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=720,
                        help="sampled directions of the oracle")
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
                         help="sign tolerance of the sampled cross-check "
                              "and the value warnings (default 1e-9)")
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
    oracle.add_argument("--oracle-tol", type=float, default=1e-3,
                        help="acceptable finite-difference deviation, relative "
                             "to max(1, largest |derivative|) over the sampled "
                             "directions")
    _add_sampling(oracle)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand. Its exceptions end here: a cap or a witness that
    fails verification gives exit 3, bad input exit 2 (a ValueError,
    InputError included, a file that cannot be read or written, or input
    nested past the recursion limit), each with one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
