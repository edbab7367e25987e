"""Correctness gate: checks every output the benchmark times.

A ``violated`` verdict must carry a witness that re-substitutes into the
condition it refutes; reduced families must agree with the unreduced ones
and with the derivative tree; exact statuses must agree with the ones
recorded at the commit that defined the benchmark. Each check returns a
list of problems found, empty when the output is correct.
"""

from __future__ import annotations

from exhausters import (
    ConditionID,
    Exhauster,
    Leaf,
    build_condition,
    directional_derivative_tree,
    eval_exhauster,
    eval_minmax,
    exhauster_from_tree,
    expr_from_json,
    region_membership,
    sample_unit_directions,
)
from exhausters.conditions import ORACLE_MARGIN, ConstrainedCondition

TOL = 1e-9
DECIDED = ("holds", "violated")


def exit_code(conditions: list[str], oracle: list[str] = ()) -> int:
    """The CLI's documented exit code: 1 if a condition or the sampled
    cross-check is violated, else 3 if a condition is inconclusive."""
    if "violated" in conditions or "violated" in oracle:
        return 1
    if "inconclusive" in conditions:
        return 3
    return 0


def status_errors(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """A recorded decided status may neither flip nor become undecided;
    a recorded ``inconclusive`` may become anything."""
    errors = []
    for key, was in recorded.items():
        now = current.get(key)
        if was in DECIDED and now != was:
            errors.append(f"{key}: recorded {was}, now {now}")
    return errors


def _dot(v, w) -> float:
    return sum(a * b for a, b in zip(v, w))


def witness_errors(cid: str, witness, ef: Exhauster,
                   eu: Exhauster | None) -> list[str]:
    """Re-substitute a violated verdict's witness into its condition."""
    if witness is None:
        return [f"{cid}: violated without a witness"]
    built = build_condition(ConditionID(cid), ef, eu)
    if isinstance(built, ConstrainedCondition):
        if not region_membership(built.lhs, witness, TOL):
            return [f"{cid}: witness outside the constraint side"]
        if region_membership(built.rhs, witness, TOL):
            return [f"{cid}: witness inside the objective side"]
        return []
    if cid in ("UNC_MIN_UPPER", "UNC_MAX_LOWER"):
        # Separation: some set lies at unit margin on the positive side.
        if any(all(_dot(v, witness) >= 1.0 - TOL for v in s.vertices)
               for s in ef.sets):
            return []
        return [f"{cid}: witness separates no set from the origin"]
    # Covering: every set has a vertex at unit margin on the witness's side.
    sign = -1.0 if cid == "UNC_MIN_LOWER" else 1.0
    if all(any(sign * _dot(v, witness) >= 1.0 - TOL for v in s.vertices)
           for s in ef.sets):
        return []
    return [f"{cid}: witness leaves a direction covered"]


def oracle_errors(sense: str, witness, f_tree, u_tree) -> list[str]:
    hu = eval_minmax(u_tree, witness)
    hf = eval_minmax(f_tree, witness)
    wrong = hf < -ORACLE_MARGIN if sense == "min" else hf > ORACLE_MARGIN
    if hu <= TOL and wrong:
        return []
    return [f"ORACLE_{sense.upper()}: witness does not re-substitute"]


def regularity_errors(witness, u_tree) -> list[str]:
    if abs(eval_minmax(u_tree, witness)) <= TOL:
        return []
    return ["REGULARITY: witness is not a zero direction"]


def family_errors(report: dict, trees: dict, samples: int, seed: int) -> list[str]:
    """Reduced families agree with the unreduced ones and with the tree on
    the oracle's directions."""
    errors = []
    dim = report["problem"]["dim"]
    directions = sample_unit_directions(dim, samples, seed)
    for func, tree in trees.items():
        for kind in ("upper", "lower"):
            reduced = Exhauster.from_json(report["exhausters"][func][kind])
            full = exhauster_from_tree(tree, kind)
            for g in directions:
                ref = eval_minmax(tree, g)
                scale = TOL * (1.0 + abs(ref))
                if abs(eval_exhauster(full, g) - ref) > scale or \
                        abs(eval_exhauster(reduced, g) - ref) > scale:
                    errors.append(f"{func} {kind} family disagrees with the "
                                  f"tree at {g}")
                    break
    return errors


def exact_statuses(report: dict) -> dict[str, str]:
    """Statuses of the exact verdicts in an analyze report: every condition,
    and regularity where it was decided on the circle."""
    statuses = {cid: v["status"] for cid, v in report["conditions"].items()}
    regularity = report.get("regularity")
    if regularity and regularity["method"] == "exact2d":
        statuses["REGULARITY"] = regularity["status"]
    return statuses


def analysis_errors(report: dict, code: int, recorded: dict | None) -> list[str]:
    """Every check on one analyze report (as parsed JSON)."""
    problem = report["problem"]
    point = problem["point"]
    trees = {"f": directional_derivative_tree(expr_from_json(problem["objective"]), point)}
    if problem.get("constraint") is not None:
        trees["u"] = directional_derivative_tree(expr_from_json(problem["constraint"]), point)
    families = {(func, kind): Exhauster.from_json(report["exhausters"][func][kind])
                for func in trees for kind in ("upper", "lower")}
    errors = []
    for cid, verdict in report["conditions"].items():
        if verdict["status"] != "violated":
            continue
        parts = cid.split("_")
        if parts[0] == "UNC":
            ef, eu = families[("f", parts[2].lower())], None
        else:
            ef = families[("f", parts[1].lower())]
            eu = families[("u", parts[2].lower())]
        errors += witness_errors(cid, verdict["witness"], ef, eu)
    gate_tree = trees.get("u", Leaf((0.0,) * problem["dim"]))
    for sense, verdict in report["oracle"].items():
        if verdict["status"] == "violated":
            errors += oracle_errors(sense, verdict["witness"], trees["f"], gate_tree)
    regularity = report.get("regularity")
    if regularity and regularity["status"] == "violated":
        errors += regularity_errors(regularity["witness"], trees["u"])
    meta = report["metadata"]
    errors += family_errors(report, trees, meta["samples"], meta["seed"])
    if recorded is not None:
        errors += status_errors(recorded, exact_statuses(report))
    expected = exit_code([v["status"] for v in report["conditions"].values()],
                         [v["status"] for v in report["oracle"].values()])
    if code != expected:
        errors.append(f"exit code {code}, statuses imply {expected}")
    return errors
