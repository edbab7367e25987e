"""Relations that the theory forces between verdicts, checked on seeded
problems beyond the plane.

Each of the four constrained ids of a sense decides the same inclusion
{u' <= 0} in {f' >= 0} (or f' <= 0 for a maximum), phrased in different
families of the same two functions, so no two of them may reach opposite
decided statuses. And a minimum of f is a maximum of -f, whose upper
family is the negated lower family of f and whose lower family the
negated upper one, so each id of a minimum of f decides what the id of a
maximum of -f with the objective's kind swapped decides. And flipping
coordinates, x_i -> -x_i, flips the families' vertices and so keeps every
status; a witness of the flipped problem, flipped back, refutes the
original condition. So does permuting the coordinates, with every node's
children shuffled, and so does scaling the constraint by a positive
factor, which leaves the feasible set as it is. And a sampled oracle
violation never meets an exact ``holds`` of its sense. Without a
constraint, the two unconstrained ids of a sense decide the same
statement, f' >= 0 (or f' <= 0) in every direction, from the two
families of f.
"""

import random
from collections import Counter
from pathlib import Path

from exhausters.cli import analyze_problem
from exhausters.conditions import (
    ConditionID,
    RunMemo,
    build_condition,
    evaluate_condition,
    reduce_exhauster,
    region_membership,
)
from exhausters.deriv import directional_derivative_tree, eval_minmax, expr_from_json
from exhausters.exhauster import exhauster_from_tree

from helpers import kinked_function

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_constrained_ids_of_a_sense_agree():
    rng = random.Random(61)
    decided = {"holds": 0, "violated": 0}
    for trial in range(150):
        dim = 3 + trial % 3
        problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                   "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
        # Each id is decided by its own search on its own memo, so that no
        # id can take its verdict from a sibling's.
        families = {}
        for func, key in (("F", "objective"), ("U", "constraint")):
            tree = directional_derivative_tree(expr_from_json(problem[key]), problem["point"])
            for kind in ("UPPER", "LOWER"):
                families[func, kind] = reduce_exhauster(exhauster_from_tree(tree, kind.lower()))
        for sense in ("MIN", "MAX"):
            statuses = {evaluate_condition(f"{sense}_{f}_{u}", families["F", f],
                                           families["U", u], memo=RunMemo()).status
                        for f in ("UPPER", "LOWER") for u in ("UPPER", "LOWER")}
            statuses.discard("inconclusive")
            assert len(statuses) <= 1, (trial, sense, statuses)
            for status in statuses:
                decided[status] += 1
    assert decided["holds"] >= 20 and decided["violated"] >= 100


def test_unconstrained_ids_of_a_sense_agree(monkeypatch):
    # The closed templates put the origin in the hull of every node's
    # gradients, so both statuses occur; only the objective is read.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    decided = Counter()
    for dim in (2, 3, 4, 5):
        for seed in range(10):
            for template in ("M3c+M2c", "m3c+m2c", "?2+?2"):
                problem = gen.kinked(dim, (template, template), seed)
                tree = directional_derivative_tree(expr_from_json(problem["objective"]),
                                                   problem["point"])
                families = {kind: reduce_exhauster(exhauster_from_tree(tree, kind.lower()))
                            for kind in ("UPPER", "LOWER")}
                for sense in ("MIN", "MAX"):
                    # Each id on its own memo, as in the constrained relation.
                    upper, lower = (evaluate_condition(f"UNC_{sense}_{kind}", families[kind],
                                                       memo=RunMemo()).status
                                    for kind in ("UPPER", "LOWER"))
                    assert upper == lower, (dim, seed, template, sense)
                    decided[upper] += 1
    assert decided == {"holds": 82, "violated": 158}


def _dual(cid):
    """The id of the other sense with the objective's family kind swapped:
    ``MIN_UPPER_LOWER`` -> ``MAX_LOWER_LOWER``, ``UNC_MAX_LOWER`` ->
    ``UNC_MIN_UPPER``."""
    parts = cid.split("_")
    at = 1 if parts[0] == "UNC" else 0
    parts[at] = "MAX" if parts[at] == "MIN" else "MIN"
    parts[at + 1] = "LOWER" if parts[at + 1] == "UPPER" else "UPPER"
    return "_".join(parts)


def test_minimum_of_f_is_maximum_of_minus_f():
    rng = random.Random(67)
    decided = Counter()
    for trial in range(100):
        dim = 2 + trial % 4
        f = kinked_function(rng, dim, (3, 2))
        u = kinked_function(rng, dim, (2, 3))
        for constraint in (u, None):
            plain, negated = (
                {cid: verdict.status for cid, verdict in analyze_problem(
                    {"dim": dim, "objective": objective, "constraint": constraint,
                     "point": [0] * dim}, sense="both", samples=16)[0].conditions.items()}
                for objective in (f, {"op": "scale", "coef": -1, "arg": f}))
            assert len(plain) == (8 if constraint else 4)
            assert {_dual(cid): status for cid, status in plain.items()} == negated, trial
            decided.update(plain.values())
    assert decided["inconclusive"] == 0
    assert decided["holds"] >= 200 and decided["violated"] >= 800


def _flipped(expr, flips):
    """``expr`` with x_i -> -x_i for each i in ``flips``: a term changes
    sign once per flipped coordinate whose exponent is odd."""
    if "atom" in expr:
        return {"atom": {"terms": [
            {"c": -term["c"] if sum(term["e"][i] for i in flips) % 2 else term["c"],
             "e": term["e"]} for term in expr["atom"]["terms"]]}}
    return {"op": expr["op"], "args": [_flipped(arg, flips) for arg in expr["args"]]}


def test_coordinate_flips_keep_every_status():
    rng = random.Random(71)
    decided, regular = Counter(), Counter()
    for trial in range(60):
        dim = 3 + trial % 3
        flips = sorted(rng.sample(range(dim), rng.randint(1, dim)))
        problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                   "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
        flipped = dict(problem, objective=_flipped(problem["objective"], flips),
                       constraint=_flipped(problem["constraint"], flips))
        plain, mirrored = (analyze_problem(p, sense="both", samples=16)[0]
                           for p in (problem, flipped))
        assert {cid: v.status for cid, v in mirrored.conditions.items()} == \
            {cid: v.status for cid, v in plain.conditions.items()}, (trial, flips)
        assert mirrored.regularity.status == plain.regularity.status, (trial, flips)
        decided.update(v.status for v in plain.conditions.values())
        regular[plain.regularity.status] += 1

        def back(witness):
            return tuple(-c if i in flips else c for i, c in enumerate(witness))

        families = plain.exhausters
        for cid, verdict in mirrored.conditions.items():
            if verdict.status == "violated":
                cid = ConditionID(cid)
                built = build_condition(cid, families["f"][cid.f_kind],
                                        families["u"][cid.u_kind])
                witness = back(verdict.witness)
                assert region_membership(built.lhs, witness, tol=1e-9), (trial, cid)
                assert not region_membership(built.rhs, witness, tol=-1e-9), (trial, cid)
        if mirrored.regularity.status == "violated":
            u_tree = directional_derivative_tree(expr_from_json(problem["constraint"]),
                                                 problem["point"])
            assert abs(eval_minmax(u_tree, back(mirrored.regularity.witness))) <= 1e-9
    assert decided["inconclusive"] == 0
    assert decided["holds"] >= 50 and decided["violated"] >= 300
    assert regular["holds"] and regular["violated"]


def _permuted(expr, perm, rng):
    """``expr`` with x_i -> x_perm[i] and every node's children shuffled by
    ``rng``: a term's exponent of x_i becomes its exponent of x_perm[i]."""
    if "atom" in expr:
        terms = []
        for term in expr["atom"]["terms"]:
            e = [0] * len(perm)
            for i, power in enumerate(term["e"]):
                e[perm[i]] = power
            terms.append({"c": term["c"], "e": e})
        return {"atom": {"terms": terms}}
    args = [_permuted(arg, perm, rng) for arg in expr["args"]]
    rng.shuffle(args)
    return {"op": expr["op"], "args": args}


def _statuses(problem):
    report = analyze_problem(problem, sense="both", samples=16)[0]
    return ({cid: v.status for cid, v in report.conditions.items()},
            report.regularity.status)


def _keeps_every_status(seed, rewrite):
    """``rewrite(rng, problem)`` of 60 seeded 3-5-D kinked problems keeps
    every condition status and the regularity status of ``analyze --sense
    both``; the statuses met must include both decided ones."""
    rng = random.Random(seed)
    decided, regular = Counter(), Counter()
    for trial in range(60):
        dim = 3 + trial % 3
        problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                   "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
        plain = _statuses(problem)
        assert _statuses(rewrite(rng, problem)) == plain, trial
        decided.update(plain[0].values())
        regular[plain[1]] += 1
    assert decided["inconclusive"] == 0
    assert decided["holds"] >= 50 and decided["violated"] >= 300
    assert regular["holds"] and regular["violated"]


def test_coordinate_permutations_keep_every_status():
    def permute(rng, problem):
        perm = list(range(problem["dim"]))
        rng.shuffle(perm)
        return dict(problem, objective=_permuted(problem["objective"], perm, rng),
                    constraint=_permuted(problem["constraint"], perm, rng))

    _keeps_every_status(73, permute)


def test_scaled_constraint_keeps_every_status():
    # 3.5 u has the sign of u at every point, so the feasible set is the same.
    def scale(rng, problem):
        return dict(problem, constraint={"op": "scale", "coef": 3.5,
                                         "arg": problem["constraint"]})

    _keeps_every_status(79, scale)


def test_no_oracle_violation_meets_an_exact_holds():
    # A sampled violation is an admissible direction where f' has the wrong
    # sign beyond the oracle's margin, so no constrained id of its sense,
    # decided exactly, may hold. In the plane the oracle skips blocks by
    # their bounds; above it, it scans every block up to its witnesses.
    rng = random.Random(83)
    met = Counter()
    for trial in range(80):
        dim = 2 + trial % 4
        problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                   "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
        report = analyze_problem(problem, sense="both")[0]
        for sense, oracle in report.oracle.items():
            holds = any(verdict.status == "holds" for cid, verdict in report.conditions.items()
                        if ConditionID(cid).sense == sense)
            assert not (oracle.status == "violated" and holds), (trial, sense)
            met[oracle.status, holds, dim == 2] += 1
    # (status, an id holds, in the plane): both outcomes, in and above it.
    assert met["violated", False, True] >= 20 and met["violated", False, False] >= 60
    assert met["inconclusive", True, True] >= 10 and met["inconclusive", True, False] >= 15
