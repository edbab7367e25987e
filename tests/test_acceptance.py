"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from exhausters.conditions import (
    ConditionID,
    build_condition,
    evaluate_condition,
    inclusion_check,
    reduce_exhauster,
    region_arcs,
    region_membership,
    regularity_check,
)
from exhausters.deriv import (
    directional_derivative_tree,
    eval_minmax,
    expr_from_json,
    fd_directional_derivatives,
)
from exhausters.exhauster import (
    Exhauster,
    eval_exhauster,
    exhauster_from_tree,
    polytope_families_equal,
)
from exhausters.geometry import Polytope, arcset_subset

from helpers import (
    C1,
    C2,
    C3,
    C4,
    DUAL,
    circle_directions,
    constraint_expr,
    disc_atom,
    objective_expr,
    oracle_flags,
    problem_dict,
    random_expr,
    random_family,
    random_point,
    sign_region,
)

FIXTURE_DIR = "fixtures/reference-example"

MIN_IDS = [ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER,
           ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER]
ALL_CONSTRAINED = MIN_IDS + [
    ConditionID.MAX_LOWER_LOWER, ConditionID.MAX_LOWER_UPPER,
    ConditionID.MAX_UPPER_LOWER, ConditionID.MAX_UPPER_UPPER]


def reference_trees():
    problem = problem_dict()
    f_expr = expr_from_json(problem["objective"])
    u_expr = expr_from_json(problem["constraint"])
    point = tuple(float(c) for c in problem["point"])
    return (directional_derivative_tree(f_expr, point),
            directional_derivative_tree(u_expr, point))


def reference_families():
    f_tree, u_tree = reference_trees()
    families = {}
    for name, tree in (("f", f_tree), ("u", u_tree)):
        for kind in ("upper", "lower"):
            families[(name, kind)] = reduce_exhauster(
                exhauster_from_tree(tree, kind))
    return families


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_reference_families_reproduced():
    start = time.monotonic()
    families = reference_families()
    assert polytope_families_equal(families[("f", "upper")].sets, (C1, C2))
    assert polytope_families_equal(families[("f", "lower")].sets, (C3, C4))
    assert polytope_families_equal(families[("u", "upper")].sets, (C3, C4))
    assert polytope_families_equal(families[("u", "lower")].sets, (C1, C2))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"family construction took {elapsed:.3f}s"
    _report("1 family reproduction")


def test_criterion_2_minimum_conditions_hold_both_methods():
    start = time.monotonic()
    families = reference_families()
    expected = region_arcs(sign_region(DUAL, C3)).union(
        region_arcs(sign_region(DUAL, C4)))
    for cid in MIN_IDS:
        built = build_condition(cid, families[("f", cid.f_kind)],
                                families[("u", cid.u_kind)])
        for method in ("exact2d", "lp_enumeration"):
            forward = inclusion_check(built.lhs, built.rhs, method=method)
            backward = inclusion_check(built.rhs, built.lhs, method=method)
            assert forward.status == "holds", (cid, method)
            assert backward.status == "holds", (cid, method)
        # Mutual inclusion means both sides equal the two quarter cones
        # around the horizontal axis.
        for side in (built.lhs, built.rhs):
            arcs = region_arcs(side)
            assert arcset_subset(arcs, expected)[0]
            assert arcset_subset(expected, arcs)[0]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"condition checks took {elapsed:.3f}s"
    _report("2 minimum conditions two-way, both methods")


def test_criterion_3_regularity_exact():
    _, u_tree = reference_trees()
    verdict = regularity_check(exhauster_from_tree(u_tree, "upper"))
    assert verdict.status == "holds"
    assert verdict.method == "exact2d"
    _report("3 regularity holds exactly")


def test_criterion_4_negative_controls():
    families = reference_families()
    origin = evaluate_condition(ConditionID.UNC_MIN_UPPER, families[("f", "upper")])
    assert origin.status == "violated"

    built = build_condition(ConditionID.MAX_UPPER_UPPER,
                            families[("f", "upper")], families[("u", "upper")])
    verdict = inclusion_check(built.lhs, built.rhs, method="lp_enumeration")
    assert verdict.status == "violated"
    witness = verdict.witness
    assert abs(witness[1]) <= 1e-9, "witness must be collinear with the x axis"
    assert abs(witness[0]) > 0
    assert region_membership(built.lhs, witness, tol=1e-9)
    assert not region_membership(built.rhs, witness, tol=-1e-9)
    assert inclusion_check(built.lhs, built.rhs, method="exact2d").status == "violated"

    f_tree, u_tree = reference_trees()
    assert oracle_flags(f_tree, u_tree, "max", witness)
    norm = math.hypot(*witness)
    unit = (witness[0] / norm, witness[1] / norm)
    assert eval_minmax(u_tree, unit) <= 1e-9
    assert eval_minmax(f_tree, unit) >= 1.0 - 1e-9
    _report("4 negative controls with axis witness")


def test_criterion_5_finite_difference_agreement():
    directions = circle_directions(720)
    cases = [(objective_expr(), 1e-3), (constraint_expr(), 1e-3)]
    for expr, bound in cases:
        tree = directional_derivative_tree(expr, (0.0, 0.0))
        family = exhauster_from_tree(tree, "upper")
        worst = max(
            abs(fd_directional_derivatives(expr, (0.0, 0.0), [g])[0]
                - eval_exhauster(family, g))
            for g in directions)
        assert worst <= bound, f"deviation {worst:.2e} above {bound}"
    for signs in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        expr = disc_atom(*signs)
        tree = directional_derivative_tree(expr, (0.0, 0.0))
        family = exhauster_from_tree(tree, "upper")
        worst = max(
            abs(fd_directional_derivatives(expr, (0.0, 0.0), [g])[0]
                - eval_exhauster(family, g))
            for g in directions)
        assert worst <= 1e-6, f"smooth deviation {worst:.2e} above 1e-6"
    _report("5 finite-difference agreement (720 directions)")


def test_criterion_6_method_equivalence_on_random_instances():
    rng = random.Random(2024)
    agreements = 0
    violated = 0
    for trial in range(100):
        cid = ALL_CONSTRAINED[trial % len(ALL_CONSTRAINED)]
        ef = random_family(rng, cid.f_kind)
        eu = random_family(rng, cid.u_kind)
        built = build_condition(cid, ef, eu)
        exact = inclusion_check(built.lhs, built.rhs, method="exact2d")
        lp = inclusion_check(built.lhs, built.rhs, method="lp_enumeration")
        assert exact.status == lp.status, f"trial {trial} disagrees on {cid}"
        agreements += 1
        if exact.status == "violated":
            violated += 1
            for verdict in (exact, lp):
                assert region_membership(built.lhs, verdict.witness, tol=1e-9)
                assert not region_membership(built.rhs, verdict.witness, tol=-1e-9)
    assert agreements == 100
    assert violated > 0
    _report(f"6 method equivalence 100/100 ({violated} violated, all re-checked)")


def test_criterion_7_vacuous_condition_families():
    rng = random.Random(4100)
    checks = 0
    padded_families = []
    for _ in range(50):
        base = random_family(rng, "upper")
        padded_families.append(Exhauster("upper", 2, tuple(
            Polytope(2, c.vertices + ((0.0, 0.0),)) for c in base.sets)))
    constraint_families = {
        "lower": [random_family(rng, "lower") for _ in range(25)],
        "upper": [random_family(rng, "upper") for _ in range(25)],
    }
    for ef in padded_families:
        for cid in (ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER):
            for eu in constraint_families[cid.u_kind]:
                built = build_condition(cid, ef, eu)
                assert inclusion_check(built.lhs, built.rhs).status == "holds"
                checks += 1
    assert checks == 2500

    covering_families = []
    for _ in range(50):
        base = random_family(rng, "lower")
        covering = Exhauster("lower", 2, base.sets + (
            Polytope.from_vertices([(0.0, 0.0)]),))
        assert evaluate_condition(ConditionID.UNC_MIN_LOWER,
                                  covering).status == "holds"
        covering_families.append(covering)
    dual_checks = 0
    for ef in covering_families:
        for cid in (ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER):
            for eu in constraint_families[cid.u_kind]:
                built = build_condition(cid, ef, eu)
                assert inclusion_check(built.lhs, built.rhs).status == "holds"
                dual_checks += 1
    assert dual_checks == 2500
    _report("7 vacuous-family properties (2500 + 2500 checks)")


def test_criterion_8_representation_identities():
    rng = random.Random(8100)
    directions = circle_directions(360)
    for _ in range(20):
        expr = random_expr(rng, depth=4)
        for _ in range(5):
            x = random_point(rng)
            tree = directional_derivative_tree(expr, x)
            upper = exhauster_from_tree(tree, "upper")
            lower = exhauster_from_tree(tree, "lower")
            for g in directions:
                reference = eval_minmax(tree, g)
                up = eval_exhauster(upper, g)
                low = eval_exhauster(lower, g)
                assert up == pytest.approx(reference, abs=1e-9)
                assert low == pytest.approx(reference, abs=1e-9)
            for _ in range(10):
                lam = rng.uniform(0.01, 10.0)
                g = directions[rng.randrange(len(directions))]
                scaled = tuple(lam * c for c in g)
                assert eval_exhauster(upper, scaled) == pytest.approx(
                    lam * eval_exhauster(upper, g), rel=1e-9, abs=1e-9)
    _report("8 representation identities (20 trees, 5 points, 360 directions)")


def test_criterion_9_cli_end_to_end():
    base = [sys.executable, "-m", "exhausters.cli", "analyze",
            f"{FIXTURE_DIR}/problem.json"]
    run_min = subprocess.run(base + ["--sense", "min"],
                             capture_output=True, text=True)
    assert run_min.returncode == 0, run_min.stderr
    produced = json.loads(run_min.stdout)
    with open(f"{FIXTURE_DIR}/expected-report.json", "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    assert produced == expected, "report deviates from the committed fixture"

    run_max = subprocess.run(base + ["--sense", "max"],
                             capture_output=True, text=True)
    assert run_max.returncode == 1, run_max.stderr
    _report("9 CLI end-to-end against committed fixture")
