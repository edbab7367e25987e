import math
import random
from itertools import product

import pytest

import exhausters.conditions as conditions_module
from exhausters.conditions import (
    _choice_points,
    _lp_inclusion,
    ConditionID,
    RunMemo,
    SignRegion,
    build_condition,
    evaluate_condition,
    inclusion_check,
    necessary_condition_oracle,
    region_arcs,
    reduce_exhauster,
    region_membership,
    regularity_check,
)
from exhausters.deriv import (Leaf, Max, Min, Sum, directional_derivative_tree, eval_minmax,
                              expr_from_json, scale_tree)
from exhausters.errors import ExhausterKindError
from exhausters.exhauster import Exhauster, exhauster_from_tree
from exhausters.geometry import (
    ArcSet,
    LinearConstraint,
    Polytope,
    arcset_subset,
    contains_origin,
    linear_feasibility,
    sample_unit_directions,
)

from helpers import (
    C1,
    C2,
    C3,
    C4,
    DUAL,
    F_LOWER,
    F_UPPER,
    U_LOWER,
    NEG_DUAL,
    NOT_DUAL,
    SIGN_KINDS,
    U_UPPER,
    abs_sum_problem,
    both_methods,
    brute_force_direction,
    constraint_tree,
    objective_tree,
    oracle_flags,
    oracle_reference,
    random_family,
    random_minmax_tree,
    random_polytope,
    sign_region,
)

ALL_CONSTRAINED = [
    ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER,
    ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER,
    ConditionID.MAX_LOWER_LOWER, ConditionID.MAX_LOWER_UPPER,
    ConditionID.MAX_UPPER_LOWER, ConditionID.MAX_UPPER_UPPER,
]

FAMILIES = {
    ("f", "upper"): F_UPPER,
    ("f", "lower"): F_LOWER,
    ("u", "upper"): U_UPPER,
    ("u", "lower"): U_LOWER,
}


def families_for(cid):
    return FAMILIES[("f", cid.f_kind)], FAMILIES[("u", cid.u_kind)]


class TestAtomMembership:
    """One set on its own: the four regions it spans."""

    def test_complement_predicate(self):
        assert region_membership(sign_region(NOT_DUAL, C1), (1, 0))

    def test_dual_cone(self):
        assert region_membership(sign_region(DUAL, C3), (1, 0))

    def test_negative_dual(self):
        assert not region_membership(sign_region(NEG_DUAL, C3), (1, 0))

    def test_strict_margin_mode(self):
        region = sign_region(NOT_DUAL, C3)
        # (1, 1) sits on the predicate boundary: the lenient test accepts
        # it, the strict-margin test rejects it.
        assert region_membership(region, (1, 1), tol=1e-9)
        assert not region_membership(region, (1, 1), tol=-1e-6)

    def test_options_match_membership(self):
        # A region's choice points spell it out: some system (one option
        # per choice point) holds at g exactly when g lies in the region,
        # and a direction meeting a negation system lies outside it. Odd
        # trials use a second set. Integer vertices and half-integer
        # directions put many products exactly on 0 and 1, the thresholds
        # of plain and strict rows.
        def meets(points, g):
            return any(all(c.satisfied_by(g) for option in system for c in option)
                       for system in product(*points))

        rng = random.Random(52)
        seen = set()
        for trial in range(600):
            dim = 2 + trial % 3
            sets = [Polytope.from_vertices([
                tuple(float(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]) for _ in range(1 + trial % 2)]
            g = tuple(rng.randint(-4, 4) / 2.0 for _ in range(dim))
            for kind_sign in SIGN_KINDS:
                region = sign_region(kind_sign, *sets)
                member = region_membership(region, g)
                assert member == meets(_choice_points(region, False), g)
                negated = meets(_choice_points(region, True), g)
                assert not (member and negated)
                seen.add((kind_sign, len(sets), member, negated))
        assert seen == {(kind_sign, count, member, negated)
                        for kind_sign in SIGN_KINDS for count in (1, 2)
                        for member, negated in ((True, False), (False, True),
                                                (False, False))}


class TestBuildCondition:
    def test_ids_name_their_parts(self):
        assert (ConditionID.MAX_LOWER_UPPER.sense, ConditionID.MAX_LOWER_UPPER.f_kind,
                ConditionID.MAX_LOWER_UPPER.u_kind) == ("max", "lower", "upper")
        assert (ConditionID.UNC_MIN_LOWER.sense, ConditionID.UNC_MIN_LOWER.f_kind,
                ConditionID.UNC_MIN_LOWER.u_kind) == ("min", "lower", None)
        for cid in ConditionID:
            parts = [cid.sense, cid.f_kind] + ([cid.u_kind] if cid.u_kind else [])
            prefix = "UNC_" if cid.u_kind is None else ""
            assert prefix + "_".join(parts).upper() == cid.value

    def test_adjoint_pairing_sides(self):
        built = build_condition(ConditionID.MIN_LOWER_UPPER, F_LOWER, U_UPPER)
        # Every vertex of some set: the sets unite.
        assert built.lhs == SignRegion(U_UPPER, -1.0) and built.lhs.every
        assert built.rhs == SignRegion(F_LOWER, 1.0) and built.rhs.every

    def test_proper_pairing_sides(self):
        built = build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_LOWER)
        # Some vertex of every set: the sets intersect.
        assert built.lhs == SignRegion(U_LOWER, -1.0) and not built.lhs.every
        assert built.rhs == SignRegion(F_UPPER, 1.0) and not built.rhs.every

    def test_every_id_keeps_its_vertex_sign_predicate(self):
        # (every, sign) of each side: sign * <v, g> >= 0 at every vertex of
        # some set, or at some vertex of every set. Constraint sides depend
        # on u's kind only; objective sides on the sense and f's kind.
        lhs = {"lower": (False, -1.0), "upper": (True, -1.0)}
        rhs = {("min", "upper"): (False, 1.0), ("min", "lower"): (True, 1.0),
               ("max", "lower"): (False, -1.0), ("max", "upper"): (True, -1.0)}
        for cid in ConditionID:
            ef = FAMILIES[("f", cid.f_kind)]
            built = build_condition(cid, ef, FAMILIES.get(("u", cid.u_kind)))
            side = built if cid.u_kind is None else built.rhs
            assert (side.every, side.sign) == (
                (False, -1.0) if cid is ConditionID.UNC_MIN_UPPER
                else rhs[cid.sense, cid.f_kind])
            assert side.family.sets == ef.sets
            if cid.u_kind is not None:
                assert (built.lhs.every, built.lhs.sign) == lhs[cid.u_kind]

    def test_unconstrained_descriptor(self):
        # An unconstrained id is its objective side alone.
        built = build_condition(ConditionID.UNC_MIN_UPPER, F_UPPER)
        # The origin form: some <v, g> <= 0 in every set.
        assert built == SignRegion(Exhauster("lower", 2, F_UPPER.sets), -1.0)
        assert not built.every
        covering = build_condition(ConditionID.UNC_MIN_LOWER, F_LOWER)
        assert covering == SignRegion(F_LOWER, 1.0) and covering.every

    def test_sign_must_be_unit(self):
        for sign in (0.0, 2.0, 0.5):
            with pytest.raises(ValueError):
                SignRegion(F_UPPER, sign)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ExhausterKindError):
            build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_UPPER)
        with pytest.raises(ExhausterKindError):
            build_condition(ConditionID.UNC_MIN_UPPER, F_LOWER)
        with pytest.raises(ExhausterKindError):
            build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, None)


class TestInclusionOnReference:
    def test_min_proper_condition_holds_and_sides_coincide(self):
        built = build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_LOWER)
        for verdict in both_methods(built.lhs, built.rhs).values():
            assert verdict.status == "holds"
        for verdict in both_methods(built.rhs, built.lhs).values():
            assert verdict.status == "holds"
        # Both sides trace the two quarter cones around the x axis.
        expected = region_arcs(sign_region(DUAL, C3)).union(
            region_arcs(sign_region(DUAL, C4)))
        for side in (built.lhs, built.rhs):
            arcs = region_arcs(side)
            assert arcset_subset(arcs, expected)[0]
            assert arcset_subset(expected, arcs)[0]

    def test_max_adjoint_condition_violated_along_x_axis(self):
        built = build_condition(ConditionID.MAX_UPPER_UPPER, F_UPPER, U_UPPER)
        for verdict in both_methods(built.lhs, built.rhs).values():
            assert verdict.status == "violated"
            w = verdict.witness
            assert abs(w[1]) <= 1e-9 and abs(w[0]) > 0
            assert region_membership(built.lhs, w, tol=1e-9)
            assert not region_membership(built.rhs, w, tol=-1e-9)

    def test_reflexive_inclusion(self):
        region = sign_region(DUAL, C3, C4)
        for verdict in both_methods(region, region).values():
            assert verdict.status == "holds"

    def test_combination_cap_inconclusive(self):
        built = build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_LOWER)
        verdict = _lp_inclusion(built.lhs, built.rhs, RunMemo(1))
        assert verdict.status == "inconclusive"
        assert "cap" in verdict.certificate

    def test_degeneracy_note_for_origin_set(self):
        with_origin = Polytope.from_vertices([(0, 0), (1, 1), (-1, 1)])
        region = sign_region(NOT_DUAL, with_origin)
        verdict = inclusion_check(region, region)
        assert "degenerate" in verdict.certificate


class TestUnconstrained:
    def test_origin_check_violated_with_separating_direction(self):
        verdict = evaluate_condition(ConditionID.UNC_MIN_UPPER, F_UPPER)
        assert verdict.status == "violated"
        # The witness strictly separates the offending set from the origin.
        assert all(sum(a * b for a, b in zip(v, verdict.witness)) >= 1.0 - 1e-9
                   for v in C1.vertices)

    def test_origin_check_holds(self):
        family = Exhauster("upper", 2, (Polytope.from_vertices([(1, 1), (-1, -1)]),))
        assert evaluate_condition(ConditionID.UNC_MIN_UPPER, family).status == "holds"

    def test_covering_check_violated(self):
        verdict = evaluate_condition(ConditionID.UNC_MIN_LOWER, F_LOWER)
        assert verdict.status == "violated"
        w = verdict.witness
        for c in F_LOWER.sets:
            assert min(sum(a * b for a, b in zip(v, w)) for v in c.vertices) <= -1 + 1e-9

    def test_covering_check_holds(self):
        family = Exhauster("lower", 2, (
            C3, C4, Polytope.from_vertices([(0, 1)]),
            Polytope.from_vertices([(0, -1)])))
        # Four cones: right, left, up, down; every direction is in one.
        assert evaluate_condition(ConditionID.UNC_MIN_LOWER, family).status == "holds"

    def test_negated_covering_for_maximum(self):
        family = Exhauster("upper", 2, (C3, C4))
        verdict = evaluate_condition(ConditionID.UNC_MAX_UPPER, family)
        assert verdict.status == "violated"
        w = verdict.witness
        for c in family.sets:
            assert max(sum(a * b for a, b in zip(v, w)) for v in c.vertices) >= 1 - 1e-9

    def test_kind_mismatch(self):
        with pytest.raises(ExhausterKindError):
            evaluate_condition(ConditionID.UNC_MIN_LOWER, F_UPPER)


def _upper(tree):
    return exhauster_from_tree(tree, "upper")


class TestRegularity:
    def test_reference_constraint_holds(self):
        verdict = regularity_check(_upper(constraint_tree()))
        assert verdict.status == "holds"
        assert verdict.method == "exact2d"

    def test_identically_zero_violated(self):
        verdict = regularity_check(_upper(Leaf((0.0, 0.0))))
        assert verdict.status == "violated"
        assert verdict.method == "exact2d"

    def test_absolute_value_violated(self):
        tree = Max((Leaf((1.0, 0.0)), Leaf((-1.0, 0.0))))
        verdict = regularity_check(_upper(tree))
        assert verdict.status == "violated"
        assert abs(verdict.witness[0]) <= 1e-9  # zero directions are the y axis

    def test_zero_sector_violated(self):
        tree = Min((Leaf((0.0, 0.0)), Leaf((1.0, 0.0))))
        # min(0, g1) vanishes on the whole right half circle
        verdict = regularity_check(_upper(tree))
        assert verdict.status == "violated"
        assert eval_minmax(tree, verdict.witness) == pytest.approx(0.0, abs=1e-9)

    def test_smooth_leaf_holds(self):
        verdict = regularity_check(_upper(Leaf((1.0, -2.0))))
        assert verdict.status == "holds"
        assert verdict.method == "exact2d"

    def test_dimension_three(self):
        verdict = regularity_check(_upper(Leaf((1.0, 0.0, 0.0))))
        assert verdict.method == "lp_enumeration"
        assert verdict.status == "holds"
        cone = Max((Leaf((1.0, 0.0, 0.0)), Leaf((-1.0, 0.0, 0.0))))
        verdict = regularity_check(_upper(cone))
        assert verdict.method == "lp_enumeration"
        assert verdict.status == "violated"
        assert abs(verdict.witness[0]) <= 1e-9
        assert math.hypot(*verdict.witness) == pytest.approx(1.0)

    def test_convex_with_a_negative_direction_holds(self):
        # (1, 0, 0, 0) is a zero direction whose strictly negative
        # neighbours fill only a thin wedge; a local search around it
        # found none and reported a false violation.
        forms = [(-1.0, -0.97, 0.28, 0.0), (0.0, 0.0, -0.52, -1.0),
                 (0.0, 0.5, 0.0, 2.3), (0.0, -2.84, 0.0, 1.0)]
        tree = Max(tuple(Leaf(f) for f in forms))
        assert eval_minmax(tree, (1.0, 0.0, 0.0, 0.0)) == 0.0
        descent = [LinearConstraint(tuple(-c for c in f), strict=True) for f in forms]
        assert linear_feasibility(descent, 4).feasible
        verdict = regularity_check(_upper(tree))
        assert verdict.status == "holds"
        assert verdict.method == "lp_enumeration"

    def test_needs_an_upper_family(self):
        with pytest.raises(ExhausterKindError):
            regularity_check(exhauster_from_tree(Leaf((1.0, 0.0)), "lower"))

    def test_verdicts_agree_with_the_tree(self):
        # Violated: a unit zero direction outside the closure of every
        # nonempty strict-descent cone. Holds: every sampled zero direction
        # lies in such a closure.
        rng = random.Random(23)
        seen = set()
        zeros = 0
        for trial in range(150):
            dim = 2 + trial % 3
            tree = random_minmax_tree(rng, dim)
            family = _upper(tree)
            verdict = regularity_check(family)
            seen.add(verdict.status)
            opened = [c for c in family.sets if not contains_origin(c)]
            if verdict.status == "violated":
                w = verdict.witness
                assert math.hypot(*w) == pytest.approx(1.0)
                assert abs(eval_minmax(tree, w)) <= 1e-9
                for c in opened:
                    assert max(sum(a * b for a, b in zip(v, w))
                               for v in c.vertices) > 0
            elif verdict.status == "holds":
                axes = [tuple(s if j == i else 0.0 for j in range(dim))
                        for i in range(dim) for s in (1.0, -1.0)]
                for g in axes + sample_unit_directions(dim, 200, trial):
                    if abs(eval_minmax(tree, g)) <= 1e-9:
                        zeros += 1
                        assert any(
                            max(sum(a * b for a, b in zip(v, g))
                                for v in c.vertices) <= 1e-9
                            for c in opened)
        assert {"holds", "violated"} <= seen
        assert zeros > 0


ALL_IDS = list(ConditionID)


def _run(cids, families, memo_for):
    """The JSON verdicts of ``cids`` and of regularity, by id whatever order
    they ran in; ``memo_for()`` gives each call its memo."""
    out = {cid: evaluate_condition(
        cid, families[cid.f_kind],
        families["u_" + cid.u_kind] if cid.u_kind is not None else None,
        memo=memo_for()).to_json() for cid in cids}
    out["REGULARITY"] = regularity_check(families["u_upper"], memo=memo_for()).to_json()
    return out


def _families(f_tree, u_tree):
    families = {kind: exhauster_from_tree(f_tree, kind) for kind in ("upper", "lower")}
    families.update({"u_" + kind: exhauster_from_tree(u_tree, kind)
                     for kind in ("upper", "lower")})
    return families


class TestRunMemo:
    """One memo per run: each side is traced, each set tested for the
    origin and each system solved once, and verdicts are those of checks
    that share nothing."""

    REFERENCE = {"upper": F_UPPER, "lower": F_LOWER, "u_upper": U_UPPER, "u_lower": U_LOWER}

    @staticmethod
    def _orders(families):
        shared = RunMemo()
        forward = _run(ALL_IDS, families, lambda: shared)
        shared = RunMemo()
        backward = _run(ALL_IDS[::-1], families, lambda: shared)
        alone = _run(ALL_IDS, families, RunMemo)
        bare = _run(ALL_IDS, families, lambda: None)
        return forward, backward, alone, bare

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_value_error(self, cap):
        with pytest.raises(ValueError, match=f"^max-combinations must be positive, got {cap}$"):
            RunMemo(cap)

    def test_shared_cap_reaches_every_search(self):
        # Above the plane every id and regularity search by lp_enumeration,
        # each over more than one system, so a cap of 1 stops them all.
        problem = abs_sum_problem("aan", "aaa")
        trees = [directional_derivative_tree(expr_from_json(problem[key]), problem["point"])
                 for key in ("objective", "constraint")]
        memo = RunMemo(1)
        verdicts = _run(ALL_IDS, _families(*trees), lambda: memo)
        assert len(verdicts) == len(ALL_IDS) + 1
        for verdict in verdicts.values():
            assert verdict["status"] == "inconclusive"
            assert verdict["method"] == "lp_enumeration"
            assert "above the cap of 1" in verdict["certificate"]
        assert not memo.solved

    def test_sharing_and_order_leave_verdicts_unchanged(self):
        forward, backward, alone, bare = self._orders(self.REFERENCE)
        assert forward == backward == alone == bare

    def test_random_families_with_signed_zeros(self):
        # Value keys treat 0.0 and -0.0 alike; the random trees draw both,
        # and families of objective and constraint often share sets.
        rng = random.Random(47)
        shared_sets = 0
        for trial in range(40):
            dim = 2 + trial % 2
            families = _families(random_minmax_tree(rng, dim), random_minmax_tree(rng, dim))
            forward, backward, alone, bare = self._orders(families)
            assert forward == backward == alone == bare
            sets = [c for family in families.values() for c in family.sets]
            shared_sets += len(set(sets)) < len(sets)
        assert shared_sets > 0

    def test_each_set_and_side_computed_once(self, monkeypatch):
        import exhausters.conditions as module

        calls = {"contains_origin": [], "region_arcs": []}
        for name, seen in calls.items():
            def counted(arg, fn=getattr(module, name), seen=seen):
                seen.append(arg)
                return fn(arg)
            monkeypatch.setattr(module, name, counted)
        memo = RunMemo()
        _run(ALL_IDS, self.REFERENCE, lambda: memo)
        for seen in calls.values():
            assert len(seen) == len(set(seen))
        assert len(calls["contains_origin"]) == len({C1, C2, C3, C4})
        # A call without a memo repeats the work, whatever ran before it.
        counts = {name: len(seen) for name, seen in calls.items()}
        _run(ALL_IDS, self.REFERENCE, lambda: None)
        for name, seen in calls.items():
            assert len(seen) - counts[name] > counts[name]

    def test_each_system_solved_once(self, monkeypatch):
        # The searches of the twelve ids and of regularity ask the solver
        # once per distinct (dim, rows) key when they share a memo; without
        # one they ask again for the same systems.
        import exhausters.exhauster as module

        solved = []

        def counted(rows, dim, fn=module.linear_feasibility):
            solved.append((dim, tuple(rows)))
            return fn(rows, dim)

        monkeypatch.setattr(module, "linear_feasibility", counted)
        rng = random.Random(53)
        repeated = 0
        for trial in range(12):
            families = _families(random_minmax_tree(rng, 3), random_minmax_tree(rng, 3))
            memo = RunMemo()
            solved.clear()
            _run(ALL_IDS, families, lambda: memo)
            shared = list(solved)
            assert len(shared) == len(set(shared)) == len(memo.solved)
            solved.clear()
            _run(ALL_IDS, families, lambda: None)
            assert set(solved) == set(shared)
            repeated += len(solved) - len(shared)
        assert repeated > 0

    def test_zero_signs_of_normals_leave_the_solver_unchanged(self):
        # The store's keys compare rows by value, where -0.0 == 0.0, so a
        # hit must give the bits a solve with the other zero signs gives.
        rng = random.Random(59)
        outcomes = set()
        for _ in range(400):
            dim = rng.randint(2, 4)
            rows = [LinearConstraint(tuple(rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0,
                                                       rng.uniform(-2, 2)])
                                           for _ in range(dim)), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 6))]
            flipped = [LinearConstraint(tuple(-x if x == 0.0 else x for x in c.normal),
                                        c.strict) for c in rows]
            result = linear_feasibility(rows, dim)
            assert repr(linear_feasibility(flipped, dim)) == repr(result)
            outcomes.add(result.feasible)
        assert outcomes == {True, False}


class TestOracle:
    def test_reference_minimum_clean(self):
        verdict = necessary_condition_oracle(objective_tree(), constraint_tree(), ("min",))["min"]
        assert verdict.status == "inconclusive"

    def test_reference_maximum_flagged(self):
        verdict = necessary_condition_oracle(objective_tree(), constraint_tree(), ("max",))["max"]
        assert verdict.status == "violated"
        w = verdict.witness
        assert eval_minmax(constraint_tree(), w) <= 1e-9
        assert eval_minmax(objective_tree(), w) > 1e-6

    def test_smooth_identical_trees_flagged_for_min(self):
        leaf = Leaf((1.0, 0.0))
        verdict = necessary_condition_oracle(leaf, leaf, ("min",))["min"]
        assert verdict.status == "violated"
        w = verdict.witness
        assert eval_minmax(leaf, w) <= 1e-9
        assert eval_minmax(leaf, w) < -1e-6

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            necessary_condition_oracle(objective_tree(), constraint_tree(),
                                       ("min",), samples=0)

    def test_sense_validation(self):
        with pytest.raises(ValueError):
            necessary_condition_oracle(objective_tree(), constraint_tree(), "min")

    def test_matches_per_direction_scan(self):
        # One scan for both senses gives each the verdict of its own scan.
        rng = random.Random(91)
        violated = {"min": 0, "max": 0}
        for trial in range(60):
            dim = 2 + trial % 3
            f_tree = random_minmax_tree(rng, dim)
            u_tree = random_minmax_tree(rng, dim)
            seed = rng.randrange(5)
            verdicts = necessary_condition_oracle(f_tree, u_tree, ("min", "max"), 200, seed)
            assert list(verdicts) == ["min", "max"]
            for sense, verdict in verdicts.items():
                assert verdict == oracle_reference(f_tree, u_tree, sense, 200, seed)
                violated[sense] += verdict.status == "violated"
        assert all(10 < count < 60 for count in violated.values())

    def test_first_violation_past_the_first_block(self):
        # Admissible on the upper half circle; f' < 0 only past 90 degrees.
        f_tree, u_tree = Leaf((1.0, 0.0)), Leaf((0.0, -1.0))
        verdict = necessary_condition_oracle(f_tree, u_tree, ("min",))["min"]
        assert verdict == oracle_reference(f_tree, u_tree, "min")
        assert sample_unit_directions(2, 720).index(verdict.witness) > 64

    def test_nan_derivatives_are_no_violation(self):
        # f' is inf - inf, NaN, wherever |g_1| > 0.53, and 0 elsewhere: a
        # block of NaNs is scanned, never raises, and violates no sense.
        big, small = Leaf((1.7e308, 0.0)), Leaf((-1.7e308, 0.0))
        f_tree = Sum((Sum((big, big)), Sum((small, small))))
        u_tree = Leaf((0.0, 0.0))
        verdicts = necessary_condition_oracle(f_tree, u_tree, ("min", "max"))
        assert math.isnan(eval_minmax(f_tree, (1.0, 0.0)))
        for sense, verdict in verdicts.items():
            assert verdict == oracle_reference(f_tree, u_tree, sense)
            assert verdict.status == "inconclusive"

    def test_senses_violated_in_different_blocks(self):
        # f' > 0 within the first block, f' < 0 only past it: the
        # scan goes on for the minimum after the maximum has its witness.
        f_tree, u_tree = Leaf((1.0, 0.0)), Leaf((0.0, -1.0))
        directions = sample_unit_directions(2, 720)
        verdicts = necessary_condition_oracle(f_tree, u_tree, ("max", "min"))
        for sense, verdict in verdicts.items():
            assert verdict == oracle_reference(f_tree, u_tree, sense)
        assert directions.index(verdicts["max"].witness) < 64
        assert directions.index(verdicts["min"].witness) > 64


def _integer_tree(rng, depth=3):
    """Plane tree over forms with entries in -2..2: the kinks of its nodes
    and the zeros of its leaves fall on sample directions, at multiples of
    45 degrees among others."""
    if depth == 0 or rng.random() < 0.3:
        return Leaf((float(rng.randint(-2, 2)), float(rng.randint(-2, 2))))
    node = rng.choice([Max, Min, Sum])
    return node(tuple(_integer_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))


class TestOracleBlockBounds:
    """From 2 * FD_BLOCK plane samples on, the oracle skips a block whose
    bounds admit no direction or violate no open sense; its verdicts stay
    those of the per-direction reference scan."""

    @pytest.mark.parametrize("samples", [65, 100, 127, 128, 129, 200, 720, 1000])
    def test_matches_per_direction_reference(self, samples):
        rng = random.Random(samples)
        step = 2.0 * math.pi / samples
        # A small sinusoid whose peak sits mid-block 0 and trough mid-block 1:
        # near a half turn, a block's ends alone would miss both.
        peak = 31.5 * step
        cases = [(Leaf((1e-5 * math.cos(peak), 1e-5 * math.sin(peak))), Leaf((0.0, 0.0)))]
        for trial in range(24):
            if trial % 2:
                scale = 1e-321 if trial % 8 == 1 else 10.0 ** rng.randint(-12, 12)
                cases.append(tuple(scale_tree(random_minmax_tree(rng, 2, rng.randint(1, 4)),
                                              scale) for _ in range(2)))
            else:
                cases.append((_integer_tree(rng), _integer_tree(rng)))
        for k, (f_tree, u_tree) in enumerate(cases):
            tol = (0.0, 1e-9, 1e-3)[k % 3]
            verdicts = necessary_condition_oracle(f_tree, u_tree, ("min", "max"), samples,
                                                  tol=tol)
            for sense, verdict in verdicts.items():
                reference = oracle_reference(f_tree, u_tree, sense, samples, tol=tol)
                assert repr(verdict) == repr(reference), (k, sense, f_tree, u_tree)

    def test_no_bounds_below_two_blocks(self):
        # 65 samples: the first block spans 349 degrees, and its ends alone
        # would hide the objective's positive lobe around 200 degrees.
        angle = math.radians(200.0)
        f_tree = Max((Leaf((math.cos(angle), math.sin(angle))), Leaf((0.0, 0.0))))
        u_tree = Leaf((0.0, 0.0))
        verdicts = necessary_condition_oracle(f_tree, u_tree, ("min", "max"), 65)
        assert verdicts["max"].status == "violated"
        for sense, verdict in verdicts.items():
            assert verdict == oracle_reference(f_tree, u_tree, sense, 65)

    @staticmethod
    def _evaluated(monkeypatch, f_tree, u_tree, senses, samples=720):
        """The sizes of the blocks the oracle evaluates u' on."""
        sizes = []
        evaluate = conditions_module._minmax_columns

        def counted(tree, directions):
            if tree is u_tree:
                sizes.append(len(directions))
            return evaluate(tree, directions)

        monkeypatch.setattr(conditions_module, "_minmax_columns", counted)
        verdicts = necessary_condition_oracle(f_tree, u_tree, senses, samples)
        for sense, verdict in verdicts.items():
            assert verdict == oracle_reference(f_tree, u_tree, sense, samples)
        return sizes, verdicts

    def test_clean_blocks_are_not_evaluated(self, monkeypatch):
        # Admissible on the upper half circle, f' < 0 only past 90 degrees:
        # only the witness's block, the third, is evaluated.
        f_tree, u_tree = Leaf((1.0, 0.0)), Leaf((0.0, -1.0))
        sizes, verdicts = self._evaluated(monkeypatch, f_tree, u_tree, ("min",))
        at = sample_unit_directions(2, 720).index(verdicts["min"].witness)
        assert sizes == [64] and at // 64 == 2
        # Zero derivatives: no block of the plane can hold a violation, and
        # above it every block is evaluated.
        zero, zero3 = Leaf((0.0, 0.0)), Leaf((0.0, 0.0, 0.0))
        assert self._evaluated(monkeypatch, zero, Leaf((0.0, 0.0)), ("min", "max"))[0] == []
        assert len(self._evaluated(monkeypatch, zero3, Leaf((0.0, 0.0, 0.0)),
                                   ("min", "max"))[0]) == 12
        # Below two blocks there are no bounds.
        assert self._evaluated(monkeypatch, zero, Leaf((0.0, 0.0)), ("min",), 127)[0] == [64, 63]

    def test_overflowing_trees_evaluate_every_block(self, monkeypatch):
        # The 1.7e308 forms of test_nan_derivatives_are_no_violation: 4 leaves
        # of |a| + |b| = 1.7e308 fail the 1e300 guard, so no block is skipped.
        big, small = Leaf((1.7e308, 0.0)), Leaf((-1.7e308, 0.0))
        f_tree = Sum((Sum((big, big)), Sum((small, small))))
        sizes, verdicts = self._evaluated(monkeypatch, f_tree, Leaf((0.0, 0.0)),
                                          ("min", "max"))
        assert sizes == [64] * 11 + [16]
        assert {verdict.status for verdict in verdicts.values()} == {"inconclusive"}


class TestMethodAgreement:
    def test_hundred_seeded_instances(self):
        rng = random.Random(2024)
        violated_seen = 0
        for trial in range(100):
            cid = ALL_CONSTRAINED[trial % len(ALL_CONSTRAINED)]
            ef = random_family(rng, cid.f_kind)
            eu = random_family(rng, cid.u_kind)
            built = build_condition(cid, ef, eu)
            exact, lp = both_methods(built.lhs, built.rhs).values()
            assert exact.status == lp.status, \
                f"trial {trial}: {exact.status} vs {lp.status} on {cid}"
            if exact.status == "violated":
                violated_seen += 1
                for verdict in (exact, lp):
                    assert region_membership(built.lhs, verdict.witness, tol=1e-9)
                    assert not region_membership(built.rhs, verdict.witness, tol=-1e-9)
        assert violated_seen > 10  # the sample covers both outcomes


class TestEnumerationBeyondThePlane:
    def test_lp_verdicts_match_sampled_membership_in_3d(self):
        # No arc algebra at dimension three; falsify the enumeration
        # verdicts directly against dense sampled membership instead.
        from exhausters.geometry import sample_unit_directions

        rng = random.Random(303)
        directions = sample_unit_directions(3, 2000, seed=8)
        violated = 0
        for trial in range(40):
            cid = ALL_CONSTRAINED[trial % len(ALL_CONSTRAINED)]
            ef = random_family(rng, cid.f_kind, dim=3)
            eu = random_family(rng, cid.u_kind, dim=3)
            built = build_condition(cid, ef, eu)
            verdict = inclusion_check(built.lhs, built.rhs)
            assert verdict.method == "lp_enumeration"
            if verdict.status == "violated":
                violated += 1
                assert region_membership(built.lhs, verdict.witness, tol=1e-9)
                assert not region_membership(built.rhs, verdict.witness, tol=-1e-9)
            else:
                assert verdict.status == "holds"
                for g in directions:
                    if region_membership(built.lhs, g, tol=-1e-7):
                        assert region_membership(built.rhs, g, tol=1e-7), \
                            f"sampled counterexample {g} on trial {trial}"
        assert violated > 5

    def test_pruned_search_matches_brute_force_on_inclusions(self):
        # lhs membership choice points, then rhs negation choice points;
        # a union side is one choice point over all of its atoms' options.
        # Both families draw vertices from one small pool whose hull holds
        # the origin, so that inclusions hold often enough to be tested.
        rng = random.Random(404)

        def pooled_family(kind, pool, dim):
            return Exhauster(kind, dim, tuple(
                Polytope.from_vertices(rng.sample(pool, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))))

        outcomes = set()
        for trial in range(48):
            dim = 3 + trial % 2
            cid = ALL_CONSTRAINED[trial % len(ALL_CONSTRAINED)]
            pool = [tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(4)]
            pool.append(tuple(-sum(c) for c in zip(*pool)))
            ef = pooled_family(cid.f_kind, pool, dim)
            eu = pooled_family(cid.u_kind, pool, dim)
            built = build_condition(cid, ef, eu)
            points = _choice_points(built.lhs, False) + _choice_points(built.rhs, True)
            reference = brute_force_direction(points, dim)
            verdict = inclusion_check(built.lhs, built.rhs)
            assert verdict.status == ("holds" if reference is None else "violated")
            if reference is not None:
                assert verdict.witness == reference.witness
            outcomes.add(verdict.status)
        assert outcomes == {"holds", "violated"}

    def test_pruned_search_matches_brute_force_on_coverings(self):
        # Covering form: one choice point per set, one single-row option
        # per vertex. Origin form: a single choice point, one option per
        # set holding that set's rows. Sets of signed unit vectors make the
        # cones cover, and the origin lie in every set, often enough for
        # both outcomes to occur in both forms.
        rng = random.Random(405)
        outcomes = set()
        for trial in range(60):
            dim = 3 + trial % 2
            cid, kind, sense = rng.choice((
                (ConditionID.UNC_MIN_LOWER, "lower", -1.0),
                (ConditionID.UNC_MAX_UPPER, "upper", 1.0),
                (ConditionID.UNC_MIN_UPPER, "upper", None),
                (ConditionID.UNC_MAX_LOWER, "lower", None)))
            axes = [tuple(float(sign * (j == i)) for j in range(dim))
                    for i in range(dim) for sign in (1, -1)]
            if sense is None:
                family = Exhauster(kind, dim, tuple(
                    Polytope.from_vertices(rng.sample(axes, rng.randint(1, 2 * dim)))
                    for _ in range(rng.randint(1, 3))))
                points = [[[LinearConstraint(v, True) for v in c.vertices]
                           for c in family.sets]]
            else:
                family = Exhauster(kind, dim, tuple(
                    Polytope.from_vertices(rng.sample(axes, rng.randint(1, 2)))
                    for _ in range(rng.randint(3, 5))))
                points = [[[LinearConstraint(tuple(sense * x for x in v), True)]
                           for v in c.vertices]
                          for c in family.sets]
            reference = brute_force_direction(points, dim)
            verdict = evaluate_condition(cid, family)
            assert verdict.status == ("holds" if reference is None else "violated")
            if reference is not None:
                assert verdict.witness == reference.witness
            outcomes.add((sense is None, verdict.status))
        assert outcomes == {(form, status) for form in (False, True)
                            for status in ("holds", "violated")}


class TestOracleConsistency:
    def test_inclusion_violations_confirmed_by_sampling(self):
        # Families built from actual derivative trees let the tree oracle
        # cross-examine the region verdicts.
        from exhausters.deriv import directional_derivative_tree
        from helpers import random_expr, random_point

        rng = random.Random(77)
        confirmed = 0
        for _ in range(30):
            f_tree = directional_derivative_tree(random_expr(rng), random_point(rng))
            u_tree = directional_derivative_tree(random_expr(rng), random_point(rng))
            families = {
                ("f", kind): reduce_exhauster(exhauster_from_tree(f_tree, kind))
                for kind in ("upper", "lower")
            }
            families.update({
                ("u", kind): reduce_exhauster(exhauster_from_tree(u_tree, kind))
                for kind in ("upper", "lower")
            })
            for cid in ALL_CONSTRAINED:
                built = build_condition(cid, families[("f", cid.f_kind)],
                                        families[("u", cid.u_kind)])
                verdict = inclusion_check(built.lhs, built.rhs)
                flagged = oracle_flags(f_tree, u_tree, cid.sense, verdict.witness,
                                       samples=10_000)
                if verdict.status == "violated":
                    assert flagged
                    confirmed += 1
                if flagged:
                    assert verdict.status != "holds"
        assert confirmed > 20

    def test_violations_confirmed_by_sampling_beyond_the_plane(self):
        # Above the plane the checks enumerate vertex selections by LP; at
        # the origin the max and min children tie.
        from exhausters.deriv import directional_derivative_tree
        from helpers import random_expr

        rng = random.Random(31)
        statuses = []
        for dim in (3, 4, 5):
            origin = (0.0,) * dim
            for _ in range(6):
                f_tree, u_tree = (directional_derivative_tree(random_expr(rng, dim), origin)
                                  for _ in range(2))
                families = {(func, kind): reduce_exhauster(exhauster_from_tree(tree, kind))
                            for func, tree in (("f", f_tree), ("u", u_tree))
                            for kind in ("upper", "lower")}
                for cid in ALL_CONSTRAINED:
                    verdict = evaluate_condition(cid, families[("f", cid.f_kind)],
                                                 families[("u", cid.u_kind)])
                    flagged = oracle_flags(f_tree, u_tree, cid.sense, verdict.witness)
                    if verdict.status == "violated":
                        assert flagged
                    if flagged:
                        assert verdict.status != "holds"
                    statuses.append(verdict.status)
        assert {"holds", "violated"} <= set(statuses)


class TestVacuousConditionFamilies:
    def test_origin_in_every_set_makes_min_proper_conditions_vacuous(self):
        rng = random.Random(41)
        for _ in range(40):
            base = random_family(rng, "upper")
            padded = Exhauster("upper", 2, tuple(
                Polytope(2, c.vertices + ((0.0, 0.0),)) for c in base.sets))
            for cid in (ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER):
                eu = random_family(rng, cid.u_kind)
                built = build_condition(cid, padded, eu)
                assert inclusion_check(built.lhs, built.rhs).status == "holds"

    def test_covering_lower_family_makes_min_adjoint_conditions_vacuous(self):
        rng = random.Random(43)
        for _ in range(40):
            base = random_family(rng, "lower")
            covering = Exhauster("lower", 2, base.sets + (
                Polytope.from_vertices([(0.0, 0.0)]),))
            assert evaluate_condition(ConditionID.UNC_MIN_LOWER,
                                      covering).status == "holds"
            for cid in (ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER):
                eu = random_family(rng, cid.u_kind)
                built = build_condition(cid, covering, eu)
                assert inclusion_check(built.lhs, built.rhs).status == "holds"


class TestWitnessReproducibility:
    def test_identical_runs_identical_verdicts(self):
        rng_a = random.Random(55)
        rng_b = random.Random(55)

        def run(rng):
            out = []
            for _ in range(20):
                cid = ALL_CONSTRAINED[rng.randrange(len(ALL_CONSTRAINED))]
                ef = random_family(rng, cid.f_kind)
                eu = random_family(rng, cid.u_kind)
                out.append(evaluate_condition(cid, ef, eu))
            return out

        assert run(rng_a) == run(rng_b)


class TestHyperplaneReading:
    def test_violations_expose_a_separating_hyperplane(self):
        # For the proper minimum pairing, a violation witness g is a
        # hyperplane normal: every constraint set meets the nonpositive
        # half-space while some objective set sits strictly inside the
        # negative one.
        rng = random.Random(61)
        seen = 0
        for _ in range(200):
            ef = random_family(rng, "upper")
            eu = random_family(rng, "lower")
            built = build_condition(ConditionID.MIN_UPPER_LOWER, ef, eu)
            verdict = inclusion_check(built.lhs, built.rhs)
            if verdict.status != "violated":
                continue
            seen += 1
            g = verdict.witness
            for c in eu.sets:
                assert min(sum(a * b for a, b in zip(v, g)) for v in c.vertices) <= 1e-9
            assert any(
                max(sum(a * b for a, b in zip(v, g)) for v in c.vertices) < -1e-9
                for c in ef.sets)
        assert seen > 5
