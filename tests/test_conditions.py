import math
import random

import pytest

from exhausters.conditions import (
    _atom_options,
    _choice_points,
    AtomKind,
    ConditionID,
    RegionAtom,
    RegionExpr,
    arcs_from_atom,
    atom_membership,
    build_condition,
    check_unconstrained,
    evaluate_condition,
    inclusion_check,
    necessary_condition_oracle,
    region_arcs,
    region_membership,
    regularity_check,
)
from exhausters.deriv import Leaf, MaxNode, MinNode, eval_minmax
from exhausters.errors import ExhausterKindError
from exhausters.exhauster import Exhauster, exhauster_from_tree, reduce_exhauster
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
    F_LOWER,
    F_UPPER,
    U_LOWER,
    U_UPPER,
    brute_force_direction,
    constraint_tree,
    objective_tree,
    oracle_reference,
    random_family,
    random_minmax_tree,
    random_polytope,
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
    parts = cid.value.split("_")
    return FAMILIES[("f", parts[1].lower())], FAMILIES[("u", parts[2].lower())]


class TestAtomMembership:
    def test_complement_predicate(self):
        assert atom_membership(RegionAtom(AtomKind.NOT_K_PLUS, C1), (1, 0))

    def test_dual_cone(self):
        assert atom_membership(RegionAtom(AtomKind.K_PLUS, C3), (1, 0))

    def test_negative_dual(self):
        assert not atom_membership(RegionAtom(AtomKind.NEG_K_PLUS, C3), (1, 0))

    def test_strict_margin_mode(self):
        atom = RegionAtom(AtomKind.NOT_K_PLUS, C3)
        # (1, 1) sits on the predicate boundary: the lenient test accepts
        # it, the strict-margin test rejects it.
        assert atom_membership(atom, (1, 1), tol=1e-9)
        assert not atom_membership(atom, (1, 1), tol=-1e-6)

    def test_options_match_membership(self):
        # Each kind's member options hold at g exactly when the atom does,
        # and a direction meeting a negation option lies outside the atom.
        # Integer vertices and half-integer directions put many products
        # exactly on 0 and 1, the thresholds of plain and strict rows.
        rng = random.Random(52)
        seen = set()
        for trial in range(600):
            dim = 2 + trial % 3
            poly = Polytope.from_vertices([
                tuple(float(rng.randint(-2, 2)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))])
            g = tuple(rng.randint(-4, 4) / 2.0 for _ in range(dim))
            for kind in AtomKind:
                atom = RegionAtom(kind, poly)
                member = atom_membership(atom, g)
                assert member == any(all(c.satisfied_by(g) for c in option)
                                     for option in _atom_options(atom, False))
                negated = any(all(c.satisfied_by(g) for c in option)
                              for option in _atom_options(atom, True))
                assert not (member and negated)
                seen.add((kind, member, negated))
        assert seen == {(kind, member, negated) for kind in AtomKind
                        for member, negated in ((True, False), (False, True),
                                                (False, False))}


class TestBuildCondition:
    def test_adjoint_pairing_sides(self):
        built = build_condition(ConditionID.MIN_LOWER_UPPER, F_LOWER, U_UPPER)
        assert built.lhs.combinator == "union"
        assert all(a.kind is AtomKind.NEG_K_PLUS for a in built.lhs.atoms)
        assert [a.polytope for a in built.lhs.atoms] == [C3, C4]
        assert built.rhs.combinator == "union"
        assert all(a.kind is AtomKind.K_PLUS for a in built.rhs.atoms)
        assert [a.polytope for a in built.rhs.atoms] == [C3, C4]

    def test_proper_pairing_sides(self):
        built = build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_LOWER)
        assert built.lhs.combinator == "intersection"
        assert all(a.kind is AtomKind.NOT_K_PLUS for a in built.lhs.atoms)
        assert built.rhs.combinator == "intersection"
        assert all(a.kind is AtomKind.NOT_NEG_K_PLUS for a in built.rhs.atoms)

    def test_unconstrained_descriptor(self):
        built = build_condition(ConditionID.UNC_MIN_UPPER, F_UPPER)
        assert built.cid is ConditionID.UNC_MIN_UPPER
        assert built.family is F_UPPER
        assert built.rhs.combinator == "intersection"
        assert [a.kind for a in built.rhs.atoms] == [AtomKind.NOT_K_PLUS] * 2
        covering = build_condition(ConditionID.UNC_MIN_LOWER, F_LOWER)
        assert covering.rhs.combinator == "union"
        assert [a.kind for a in covering.rhs.atoms] == [AtomKind.K_PLUS] * 2

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
        for method in ("exact2d", "lp_enumeration"):
            assert inclusion_check(built.lhs, built.rhs, method=method).status == "holds"
            assert inclusion_check(built.rhs, built.lhs, method=method).status == "holds"
        # Both sides trace the two quarter cones around the x axis.
        expected = arcs_from_atom(RegionAtom(AtomKind.K_PLUS, C3)).union(
            arcs_from_atom(RegionAtom(AtomKind.K_PLUS, C4)))
        for side in (built.lhs, built.rhs):
            arcs = region_arcs(side)
            assert arcset_subset(arcs, expected)[0]
            assert arcset_subset(expected, arcs)[0]

    def test_max_adjoint_condition_violated_along_x_axis(self):
        built = build_condition(ConditionID.MAX_UPPER_UPPER, F_UPPER, U_UPPER)
        for method in ("exact2d", "lp_enumeration"):
            verdict = inclusion_check(built.lhs, built.rhs, method=method)
            assert verdict.status == "violated"
            w = verdict.witness
            assert abs(w[1]) <= 1e-9 and abs(w[0]) > 0
            assert region_membership(built.lhs, w, tol=1e-9)
            assert not region_membership(built.rhs, w, tol=-1e-9)

    def test_reflexive_inclusion(self):
        expr = RegionExpr("union", (RegionAtom(AtomKind.K_PLUS, C3),
                                    RegionAtom(AtomKind.K_PLUS, C4)))
        for method in ("exact2d", "lp_enumeration"):
            assert inclusion_check(expr, expr, method=method).status == "holds"

    def test_combination_cap_inconclusive(self):
        built = build_condition(ConditionID.MIN_UPPER_LOWER, F_UPPER, U_LOWER)
        verdict = inclusion_check(built.lhs, built.rhs, method="lp_enumeration",
                                  max_combinations=1)
        assert verdict.status == "inconclusive"
        assert "cap" in verdict.certificate

    def test_degeneracy_note_for_origin_set(self):
        with_origin = Polytope.from_vertices([(0, 0), (1, 1), (-1, 1)])
        lhs = RegionExpr("intersection", (RegionAtom(AtomKind.NOT_K_PLUS, with_origin),))
        rhs = RegionExpr("intersection", (RegionAtom(AtomKind.NOT_K_PLUS, with_origin),))
        verdict = inclusion_check(lhs, rhs)
        assert "degenerate" in verdict.certificate


class TestUnconstrained:
    def test_origin_check_violated_with_separating_direction(self):
        verdict = check_unconstrained(ConditionID.UNC_MIN_UPPER, F_UPPER)
        assert verdict.status == "violated"
        # The witness strictly separates the offending set from the origin.
        assert all(sum(a * b for a, b in zip(v, verdict.witness)) >= 1.0 - 1e-9
                   for v in C1.vertices)

    def test_origin_check_holds(self):
        family = Exhauster("upper", 2, (Polytope.from_vertices([(1, 1), (-1, -1)]),))
        assert check_unconstrained(ConditionID.UNC_MIN_UPPER, family).status == "holds"

    def test_covering_check_violated(self):
        verdict = check_unconstrained(ConditionID.UNC_MIN_LOWER, F_LOWER)
        assert verdict.status == "violated"
        w = verdict.witness
        for c in F_LOWER.sets:
            assert min(sum(a * b for a, b in zip(v, w)) for v in c.vertices) <= -1 + 1e-9

    def test_covering_check_holds(self):
        family = Exhauster("lower", 2, (
            C3, C4, Polytope.from_vertices([(0, 1)]),
            Polytope.from_vertices([(0, -1)])))
        # Four cones: right, left, up, down; every direction is in one.
        assert check_unconstrained(ConditionID.UNC_MIN_LOWER, family).status == "holds"

    def test_negated_covering_for_maximum(self):
        family = Exhauster("upper", 2, (C3, C4))
        verdict = check_unconstrained(ConditionID.UNC_MAX_UPPER, family)
        assert verdict.status == "violated"
        w = verdict.witness
        for c in family.sets:
            assert max(sum(a * b for a, b in zip(v, w)) for v in c.vertices) >= 1 - 1e-9

    def test_kind_mismatch(self):
        with pytest.raises(ExhausterKindError):
            check_unconstrained(ConditionID.UNC_MIN_LOWER, F_UPPER)


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
        tree = MaxNode((Leaf((1.0, 0.0)), Leaf((-1.0, 0.0))))
        verdict = regularity_check(_upper(tree))
        assert verdict.status == "violated"
        assert abs(verdict.witness[0]) <= 1e-9  # zero directions are the y axis

    def test_zero_sector_violated(self):
        tree = MinNode((Leaf((0.0, 0.0)), Leaf((1.0, 0.0))))
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
        cone = MaxNode((Leaf((1.0, 0.0, 0.0)), Leaf((-1.0, 0.0, 0.0))))
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
        tree = MaxNode(tuple(Leaf(f) for f in forms))
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


class TestOracle:
    def test_reference_minimum_clean(self):
        verdict = necessary_condition_oracle(objective_tree(), constraint_tree(), "min")
        assert verdict.status == "inconclusive"

    def test_reference_maximum_flagged(self):
        verdict = necessary_condition_oracle(objective_tree(), constraint_tree(), "max")
        assert verdict.status == "violated"
        w = verdict.witness
        assert eval_minmax(constraint_tree(), w) <= 1e-9
        assert eval_minmax(objective_tree(), w) > 1e-6

    def test_smooth_identical_trees_flagged_for_min(self):
        leaf = Leaf((1.0, 0.0))
        verdict = necessary_condition_oracle(leaf, leaf, "min")
        assert verdict.status == "violated"
        w = verdict.witness
        assert eval_minmax(leaf, w) <= 1e-9
        assert eval_minmax(leaf, w) < -1e-6

    def test_extra_directions_checked_first(self):
        verdict = necessary_condition_oracle(
            objective_tree(), constraint_tree(), "max",
            extra_directions=[(2.0, 0.0)])
        assert verdict.status == "violated"
        assert verdict.witness == (1.0, 0.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            necessary_condition_oracle(objective_tree(), constraint_tree(),
                                       "min", samples=0)

    def test_matches_per_direction_scan(self):
        rng = random.Random(91)
        violated = 0
        for trial in range(60):
            dim = 2 + trial % 3
            f_tree = random_minmax_tree(rng, dim)
            u_tree = random_minmax_tree(rng, dim)
            sense = rng.choice(["min", "max"])
            seed = rng.randrange(5)
            verdict = necessary_condition_oracle(f_tree, u_tree, sense, 200, seed)
            assert verdict == oracle_reference(f_tree, u_tree, sense, 200, seed)
            violated += verdict.status == "violated"
        assert 10 < violated < 60

    def test_first_violation_past_the_first_block(self):
        # Admissible on the upper half circle; f' < 0 only past 90 degrees.
        f_tree, u_tree = Leaf((1.0, 0.0)), Leaf((0.0, -1.0))
        verdict = necessary_condition_oracle(f_tree, u_tree, "min")
        assert verdict == oracle_reference(f_tree, u_tree, "min")
        assert sample_unit_directions(2, 720).index(verdict.witness) > 64

    def test_witness_from_extra_directions_matches_scan(self):
        extra = [(0.0, 0.0), (0.0, 3.0), (2.0, 0.0)]
        args = (objective_tree(), constraint_tree(), "max")
        verdict = necessary_condition_oracle(*args, extra_directions=extra)
        assert verdict == oracle_reference(*args, extra_directions=extra)
        assert verdict.witness == (1.0, 0.0)


class TestMethodAgreement:
    def test_hundred_seeded_instances(self):
        rng = random.Random(2024)
        violated_seen = 0
        for trial in range(100):
            cid = ALL_CONSTRAINED[trial % len(ALL_CONSTRAINED)]
            parts = cid.value.split("_")
            ef = random_family(rng, parts[1].lower())
            eu = random_family(rng, parts[2].lower())
            built = build_condition(cid, ef, eu)
            exact = inclusion_check(built.lhs, built.rhs, method="exact2d")
            lp = inclusion_check(built.lhs, built.rhs, method="lp_enumeration")
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
            parts = cid.value.split("_")
            ef = random_family(rng, parts[1].lower(), dim=3)
            eu = random_family(rng, parts[2].lower(), dim=3)
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
            parts = cid.value.split("_")
            pool = [tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(4)]
            pool.append(tuple(-sum(c) for c in zip(*pool)))
            ef = pooled_family(parts[1].lower(), pool, dim)
            eu = pooled_family(parts[2].lower(), pool, dim)
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
            verdict = check_unconstrained(cid, family)
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
                parts = cid.value.split("_")
                sense = parts[0].lower()
                built = build_condition(cid, families[("f", parts[1].lower())],
                                        families[("u", parts[2].lower())])
                verdict = inclusion_check(built.lhs, built.rhs)
                oracle = necessary_condition_oracle(
                    f_tree, u_tree, sense, samples=10_000,
                    extra_directions=[verdict.witness] if verdict.witness else ())
                if verdict.status == "violated":
                    assert oracle.status == "violated"
                    confirmed += 1
                if oracle.status == "violated":
                    assert verdict.status != "holds"
        assert confirmed > 20


class TestVacuousConditionFamilies:
    def test_origin_in_every_set_makes_min_proper_conditions_vacuous(self):
        rng = random.Random(41)
        for _ in range(40):
            base = random_family(rng, "upper")
            padded = Exhauster("upper", 2, tuple(
                Polytope(2, c.vertices + ((0.0, 0.0),)) for c in base.sets))
            for cid in (ConditionID.MIN_UPPER_LOWER, ConditionID.MIN_UPPER_UPPER):
                eu = random_family(rng, cid.value.split("_")[2].lower())
                built = build_condition(cid, padded, eu)
                assert inclusion_check(built.lhs, built.rhs).status == "holds"

    def test_covering_lower_family_makes_min_adjoint_conditions_vacuous(self):
        rng = random.Random(43)
        for _ in range(40):
            base = random_family(rng, "lower")
            covering = Exhauster("lower", 2, base.sets + (
                Polytope.from_vertices([(0.0, 0.0)]),))
            assert check_unconstrained(ConditionID.UNC_MIN_LOWER,
                                       covering).status == "holds"
            for cid in (ConditionID.MIN_LOWER_LOWER, ConditionID.MIN_LOWER_UPPER):
                eu = random_family(rng, cid.value.split("_")[2].lower())
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
                parts = cid.value.split("_")
                ef = random_family(rng, parts[1].lower())
                eu = random_family(rng, parts[2].lower())
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
