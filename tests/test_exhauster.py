import random
from itertools import product

import pytest

from exhausters.conditions import RunMemo, _trial_feasible, reduce_exhauster
from exhausters.deriv import (
    Leaf,
    Max,
    Min,
    Sum,
    directional_derivative_tree,
    eval_minmax,
    expr_from_json,
    fd_directional_derivatives,
    scale_tree,
)
from exhausters.errors import CapExceededError, DimensionMismatchError
from exhausters.exhauster import (
    Exhauster,
    _conflict_table,
    _first_clash,
    _ray,
    eval_exhauster,
    exhauster_from_tree,
    find_direction,
    polytopes_equal,
)
from exhausters.geometry import (
    LinearConstraint,
    Polytope,
    linear_feasibility,
    sample_unit_directions,
)

from helpers import (
    C1,
    C2,
    C3,
    C4,
    abs_sum_json,
    brute_force_direction,
    circle_directions,
    constraint_tree,
    count_lps,
    count_tables,
    objective_tree,
    polytope_families_equal,
    random_expr,
    random_point,
    random_polytope,
)

L1, L2, L3, L4 = Leaf((1.0, 1.0)), Leaf((1.0, -1.0)), Leaf((-1.0, 1.0)), Leaf((-1.0, -1.0))


def vertex_lists(family):
    return [s.vertices for s in family.sets]


class TestFamilyCalculus:
    def test_min_rule_concatenates_upper_sets(self):
        tree = Min((Max((L1, L2)), Max((L3, L4))))
        assert vertex_lists(exhauster_from_tree(tree, "upper")) == [
            ((1.0, 1.0), (1.0, -1.0)), ((-1.0, 1.0), (-1.0, -1.0))]

    def test_min_rule_takes_product_of_lower_sets(self):
        tree = Min((Max((L1, L2)), Max((L3, L4))))
        assert vertex_lists(exhauster_from_tree(tree, "lower")) == [
            ((1.0, 1.0), (-1.0, 1.0)),
            ((1.0, 1.0), (-1.0, -1.0)),
            ((1.0, -1.0), (-1.0, 1.0)),
            ((1.0, -1.0), (-1.0, -1.0)),
        ]
        # The product preserves the function pointwise.
        family = exhauster_from_tree(tree, "lower")
        rng = random.Random(1)
        for _ in range(100):
            g = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert eval_exhauster(family, g) == pytest.approx(eval_minmax(tree, g), abs=1e-12)

    def test_max_rule_mirrors_min_rule(self):
        tree = Max((Min((L1, L2)), L3))
        assert vertex_lists(exhauster_from_tree(tree, "lower")) == [
            ((1.0, 1.0), (1.0, -1.0)), ((-1.0, 1.0),)]
        assert vertex_lists(exhauster_from_tree(tree, "upper")) == [
            ((1.0, 1.0), (-1.0, 1.0)), ((1.0, -1.0), (-1.0, 1.0))]

    def test_sum_rule_adds_sets_pairwise(self):
        # Each set of the left family meets each of the right one, and the
        # vertices are v + w with v running slowest.
        tree = Sum((Min((Max((L1, L2)), L3)), Max((L2, L4))))
        assert vertex_lists(exhauster_from_tree(tree, "upper")) == [
            ((2.0, 0.0), (0.0, 0.0), (2.0, -2.0), (0.0, -2.0)),
            ((0.0, 0.0), (-2.0, 0.0)),
        ]
        assert vertex_lists(exhauster_from_tree(tree, "lower")) == [
            ((2.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (-2.0, 0.0)),
            ((2.0, -2.0), (0.0, 0.0)), ((0.0, -2.0), (-2.0, 0.0)),
        ]

    def test_negative_scale_swaps_upper_and_lower(self):
        tree = Sum((Min((Max((L1, L2)), L3)), Max((L2, L4))))
        for kind, other in (("upper", "lower"), ("lower", "upper")):
            flipped = exhauster_from_tree(scale_tree(tree, -1.0), kind)
            assert vertex_lists(flipped) == [
                tuple(tuple(-c for c in v) for v in vertices)
                for vertices in vertex_lists(exhauster_from_tree(tree, other))]

    def test_leaf_gives_one_singleton_of_either_kind(self):
        for kind in ("upper", "lower"):
            assert vertex_lists(exhauster_from_tree(Leaf((2.0, 0.0)), kind)) \
                == [((2.0, 0.0),)]

    def test_family_cap(self, monkeypatch):
        monkeypatch.setattr("exhausters.exhauster.DEFAULT_FAMILY_CAP", 100)
        wide = Max(tuple(Min((L1, L2, L3)) for _ in range(10)))
        with pytest.raises(CapExceededError):
            exhauster_from_tree(wide, "upper")
        assert len(exhauster_from_tree(wide, "lower").sets) == 10
        pairs = Sum(tuple(Max((L1, L2)) for _ in range(7)))
        with pytest.raises(CapExceededError):
            exhauster_from_tree(pairs, "upper")  # one set of 2^7 vertices

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            exhauster_from_tree(L1, "sideways")


class TestConstruction:
    def test_constraint_upper_family(self):
        family = exhauster_from_tree(constraint_tree(), "upper")
        assert polytope_families_equal(family.sets, (C4, C3))

    def test_objective_upper_family_reduces_to_reference(self):
        family = reduce_exhauster(exhauster_from_tree(objective_tree(), "upper"))
        assert polytope_families_equal(family.sets, (C1, C2))

    def test_objective_lower_family(self):
        family = reduce_exhauster(exhauster_from_tree(objective_tree(), "lower"))
        assert polytope_families_equal(family.sets, (C3, C4))

    def test_leaf_gives_single_singleton(self):
        family = exhauster_from_tree(Leaf((2.0, -1.0)), "upper")
        assert len(family.sets) == 1
        assert family.sets[0].vertices == ((2.0, -1.0),)


class TestEvaluation:
    def test_upper_family_value(self):
        family = Exhauster("upper", 2, (C1, C2))
        assert eval_exhauster(family, (1, 0)) == pytest.approx(1.0)

    def test_constraint_upper_value(self):
        family = Exhauster("upper", 2, (C3, C4))
        assert eval_exhauster(family, (0, 1)) == pytest.approx(1.0)

    def test_zero_direction(self):
        family = Exhauster("lower", 2, (C3, C4))
        assert eval_exhauster(family, (0, 0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_exhauster(Exhauster("upper", 2, (C1,)), (1, 0, 0))


class TestPolytopeEquality:
    def test_permutation(self):
        assert polytopes_equal(
            Polytope.from_vertices([(1, 1), (1, -1)]),
            Polytope.from_vertices([(1, -1), (1, 1)]))

    def test_redundant_midpoint(self):
        assert polytopes_equal(
            Polytope.from_vertices([(1, 1), (1, -1)]),
            Polytope.from_vertices([(1, 1), (1, 0), (1, -1)]))

    def test_disjoint_segments(self):
        assert not polytopes_equal(C1, C2)

    def test_family_multiset_semantics(self):
        assert polytope_families_equal((C1, C2), (C2, C1))
        assert not polytope_families_equal((C1, C1), (C1, C2))
        assert not polytope_families_equal((C1,), (C1, C1))


class TestReduction:
    def test_duplicate_dropped(self):
        family = Exhauster("upper", 2, (C1, C1))
        reduced = reduce_exhauster(family)
        assert polytope_families_equal(reduced.sets, (C1,))

    def test_singleton_untouched(self):
        family = Exhauster("upper", 2, (C1,))
        assert reduce_exhauster(family).sets == family.sets

    def test_lower_family_from_objective_dnf(self):
        raw = exhauster_from_tree(objective_tree(), "lower")
        assert len(raw.sets) == 2  # lower form is already tight here
        reduced = reduce_exhauster(raw)
        assert polytope_families_equal(reduced.sets, (C3, C4))

    def test_constraint_lower_family_drops_diagonals(self):
        raw = exhauster_from_tree(constraint_tree(), "lower")
        assert len(raw.sets) == 4
        reduced = reduce_exhauster(raw)
        assert polytope_families_equal(reduced.sets, (C1, C2))

    def test_reduction_preserves_values_on_fresh_sample(self):
        rng = random.Random(17)
        for _ in range(10):
            expr = random_expr(rng)
            x = random_point(rng)
            tree = directional_derivative_tree(expr, x)
            for kind in ("upper", "lower"):
                family = exhauster_from_tree(tree, kind)
                reduced = reduce_exhauster(family)
                for g in sample_unit_directions(2, 97, seed=99):
                    assert eval_exhauster(reduced, g) == pytest.approx(
                        eval_exhauster(family, g), abs=1e-9)

    def test_reduction_preserves_values_beyond_the_plane(self):
        # At the origin the max and min children tie, so families carry
        # sets that reduction can remove.
        rng = random.Random(29)
        removed = 0
        for dim in (3, 4, 5):
            directions = sample_unit_directions(dim, 97, seed=dim)
            for _ in range(8):
                tree = directional_derivative_tree(random_expr(rng, dim), (0.0,) * dim)
                for kind in ("upper", "lower"):
                    family = exhauster_from_tree(tree, kind)
                    reduced = reduce_exhauster(family)
                    removed += len(family.sets) - len(reduced.sets)
                    for g in directions:
                        assert eval_exhauster(reduced, g) == pytest.approx(
                            eval_exhauster(family, g), abs=1e-9)
        assert removed > 0

    def test_trial_certifies_only_feasible_systems(self):
        # The trial reads option 0 at every choice point; each system it
        # certifies must be feasible by LP. Entries are uniform, small
        # integers, or normals within a narrow cone around one axis.
        rng = random.Random(31)

        def normal(kind, dim, axis):
            if kind == 0:
                return tuple(rng.uniform(-1, 1) for _ in range(dim))
            if kind == 1:
                return tuple(float(rng.randint(-3, 3)) for _ in range(dim))
            return tuple(axis[i] + rng.uniform(-0.2, 0.2) for i in range(dim))

        for kind in range(3):
            certified = 0
            for _ in range(400):
                dim = rng.randint(2, 5)
                axis = tuple(float(i == 0) for i in range(dim))
                normals = [normal(kind, dim, axis) for _ in range(rng.randint(1, 12))]
                cut = rng.randint(0, len(normals) - 1)
                decoy = [normal(0, dim, axis)]
                points = ([[normals[:cut], decoy], [normals[cut:], decoy]] if cut
                          else [[normals, decoy]])
                if _trial_feasible(points):
                    certified += 1
                    rows = [LinearConstraint(n, True) for n in normals]
                    assert linear_feasibility(rows, dim).feasible
            assert certified > 50

    def test_trial_rejects_what_it_cannot_certify(self):
        e1, e2 = (1.0, 0.0), (0.0, 1.0)
        for rows in ([e1, (-1.0, 0.0)],            # opposite rows: g = 0
                     [(0.0, 0.0)],                 # zero normal
                     [(1.5e308, 1.5e308)],         # norm overflows
                     [e1, e2, (-1.0, 1e-7)]):      # feasible, below the margin
            assert not _trial_feasible([[rows]])
        assert _trial_feasible([[[e1]], [[e2]]])

    def test_trial_keeps_a_set_the_simplex_drops(self):
        # The only system behind the first set is <(-1e-10, 1e-10), g> >= 1,
        # feasible at g = (-1e10, 1e10), but the simplex, deciding within
        # an absolute 1e-9, calls it infeasible, and reduction once dropped
        # the set: evaluation then moved by 1.4e-10.
        family = Exhauster("upper", 2, (Polytope(2, ((1e-10, 0.0),)),
                                        Polytope(2, ((0.0, 1e-10),))))
        reduced = reduce_exhauster(family)
        assert reduced.sets == family.sets
        for g in sample_unit_directions(2, 360):
            assert eval_exhauster(reduced, g) == eval_exhauster(family, g)

    def test_needed_sets_are_kept_with_no_lp(self, monkeypatch):
        # Each of the six points +-e_i is a vertex of their hull, so each
        # set is needed, and the trial direction shows it every time.
        family = Exhauster("upper", 3, tuple(
            Polytope(3, (tuple(s * float(i == j) for j in range(3)),))
            for i in range(3) for s in (1.0, -1.0)))
        calls = count_lps(monkeypatch)
        memo = RunMemo()
        assert reduce_exhauster(family, memo=memo).sets == family.sets
        assert calls == [] and memo.solved == {}

    def test_reduction_honours_the_run_cap(self):
        # Certifying any of the 16 sets searches 2**15 vertex selections,
        # above a cap of 1, so every candidate is kept.
        family = abs_sum_upper_pairs()
        assert reduce_exhauster(family, memo=RunMemo(1)).sets == family.sets
        assert len(reduce_exhauster(family).sets) == 4



def abs_sum_objective():
    """|x1| + min(x2, -x2) + min(x3, -x3) at the origin of R^3."""
    return expr_from_json(abs_sum_json("ann"))


def abs_sum_upper_pairs():
    """An upper family of ``abs_sum_objective`` with 16 two-vertex sets:
    each vertex with x1 = 1 paired with each vertex with x1 = -1, the
    other coordinates +-1. The calculus builds the 4 sets it reduces to."""
    signs = list(product((1.0, -1.0), repeat=2))
    return Exhauster("upper", 3, tuple(Polytope(3, ((1.0, *a), (-1.0, *b)))
                                       for a in signs for b in signs))


class TestFindDirection:
    def test_matches_brute_force_on_reduction_systems(self):
        # The shape reduction certifies: one choice point per remaining
        # set, an option per vertex w holding <w - v, g> at unit margin for
        # every candidate vertex v. Remaining sets sit near the candidate's
        # vertices, so that about half of the searches come out infeasible.
        rng = random.Random(41)

        def nearby_set(candidate, count):
            return Polytope.from_vertices([
                tuple(c + rng.choice((-1, 0, 0, 0)) for c in rng.choice(candidate.vertices))
                for _ in range(count)])

        outcomes = set()
        for trial in range(60):
            dim = 3 + trial % 2
            candidate = random_polytope(rng, dim, 4)
            rest = [nearby_set(candidate, rng.randint(2, 3)) for _ in range(rng.randint(3, 5))]
            sign = rng.choice((1.0, -1.0))
            points = [[[LinearConstraint(tuple(sign * (wi - vi) for wi, vi in zip(w, v)), True)
                        for v in candidate.vertices]
                       for w in s.vertices]
                      for s in rest]
            found = find_direction(points, dim, {})
            reference = brute_force_direction(points, dim)
            assert (found is None) == (reference is None)
            if reference is not None:
                assert found.witness == reference.witness
            outcomes.add(found is None)
        assert outcomes == {True, False}

    def test_matches_brute_force_with_planted_clashes(self):
        # Zero rows and rows on opposite rays, planted inside one option and
        # across options, next to rows drawn from a small integer pool, so
        # that the conflict table refutes some systems, the solver others,
        # and some searches succeed. Trailing choice points with one option
        # each often leave a failed system no later option behind its
        # first positions.
        rng = random.Random(43)

        def clashes(system):
            rows = [c for option in system for c in option]
            return any(a.strict and _ray(a.normal) == tuple(-i for i in _ray(b.normal))
                       for a in rows for b in rows)

        outcomes = set()
        for trial in range(160):
            dim = 2 + trial % 4
            pool = [tuple(float(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(3)]

            def row():
                if rng.random() < 0.1:
                    return LinearConstraint((0.0,) * dim, rng.random() < 0.5)
                return LinearConstraint(rng.choice(pool), rng.random() < 0.6)

            def opposite(r):
                c = rng.choice((1.0, 0.5, 2.0, 3.0))
                return LinearConstraint(tuple(-c * x for x in r.normal), rng.random() < 0.5)

            points = [[[row() for _ in range(rng.randint(1, 2))]
                       for _ in range(rng.randint(1, 3))]
                      for _ in range(rng.randint(2, 4))]
            points += [[[row()]] for _ in range(rng.randint(0, 2))]
            for _ in range(rng.randint(1, 3)):
                p, q = rng.randrange(len(points)), rng.randrange(len(points))
                source = rng.choice(points[p])
                target = rng.choice(points[q])
                target.append(opposite(rng.choice(source)))
            found = find_direction(points, dim, {})
            reference = brute_force_direction(points, dim)
            assert (found is None) == (reference is None)
            if reference is not None:
                assert found.witness == reference.witness
            # Systems the table can skip: after the first, before the found one.
            systems = list(product(*points))
            stop = len(systems) if found is None else next(
                i for i, system in enumerate(systems)
                if linear_feasibility([c for option in system for c in option], dim).feasible)
            outcomes.add((found is None, any(map(clashes, systems[1:stop]))))
        assert outcomes == {(found, skipped) for found in (True, False)
                            for skipped in (True, False)}

    def test_conflict_table_finds_the_first_clash(self):
        # For every full choice, the table's first clash is the first
        # position whose rows, with those of the positions before it, hold
        # a strict row and a row on its opposite ray (the same row, for a
        # strict zero normal). Planted opposites are exact or scaled,
        # tiny ones such as (-1e-12, 0) among them, and near misses are
        # opposites with a tiny entry added, off the opposite ray.
        rng = random.Random(53)

        def clash_free_prefix(rows_by_position):
            rows = []
            for p, option in enumerate(rows_by_position):
                rows += option
                if any(a.strict and _ray(b.normal) == tuple(-i for i in _ray(a.normal))
                       for a in rows for b in rows):
                    return p
            return len(rows_by_position)

        outcomes = set()
        for trial in range(200):
            dim = 2 + trial % 4
            drawn = []

            def row():
                pick = rng.random()
                if pick < 0.1:
                    normal = tuple(rng.choice((0.0, -0.0)) for _ in range(dim))
                elif pick < 0.45 and drawn:
                    c = rng.choice((1.0, 0.5, 3.0, 1e-12, rng.uniform(0.1, 10.0)))
                    normal = tuple(-c * x for x in rng.choice(drawn))
                elif pick < 0.55 and drawn:
                    near = [-x for x in rng.choice(drawn)]
                    near[rng.randrange(dim)] += rng.choice((1e-12, -1e-12))
                    normal = tuple(near)
                else:
                    normal = tuple(rng.choice((float(rng.randint(-2, 2)), rng.uniform(-1, 1)))
                                   for _ in range(dim))
                drawn.append(normal)
                return LinearConstraint(normal, rng.random() < 0.6)

            points = [[[row() for _ in range(rng.randint(1, 2))]
                       for _ in range(rng.randint(1, 3))]
                      for _ in range(rng.randint(2, 4))]
            table = _conflict_table(points)
            for choice in product(*(range(len(point)) for point in points)):
                expected = clash_free_prefix([point[j] for point, j in zip(points, choice)])
                assert _first_clash(table, list(choice), 0) == expected, (trial, choice)
                if expected < len(points):
                    own = table[expected][choice[expected]] is None
                    outcomes.add(("self" if own else "across", expected > 0))
                else:
                    outcomes.add(("none", True))
        assert outcomes == {("none", True), ("self", False), ("self", True),
                            ("across", True)}

    def test_rays_are_exact(self, monkeypatch):
        # 0.2 and 0.4 are exactly twice 0.1 and 0.2 in binary floating
        # point; 0.30000000000000004 is not 0.3. The search sees the
        # difference: after the first full system fails, the clash needs
        # no LP, while the near-clash needs two prefix LPs. The trailing
        # choice point leaves a system to skip; without it the failed
        # first system would end the search.
        def negated(ray):
            return tuple(-i for i in ray)

        assert _ray((0.1, 0.2)) == negated(_ray((-0.2, -0.4)))
        assert _ray((0.1, 0.3)) != negated(_ray((-0.1, -0.30000000000000004)))
        assert _ray((0.0, -0.0)) == (0, 0)
        assert _ray((5e-324, -1e308))[0] == 1
        calls = count_lps(monkeypatch)
        for first, second, lps in (((0.1, 0.2), (-0.2, -0.4), 1),
                                   ((0.1, 0.3), (-0.1, -0.30000000000000004), 3)):
            calls.clear()
            points = [[[LinearConstraint(first, True)]], [[LinearConstraint(second)]],
                      [[LinearConstraint((0.0, 1.0))], [LinearConstraint((0.0, -1.0))]]]
            assert find_direction(points, 2, {}) is None
            assert len(calls) == lps

    def test_clash_in_every_system_costs_one_lp(self, monkeypatch):
        # Every option at the first choice point is strict, and the middle
        # choice point's only option holds the opposite of each: all 12
        # systems clash, and only the first full system is solved.
        calls = count_lps(monkeypatch)
        e = [tuple(float(i == j) for j in range(3)) for i in range(3)]
        points = [[[LinearConstraint(v, True)] for v in e],
                  [[LinearConstraint(tuple(-2.0 * x for x in v)) for v in e]],
                  [[LinearConstraint(v)] for v in e + [(1.0, 1.0, 1.0)]]]
        assert find_direction(points, 3, {}) is None
        assert len(calls) == 1

    def test_clash_is_refuted_exactly(self):
        # The solver accepts g = (1, 0) for the second system within its
        # tolerance, and plain enumeration returns that. But a strict row
        # and a row on the opposite ray exclude each other however small
        # the second normal, and once the first system has failed the
        # search refutes the second with no LP.
        strict = LinearConstraint((1.0, 0.0), True)
        points = [[[strict]],
                  [[LinearConstraint((-1.0, 0.0), True)], [LinearConstraint((-1e-12, 0.0))]]]
        assert brute_force_direction(points, 2).witness == (1.0, 0.0)
        assert find_direction(points, 2, {}) is None

    def test_feasible_first_choice_costs_one_lp(self, monkeypatch):
        calls = count_lps(monkeypatch)
        e1, e2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        m1, m2 = (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)
        points = [[[LinearConstraint(e1, True)], [LinearConstraint(m1, True)]],
                  [[LinearConstraint(e2, True)], [LinearConstraint(m2, True)]]]
        assert find_direction(points, 3, {}).feasible
        assert len(calls) == 1

    def test_failed_last_system_ends_the_search(self, monkeypatch):
        # Nothing is left after the last system, so its failure solves no
        # prefix and builds no table. The rays of the two-system instance
        # are pairwise distinct and not opposite, so the table refutes
        # nothing there either, and each system is one LP.
        calls, tables = count_lps(monkeypatch), count_tables(monkeypatch)
        one = [[[LinearConstraint((1.0, 0.0), True)]], [[LinearConstraint((-1.0, 1.0), True)]],
               [[LinearConstraint((-1.0, -1.0), True)]]]
        assert find_direction(one, 2, {}) is None
        assert calls == [tuple(r for point in one for r in point[0])] and tables == []
        calls.clear()
        two = [[[LinearConstraint((1.0, 0.0), True)], [LinearConstraint((1.0, 1.0), True)]],
               [[LinearConstraint((0.0, 1.0), True)]],
               [[LinearConstraint((-1.0, -2.0))]]]
        assert find_direction(two, 2, {}) is None
        assert [len(rows) for rows in calls] == [3, 3] and len(tables) == 1

    def test_single_option_tail_solves_what_enumeration_solves(self, monkeypatch):
        # With one option at every choice point after the first, a failed
        # system can only advance the first position, so no prefix is worth
        # solving: the search solves the full systems of plain enumeration,
        # in its order, up to the first feasible one. Uniform normals put
        # no two rows on opposite rays, so the table refutes nothing.
        rng = random.Random(47)
        calls = count_lps(monkeypatch)
        outcomes = set()
        for trial in range(120):
            dim = 2 + trial % 4

            def option():
                return [LinearConstraint(tuple(rng.uniform(-1, 1) for _ in range(dim)),
                                         rng.random() < 0.7)
                        for _ in range(rng.randint(1, 2))]

            points = [[option() for _ in range(rng.randint(2, 5))]]
            points += [[option()] for _ in range(rng.randint(1, 3))]
            systems = [tuple(r for part in combo for r in part) for combo in product(*points)]
            feasible = [linear_feasibility(rows, dim) for rows in systems]
            stop = next((i for i, result in enumerate(feasible) if result.feasible), None)
            calls.clear()
            found = find_direction(points, dim, {})
            assert calls == systems[:len(systems) if stop is None else stop + 1]
            assert found == (None if stop is None else feasible[stop])
            outcomes.add((stop is None, stop is not None and stop > 0))
        assert outcomes == {(True, False), (False, False), (False, True)}

    def test_abs_sum_upper_family_reduces_within_budget(self, monkeypatch):
        # 16 two-vertex sets; certifying each without pruning needs up to
        # 2**15 systems.
        tree = directional_derivative_tree(abs_sum_objective(), (0.0, 0.0, 0.0))
        calls = count_lps(monkeypatch)
        reduced = reduce_exhauster(abs_sum_upper_pairs())
        assert len(reduced.sets) == 4
        assert len(calls) < 1000
        for g in sample_unit_directions(3, 50, seed=5):
            assert eval_exhauster(reduced, g) == pytest.approx(
                eval_minmax(tree, g), abs=1e-9)

    def test_abs_sum_upper_family_reduces_in_few_lps(self, monkeypatch):
        # Nearly all of the up to 2**15 systems behind each candidate hold
        # two strict rows on opposite rays: the conflict table refutes
        # those with no LP.
        calls = count_lps(monkeypatch)
        assert len(reduce_exhauster(abs_sum_upper_pairs()).sets) == 4
        assert len(calls) <= 40


class TestRepresentationFidelity:
    def test_families_match_tree_pointwise(self):
        rng = random.Random(19)
        for _ in range(15):
            expr = random_expr(rng)
            x = random_point(rng)
            tree = directional_derivative_tree(expr, x)
            upper = exhauster_from_tree(tree, "upper")
            lower = exhauster_from_tree(tree, "lower")
            for g in circle_directions(90):
                reference = eval_minmax(tree, g)
                assert eval_exhauster(upper, g) == pytest.approx(reference, abs=1e-9)
                assert eval_exhauster(lower, g) == pytest.approx(reference, abs=1e-9)

    def test_families_and_tree_agree_beyond_the_plane(self):
        # At the origin more max/min children tie than at a random point.
        rng = random.Random(23)
        for dim in (3, 4, 5):
            for _ in range(8):
                expr = random_expr(rng, dim)
                for x in (random_point(rng, dim, scale=1.0), (0.0,) * dim):
                    tree = directional_derivative_tree(expr, x)
                    upper = exhauster_from_tree(tree, "upper")
                    lower = exhauster_from_tree(tree, "lower")
                    for g in sample_unit_directions(dim, 12, seed=dim):
                        reference = eval_minmax(tree, g)
                        assert eval_exhauster(upper, g) == pytest.approx(reference, abs=1e-9)
                        assert eval_exhauster(lower, g) == pytest.approx(reference, abs=1e-9)
                        assert fd_directional_derivatives(expr, x, [g])[0] == \
                            pytest.approx(reference, abs=1e-3)

    def test_reference_families_agree_with_trees(self):
        for tree in (objective_tree(), constraint_tree()):
            upper = exhauster_from_tree(tree, "upper")
            lower = exhauster_from_tree(tree, "lower")
            for g in circle_directions(360):
                assert eval_exhauster(upper, g) == pytest.approx(
                    eval_exhauster(lower, g), abs=1e-9)
                assert eval_exhauster(upper, g) == pytest.approx(
                    eval_minmax(tree, g), abs=1e-9)


class TestJson:
    def test_round_trip(self):
        family = Exhauster("upper", 2, (C1, C2))
        data = family.to_json()
        assert data == {"kind": "upper", "dim": 2,
                        "sets": [[[1.0, 1.0], [-1.0, 1.0]],
                                 [[1.0, -1.0], [-1.0, -1.0]]]}
        again = Exhauster.from_json(data)
        assert again == family

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Exhauster("sideways", 2, (C1,))

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            Exhauster.from_json({"kind": "upper", "dim": 2})
