import hashlib
import math
import random
from fractions import Fraction

import pytest

from exhausters import geometry
from exhausters.conditions import region_arcs, region_membership
from exhausters.deriv import (Leaf, Max, Min, Scale, SmoothAtom, Sum, _minmax_columns,
                              eval_expr, eval_minmax)
from exhausters.errors import CapExceededError, DimensionMismatchError
from exhausters.exhauster import Exhauster, eval_exhauster, exhauster_tree, polytopes_equal
from exhausters.geometry import (
    TOL,
    TWO_PI,
    ArcSet,
    FeasibilityResult,
    LinearConstraint,
    Polytope,
    arcset_subset,
    as_vector,
    contains_origin,
    dot,
    hull_contains,
    linear_feasibility,
    plain_sum,
    sample_unit_directions,
    unit_direction,
)

from helpers import (C1, C3, DUAL, NEG_DUAL, NOT_DUAL, NOT_NEG_DUAL, SIGN_KINDS,
                     arc_measure, expr_columns, random_polytope, sign_region)


def support(polytope, g, kind):
    """The extreme vertex product over one set, as the value of the
    one-set family of that kind: max for upper, min for lower."""
    return eval_exhauster(Exhauster(kind, polytope.dim, (polytope,)), g)


class TestSupportValue:
    def test_max_over_segment(self):
        assert support(C3, (1, 0), "upper") == pytest.approx(1.0)

    def test_min_over_segment(self):
        assert support(C1, (1, 0), "lower") == pytest.approx(-1.0)

    def test_zero_direction(self):
        assert support(C1, (0, 0), "upper") == 0.0

    def test_dimension_mismatch(self):
        for kind in ("upper", "lower"):
            with pytest.raises(DimensionMismatchError):
                support(C1, (1, 0, 0), kind)


class TestPolytopeConstruction:
    def test_each_vertex_is_converted_once(self, monkeypatch):
        calls = []

        def counted(coords):
            calls.append(coords)
            return as_vector(coords)

        monkeypatch.setattr(geometry, "as_vector", counted)
        poly = Polytope.from_vertices(iter([(1, 0), [0, 1], (-1, -1)]))
        assert poly.vertices == ((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0))
        assert len(calls) == 3
        Polytope.from_json([[1, 2, 3], [4, 5, 6]])
        assert len(calls) == 5

    @pytest.mark.parametrize("vertices, error, text", [
        ([(1.0, math.inf), (1.0, 2.0, 3.0)], ValueError, "non-finite coordinate"),
        ([], ValueError, "a polytope needs at least one vertex"),
        ([(1.0, 2.0), (1.0, 2.0, 3.0)], DimensionMismatchError, "does not have dimension 2"),
        ([(1.0, 2.0), 5], TypeError, "not iterable"),
        ([5], TypeError, "not iterable"),
        # Every vertex is converted before the first one's length is judged.
        ([(), (1.0, "x")], ValueError, "could not convert string to float"),
    ])
    def test_errors(self, vertices, error, text):
        with pytest.raises(error, match=text):
            Polytope.from_vertices(vertices)


def explicit_tableau(rows, rhs):
    """The tableau of ``rows @ x = rhs`` with every column stored: each row
    signed so that its right-hand side is nonnegative, then the identity
    block of the artificials, which ``_solve_nonneg`` reads with the sign 1."""
    m = len(rows)
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        row = [-v for v in row] if b < 0 else list(row)
        row += [0.0] * m
        row[len(row) - m + i] = 1.0
        tableau.append(row)
    return tableau, [abs(b) for b in rhs]


def simplex_hull_contains(poly, point):
    """``hull_contains``'s convex-combination system, decided by the
    simplex alone, with no vertex shortcut."""
    rows = [*zip(*poly.vertices), (1.0,) * len(poly.vertices)]
    tableau, rhs = explicit_tableau(rows, [*point, 1.0])
    return geometry._solve_nonneg(tableau, rhs, 0, len(poly.vertices),
                                  [1] * len(rows), None) is not None


def full_feasibility(cons, dim):
    """``linear_feasibility`` on the full tableau, every column stored as
    the kernel once stored them: g = p - q with the q block, one slack per
    row and the artificials' identity, with ``free=0``."""
    m = len(cons)
    rows = []
    for i, c in enumerate(cons):
        row = [*(-v for v in c.normal), *c.normal, *[0.0] * m]
        row[2 * dim + i] = 1.0
        rows.append(row)
    rhs = [-1.0 if c.strict else 0.0 for c in cons]
    weight = [0.0] * dim
    for c in cons:
        if c.strict:
            weight = [w + v for w, v in zip(weight, c.normal)]
    for objective in ([*weight, *(-w for w in weight)], None):
        x = geometry._solve_nonneg(*explicit_tableau(rows, rhs), 0, 2 * dim + m,
                                   [1] * m, objective)
        if x is None:
            return FeasibilityResult(False, None)
        g = tuple(x[j] - x[dim + j] for j in range(dim))
        if all(c.satisfied_by(g) for c in cons):
            return FeasibilityResult(True, g)
    raise geometry.SolverError("feasibility witness failed verification")


class TestContainsOrigin:
    def test_segment_off_origin(self):
        assert not contains_origin(C1)

    def test_segment_through_origin(self):
        seg = Polytope.from_vertices([(1, 1), (-1, -1)])
        assert contains_origin(seg)

    def test_triangle_brute_force_cross_check(self):
        # Independent oracle: dense grid over the weight simplex.
        tri = Polytope.from_vertices([(1, 0), (0, 1), (-1, -1)])
        best = math.inf
        steps = 60
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                l1, l2 = i / steps, j / steps
                l3 = 1.0 - l1 - l2
                x = l1 * 1 + l2 * 0 + l3 * (-1)
                y = l1 * 0 + l2 * 1 + l3 * (-1)
                best = min(best, math.hypot(x, y))
        assert best < 1e-6  # the grid finds the origin, so the hull has it
        assert contains_origin(tri)

    def test_vertex_on_origin(self):
        assert contains_origin(Polytope.from_vertices([(0, 0), (2, 1)]))

    def test_vertex_shortcut_matches_the_simplex(self):
        # A zero vertex or a coordinate that separates every vertex from 0
        # decides contains_origin without an LP. Wherever the entries of a
        # set span at most six orders of magnitude, the answer is the
        # simplex's: signed zeros, 1e-12, the band 1e-9..1e-6 around the
        # shortcut's margin, small integers and uniform entries.
        rng = random.Random(21)

        def entry():
            kind = rng.randrange(5)
            if kind == 0:
                return rng.choice([0.0, -0.0])
            if kind == 1:
                return rng.choice([1e-12, -1e-12])
            if kind == 2:
                return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-9, -6)
            if kind == 3:
                return float(rng.randint(-3, 3))
            return rng.uniform(-1, 1)

        answers = {True: 0, False: 0}
        tested = 0
        while tested < 2000:
            dim = rng.randint(1, 5)
            vertices = [tuple(entry() for _ in range(dim))
                        for _ in range(rng.randint(1, 6))]
            sizes = [abs(c) for v in vertices for c in v if c]
            if sizes and max(sizes) > 1e6 * min(sizes):
                continue
            tested += 1
            poly = Polytope.from_vertices(vertices)
            found = contains_origin(poly)
            assert found == simplex_hull_contains(poly, (0.0,) * dim), vertices
            answers[found] += 1
        assert answers[True] > 500 and answers[False] > 500

    @pytest.mark.parametrize("vertices, inside", [
        # Every vertex is above the margin in its one coordinate, yet the
        # simplex, deciding within an absolute 1e-9, finds the origin.
        ([(70535029.51278058,), (3.6763867743898136e-06,)], False),
        # The origin is a vertex, yet the simplex rejects the set.
        ([(-8.33251465618634e-09, -899.5866671036933),
          (-0.004007510000517121, 6.726941814527563e-07), (0.0, 0.0),
          (0.00030149148356154766, 78579435.05444857)], True),
    ])
    def test_shortcut_is_exact_where_the_simplex_misjudges(self, vertices, inside):
        poly = Polytope.from_vertices(vertices)
        assert contains_origin(poly) is inside
        assert simplex_hull_contains(poly, (0.0,) * poly.dim) is not inside

    def test_every_vertex_is_in_its_hull(self):
        # The simplex rejects the vertex (0, 0) of this wide-magnitude set,
        # and this set once compared unequal to itself.
        poly = Polytope.from_vertices([
            (-8.33251465618634e-09, -899.5866671036933),
            (-0.004007510000517121, 6.726941814527563e-07), (0.0, 0.0),
            (0.00030149148356154766, 78579435.05444857)])
        assert not simplex_hull_contains(poly, (0.0, 0.0))
        assert all(hull_contains(poly, v) for v in poly.vertices)
        assert hull_contains(poly, (-0.0, 0.0))
        assert polytopes_equal(poly, poly)


class TestConjugateMembership:
    def test_inside(self):
        assert region_membership(sign_region(DUAL, C3), (1, 0))

    def test_outside(self):
        assert not region_membership(sign_region(DUAL, C3), (-1, 0))

    def test_boundary_vertex(self):
        assert region_membership(sign_region(DUAL, C1), (0, 1))

    def test_matches_support_min(self):
        rng = random.Random(7)
        for _ in range(200):
            poly = random_polytope(rng)
            g = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            expected = support(poly, g, "lower") >= -TOL
            assert region_membership(sign_region(DUAL, poly), g) == expected


class TestLinearFeasibility:
    def test_single_strict(self):
        res = linear_feasibility([LinearConstraint((-1, 0), True)], 2)
        assert res.feasible
        assert res.witness == (-1.0, 0.0)

    def test_contradictory_strict(self):
        res = linear_feasibility([
            LinearConstraint((-1, 0), True),
            LinearConstraint((1, 0), True),
        ], 2)
        assert not res.feasible
        assert res.witness is None

    def test_mixed_system(self):
        cons = [
            LinearConstraint((-1, -1)),
            LinearConstraint((-1, 1)),
            LinearConstraint((0, 1), True),
        ]
        res = linear_feasibility(cons, 2)
        assert res.feasible
        assert all(c.satisfied_by(res.witness) for c in cons)
        assert res.witness == (-1.0, 1.0)

    def test_empty_system(self):
        assert linear_feasibility([], 3).feasible

    def test_strict_free_systems_match_phase_one(self):
        # A system with no strict row is answered with no tableau. Its
        # result must be the one phase one gives on the system as
        # linear_feasibility builds it: free g = p - q, one slack per row,
        # every right-hand side 0.
        rng = random.Random(17)

        def entry():
            kind = rng.randrange(4)
            if kind == 0:
                return rng.choice([0.0, -0.0])
            if kind == 1:
                return float(rng.randint(-3, 3))
            if kind == 2:
                return rng.uniform(-1, 1)
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)

        for _ in range(300):
            dim = rng.randint(1, 5)
            cons = [LinearConstraint(tuple(entry() for _ in range(dim)))
                    for _ in range(rng.randint(1, 12))]
            m = len(cons)
            eq = []
            for i, c in enumerate(cons):
                row = [*(-v for v in c.normal), *c.normal, *[0.0] * m]
                row[2 * dim + i] = 1.0
                eq.append(row)
            x = geometry._solve_nonneg(*explicit_tableau(eq, [0.0] * m), 0,
                                       2 * dim + m, [1] * m, None)
            phase_one = FeasibilityResult(
                True, tuple(x[j] - x[dim + j] for j in range(dim)))
            res = linear_feasibility(cons, dim)
            assert repr(res) == repr(phase_one)
            assert all(c.satisfied_by(res.witness) for c in cons)

    def test_witnesses_resubstitute_on_random_systems(self):
        # Every second system is planted: each row's sense holds at some
        # multiple of g, so wide systems reach phase two too. The digest
        # pins each outcome and witness bit for bit.
        rng = random.Random(11)
        # (sign, strict) per row, in the order of the four senses the
        # digest was recorded with: <= 0, <= -1, >= 0, >= 1.
        senses = [(-1.0, False), (-1.0, True), (1.0, False), (1.0, True)]
        digest = hashlib.sha256()
        feasible = 0
        for k in range(300):
            dim = rng.choice([2, 3, 4])
            normals = [tuple(float(rng.randint(-3, 3)) for _ in range(dim))
                       for _ in range(rng.randint(1, 32))]
            if k % 2:
                picks = [rng.choice(senses) for _ in normals]
            else:
                g = tuple(float(rng.randint(-2, 2)) for _ in range(dim))
                picks = []
                for n in normals:
                    v = sum(a * b for a, b in zip(n, g))
                    if v < 0:
                        options = senses[:2]
                    elif v > 0:
                        options = senses[2:]
                    else:
                        options = [senses[0], senses[2]]
                    picks.append(rng.choice(options))
            cons = [LinearConstraint(tuple(sign * c for c in n), strict)
                    for n, (sign, strict) in zip(normals, picks)]
            res = linear_feasibility(cons, dim)
            digest.update(repr((res.feasible, res.witness)).encode())
            if res.feasible:
                feasible += 1
                for c in cons:
                    assert c.satisfied_by(res.witness)
                    # strict rows carry a near-unit margin
                    if c.strict:
                        assert dot(c.normal, res.witness) >= 1.0 - TOL
        assert feasible == 178
        assert digest.hexdigest() == \
            "f1ed79d61a86390d6ee2ff612fb2e1c236b5bfbd4c07719453089c0c24ee622e"

    def test_kernel_digest_on_awkward_inputs(self):
        # Fractional, signed-zero, tiny and mixed-magnitude normals in dims
        # 2-5, half the systems planted as above, then hull and origin
        # tests on random polytopes. The digest pins every outcome and
        # witness bit for bit; a system whose witness fails verification
        # contributes a fixed token.
        rng = random.Random(71)

        def entry(style):
            if style == 0:
                return rng.randint(-12, 12) / rng.choice([2.0, 3.0, 7.0, 10.0])
            if style == 1:
                return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])
            if style == 2:
                return rng.choice([1e-12, -1e-12, 0.0, 1.0, -1.0, rng.uniform(-1, 1)])
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)

        digest = hashlib.sha256()
        for k in range(400):
            dim = rng.randint(2, 5)
            style = k % 4
            normals = [tuple(entry(style) for _ in range(dim))
                       for _ in range(rng.randint(1, 12))]
            g = tuple(float(rng.randint(-2, 2)) for _ in range(dim))
            cons = []
            for n in normals:
                strict = rng.random() < 0.5
                sign = rng.choice([-1.0, 1.0])
                if k // 4 % 2 == 0:
                    # Left to right, as sum() did before Python 3.12.
                    v = 0.0
                    for a, b in zip(n, g):
                        v += a * b
                    sign = -1.0 if v < 0 else 1.0
                    strict = strict and v != 0
                cons.append(LinearConstraint(tuple(sign * c for c in n), strict))
            try:
                res = linear_feasibility(cons, dim)
                token = repr((res.feasible, res.witness))
            except ArithmeticError:
                token = "unverified"
            digest.update(token.encode())
        for k in range(300):
            dim = rng.randint(2, 5)
            style = k % 4
            poly = Polytope.from_vertices(
                [tuple(entry(style) for _ in range(dim))
                 for _ in range(rng.randint(1, 8))])
            point = tuple(entry(style) for _ in range(dim))
            digest.update(repr((hull_contains(poly, point),
                                contains_origin(poly))).encode())
        assert digest.hexdigest() == \
            "fbb8303f36c5fce4f22d70eb6945079512f0ea7029f48b1664f29edba115edda"

    def test_pivot_cap_counts_each_phase(self, monkeypatch):
        # Phase one of this system takes 5 pivots and phase two 2, so the
        # cap bounds the longer phase, not the total of 7.
        cons = [
            LinearConstraint((0, -1), True),
            LinearConstraint((3, -2), True),
            LinearConstraint((-1, -2), True),
        ]
        monkeypatch.setattr(geometry, "PIVOT_CAP", 4)
        with pytest.raises(CapExceededError):
            linear_feasibility(cons, 2)
        monkeypatch.setattr(geometry, "PIVOT_CAP", 5)
        res = linear_feasibility(cons, 2)
        assert res.witness == (-1 / 3, -1.0)

    def test_phase_one_fallback(self, monkeypatch):
        # No known input makes the margin-polishing phase fail verification,
        # so corrupt its point and expect the phase-one witness instead.
        solve = geometry._solve_nonneg

        def corrupt(polished_only):
            def patched(tableau, rhs, free, structural, signs, objective):
                x = solve(tableau, rhs, free, structural, signs, objective)
                if objective is not None or not polished_only:
                    x = [0.0] * len(x)
                return x
            return patched

        cons = [
            LinearConstraint((-1, 0), True),
            LinearConstraint((1, 1)),
            LinearConstraint((0, 1), True),
        ]
        monkeypatch.setattr(geometry, "_solve_nonneg", corrupt(True))
        res = linear_feasibility(cons, 2)
        assert res.feasible
        assert all(c.satisfied_by(res.witness) for c in cons)
        monkeypatch.setattr(geometry, "_solve_nonneg", corrupt(False))
        with pytest.raises(ArithmeticError):
            linear_feasibility(cons, 2)

    @staticmethod
    def awkward_entry(rng):
        kind = rng.randrange(6)
        if kind == 0:
            return rng.choice([0.0, -0.0])
        if kind == 1:
            return rng.choice([1e-12, -1e-12])
        if kind == 2:
            return rng.uniform(-1, 1) * 10.0 ** rng.choice([-12, 12])
        if kind == 3:
            return float(rng.randint(-3, 3))
        return rng.uniform(-1, 1)

    def test_twin_tableau_matches_the_full_tableau(self):
        # linear_feasibility stores p and the slacks only, reading each q
        # column as -p and each artificial as its signed slack; the same
        # kernel on the full tableau, every column stored, must take the
        # same walk bit for bit, or raise the same exception.
        rng = random.Random(29)
        outcomes = set()
        for k in range(1500):
            dim = rng.randint(1, 8)
            m = rng.choice([rng.randint(1, 6), rng.randint(1, 12), rng.randint(1, 40)])
            g = tuple(float(rng.randint(-2, 2)) for _ in range(dim))
            cons = []
            for _ in range(m):
                normal = tuple(self.awkward_entry(rng) for _ in range(dim))
                strict = rng.random() < 0.5
                if k % 2:  # planted: each row holds at a multiple of g
                    v = plain_sum(a * b for a, b in zip(normal, g))
                    normal = tuple(-c for c in normal) if v < 0 else normal
                    strict = strict and v != 0
                cons.append(LinearConstraint(normal, strict or len(cons) == 0))
            results = []
            for solve in (linear_feasibility, full_feasibility):
                try:
                    results.append(repr(solve(cons, dim)))
                except ArithmeticError as exc:
                    results.append(repr((type(exc), str(exc))))
            assert results[0] == results[1], (dim, cons)
            outcomes.add(results[0][:30])
        assert len(outcomes) >= 3  # feasible, infeasible and unverified systems

    def test_hull_tableau_matches_the_explicit_tableau(self):
        # hull_contains builds its signed rows and identity block itself;
        # on every point that is no vertex it must answer as the kernel on
        # the explicit tableau does.
        rng = random.Random(31)
        answers = []
        for k in range(400):
            dim = rng.randint(1, 8)
            poly = Polytope.from_vertices(
                [tuple(self.awkward_entry(rng) for _ in range(dim))
                 for _ in range(rng.randint(1, 12))])
            point = tuple(self.awkward_entry(rng) for _ in range(dim))
            if k % 2:  # a convex combination of the vertices
                w = [rng.random() for _ in poly.vertices]
                point = tuple(plain_sum(a * v[j] for a, v in zip(w, poly.vertices))
                              / plain_sum(w) for j in range(dim))
            if point not in poly.vertices:
                answers.append(hull_contains(poly, point))
                assert answers[-1] is simplex_hull_contains(poly, point)
        assert True in answers and False in answers

    def test_kernel_runs_on_fractions(self, monkeypatch):
        # With its three tolerances at 0 the kernel is exact on Fraction
        # entries: the int signs keep every entry a Fraction, and phase one
        # ends on a point that meets every row exactly.
        for name in ("_RC_EPS", "_PIVOT_EPS", "_RATIO_TIE"):
            monkeypatch.setattr(geometry, name, 0)
        normals = [((1, 3), True), ((1, 1), False), ((-1, 2), True), ((2, -1), False)]
        dim, m = 2, len(normals)
        signs = [-1 if strict else 1 for _, strict in normals]
        tableau = []
        for i, (normal, strict) in enumerate(normals):
            row = [Fraction(v if strict else -v, 7) for v in normal] + [Fraction(0)] * m
            row[dim + i] = Fraction(signs[i])
            tableau.append(row)
        rhs = [Fraction(1 if strict else 0) for _, strict in normals]
        reduced = [Fraction(0)] * (dim + m)
        for row in tableau:
            reduced = [r - v for r, v in zip(reduced, row)]
        reduced += [Fraction(0)] * m  # the artificials', after the stored columns'
        basis = list(range(2 * dim + m, 2 * dim + 2 * m))
        geometry._minimize(tableau, rhs, basis, reduced, dim, dim + m, signs)
        values = [v for row in tableau for v in row] + rhs + reduced
        assert all(type(v) is Fraction for v in values)
        x = [Fraction(0)] * (2 * dim + 2 * m)
        for i, col in enumerate(basis):
            x[col] = rhs[i]
        assert not any(x[2 * dim + m:])  # every artificial is zero
        g = [x[j] - x[dim + j] for j in range(dim)]
        for i, (normal, strict) in enumerate(normals):
            value = sum(Fraction(a, 7) * b for a, b in zip(normal, g))
            assert value - x[2 * dim + i] == (1 if strict else 0)  # the row, slack s
            assert x[2 * dim + i] >= 0
        # A pivot on a q column reads -p: the twin becomes a unit column,
        # so its stored p column is minus one, in every row, exactly.
        row = next(i for i in range(m) if tableau[i][0] != 0)
        geometry._pivot(tableau, rhs, basis, row, dim, 0, -1)
        assert [r[0] for r in tableau] == [-1 if i == row else 0 for i in range(m)]
        assert basis[row] == dim

    def test_deterministic_repeat(self):
        cons = [
            LinearConstraint((2, -1)),
            LinearConstraint((1, 3), True),
        ]
        first = linear_feasibility(cons, 2)
        second = linear_feasibility(cons, 2)
        assert first == second


class TestArcs:
    def test_dual_cone_arc(self):
        arcs = region_arcs(sign_region(DUAL, C3))
        assert arc_measure(arcs) == pytest.approx(math.pi / 2, abs=1e-9)
        for theta in (0.0, math.pi / 4, -math.pi / 4):
            assert arcs.contains(theta)
        for theta in (math.pi / 4 + 0.01, -math.pi / 4 - 0.01, math.pi):
            assert not arcs.contains(theta)

    def test_negative_dual_is_reflection(self):
        pos = region_arcs(sign_region(DUAL, C3))
        neg = region_arcs(sign_region(NEG_DUAL, C3))
        for k in range(360):
            theta = TWO_PI * k / 360
            assert pos.contains(theta) == neg.contains(theta + math.pi)

    def test_complement_predicate_arc(self):
        arcs = region_arcs(sign_region(NOT_DUAL, C1))
        assert arc_measure(arcs) == pytest.approx(3 * math.pi / 2, abs=1e-9)
        assert arcs.contains(math.pi / 4)      # boundary angle included
        assert not arcs.contains(math.pi / 2)  # interior of the open gap
        assert arcs.contains(0.0)
        assert arcs.contains(math.pi)

    def test_arc_membership_matches_predicates(self):
        # Exact carrier consistency: arcs agree with direct vertex-sign
        # evaluation on a dense random sample of angles.
        rng = random.Random(3)
        modes = {
            DUAL: lambda p, g: support(p, g, "lower") >= -TOL,
            NEG_DUAL: lambda p, g: support(p, g, "upper") <= TOL,
            NOT_DUAL: lambda p, g: support(p, g, "lower") <= TOL,
            NOT_NEG_DUAL: lambda p, g: support(p, g, "upper") >= -TOL,
        }
        for _ in range(25):
            poly = random_polytope(rng)
            arcs = {mode: region_arcs(sign_region(mode, poly)) for mode in modes}
            for _ in range(40):
                theta = rng.uniform(0.0, TWO_PI)
                g = unit_direction(theta)
                for mode, predicate in modes.items():
                    assert arcs[mode].contains(theta) == predicate(poly, g), \
                        f"{mode} disagrees at {theta} on {poly.vertices}"

    def test_family_arcs_match_membership(self):
        # Several sets: the per-set arcs united or intersected agree with
        # the region's own evaluation of the family.
        rng = random.Random(5)
        for _ in range(25):
            sets = [random_polytope(rng) for _ in range(rng.randint(2, 3))]
            for mode in SIGN_KINDS:
                region = sign_region(mode, *sets)
                arcs = region_arcs(region)
                for _ in range(20):
                    theta = rng.uniform(0.0, TWO_PI)
                    assert arcs.contains(theta) == region_membership(
                        region, unit_direction(theta)), f"{mode} at {theta}"

    def test_zero_vertex_means_no_restriction(self):
        poly = Polytope.from_vertices([(0, 0)])
        for mode in SIGN_KINDS:
            assert arc_measure(region_arcs(sign_region(mode, poly))) == pytest.approx(TWO_PI)

    def test_point_arc_from_opposite_vertices(self):
        poly = Polytope.from_vertices([(1, 0), (-1, 0)])
        arcs = region_arcs(sign_region(DUAL, poly))
        assert arcs.contains(math.pi / 2)
        assert arcs.contains(3 * math.pi / 2)
        assert arc_measure(arcs) == pytest.approx(0.0, abs=1e-9)

    def test_requires_plane(self):
        with pytest.raises(DimensionMismatchError):
            region_arcs(sign_region(DUAL, Polytope.from_vertices([(1, 0, 0)])))


class TestArcsetSubset:
    def test_full_cover(self):
        held, witness = arcset_subset(ArcSet.normalize([(0, math.pi)]), ArcSet.full())
        assert held and witness is None

    def test_half_cover_witness(self):
        held, witness = arcset_subset(
            ArcSet.normalize([(0, math.pi)]),
            ArcSet.normalize([(0, math.pi / 2)]))
        assert not held
        assert witness == pytest.approx(3 * math.pi / 4)

    def test_reflexive(self):
        arcs = ArcSet.normalize([(-math.pi / 4, math.pi / 4),
                                 (3 * math.pi / 4, 5 * math.pi / 4)])
        held, _ = arcset_subset(arcs, arcs)
        assert held

    def test_wraparound_gap_midpoint(self):
        # Uncovered region straddles angle zero; the witness is its true
        # midpoint, not an artifact of the cut at zero.
        lhs = ArcSet.normalize([(-math.pi / 4, math.pi / 4)])
        rhs = ArcSet(())
        held, witness = arcset_subset(lhs, rhs)
        assert not held
        assert witness == pytest.approx(0.0, abs=1e-9)

    def test_witness_is_uncovered(self):
        rng = random.Random(23)
        for _ in range(100):
            raw_a = [(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(2)]
            raw_b = [(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(2)]
            a = ArcSet.normalize([(s, s + abs(e - s) % TWO_PI) for s, e in raw_a])
            b = ArcSet.normalize([(s, s + abs(e - s) % TWO_PI) for s, e in raw_b])
            held, witness = arcset_subset(a, b)
            if not held:
                assert a.contains(witness)
                assert not b.contains(witness)


class TestArcSetAlgebra:
    def test_union_idempotent(self):
        arcs = ArcSet.normalize([(0.5, 1.5), (3.0, 4.0)])
        assert arcs.union(arcs).arcs == arcs.arcs

    def test_intersect_with_full(self):
        arcs = ArcSet.normalize([(0.5, 1.5)])
        result = arcs.intersect(ArcSet.full())
        assert arc_measure(result) == pytest.approx(1.0)

    def test_boundary_identification_at_zero(self):
        left = ArcSet.normalize([(5.0, TWO_PI)])
        right = ArcSet.normalize([(0.0, 1.0)])
        meet = left.intersect(right)
        assert meet.contains(0.0)
        assert arc_measure(meet) == pytest.approx(0.0, abs=1e-9)


class TestInvariants:
    def test_positive_homogeneity_of_support(self):
        rng = random.Random(5)
        for _ in range(200):
            poly = random_polytope(rng)
            g = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            lam = rng.uniform(0.01, 10.0)
            for kind in ("upper", "lower"):
                scaled = support(poly, tuple(lam * c for c in g), kind)
                assert scaled == pytest.approx(lam * support(poly, g, kind),
                                               rel=1e-9, abs=1e-9)

    def test_origin_membership_bounds_supports(self):
        rng = random.Random(9)
        found = 0
        for _ in range(200):
            poly = random_polytope(rng)
            if not contains_origin(poly):
                continue
            found += 1
            for _ in range(20):
                g = (rng.uniform(-3, 3), rng.uniform(-3, 3))
                assert support(poly, g, "lower") <= TOL
                assert support(poly, g, "upper") >= -TOL
        assert found > 10

    def test_hull_contains_midpoints(self):
        rng = random.Random(13)
        for _ in range(100):
            poly = random_polytope(rng, max_vertices=4)
            a = rng.choice(poly.vertices)
            b = rng.choice(poly.vertices)
            t = rng.random()
            mid = tuple(t * x + (1 - t) * y for x, y in zip(a, b))
            assert hull_contains(poly, mid)

    def test_sample_unit_directions_deterministic(self):
        assert sample_unit_directions(3, 50, seed=4) == \
            sample_unit_directions(3, 50, seed=4)
        for g in sample_unit_directions(3, 50, seed=4):
            assert math.hypot(*g) == pytest.approx(1.0)

    def test_sample_unit_directions_returns_fresh_lists(self):
        for dim in (2, 3):
            first = sample_unit_directions(dim, 50, seed=4)
            second = sample_unit_directions(dim, 50, seed=4)
            assert first == second and first is not second
            first[0] = (9.0,) * dim
            first.pop()
            assert sample_unit_directions(dim, 50, seed=4) == second
            assert len(second) == 50


class TestFloatSums:
    """Float sums add left to right from 0, as ``sum`` does up to Python
    3.11. From 3.12 on ``sum`` compensates, and each value below would
    differ between interpreters."""

    def test_sums_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum gives 1.0.
        terms = (1e16, 1.0, -1e16)
        assert plain_sum(terms) == 0.0
        assert dot(terms, (1.0, 1.0, 1.0)) == 0.0
        assert eval_minmax(Leaf(terms), (1.0, 1.0, 1.0)) == 0.0
        assert _minmax_columns(Leaf(terms), [(1.0, 1.0, 1.0)]) == [0.0]
        atom = SmoothAtom(3, tuple((c, (1, 0, 0)) for c in terms))
        atoms = Sum(tuple(SmoothAtom(3, ((c, (1, 0, 0)),)) for c in terms))
        for expr in (atom, atoms):
            assert eval_expr(expr, (1.0, 0.0, 0.0)) == 0.0
            assert expr_columns(expr, [(1.0, 0.0, 0.0)]) == [0.0]

    def test_expression_signed_zeros_match_pointwise(self):
        # An atom adds its terms from 0.0, so it gives 0.0 where x1 = 0 and
        # its negation -0.0; repr tells the two apart.
        zero = SmoothAtom(1, ((1.0, (1,)),))
        negative_zero = Scale(-1.0, zero)
        cases = [
            # Added from integer 0 as plain_sum adds, -0.0 + -0.0 gives 0.0.
            (Sum((negative_zero, negative_zero)), "0.0"),
            # On a tie the first child is kept.
            (Max((zero, negative_zero)), "0.0"),
            (Max((negative_zero, zero)), "-0.0"),
            (Min((negative_zero, zero)), "-0.0"),
            (Min((zero, negative_zero)), "0.0"),
        ]
        for expr, expected in cases:
            assert repr(eval_expr(expr, (0.0,))) == expected
            assert list(map(repr, expr_columns(expr, [(0.0,), (-0.0,)]))) == \
                [repr(eval_expr(expr, (0.0,))), repr(eval_expr(expr, (-0.0,)))]

    @pytest.mark.parametrize("kind", ["upper", "lower"])
    def test_family_tree_matches_eval_exhauster(self, kind):
        # Tied vertices and signed zeros: the first extreme wins in both.
        family = Exhauster(kind, 2, (
            Polytope(2, ((1e16, 1.0), (-0.0, 0.0), (0.0, -0.0))),
            Polytope(2, ((-0.0, -0.0),)),
            Polytope(2, ((1.0, 1.0), (1.0, 1.0), (-1e16, 2.0)))))
        directions = [(1.0, 1.0), (0.0, -0.0), (-0.0, 1.0), (1.0, -1e-16), (-1.0, 0.0)]
        assert list(map(repr, _minmax_columns(exhauster_tree(family), directions))) == \
            [repr(eval_exhauster(family, g)) for g in directions]

    @pytest.mark.parametrize("dim, expected", [
        (3, "66660e26c432f6ae9f5ac5ed421be6d7a3c1fdb0ce47c09bdf726cd7cbe4a18f"),
        (4, "5f69b3032db2335b97fdd7c2073ea93eb843381b3f26816515b11e6ee6b38e7b"),
    ])
    def test_sampled_directions_digest(self, dim, expected):
        # The oracle's sample, normalized with dot: its bits reach reports.
        sample = repr(sample_unit_directions(dim, 720, 0)).encode()
        assert hashlib.sha256(sample).hexdigest() == expected
