import hashlib
import math
import random
import struct

import pytest

from exhausters.deriv import (
    Leaf,
    Max,
    Min,
    Scale,
    SmoothAtom,
    Sum,
    directional_derivative_tree,
    eval_expr,
    eval_expr_many,
    eval_minmax,
    eval_minmax_many,
    expr_dim,
    expr_from_json,
    expr_to_json,
    fd_directional_derivatives,
    leaf_count,
    scale_tree,
)
from exhausters.errors import DimensionMismatchError

from helpers import (
    circle_directions,
    constraint_expr,
    constraint_tree,
    coord,
    disc_atom,
    objective_expr,
    objective_tree,
    random_expr,
    random_minmax_tree,
    random_point,
)


def _wide_expr(rng, dim, depth):
    """Random expression with exponents 0-3, negative and fractional
    coefficients, scale nodes and nested, possibly single-child nodes."""
    if depth == 0 or rng.random() < 0.25:
        return SmoothAtom(dim, tuple(
            (rng.choice([-2.5, -1.0, -0.75, 0.5, 1.0, 3.0, rng.uniform(-4.0, 4.0)]),
             tuple(rng.randint(0, 3) for _ in range(dim)))
            for _ in range(rng.randint(1, 4))))
    kind = rng.choice(["sum", "scale", "max", "min"])
    if kind == "scale":
        return Scale(rng.choice([-1.5, -1.0, 0.25, 2.0]), _wide_expr(rng, dim, depth - 1))
    node = {"sum": Sum, "max": Max, "min": Min}[kind]
    return node(tuple(_wide_expr(rng, dim, depth - 1) for _ in range(rng.randint(1, 3))))


def _signed_zero_vector(rng, dim, draw):
    return tuple(rng.choice([0.0, -0.0, draw()]) for _ in range(dim))


class TestEval:
    def test_first_disc_at_origin(self):
        assert eval_expr(disc_atom(-1, -1), (0, 0)) == pytest.approx(0.0)

    def test_constraint_at_origin(self):
        assert eval_expr(constraint_expr(), (0, 0)) == pytest.approx(0.0)

    def test_abs_difference(self):
        assert eval_expr(objective_expr(), (3, 1)) == pytest.approx(2.0)

    def test_matches_closed_form_everywhere(self):
        rng = random.Random(2)
        f = objective_expr()
        u = constraint_expr()
        for _ in range(100):
            x = random_point(rng)
            assert eval_expr(f, x) == pytest.approx(abs(x[0]) - abs(x[1]))
            h = [0.5 * ((x[0] - sx) ** 2 + (x[1] - sy) ** 2) - 1.0
                 for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            expected = min(max(h[0], h[1]), max(h[2], h[3]))
            assert eval_expr(u, x) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_expr(objective_expr(), (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            eval_expr_many(objective_expr(), [(1, 2), (1, 2, 3)])

    def test_many_matches_pointwise_bit_for_bit(self):
        # repr tells -0.0 from 0.0, so signed zeros must match too.
        rng = random.Random(67)
        for dim in (2, 3, 4, 5):
            for _ in range(20):
                expr = _wide_expr(rng, dim, 3)
                points = [_signed_zero_vector(rng, dim, lambda: rng.uniform(-2.0, 2.0))
                          for _ in range(30)]
                assert list(map(repr, eval_expr_many(expr, points))) == \
                    [repr(eval_expr(expr, x)) for x in points]
        assert eval_expr_many(objective_expr(), []) == []

    def test_many_overflow_raises_as_pointwise(self):
        expr = Max((coord(2, 0), SmoothAtom(2, ((1.0, (400, 0)),))))
        assert eval_expr_many(expr, [(5.8, 0.0)]) == [eval_expr(expr, (5.8, 0.0))]
        with pytest.raises(OverflowError) as pointwise:
            eval_expr(expr, (5.9, 0.0))
        with pytest.raises(OverflowError) as many:
            eval_expr_many(expr, [(5.8, 0.0), (5.9, 0.0)])
        assert str(many.value) == str(pointwise.value)


class TestGradient:
    def test_disc_gradients_at_origin(self):
        assert disc_atom(-1, -1).gradient((0.0, 0.0)) == (-1.0, -1.0)
        assert disc_atom(1, 1).gradient((0.0, 0.0)) == (1.0, 1.0)

    def test_linear_atom(self):
        atom = coord(2, 0)
        assert atom.gradient((5.0, -3.0)) == (1.0, 0.0)

    def test_matches_central_differences(self):
        rng = random.Random(4)
        for _ in range(50):
            dim = rng.choice([2, 3])
            terms = tuple(
                (float(rng.randint(-3, 3)),
                 tuple(rng.randint(0, 2) for _ in range(dim)))
                for _ in range(rng.randint(1, 4)))
            atom = SmoothAtom(dim, terms)
            x = tuple(rng.uniform(-1.5, 1.5) for _ in range(dim))
            grad = atom.gradient(x)
            eps = 1e-6
            for j in range(dim):
                plus = list(x)
                minus = list(x)
                plus[j] += eps
                minus[j] -= eps
                fd = (atom.value(plus) - atom.value(minus)) / (2 * eps)
                assert grad[j] == pytest.approx(fd, abs=1e-5)


class TestDirectionalTree:
    def test_objective_tree_matches_closed_form(self):
        tree = objective_tree()
        for g in circle_directions(100):
            assert eval_minmax(tree, g) == pytest.approx(abs(g[0]) - abs(g[1]))

    def test_constraint_tree_structure(self):
        tree = constraint_tree()
        assert isinstance(tree, Min)
        assert len(tree.children) == 2
        first, second = tree.children
        assert isinstance(first, Max) and isinstance(second, Max)
        assert [leaf.form for leaf in first.children] == [(-1.0, -1.0), (-1.0, 1.0)]
        assert [leaf.form for leaf in second.children] == [(1.0, -1.0), (1.0, 1.0)]

    def test_inactive_child_dropped(self):
        square = SmoothAtom(2, ((1.0, (2, 0)),))
        expr = Max((coord(2, 0), square))
        tree = directional_derivative_tree(expr, (2.0, 0.0))
        assert tree == Leaf((4.0, 0.0))

    def test_negative_scale_swaps_nodes(self):
        expr = Scale(-1.0, Max((coord(2, 0), coord(2, 0, -1.0))))
        tree = directional_derivative_tree(expr, (0.0, 0.0))
        assert isinstance(tree, Min)
        for g in circle_directions(32):
            assert eval_minmax(tree, g) == pytest.approx(-abs(g[0]))

    def test_sum_becomes_sum_node(self):
        # No distribution: 25 two-leaf maxima stay 50 leaves, not 2^25.
        children = tuple(Max((coord(2, 0), coord(2, 1))) for _ in range(25))
        tree = directional_derivative_tree(Sum(children), (0.0, 0.0))
        assert isinstance(tree, Sum) and leaf_count(tree) == 50
        assert eval_minmax(tree, (1.0, -2.0)) == 25.0


class TestEvalMinMax:
    def test_objective_tree_value(self):
        assert eval_minmax(objective_tree(), (1, 2)) == pytest.approx(-1.0)

    def test_constraint_tree_value(self):
        assert eval_minmax(constraint_tree(), (1, 0)) == pytest.approx(-1.0)

    def test_zero_direction(self):
        assert eval_minmax(constraint_tree(), (0, 0)) == 0.0

    def test_positive_homogeneity(self):
        rng = random.Random(6)
        for _ in range(20):
            expr = random_expr(rng)
            tree = directional_derivative_tree(expr, random_point(rng))
            for _ in range(20):
                g = random_point(rng)
                lam = rng.uniform(0.01, 8.0)
                scaled = eval_minmax(tree, tuple(lam * c for c in g))
                assert scaled == pytest.approx(lam * eval_minmax(tree, g),
                                               rel=1e-9, abs=1e-9)

    def test_many_matches_pointwise_bit_for_bit(self):
        # repr tells -0.0 from 0.0, so signed zeros must match too.
        rng = random.Random(66)
        for dim in (2, 3, 4, 5):
            for _ in range(40):
                tree = random_minmax_tree(rng, dim)
                directions = [tuple(rng.choice([0.0, -0.0, rng.gauss(0.0, 1.0)])
                                    for _ in range(dim)) for _ in range(30)]
                assert list(map(repr, eval_minmax_many(tree, directions))) == \
                    [repr(eval_minmax(tree, g)) for g in directions]

    def test_many_signed_zero_and_single_child(self):
        tree = Min((Max((Leaf((-0.0, 1.0)),)),))
        assert repr(eval_minmax_many(tree, [(1.0, -0.0)])[0]) == "0.0"
        assert repr(eval_minmax_many(Leaf((-0.0, 1.0, 2.0)), [(1.0, -0.0, 0.0)])[0]) == "0.0"

    def test_many_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_minmax_many(Leaf((1.0, 2.0)), [(1.0, 0.0), (1.0, 0.0, 0.0)])


class TestTreeAlgebra:
    def test_sum_is_pointwise(self):
        rng = random.Random(8)
        for _ in range(20):
            e1 = random_expr(rng)
            e2 = random_expr(rng)
            x = random_point(rng)
            t1 = directional_derivative_tree(e1, x)
            t2 = directional_derivative_tree(e2, x)
            both = directional_derivative_tree(Sum((e1, e2)), x)
            assert both == Sum((t1, t2))
            for g in circle_directions(24):
                assert eval_minmax(both, g) == pytest.approx(
                    eval_minmax(t1, g) + eval_minmax(t2, g), abs=1e-9)

    def test_scale_negates(self):
        rng = random.Random(10)
        for _ in range(20):
            expr = random_expr(rng)
            x = random_point(rng)
            tree = directional_derivative_tree(expr, x)
            flipped = directional_derivative_tree(Scale(-1.0, expr), x)
            for g in circle_directions(24):
                assert eval_minmax(flipped, g) == pytest.approx(
                    -eval_minmax(tree, g), abs=1e-9)

    def test_negative_scale_keeps_sum_nodes(self):
        tree = Sum((Max((Leaf((1.0, 0.0)), Leaf((0.0, 1.0)))), Leaf((2.0, 2.0))))
        assert scale_tree(tree, -1.0) == Sum((
            Min((Leaf((-1.0, -0.0)), Leaf((-0.0, -1.0)))), Leaf((-2.0, -2.0))))

    def test_scale_tree_zero(self):
        tree = scale_tree(objective_tree(), 0.0)
        for g in circle_directions(8):
            assert eval_minmax(tree, g) == 0.0


class TestFiniteDifferences:
    def test_exact_on_piecewise_linear(self):
        value = fd_directional_derivatives(objective_expr(), (0, 0), [(1, 0)])[0]
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_constraint_direction(self):
        value = fd_directional_derivatives(constraint_expr(), (0, 0), [(1, 0)])[0]
        assert value == pytest.approx(-1.0, abs=1e-3)

    def test_smooth_piece(self):
        value = fd_directional_derivatives(disc_atom(-1, -1), (0, 0), [(0, 1)])[0]
        assert value == pytest.approx(-1.0, abs=1e-6)

    def test_tree_agreement_on_reference_pair(self):
        for expr in (objective_expr(), constraint_expr()):
            tree = directional_derivative_tree(expr, (0.0, 0.0))
            # The tree is built of the expression's own Sum, Max and Min
            # nodes, and one walker gives both the same dimension.
            assert type(tree) is type(expr)
            assert [type(c) for c in tree.children] == [type(c) for c in expr.children]
            assert expr_dim(tree) == expr_dim(expr) == 2
            for g in circle_directions(360):
                fd = fd_directional_derivatives(expr, (0.0, 0.0), [g])[0]
                assert fd == pytest.approx(eval_minmax(tree, g), abs=1e-3)

    def test_many_directions_match_one_at_a_time(self):
        # 150 directions fill two blocks and part of a third.
        rng = random.Random(19)
        for dim in (2, 3, 5):
            expr = _wide_expr(rng, dim, 3)
            x = _signed_zero_vector(rng, dim, lambda: rng.uniform(-1.5, 1.5))
            directions = [_signed_zero_vector(rng, dim, lambda: rng.gauss(0.0, 1.0))
                          for _ in range(150)]
            assert list(map(repr, fd_directional_derivatives(expr, x, directions))) == \
                [repr(fd_directional_derivatives(expr, x, [g])[0]) for g in directions]
        assert fd_directional_derivatives(objective_expr(), (0.0, 0.0), []) == []

    def test_overflow_at_a_larger_step_raises(self):
        # x1^400 overflows past x1 = 5.897, so at 5.8 only the largest step
        # does; the three smallest steps alone would give a finite estimate.
        atom = SmoothAtom(2, ((1.0, (400, 0)),))
        with pytest.raises(OverflowError):
            fd_directional_derivatives(atom, (5.8, 0.0), [(1.0, 0.0)])[0]
        assert math.isfinite(fd_directional_derivatives(atom, (5.8, 0.0), [(0.5, 0.0)])[0])

    def test_direction_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError):
            fd_directional_derivatives(objective_expr(), (0.0, 0.0), [(1.0, 0.0, 0.0)])

    def test_tree_agreement_on_random_expressions(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(20):
            expr = random_expr(rng)
            x = random_point(rng, scale=1.0)
            tree = directional_derivative_tree(expr, x)
            for g in circle_directions(36):
                fd = fd_directional_derivatives(expr, x, [g])[0]
                assert fd == pytest.approx(eval_minmax(tree, g), abs=1e-3)
                checked += 1
        assert checked == 720


class TestPinnedDigest:
    def test_values_and_estimates_digest(self):
        # The sha256 of every value's bytes as the per-direction scalar
        # estimator gave them: a changed bit, a signed zero included,
        # changes it.
        rng = random.Random(18)
        digest = hashlib.sha256()
        for dim in (2, 3, 4, 5):
            for _ in range(8):
                expr = Sum((Scale(-1.25, _wide_expr(rng, dim, 3)),
                            Max((_wide_expr(rng, dim, 3),
                                 Min((_wide_expr(rng, dim, 2),
                                      Scale(0.5, _wide_expr(rng, dim, 2))))))))
                for _ in range(4):
                    x = _signed_zero_vector(rng, dim, lambda: rng.uniform(-1.5, 1.5))
                    digest.update(struct.pack("d", eval_expr(expr, x)))
                    for _ in range(4):
                        g = _signed_zero_vector(rng, dim, lambda: rng.gauss(0.0, 1.0))
                        digest.update(struct.pack("d", eval_expr(expr, g)))
                        [estimate] = fd_directional_derivatives(expr, x, [g])
                        digest.update(struct.pack("d", estimate))
        assert digest.hexdigest() == "42ae1c2b321c0ef26d111c6fcf2018d52dd407d55b79f5313e300d7a8136393d"


class TestJson:
    def test_round_trip(self):
        rng = random.Random(14)
        for _ in range(20):
            expr = random_expr(rng)
            data = expr_to_json(expr)
            again = expr_from_json(data)
            assert expr_to_json(again) == data
            x = random_point(rng)
            assert eval_expr(again, x) == pytest.approx(eval_expr(expr, x))

    def test_known_schema(self):
        data = expr_to_json(objective_expr())
        assert data["op"] == "sum"
        assert data["args"][0]["op"] == "max"
        assert data["args"][0]["args"][0]["atom"]["terms"] == [{"c": 1.0, "e": [1, 0]}]

    @pytest.mark.parametrize("bad", [
        {"op": "nope", "args": []},
        {"op": ["max"], "args": [{"atom": {"terms": [{"c": 1, "e": [1]}]}}]},
        {"op": "max", "args": []},
        {"op": "scale", "arg": {"atom": {"terms": [{"c": 1, "e": [1]}]}}},
        {"atom": {"terms": []}},
        {"atom": {}},
        [1, 2, 3],
        {"op": "sum", "args": [
            {"atom": {"terms": [{"c": 1, "e": [1, 0]}]}},
            {"atom": {"terms": [{"c": 1, "e": [1, 0, 0]}]}},
        ]},
    ])
    def test_malformed_inputs(self, bad):
        with pytest.raises(ValueError):
            expr_from_json(bad)
