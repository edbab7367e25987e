import hashlib
import itertools
import json
import math
import random
import struct

import pytest

from exhausters import cli, deriv
from exhausters.deriv import (
    FD_BLOCK,
    Leaf,
    Max,
    Min,
    Scale,
    SmoothAtom,
    Sum,
    _arc_bounder,
    _minmax_columns,
    directional_derivative_tree,
    eval_expr,
    eval_minmax,
    expr_dim,
    expr_from_json,
    fd_directional_derivatives,
    leaf_count,
    scale_tree,
)
from exhausters.errors import DimensionMismatchError
from exhausters.exhauster import exhauster_from_tree

from helpers import (
    FIXTURES,
    circle_directions,
    constraint_expr,
    constraint_tree,
    coord,
    disc_atom,
    expr_columns,
    kinked_function,
    objective_expr,
    objective_tree,
    problem_dict,
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

    def test_many_matches_pointwise_bit_for_bit(self):
        # repr tells -0.0 from 0.0, so signed zeros must match too.
        rng = random.Random(67)
        for dim in (2, 3, 4, 5):
            for _ in range(20):
                expr = _wide_expr(rng, dim, 3)
                points = [_signed_zero_vector(rng, dim, lambda: rng.uniform(-2.0, 2.0))
                          for _ in range(30)]
                assert list(map(repr, expr_columns(expr, points))) == \
                    [repr(eval_expr(expr, x)) for x in points]
        assert expr_columns(objective_expr(), []) == []

    def test_many_overflow_raises_as_pointwise(self):
        expr = Max((coord(2, 0), SmoothAtom(2, ((1.0, (400, 0)),))))
        assert expr_columns(expr, [(5.8, 0.0)]) == [eval_expr(expr, (5.8, 0.0))]
        with pytest.raises(OverflowError) as pointwise:
            eval_expr(expr, (5.9, 0.0))
        with pytest.raises(OverflowError) as many:
            expr_columns(expr, [(5.8, 0.0), (5.9, 0.0)])
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
                assert list(map(repr, _minmax_columns(tree, directions))) == \
                    [repr(eval_minmax(tree, g)) for g in directions]
        # A plane max or min node folds its leaf children straight into its
        # running column. Next to them sit subtrees whose columns hold inf
        # and nan (inf - inf), so each fold must keep or pass over a NaN as
        # max and min do; the infinite directions give 0.0 * inf = nan.
        big = Leaf((1.7e308, 1.7e308))
        nan_sum = Sum((big, Leaf((-1.7e308, -1.7e308))))
        parts = (big, nan_sum, Leaf((1.0, 0.0)), Leaf((-0.0, -1.0)))
        directions = [(1.0, 1.0), (-1.0, -1.0), (1.0, 0.0), (0.0, -0.0), (-0.0, 1.0),
                      (2.0, -0.5), (1.0, -1.0), (math.inf, 0.0), (0.0, -math.inf)]
        for node in (Max, Min):
            for count in (2, 3):
                for children in itertools.permutations(parts, count):
                    for tree in (node(children), Sum((node(children), Leaf((0.5, 0.5))))):
                        assert list(map(repr, _minmax_columns(tree, directions))) == \
                            [repr(eval_minmax(tree, g)) for g in directions], tree

    def test_many_signed_zero_and_single_child(self):
        tree = Min((Max((Leaf((-0.0, 1.0)),)),))
        assert repr(_minmax_columns(tree, [(1.0, -0.0)])[0]) == "0.0"
        assert repr(_minmax_columns(Leaf((-0.0, 1.0, 2.0)), [(1.0, -0.0, 0.0)])[0]) == "0.0"


class TestArcBounds:
    """``_arc_bounder`` bounds the column values of a plane tree on an arc
    shorter than a half turn: the sampled oracle skips a block on it."""

    def test_every_column_value_lies_inside(self):
        # Forms scaled by 10^k, k in -12..12, and some subnormal ones, whose
        # products round by whole subnormal steps that no relative widening
        # covers.
        rng = random.Random(34)
        for trial in range(3000):
            scale = 1e-321 if trial % 20 == 0 else 10.0 ** rng.randint(-12, 12)
            tree = scale_tree(random_minmax_tree(rng, 2, rng.randint(1, 4)), scale)
            start = rng.uniform(0.0, 2.0 * math.pi)
            span = rng.choice([0.0, 1e-9, rng.uniform(0.0, math.pi), math.pi * (1.0 - 1e-6)])
            angles = [start, start + span] + [start + span * rng.random() for _ in range(8)]
            for step in (1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
                angles += [start + min(step, span), start + span - min(step, span)]
            directions = [(math.cos(t), math.sin(t)) for t in angles]
            lo, hi = _arc_bounder(tree)((*directions[0], *directions[1]))
            for g, value in zip(directions, _minmax_columns(tree, directions)):
                assert lo <= value <= hi, (trial, tree, g)

    def test_subnormal_forms_on_sample_blocks(self):
        # Entries a few least subnormals: each product rounds by up to half a
        # step, and hypot too, which no relative widening covers.
        tiny = math.ulp(0.0)
        directions = circle_directions(2 * FD_BLOCK)
        for a, b in itertools.product(range(-8, 9), repeat=2):
            leaf = Leaf((a * tiny, b * tiny))
            for start in (0, FD_BLOCK):
                block = directions[start:start + FD_BLOCK]
                lo, hi = _arc_bounder(leaf)((*block[0], *block[-1]))
                assert all(lo <= v <= hi for v in _minmax_columns(leaf, block)), (a, b, start)

    def test_a_leaf_bound_is_its_range(self):
        # Ends alone, or the peak (trough) of the sinusoid when the form (its
        # negation) points into the arc: no wider than the widening.
        for form, start, span, low, high in (
                ((1.0, 0.0), 0.3, 1.0, math.cos(1.3), math.cos(0.3)),
                ((1.0, 0.0), -0.5, 1.0, math.cos(0.5), 1.0),
                ((-2.0, 0.0), -0.5, 1.0, -2.0, -2.0 * math.cos(0.5)),
                ((0.0, 3.0), 2.0, 1.0, 3.0 * math.sin(3.0), 3.0 * math.sin(2.0))):
            first = (math.cos(start), math.sin(start))
            last = (math.cos(start + span), math.sin(start + span))
            lo, hi = _arc_bounder(Leaf(form))((*first, *last))
            assert lo == pytest.approx(low, abs=1e-11) and hi == pytest.approx(high, abs=1e-11)
            assert lo < low and high < hi


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

    def test_only_the_steps_the_estimate_reads_can_overflow(self):
        # x1^543 overflows past x1 = 3.6956: from 3.62 along (1, 0) only a
        # step of 0.1 would reach it, and the estimate reads no such step.
        atom = SmoothAtom(2, ((1.0, (543, 0)),))
        [estimate] = fd_directional_derivatives(atom, (3.62, 0.0), [(1.0, 0.0)])
        assert math.isfinite(estimate)
        assert estimate == pytest.approx(543 * 3.62 ** 542, rel=1e-4)
        # Along (1e4, 0) a step the estimate reads overflows.
        with pytest.raises(OverflowError):
            fd_directional_derivatives(atom, (3.62, 0.0), [(1e4, 0.0)])

    def test_each_block_is_evaluated_at_three_steps(self, monkeypatch):
        # The CLI's oracle hands the estimator one block of directions at a
        # time, and each call evaluates its block in one column pass.
        counts = []

        def counted(node, coords, count, powers):
            if node is expr:  # not the recursive calls on its subtrees
                counts.append(count)
            return original(node, coords, count, powers)

        original = deriv._expr_columns
        monkeypatch.setattr(deriv, "_expr_columns", counted)
        expr = objective_expr()
        families = {kind: exhauster_from_tree(objective_tree(), kind)
                    for kind in ("upper", "lower")}
        # 150 directions fill two blocks and part of a third.
        cli._oracle_deviation("objective", expr, families, (0.0, 0.0), circle_directions(150))
        assert counts == [3 * FD_BLOCK, 3 * FD_BLOCK, 3 * (150 - 2 * FD_BLOCK)]

    def test_one_call_equals_its_blocks(self):
        # Each estimate is computed on its own, so splitting a call into the
        # oracle's blocks changes no bit. 150 seeded unit directions fill two
        # blocks and part of a third; the steep power is the fixture's.
        rng = random.Random(29)
        steep = json.loads((FIXTURES / "steep-power" / "problem.json").read_text())
        cases = [(expr_from_json(steep["objective"]), steep["point"]),
                 (expr_from_json(kinked_function(rng, 3, (3, 2))), (0.0, 0.0, 0.0))]
        for expr, x in cases:
            gauss = [[rng.gauss(0.0, 1.0) for _ in x] for _ in range(150)]
            directions = [tuple(c / math.hypot(*g) for c in g) for g in gauss]
            blocks = [estimate for start in range(0, len(directions), FD_BLOCK)
                      for estimate in fd_directional_derivatives(
                          expr, x, directions[start:start + FD_BLOCK])]
            assert list(map(repr, fd_directional_derivatives(expr, x, directions))) == \
                list(map(repr, blocks))
            assert all(map(math.isfinite, blocks))

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


def _to_json(expr):
    """The wire form of ``expr``, as ``expr_from_json`` reads it."""
    if isinstance(expr, SmoothAtom):
        return {"atom": {"terms": [{"c": coef, "e": list(exps)} for coef, exps in expr.terms]}}
    if isinstance(expr, Scale):
        return {"op": "scale", "coef": expr.coef, "arg": _to_json(expr.child)}
    return {"op": expr.op, "args": [_to_json(c) for c in expr.children]}


class TestJson:
    def test_round_trip(self):
        rng = random.Random(14)
        for _ in range(20):
            expr = random_expr(rng)
            data = _to_json(expr)
            again = expr_from_json(data)
            assert _to_json(again) == data
            x = random_point(rng)
            assert eval_expr(again, x) == pytest.approx(eval_expr(expr, x))

    def test_known_schema(self):
        data = problem_dict()["objective"]
        assert data["op"] == "sum"
        assert data["args"][0]["op"] == "max"
        assert data["args"][0]["args"][0]["atom"]["terms"] == [{"c": 1.0, "e": [1, 0]}]
        assert expr_from_json(data) == objective_expr()

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
