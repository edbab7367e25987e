"""Piecewise-smooth expressions and their directional derivatives.

An expression is a tree of polynomial atoms (``SmoothAtom``) combined by
``Sum``, ``Scale``, ``Max`` and ``Min``. At a fixed point, the one-sided
derivative in a direction ``g`` is a continuous positively homogeneous
piecewise-linear function of ``g``; it is built here as a tree of the same
``Sum``, ``Max`` and ``Min`` nodes over linear forms (``Leaf``) by
linearizing the atoms that are active at the point. A finite-difference
estimator that only ever evaluates the expression provides an independent
check of that construction.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import DimensionMismatchError
from .geometry import Value, Vector, as_int, as_vector, dot, is_number, json_numbers, plain_sum

ACTIVITY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Polynomial atoms and expression nodes
# ---------------------------------------------------------------------------

def _checked(x: Sequence[float], dim: int) -> Sequence[float]:
    """``x`` itself, once it is known to have ``dim`` coordinates."""
    if len(x) != dim:
        raise DimensionMismatchError(f"point of length {len(x)} against dimension {dim}")
    return x


class Expr(Value):
    """Base class of expression and derivative-tree nodes."""

    __slots__ = ()


class SmoothAtom(Expr):
    """Multivariate polynomial: a sum of ``coefficient * monomial`` terms.

    Terms are ``(coefficient, exponents)`` pairs where the exponent
    multi-index has one nonnegative entry per variable. Values and
    gradients are exact polynomial arithmetic.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int,
                 terms: Iterable[tuple[float, Iterable[int]]]) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        cleaned = []
        for coef, exps in terms:
            exps = tuple(as_int(e) for e in exps)
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent multi-index {exps} does not have length {dim}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            cleaned.append((float(coef), exps))
        if not cleaned:
            raise ValueError("an atom needs at least one term")
        self._init(dim, tuple(cleaned))

    def value(self, x: Sequence[float]) -> float:
        _checked(x, self.dim)
        total = 0.0
        for coef, exps in self.terms:
            term = coef
            for xi, e in zip(x, exps):
                if e:
                    term *= xi ** e
            total += term
        return total

    def gradient(self, x: Sequence[float]) -> Vector:
        _checked(x, self.dim)
        grad = [0.0] * self.dim
        for coef, exps in self.terms:
            for j, ej in enumerate(exps):
                if ej == 0:
                    continue
                part = coef * ej
                for i, (xi, ei) in enumerate(zip(x, exps)):
                    p = ei - 1 if i == j else ei
                    if p:
                        part *= xi ** p
                grad[j] += part
        return tuple(grad)


class Leaf(Expr):
    """Linear form ``g -> <form, g>``, a leaf of a derivative tree."""

    __slots__ = ("form",)

    def __init__(self, form: Iterable[float]) -> None:
        form = as_vector(form)
        if not form:
            raise ValueError("dimension must be positive")
        self._init(form)

    @property
    def dim(self) -> int:
        return len(self.form)


class Scale(Expr):
    __slots__ = ("coef", "child")

    def __init__(self, coef: float, child: Expr) -> None:
        self._init(float(coef), child)


class _Node(Expr):
    """Operator over a nonempty tuple of children; ``op`` is its wire name."""

    __slots__ = ("children",)
    op: str

    def __init__(self, children: Iterable[Expr]) -> None:
        children = tuple(children)
        if not children:
            raise ValueError(f"{self.op} needs at least one child")
        self._init(children)


class Sum(_Node):
    """Pointwise sum of the children, added left to right."""

    __slots__ = ()
    op = "sum"


class Max(_Node):
    """Pointwise maximum of the children."""

    __slots__ = ()
    op = "max"


class Min(_Node):
    """Pointwise minimum of the children."""

    __slots__ = ()
    op = "min"


# A derivative tree: Sum, Max and Min nodes over Leaf forms.
MinMaxTree = Leaf | Sum | Max | Min


def leaves(node: Expr) -> Iterator[Expr]:
    """The leaves of an expression or a derivative tree, left to right:
    its atoms, or its linear forms."""
    if isinstance(node, _Node):
        for child in node.children:
            yield from leaves(child)
    elif isinstance(node, Scale):
        yield from leaves(node.child)
    else:
        yield node


def expr_dim(node: Expr) -> int:
    """Dimension of an expression or a derivative tree: its first leaf's."""
    while isinstance(node, (_Node, Scale)):
        node = node.child if isinstance(node, Scale) else node.children[0]
    return node.dim


def _eval(expr: Expr, x: Vector) -> float:
    if isinstance(expr, SmoothAtom):
        return expr.value(x)
    if isinstance(expr, Sum):
        return plain_sum(_eval(c, x) for c in expr.children)
    if isinstance(expr, Scale):
        return expr.coef * _eval(expr.child, x)
    if isinstance(expr, Max):
        return max(_eval(c, x) for c in expr.children)
    if isinstance(expr, Min):
        return min(_eval(c, x) for c in expr.children)
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expr(expr: Expr, x: Sequence[float]) -> float:
    """Pointwise evaluation with exact max/min semantics."""
    return _eval(expr, _checked(as_vector(x), expr_dim(expr)))


def _expr_columns(expr: Expr, coords: list[list[float]], count: int,
                  powers: dict[tuple[int, int], list[float]]) -> list[float]:
    """``eval_expr`` at ``count`` points whose coordinate columns are
    ``coords``, as one elementwise column per node; ``powers`` keeps each
    ``x_j ** e`` column of the call. Atoms multiply a term's factors in
    exponent order, sums add left to right from +0.0 (``0 + p`` converts
    ``plain_sum``'s 0 to +0.0 first), and max and min keep the first
    extreme child: every value, signed zeros and ``OverflowError`` included,
    is ``eval_expr``'s."""
    if isinstance(expr, SmoothAtom):
        total = [0.0] * count
        for coef, exps in expr.terms:
            factors = []
            for j, e in enumerate(exps):
                if e:
                    if (j, e) not in powers:
                        powers[j, e] = [xi ** e for xi in coords[j]]
                    factors.append(powers[j, e])
            if not factors:
                total = [a + coef for a in total]
                continue
            # coef times the factors in exponent order; the last product is
            # added to the total in the same pass.
            term = [coef] * count
            for factor in factors[:-1]:
                term = [t * p for t, p in zip(term, factor)]
            total = [a + t * p for a, t, p in zip(total, term, factors[-1])]
        return total
    if isinstance(expr, Scale):
        coef = expr.coef
        return [coef * v for v in _expr_columns(expr.child, coords, count, powers)]
    if not isinstance(expr, _Node):
        raise TypeError(f"not an expression node: {expr!r}")
    columns = [_expr_columns(c, coords, count, powers) for c in expr.children]
    if isinstance(expr, Sum):
        return functools.reduce(lambda a, b: list(map(operator.add, a, b)),
                                columns, [0.0] * count)
    return _extreme_columns(expr, columns)


def _extreme_columns(node: Expr, columns: list[list[float]]) -> list[float]:
    """Elementwise max of the columns for a ``Max`` node, min otherwise.
    Folded left to right, a later value replaces the kept one only when it
    is strictly greater (less), the rule of ``max`` and ``min``: the first
    extreme child wins, and a NaN is kept or passed over as they do.

    An expression's columns can hold -0.0 (a negative scale of a zero), and
    there a tie keeps the first child's sign. A derivative tree's columns
    never do: its leaf sums start at +0.0 (``_minmax_columns``), a float
    sum is -0.0 only when both of its terms are, and sum, max and min nodes
    only add or pick those values. So ties between its leaves cannot differ
    in sign, and only a NaN tells which operand the fold keeps.
    """
    if isinstance(node, Max):
        return functools.reduce(
            lambda a, b: [y if y > x else x for x, y in zip(a, b)], columns)
    return functools.reduce(
        lambda a, b: [y if y < x else x for x, y in zip(a, b)], columns)


# ---------------------------------------------------------------------------
# Max/min/sum trees of linear forms
# ---------------------------------------------------------------------------

# The node a negative scale turns each node into.
_NEGATED = {Max: Min, Min: Max, Sum: Sum}


def eval_minmax(tree: MinMaxTree, g: Sequence[float]) -> float:
    if isinstance(tree, Leaf):
        return dot(tree.form, g)
    values = [eval_minmax(c, g) for c in tree.children]
    if isinstance(tree, Sum):
        return functools.reduce(operator.add, values)
    return max(values) if isinstance(tree, Max) else min(values)


def _minmax_columns(tree: MinMaxTree,
                    directions: Sequence[Sequence[float]]) -> list[float]:
    """``eval_minmax`` at every direction of the tree's dimension, as one
    elementwise column per node. Max and min nodes fold their children
    into one running column by ``_extreme_columns``'s rule, a plane leaf
    with no column of its own. Leaf sums start at +0.0 where ``dot`` starts
    at 0, the same bits for float terms, so every value is ``eval_minmax``'s."""
    if isinstance(tree, Leaf):
        form = tree.form
        if len(form) == 2:
            a, b = form
            return [0.0 + a * x + b * y for x, y in directions]
        # Column by column, each direction's sum adds left to right.
        column = [0.0] * len(directions)
        for j, c in enumerate(form):
            column = [s + c * g[j] for s, g in zip(column, directions)]
        return column
    children = tree.children
    if isinstance(tree, Sum):
        return functools.reduce(lambda a, b: list(map(operator.add, a, b)),
                                [_minmax_columns(c, directions) for c in children])
    is_max = isinstance(tree, Max)
    column = _minmax_columns(children[0], directions)
    for child in children[1:]:
        if not (isinstance(child, Leaf) and len(child.form) == 2):
            column = _extreme_columns(tree, [column, _minmax_columns(child, directions)])
            continue
        a, b = child.form
        if is_max:
            column = [v if (v := 0.0 + a * x + b * y) > m else m
                      for m, (x, y) in zip(column, directions)]
        else:
            column = [v if (v := 0.0 + a * x + b * y) < m else m
                      for m, (x, y) in zip(column, directions)]
    return column


def _arc_bounder(tree: MinMaxTree) -> Callable[[Vector], tuple[float, float]]:
    """A function of the ends ``(x0, y0, x1, y1)`` of a counterclockwise arc
    of unit directions, shorter than a half turn, giving ``(lo, hi)`` around
    every ``_minmax_columns`` value of the plane tree on the arc, if no
    column can overflow. A leaf (a, b) lies between its values at the ends
    unless the form or its negation points into the arc (two cross products,
    read with a 1e-9 * r tolerance toward inside): then it reaches +-r =
    hypot(a, b). Rounding is covered by 1e-12 * (|a| + |b|) + 1e-300 at a
    leaf, and by 1e-12 times the children's |lo| + |hi| at a sum."""
    if isinstance(tree, Leaf):
        a, b = tree.form
        r = math.hypot(a, b)
        slack, widen = 1e-9 * r, 1e-12 * (abs(a) + abs(b)) + 1e-300

        def leaf(arc):
            x0, y0, x1, y1 = arc
            v0, v1 = 0.0 + a * x0 + b * y0, 0.0 + a * x1 + b * y1
            after_first, before_last = x0 * b - y0 * a, a * y1 - b * x1
            hi = r if after_first >= -slack and before_last >= -slack else v0 if v0 > v1 else v1
            lo = -r if after_first <= slack and before_last <= slack else v1 if v0 > v1 else v0
            return lo - widen, hi + widen
        return leaf
    first, *rest = parts = [_arc_bounder(child) for child in tree.children]
    if isinstance(tree, Sum):
        def total(arc):
            lo = hi = size = 0.0
            for part in parts:
                low, high = part(arc)
                lo, hi, size = lo + low, hi + high, size + abs(low) + abs(high)
            return lo - 1e-12 * size, hi + 1e-12 * size
        return total
    is_max = isinstance(tree, Max)

    def extreme(arc):
        lo, hi = first(arc)
        for part in rest:
            low, high = part(arc)
            lo, hi = low if (low > lo) == is_max else lo, high if (high > hi) == is_max else hi
        return lo, hi
    return extreme


def leaf_count(tree: MinMaxTree) -> int:
    return sum(1 for _ in leaves(tree))


def scale_tree(tree: MinMaxTree, lam: float) -> MinMaxTree:
    """Scale pointwise; a negative factor swaps max and min nodes and keeps
    sum nodes."""
    if isinstance(tree, Leaf):
        return Leaf(tuple(lam * c for c in tree.form))
    node = _NEGATED[type(tree)] if lam < 0.0 else type(tree)
    return node(tuple(scale_tree(c, lam) for c in tree.children))


def directional_derivative_tree(expr: Expr, x: Sequence[float]) -> MinMaxTree:
    """Directional derivative of ``expr`` at ``x`` as a tree of the
    expression's own ``Sum``, ``Max`` and ``Min`` nodes over linear forms
    (``Leaf``, the gradients of the active atoms).

    Max and min nodes keep only the children whose value at ``x`` ties the
    node value within a relative tolerance; inactive children do not affect
    the one-sided derivative, and a node left with one child is that
    child's tree. A sum stays a sum; negative scaling swaps max and min.
    """
    return _ddt(expr, _checked(as_vector(x), expr_dim(expr)))


def _ddt(expr: Expr, x: Vector) -> MinMaxTree:
    if isinstance(expr, SmoothAtom):
        return Leaf(expr.gradient(x))
    if isinstance(expr, Scale):
        return scale_tree(_ddt(expr.child, x), expr.coef)
    if not isinstance(expr, _Node):
        raise TypeError(f"not an expression node: {expr!r}")
    children = expr.children
    if not isinstance(expr, Sum):
        values = [_eval(c, x) for c in children]
        ref = max(values) if isinstance(expr, Max) else min(values)
        children = [c for c, v in zip(children, values)
                    if abs(v - ref) <= ACTIVITY_RTOL * (1.0 + abs(ref))]
        if not children:
            raise RuntimeError("empty active set")  # unreachable with tol >= 0
    subtrees = tuple(_ddt(c, x) for c in children)
    return subtrees[0] if len(subtrees) == 1 else type(expr)(subtrees)


# ---------------------------------------------------------------------------
# Finite-difference estimator
# ---------------------------------------------------------------------------

# The three difference-quotient steps: 0.1 halved 10, 11 and 12 times.
_FD_STEPS = tuple(0.1 * 0.5 ** k for k in range(10, 13))
# Directions per column pass of the sampled checks (the CLI's oracle and
# necessary_condition_oracle), so that no column grows with the sample.
FD_BLOCK = 64


def fd_directional_derivatives(expr: Expr, x: Sequence[float],
                               directions: Sequence[Sequence[float]]) -> list[float]:
    """One-sided difference-quotient estimates of the directional
    derivative in each direction, in order.

    Deliberately ignorant of the tree construction: only expression values
    enter, so this is an independent check of that code path. The value at
    the point is computed once, and every direction at the three steps in
    one pass of ``_expr_columns``, which computes each point on its own.
    The three quotients of a direction are extrapolated to step zero with a
    least-squares line, which removes the first-order error of smooth
    pieces. An expression that overflows the floats at one of the steps
    raises ``OverflowError``, which ``oracle`` reports as an input error.
    """
    point = as_vector(x)
    base = eval_expr(expr, point)
    directions = [_checked(as_vector(g), len(point)) for g in directions]
    count = len(directions)
    coords = [[xj + s * g[j] for s in _FD_STEPS for g in directions]
              for j, xj in enumerate(point)]
    if not all(all(map(math.isfinite, column)) for column in coords):
        raise ValueError("a finite-difference step leaves the float range")
    values = _expr_columns(expr, coords, count * len(_FD_STEPS), {})
    quotients = [[(v - base) / s for v in values[k * count:(k + 1) * count]]
                 for k, s in enumerate(_FD_STEPS)]
    am = plain_sum(_FD_STEPS) / 3.0
    offsets = [s - am for s in _FD_STEPS]
    spread = plain_sum(d ** 2 for d in offsets)
    estimates = []
    for qq in zip(*quotients):
        qm = plain_sum(qq) / 3.0
        slope = plain_sum(d * (qi - qm) for d, qi in zip(offsets, qq)) / spread
        estimates.append(qm - slope * am)
    return estimates


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def expr_from_json(data) -> Expr:
    """Parse the wire form; raises ValueError on malformed input."""
    expr = _parse_expr(data)
    dims = {atom.dim for atom in leaves(expr)}
    if len(dims) != 1:
        raise ValueError(f"atoms disagree on dimension: {sorted(dims)}")
    return expr


_NODES = {node.op: node for node in (Sum, Max, Min)}


def _parse_expr(data) -> Expr:
    if not isinstance(data, dict):
        raise ValueError(f"expression node must be an object, got {type(data).__name__}")
    if "atom" in data:
        spec = data["atom"]
        if not isinstance(spec, dict) or not isinstance(spec.get("terms"), list):
            raise ValueError(f"atom node needs a 'terms' array, got {spec!r}")
        terms = []
        for term in spec["terms"]:
            if not isinstance(term, dict) or "c" not in term or "e" not in term:
                raise ValueError("atom term needs 'c' and 'e'")
            exps = json_numbers(term["e"], "an exponent list")
            terms.append((_finite(term["c"]), tuple(exps)))
        if not terms:
            raise ValueError("atom needs at least one term")
        return SmoothAtom(len(terms[0][1]), tuple(terms))
    op = data.get("op")
    if op == "scale":
        if "coef" not in data or "arg" not in data:
            raise ValueError("scale node needs 'coef' and 'arg'")
        return Scale(_finite(data["coef"]), _parse_expr(data["arg"]))
    if isinstance(op, str) and op in _NODES:
        args = data.get("args")
        if not isinstance(args, list) or not args:
            raise ValueError(f"{op} node needs a nonempty 'args' list")
        return _NODES[op](tuple(_parse_expr(a) for a in args))
    raise ValueError(f"unknown expression node: {data!r}")


def _finite(value) -> float:
    if not is_number(value):
        raise ValueError(f"coefficient must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite coefficient {number!r}")
    return number

