"""Piecewise-smooth expressions and their directional derivatives.

An expression is a tree of polynomial atoms combined by sum, scale, max and
min. At a fixed point, the one-sided derivative in a direction ``g`` is a
continuous positively homogeneous piecewise-linear function of ``g``; it is
built here as a finite min/max tree over linear forms by linearizing the
atoms that are active at the point. A finite-difference estimator that only
ever evaluates the expression provides an independent check of that
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, DimensionMismatchError
from .geometry import Vector, as_int, as_vector, dot

ACTIVITY_RTOL = 1e-9
DEFAULT_LEAF_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Polynomial atoms and expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothAtom:
    """Multivariate polynomial: a sum of ``coefficient * monomial`` terms.

    Terms are ``(coefficient, exponents)`` pairs where the exponent
    multi-index has one nonnegative entry per variable. Values and
    gradients are exact polynomial arithmetic.
    """

    dim: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        cleaned = []
        for coef, exps in self.terms:
            exps = tuple(as_int(e) for e in exps)
            if len(exps) != self.dim:
                raise DimensionMismatchError(
                    f"exponent multi-index {exps} does not have length {self.dim}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            cleaned.append((float(coef), exps))
        if not cleaned:
            raise ValueError("an atom needs at least one term")
        object.__setattr__(self, "terms", tuple(cleaned))

    @staticmethod
    def coordinate(dim: int, index: int, coef: float = 1.0) -> "SmoothAtom":
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return SmoothAtom(dim, ((coef, exps),))

    def value(self, x: Sequence[float]) -> float:
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"point of length {len(x)} against dimension {self.dim}")
        total = 0.0
        for coef, exps in self.terms:
            term = coef
            for xi, e in zip(x, exps):
                if e:
                    term *= xi ** e
            total += term
        return total

    def gradient(self, x: Sequence[float]) -> Vector:
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"point of length {len(x)} against dimension {self.dim}")
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


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class AtomExpr(Expr):
    atom: SmoothAtom


@dataclass(frozen=True)
class Sum(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("sum needs at least one child")


@dataclass(frozen=True)
class Scale(Expr):
    coef: float
    child: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", float(self.coef))


@dataclass(frozen=True)
class Max(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("max needs at least one child")


@dataclass(frozen=True)
class Min(Expr):
    children: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("min needs at least one child")


def expr_dim(expr: Expr) -> int:
    node = expr
    while not isinstance(node, AtomExpr):
        node = node.child if isinstance(node, Scale) else node.children[0]
    return node.atom.dim


def _eval(expr: Expr, x: Vector) -> float:
    if isinstance(expr, AtomExpr):
        return expr.atom.value(x)
    if isinstance(expr, Sum):
        return sum(_eval(c, x) for c in expr.children)
    if isinstance(expr, Scale):
        return expr.coef * _eval(expr.child, x)
    if isinstance(expr, Max):
        return max(_eval(c, x) for c in expr.children)
    if isinstance(expr, Min):
        return min(_eval(c, x) for c in expr.children)
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expr(expr: Expr, x: Sequence[float]) -> float:
    """Pointwise evaluation with exact max/min semantics."""
    point = as_vector(x)
    if len(point) != expr_dim(expr):
        raise DimensionMismatchError(
            f"point of length {len(point)} against dimension {expr_dim(expr)}")
    return _eval(expr, point)


# ---------------------------------------------------------------------------
# Min/max trees of linear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    form: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", as_vector(self.form))


@dataclass(frozen=True)
class MaxNode:
    children: tuple["MinMaxTree", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("max node needs at least one child")


@dataclass(frozen=True)
class MinNode:
    children: tuple["MinMaxTree", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("min node needs at least one child")


MinMaxTree = Union[Leaf, MaxNode, MinNode]


def eval_minmax(tree: MinMaxTree, g: Sequence[float]) -> float:
    if isinstance(tree, Leaf):
        return dot(tree.form, g)
    values = [eval_minmax(c, g) for c in tree.children]
    return max(values) if isinstance(tree, MaxNode) else min(values)


def leaf_count(tree: MinMaxTree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return sum(leaf_count(c) for c in tree.children)


def tree_leaves(tree: MinMaxTree) -> Iterator[Vector]:
    if isinstance(tree, Leaf):
        yield tree.form
    else:
        for c in tree.children:
            yield from tree_leaves(c)


def tree_dim(tree: MinMaxTree) -> int:
    node = tree
    while not isinstance(node, Leaf):
        node = node.children[0]
    return len(node.form)


def scale_tree(tree: MinMaxTree, lam: float) -> MinMaxTree:
    """Scale pointwise; a negative factor swaps max and min nodes."""
    if isinstance(tree, Leaf):
        return Leaf(tuple(lam * c for c in tree.form))
    children = tuple(scale_tree(c, lam) for c in tree.children)
    if lam < 0.0:
        return MinNode(children) if isinstance(tree, MaxNode) else MaxNode(children)
    return type(tree)(children)


def tree_sum(a: MinMaxTree, b: MinMaxTree,
             leaf_cap: int = DEFAULT_LEAF_CAP) -> MinMaxTree:
    """Pointwise sum, materialized by distributing one tree over the other.

    ``max_i(u_i) + t == max_i(u_i + t)`` and likewise for min, so pushing
    the addition to the leaves pairs every leaf of one tree with every leaf
    of the other while preserving pointwise equality exactly. The result
    has ``leaves(a) * leaves(b)`` leaves, hence the cap.
    """
    if leaf_count(a) * leaf_count(b) > leaf_cap:
        raise CapExceededError(
            f"summed tree would exceed {leaf_cap} leaves")
    return _sum_trees(a, b)


def _sum_trees(a: MinMaxTree, b: MinMaxTree) -> MinMaxTree:
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return Leaf(tuple(x + y for x, y in zip(a.form, b.form)))
    if not isinstance(a, Leaf):
        return type(a)(tuple(_sum_trees(c, b) for c in a.children))
    return type(b)(tuple(_sum_trees(a, c) for c in b.children))


def directional_derivative_tree(expr: Expr, x: Sequence[float], *,
                                leaf_cap: int = DEFAULT_LEAF_CAP) -> MinMaxTree:
    """Directional derivative of ``expr`` at ``x`` as a min/max tree over
    linear forms (the gradients of the active atoms).

    Max and min nodes keep only the children whose value at ``x`` ties the
    node value within a relative tolerance; inactive children do not affect
    the one-sided derivative. Sums distribute over the children's trees;
    negative scaling swaps max and min.
    """
    point = as_vector(x)
    if len(point) != expr_dim(expr):
        raise DimensionMismatchError(
            f"point of length {len(point)} against dimension {expr_dim(expr)}")
    return _ddt(expr, point, leaf_cap)


def _ddt(expr: Expr, x: Vector, leaf_cap: int) -> MinMaxTree:
    if isinstance(expr, AtomExpr):
        return Leaf(expr.atom.gradient(x))
    if isinstance(expr, Scale):
        return scale_tree(_ddt(expr.child, x, leaf_cap), expr.coef)
    if isinstance(expr, Sum):
        acc = _ddt(expr.children[0], x, leaf_cap)
        for child in expr.children[1:]:
            acc = tree_sum(acc, _ddt(child, x, leaf_cap), leaf_cap)
        return acc
    if isinstance(expr, (Max, Min)):
        values = [_eval(c, x) for c in expr.children]
        ref = max(values) if isinstance(expr, Max) else min(values)
        active = [i for i, v in enumerate(values)
                  if abs(v - ref) <= ACTIVITY_RTOL * (1.0 + abs(ref))]
        if not active:
            raise RuntimeError("empty active set")  # unreachable with tol >= 0
        subtrees = tuple(_ddt(expr.children[i], x, leaf_cap) for i in active)
        if len(subtrees) == 1:
            return subtrees[0]
        return MaxNode(subtrees) if isinstance(expr, Max) else MinNode(subtrees)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Finite-difference estimator
# ---------------------------------------------------------------------------

def default_fd_steps(count: int = 13, first: float = 0.1) -> tuple[float, ...]:
    return tuple(first * 0.5 ** k for k in range(count))


def fd_directional_derivative(expr: Expr, x: Sequence[float], g: Sequence[float],
                              steps: Iterable[float] | None = None) -> float:
    """One-sided difference-quotient estimate of the directional derivative.

    Deliberately ignorant of the tree construction: only expression values
    enter, so this is an independent check of that code path. The last
    three quotients are extrapolated to step zero with a least-squares
    line, which removes the first-order error of smooth pieces.
    """
    seq = list(default_fd_steps() if steps is None else (float(s) for s in steps))
    if len(seq) < 3:
        raise ValueError("need at least three steps")
    if any(s <= 0.0 for s in seq) or any(b >= a for a, b in zip(seq, seq[1:])):
        raise ValueError("steps must be positive and strictly decreasing")
    point = as_vector(x)
    direction = as_vector(g)
    base = eval_expr(expr, point)
    quotients = []
    for s in seq:
        shifted = tuple(xi + s * gi for xi, gi in zip(point, direction))
        quotients.append((eval_expr(expr, shifted) - base) / s)
    aa = seq[-3:]
    qq = quotients[-3:]
    am = sum(aa) / 3.0
    qm = sum(qq) / 3.0
    slope = sum((ai - am) * (qi - qm) for ai, qi in zip(aa, qq))
    slope /= sum((ai - am) ** 2 for ai in aa)
    return qm - slope * am


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def expr_to_json(expr: Expr):
    if isinstance(expr, AtomExpr):
        return {"atom": {"terms": [{"c": coef, "e": list(exps)}
                                   for coef, exps in expr.atom.terms]}}
    if isinstance(expr, Scale):
        return {"op": "scale", "coef": expr.coef, "arg": expr_to_json(expr.child)}
    op = {Sum: "sum", Max: "max", Min: "min"}[type(expr)]
    return {"op": op, "args": [expr_to_json(c) for c in expr.children]}


def expr_from_json(data) -> Expr:
    """Parse the wire form; raises ValueError on malformed input."""
    expr = _parse_expr(data)
    dims = {atom.dim for atom in _walk_atoms(expr)}
    if len(dims) != 1:
        raise ValueError(f"atoms disagree on dimension: {sorted(dims)}")
    return expr


def _parse_expr(data) -> Expr:
    if not isinstance(data, dict):
        raise ValueError(f"expression node must be an object, got {type(data).__name__}")
    if "atom" in data:
        spec = data["atom"]
        if not isinstance(spec, dict) or "terms" not in spec:
            raise ValueError("atom node needs a 'terms' list")
        terms = []
        for term in spec["terms"]:
            if not isinstance(term, dict) or "c" not in term or "e" not in term:
                raise ValueError("atom term needs 'c' and 'e'")
            terms.append((_finite(term["c"]), tuple(term["e"])))
        if not terms:
            raise ValueError("atom needs at least one term")
        return AtomExpr(SmoothAtom(len(terms[0][1]), tuple(terms)))
    op = data.get("op")
    if op == "scale":
        if "coef" not in data or "arg" not in data:
            raise ValueError("scale node needs 'coef' and 'arg'")
        return Scale(_finite(data["coef"]), _parse_expr(data["arg"]))
    if op in ("sum", "max", "min"):
        args = data.get("args")
        if not isinstance(args, list) or not args:
            raise ValueError(f"{op} node needs a nonempty 'args' list")
        children = tuple(_parse_expr(a) for a in args)
        return {"sum": Sum, "max": Max, "min": Min}[op](children)
    raise ValueError(f"unknown expression node: {data!r}")


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite coefficient {number!r}")
    return number


def _walk_atoms(expr: Expr) -> Iterator[SmoothAtom]:
    if isinstance(expr, AtomExpr):
        yield expr.atom
    elif isinstance(expr, Scale):
        yield from _walk_atoms(expr.child)
    else:
        for c in expr.children:
            yield from _walk_atoms(c)
