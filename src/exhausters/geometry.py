"""Vertex-list polytopes, cone predicates, deterministic linear feasibility,
and exact angular-arc algebra in the plane.

Every predicate the optimality checkers need reduces to signs of vertex dot
products, so polytopes stay in vertex form and facets are never enumerated.
Every feasibility row reads ``<n, g> >= 0`` or, when strict, ``<n, g> >= 1``:
the predicates are positively homogeneous, so asking for ``>= 1`` instead of
``> 0`` loses nothing and keeps every feasibility system closed.
``Value`` here is the immutable base of every record of the package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections.abc import Iterable, Sequence

from .errors import CapExceededError, DimensionMismatchError, SolverError

Vector = tuple[float, ...]

TOL = 1e-9
ANGLE_TOL = 1e-9
TWO_PI = 2.0 * math.pi
PIVOT_CAP = 20_000  # simplex pivots per phase; read at every call

_RC_EPS = 1e-9      # reduced-cost threshold for simplex optimality
_PIVOT_EPS = 1e-9   # smallest acceptable pivot magnitude
_RATIO_TIE = 1e-12
_ORIGIN_MARGIN = 1e-6  # a coordinate beyond it separates a set from 0


def as_vector(coords: Iterable[float]) -> Vector:
    """Coerce to an immutable tuple of finite floats."""
    vec = tuple(float(c) for c in coords)
    for c in vec:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate {c!r}")
    return vec


def is_number(x) -> bool:
    """Whether ``x`` is a JSON number: a boolean is none, and a string is
    never read as one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_numbers(data, what: str) -> list:
    """``data`` itself if it is a JSON array of numbers. A string or an
    object would otherwise be iterated like one."""
    if isinstance(data, list) and all(map(is_number, data)):
        return data
    raise ValueError(f"{what} must be an array of numbers, got {data!r}")


def as_int(value) -> int:
    """Coerce a number to int, rejecting a number with a fractional part
    (or a non-finite one) instead of truncating it, and anything that is
    not a number (see ``is_number``)."""
    if not is_number(value):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"non-integral number {value!r}")
    return int(value)


def plain_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from integer 0, as ``sum`` adds floats
    up to Python 3.11. From 3.12 on ``sum`` compensates its rounding, so
    reports would differ between interpreters: every float sum of the
    package adds this way."""
    total = 0
    for x in values:
        total += x
    return total


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """``<a, b>``, added as ``plain_sum`` adds."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"vectors of length {len(a)} and {len(b)}")
    return plain_sum(map(operator.mul, a, b))


def unit_direction(theta: float) -> Vector:
    return (math.cos(theta), math.sin(theta))


def sample_unit_directions(dim: int, count: int, seed: int = 0) -> list[Vector]:
    """Deterministic unit directions: evenly spaced on the circle in the
    plane, seeded gaussians elsewhere. Each draw is made once and cached;
    every call returns a fresh list."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 1:
        raise ValueError("need at least one direction")
    return list(_unit_directions(dim, count, seed))


@functools.lru_cache(maxsize=8)
def _unit_directions(dim: int, count: int, seed: int) -> tuple[Vector, ...]:
    if dim == 2:
        return tuple(unit_direction(TWO_PI * k / count) for k in range(count))
    rng = random.Random(seed)
    dirs: list[Vector] = []
    while len(dirs) < count:
        raw = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(dot(raw, raw))
        if norm < 1e-6:
            continue
        dirs.append(tuple(c / norm for c in raw))
    return tuple(dirs)


class Value:
    """Immutable record, the base of the package's records.

    A subclass names its fields in ``__slots__``, in order, and sets them
    with ``_init`` from an ``__init__`` whose parameters are those fields.
    Two records are equal when they have the same class and equal fields;
    a record hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``. Assigning or deleting a field raises
    AttributeError. ``replace``, copying and pickling rebuild a record
    through ``__init__``, so its checks run again.
    """

    __slots__ = ("_values",)  # the fields' values, in order
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        # The slots' own setters, which pass by the __setattr__ below.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _init(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)
        _set_values(self, values)

    def replace(self, **changes) -> "Value":
        """A copy with ``changes`` to some fields, checked as a new record."""
        return type(self)(**dict(zip(self._fields, self._values), **changes))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


_set_values = Value._values.__set__


class Polytope(Value):
    """Convex compact set described by the vertices of its hull.

    Duplicate or redundant vertices are permitted; two polytopes are "the
    same set" when their hulls coincide (see exhauster.polytopes_equal),
    not when their vertex lists match.
    """

    __slots__ = ("dim", "vertices")

    def __init__(self, dim: int, vertices: Iterable[Iterable[float]]) -> None:
        verts = tuple(as_vector(v) for v in vertices)
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != dim:
                raise DimensionMismatchError(
                    f"vertex {v} does not have dimension {dim}")
        self._init(dim, verts)

    @classmethod
    def from_vertices(cls, vertices: Iterable[Iterable[float]]) -> "Polytope":
        vertices = iter(vertices)
        for first in vertices:  # the first vertex, if any, gives the dimension
            first = tuple(first)
            return cls(len(first), itertools.chain((first,), vertices))
        raise ValueError("a polytope needs at least one vertex")

    @classmethod
    def from_json(cls, data) -> "Polytope":
        if not isinstance(data, list):
            raise ValueError(f"a set must be an array of vertices, got {data!r}")
        return cls.from_vertices(json_numbers(v, "a vertex") for v in data)

    def to_json(self) -> list:
        return [list(v) for v in self.vertices]


def hull_contains(polytope: Polytope, point: Sequence[float]) -> bool:
    """Convex-combination feasibility: does the hull contain ``point``. A
    point equal to a vertex (compared by value, so ``-0.0`` matches ``0.0``)
    is in it at once; the simplex, deciding within an absolute tolerance,
    can reject a vertex of a set whose entries span many orders of
    magnitude."""
    target = as_vector(point)
    if len(target) != polytope.dim:
        raise DimensionMismatchError(
            f"point of length {len(target)} against dimension {polytope.dim}")
    if target in polytope.vertices:
        return True
    # A row per coordinate and one for the weights' sum, each signed so that
    # its right-hand side is nonnegative, then the artificials' identity.
    k, m = len(polytope.vertices), polytope.dim + 1
    rhs = [*target, 1.0]
    tableau = [[-v for v in row] if b < 0 else list(row)
               for row, b in zip([*zip(*polytope.vertices), (1.0,) * k], rhs)]
    zeros = [0.0] * m
    for i, row in enumerate(tableau):
        row += zeros
        row[k + i] = 1.0
    return _solve_nonneg(tableau, [abs(b) for b in rhs], 0, k, [1] * m, None) is not None


def contains_origin(polytope: Polytope) -> bool:
    """Whether the hull holds the origin, answered from the vertices when
    they settle it: a coordinate in which every vertex lies above
    ``_ORIGIN_MARGIN``, or every vertex below its negative, keeps it out,
    an exact answer. Every other set goes to ``hull_contains``, which
    answers a zero vertex (``-0.0`` counts as zero) itself, since no
    coordinate separates such a set from the origin. The margin keeps the
    shortcut out of the band where the simplex's absolute tolerance of 1e-9
    decides, so the two differ only on sets whose entries span many orders
    of magnitude, where the simplex misjudges (see the README's "Tolerances
    and determinism")."""
    for coords in zip(*polytope.vertices):
        if min(coords) > _ORIGIN_MARGIN or max(coords) < -_ORIGIN_MARGIN:
            return False
    return hull_contains(polytope, (0.0,) * polytope.dim)


# ---------------------------------------------------------------------------
# Linear feasibility
# ---------------------------------------------------------------------------

class LinearConstraint(Value):
    """The homogeneous row ``<normal, g> >= 1`` if ``strict``, else
    ``<normal, g> >= 0``. The unit margin stands for a strict inequality:
    positive homogeneity lets ``> 0`` be replaced by ``>= 1`` without loss.
    """

    __slots__ = ("normal", "strict")

    def __init__(self, normal: Iterable[float], strict: bool = False) -> None:
        self._init(as_vector(normal), strict)

    @classmethod
    def _checked(cls, normal: Vector, strict: bool) -> "LinearConstraint":
        """The row on ``normal``, already a tuple of finite floats (a
        polytope vertex or its exact negation), which is not checked
        again."""
        row = object.__new__(cls)
        set_normal, set_strict = cls._setters
        set_normal(row, normal)
        set_strict(row, strict)
        _set_values(row, (normal, strict))
        return row

    def satisfied_by(self, g: Sequence[float]) -> bool:
        return dot(self.normal, g) >= (1.0 if self.strict else 0.0) - TOL


class FeasibilityResult(Value):
    __slots__ = ("feasible", "witness")

    def __init__(self, feasible: bool, witness: Vector | None) -> None:
        self._init(feasible, witness)


def _pivot(tableau: list[list[float]], rhs: list[float], basis: list[int],
           row: int, col: int, at: int, sign: int) -> list[tuple[int, float]]:
    """Pivot on virtual column ``col``, ``sign`` times stored column ``at``,
    at ``row``, and return the pivot row's nonzero (column, value) pairs.
    Only the pivot row's nonzero entries are divided, and other rows change
    only where it is nonzero: elsewhere the update would subtract a zero
    product. Skipping a zero can change only the sign of a zero, and no
    decision reads a zero's sign."""
    pivot_row = tableau[row]
    piv = pivot_row[at] if sign > 0 else -pivot_row[at]
    support = []
    for j, v in enumerate(pivot_row):
        if v:
            v /= piv
            pivot_row[j] = v
            if v:
                support.append((j, v))
    r = rhs[row] = rhs[row] / piv
    for i, other in enumerate(tableau):
        factor = other[at] if sign > 0 else -other[at]
        if i == row or factor == 0.0:
            continue
        for j, v in support:
            other[j] -= factor * v
        rhs[i] -= factor * r
    basis[row] = col
    return support


def _minimize(tableau: list[list[float]], rhs: list[float], basis: list[int],
              reduced: list[float], free: int, structural: int,
              signs: Sequence[int]) -> None:
    """Bland-rule simplex sweep, in place, from the priced-out reduced costs
    ``reduced`` in the virtual order, but for q's: of the structural
    columns, then of the artificials. The lowest virtual index picks the
    entering and the leaving variable, so the walk is deterministic and
    cannot cycle; empty ``signs`` lock the artificials out. More than
    ``PIVOT_CAP`` pivots raise CapExceededError."""
    n, base = free + structural, len(tableau[0]) - len(basis)
    shift = len(reduced) - len(tableau[0])  # from a slack's cost to its artificial's
    cap, eps, limit = PIVOT_CAP, _RC_EPS, structural + len(signs)
    for pivots in itertools.count(1):
        for enter in range(free):
            if reduced[enter] < -eps:
                at, sign = enter, 1
                break
        else:
            for at in range(free):  # q_at, whose cost is -reduced[at]
                if reduced[at] > eps:
                    enter, sign = free + at, -1
                    break
            else:
                for at in range(free, limit):  # the other columns, the artificials
                    if reduced[at] < -eps:
                        enter, sign = free + at, 1
                        break
                else:
                    break
        factor = sign * reduced[at]
        if enter >= n:  # artificial k is signs[k] times stored column base + k
            at, sign = at - shift, signs[enter - n]
        leave, best = -1, math.inf
        for i, row in enumerate(tableau):
            coef = row[at] if sign > 0 else -row[at]
            if coef > _PIVOT_EPS:
                ratio = rhs[i] / coef
                if ratio < best - _RATIO_TIE or abs(ratio - best) <= _RATIO_TIE and (
                        leave < 0 or basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            break  # no finite step remains; keep the current point
        support = _pivot(tableau, rhs, basis, leave, enter, at, sign)
        for j, v in support:
            reduced[j] -= factor * v
        for j, v in reversed(support if shift else ()):  # the artificials' costs
            if j < base:
                break
            reduced[j + shift] -= signs[j - base] * factor * v
        if pivots > cap:
            raise CapExceededError(f"simplex exceeded {cap} pivots")


def _solve_nonneg(tableau: list[list[float]], rhs: list[float], free: int,
                  structural: int, signs: Sequence[int],
                  objective: Sequence[float] | None) -> list[float] | None:
    """Find x >= 0 with ``A x = rhs``, or None if infeasible, from the rows
    of A signed so that ``rhs >= 0``; both lists are consumed.

    Column j < ``free`` is p_j and stands for q_j = -p_j too, so a free
    variable split as p - q is stored once. Artificial i is ``signs[i]``
    (the int 1 or -1, which keeps exact entries exact) times the i-th of the
    last m stored columns: a slack, plus or minus a unit vector, or, past
    the ``structural`` columns, the artificial itself, with the sign 1. The
    virtual order is p, q, the rest of the structural columns, the
    artificials; x comes back in it. Phase one drives the artificials to
    zero. A second
    phase minimizes an ``objective`` on the leading stored columns with the
    artificials locked out, so the returned basic solution is pinned by rule
    rather than by accident of phase one.
    """
    m, width, n = len(tableau), len(tableau[0]), free + structural
    # Every artificial starts basic with cost 1, so pricing out subtracts
    # each row from the cost row in turn: phase one's reduced costs are
    # minus the column sums, in row order, and the artificials' are zero,
    # kept after the structural columns' (slacks) or as the block's.
    reduced = [0.0] * structural
    for row in tableau:
        reduced = list(map(operator.sub, reduced, row))
    reduced += [0.0] * m
    basis = list(range(n, n + m))
    _minimize(tableau, rhs, basis, reduced, free, structural, signs)
    residual = plain_sum(rhs[i] for i, col in enumerate(basis) if col >= n)
    if residual > 1e-9 * (1.0 + plain_sum(rhs)):
        return None
    # Pivot zero-level artificials out so phase two cannot reactivate them;
    # a q twin is never above its p column, which comes first.
    for i, row in enumerate(tableau):
        if basis[i] >= n:
            for j in range(structural):
                if abs(row[j]) > _PIVOT_EPS:
                    _pivot(tableau, rhs, basis, i, j if j < free else free + j, j, 1)
                    break
    rhs = [v if v > 0.0 else 0.0 for v in rhs]
    if objective is not None:
        reduced = [*objective, *[0.0] * (width - len(objective))]
        costs = [*reduced[:free], *[-c for c in reduced[:free]], *reduced[free:structural]]
        for i, col in enumerate(basis):
            if col < n and costs[col] != 0.0:
                reduced = [r - costs[col] * t for r, t in zip(reduced, tableau[i])]
        _minimize(tableau, rhs, basis, reduced, free, structural, ())
    x = [0.0] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = rhs[i]
    return x


def linear_feasibility(constraints: Iterable[LinearConstraint],
                       dim: int) -> FeasibilityResult:
    """Decide a system of homogeneous linear constraints on a free vector.

    Among feasible points, a second simplex phase minimizes the total
    margin of the strict (unit-margin) rows, which presses the witness onto
    the tightest face of the feasible cone; together with Bland's rule this
    makes the witness a stable, reproducible representative.

    A system with no strict row holds at g = 0, and its witness is the zero
    vector with no tableau built: the same ``+0.0`` entries that phase one
    gives there, since every right-hand side is zero.
    """
    cons = list(constraints)
    for c in cons:
        if len(c.normal) != dim:
            raise DimensionMismatchError(
                f"constraint normal of length {len(c.normal)} in dimension {dim}")
    # Split the free vector as g = p - q and give each row a slack s. A
    # strict row is stored as <n, p> - s = 1, its artificial -s, and any
    # other as <-n, p> + s = 0, its artificial s.
    signs = [-1 if c.strict else 1 for c in cons]
    if -1 not in signs:
        return FeasibilityResult(True, (0.0,) * dim)
    weight = [0.0] * dim  # the margin's costs on p: the strict normals' sum
    for c in cons:
        if c.strict:
            weight = list(map(operator.add, weight, c.normal))
    zeros = [0.0] * len(cons)
    for objective in (weight, None):  # phase one's point if polishing fails
        tableau = [[*(c.normal if c.strict else map(operator.neg, c.normal)), *zeros]
                   for c in cons]
        for i, row in enumerate(tableau):
            row[dim + i] = float(signs[i])
        x = _solve_nonneg(tableau, [1.0 if c.strict else 0.0 for c in cons], dim,
                          dim + len(cons), signs, objective)
        if x is None:
            return FeasibilityResult(False, None)
        g = tuple(x[j] - x[dim + j] for j in range(dim))
        if all(c.satisfied_by(g) for c in cons):
            return FeasibilityResult(True, g)
    raise SolverError("feasibility witness failed verification")


# ---------------------------------------------------------------------------
# Angular arcs (exact carrier for plane cone regions)
# ---------------------------------------------------------------------------

def _norm_angle(theta: float) -> float:
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if TWO_PI - t < 1e-12:
        t = 0.0
    return t


# Arcs: a closed subset of the unit circle as a sorted tuple of disjoint closed
# angle intervals (start, end) inside [0, 2*pi], built by ``_normalize``. A
# subset crossing angle zero is two pieces; every operation identifies 0 with 2*pi.
Arcs = tuple[tuple[float, float], ...]
FULL_CIRCLE: Arcs = ((0.0, TWO_PI),)


def _normalize(raw: Iterable[tuple[float, float]]) -> Arcs:
    pieces: list[tuple[float, float]] = []
    for a, b in raw:
        span = b - a
        if span < -ANGLE_TOL:
            continue
        span = min(max(span, 0.0), TWO_PI)
        start = _norm_angle(a)
        end = start + span
        if end <= TWO_PI + 1e-15:
            pieces.append((start, min(end, TWO_PI)))
        else:
            pieces.append((start, TWO_PI))
            pieces.append((0.0, end - TWO_PI))
    if not pieces:
        return ()
    pieces.sort()
    merged = [list(pieces[0])]
    for s, e in pieces[1:]:
        if s <= merged[-1][1] + ANGLE_TOL:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return tuple((s, e) for s, e in merged)


def _contains(arcs: Arcs, theta: float) -> bool:
    t = _norm_angle(theta)
    for s, e in arcs:
        for cand in (t, t + TWO_PI, t - TWO_PI):
            if s - ANGLE_TOL <= cand <= e + ANGLE_TOL:
                return True
    return False


def _intersect(left: Arcs, right: Arcs) -> Arcs:
    pieces = []
    for a1, b1 in left:
        for a2, b2 in right:
            for shift in (-TWO_PI, 0.0, TWO_PI):
                lo = max(a1, a2 + shift)
                hi = min(b1, b2 + shift)
                if hi >= lo - ANGLE_TOL:
                    pieces.append((lo, max(lo, hi)))
    return _normalize(pieces)


def _coverage_gaps(covered: Arcs, lo: float, hi: float) -> list[tuple[float, float]]:
    """Uncovered stretches of [lo, hi] relative to ``covered``."""
    cands = []
    for s, e in covered:
        for shift in (-TWO_PI, 0.0, TWO_PI):
            s2, e2 = s + shift, e + shift
            if e2 >= lo - ANGLE_TOL and s2 <= hi + ANGLE_TOL:
                cands.append((s2, e2))
    cands.sort()
    gaps = []
    cur = lo
    for s2, e2 in cands:
        if s2 > cur + ANGLE_TOL and cur < hi - ANGLE_TOL:
            gaps.append((cur, min(s2, hi)))
        cur = max(cur, e2)
        if cur >= hi - ANGLE_TOL:
            break
    if cur < hi - ANGLE_TOL:
        gaps.append((cur, hi))
    return gaps


def arcset_subset(a: Arcs, b: Arcs) -> tuple[bool, float | None]:
    """Is every angle of arcs ``a`` covered by arcs ``b`` (up to ``ANGLE_TOL``)?

    On failure also return a witness angle, the midpoint of the earliest
    uncovered stretch. Stretches touching angle zero from both sides are
    merged first so the witness of a gap that straddles zero is its true
    midpoint rather than an endpoint artifact.
    """
    gaps: list[tuple[float, float]] = []
    for lo, hi in a:
        if hi - lo <= 2.0 * ANGLE_TOL:
            mid = 0.5 * (lo + hi)
            if not _contains(b, mid):
                gaps.append((mid, mid))
            continue
        gaps.extend(_coverage_gaps(b, lo, hi))
    if not gaps:
        return True, None
    gaps.sort()
    head = gaps[0]
    tail = gaps[-1]
    if len(gaps) > 1 and head[0] <= ANGLE_TOL and tail[1] >= TWO_PI - ANGLE_TOL:
        gaps = gaps[1:-1] + [(tail[0] - TWO_PI, head[1])]
        gaps.sort()
    start, end = gaps[0]
    return False, _norm_angle(0.5 * (start + end))


def halfcircle(v: Sequence[float], *, nonnegative: bool) -> Arcs:
    """Arcs of the angles whose unit direction has nonnegative (or nonpositive)
    inner product with ``v``; the zero vector imposes no restriction."""
    if len(v) != 2:
        raise DimensionMismatchError("halfcircle needs a plane vector")
    if abs(v[0]) <= TOL and abs(v[1]) <= TOL:
        return FULL_CIRCLE
    phi = math.atan2(v[1], v[0])
    center = phi if nonnegative else phi + math.pi
    return _normalize([(center - 0.5 * math.pi, center + 0.5 * math.pi)])
