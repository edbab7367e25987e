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
import math
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
    total = 0
    for x, y in zip(a, b):
        total += x * y
    return total


def unit_direction(theta: float) -> Vector:
    return (math.cos(theta), math.sin(theta))


def sample_unit_directions(dim: int, count: int, seed: int = 0) -> list[Vector]:
    """Deterministic unit directions: evenly spaced on the circle in the
    plane, seeded gaussians elsewhere. Each draw is made once and cached;
    every call returns a fresh list."""
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
        if dim < 1:
            raise ValueError("dimension must be positive")
        verts = tuple(as_vector(v) for v in vertices)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != dim:
                raise DimensionMismatchError(
                    f"vertex {v} does not have dimension {dim}")
        self._init(dim, verts)

    @classmethod
    def from_vertices(cls, vertices: Iterable[Iterable[float]]) -> "Polytope":
        verts = [as_vector(v) for v in vertices]
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        return cls(len(verts[0]), tuple(verts))

    @classmethod
    def from_json(cls, data) -> "Polytope":
        return cls.from_vertices(json_numbers(v, "a vertex") for v in data)

    def to_json(self) -> list:
        return [list(v) for v in self.vertices]


def support_value(polytope: Polytope, g: Sequence[float], mode: str = "max") -> float:
    """Extreme value of ``<v, g>`` over the vertices.

    Because the objective is linear, the extreme over the vertex list
    equals the extreme over the whole hull.
    """
    if len(g) != polytope.dim:
        raise DimensionMismatchError(
            f"direction of length {len(g)} against dimension {polytope.dim}")
    values = [dot(v, g) for v in polytope.vertices]
    if mode == "max":
        return max(values)
    if mode == "min":
        return min(values)
    raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")


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
    rows = list(zip(*polytope.vertices))
    rows.append((1.0,) * len(polytope.vertices))
    rhs = [*target, 1.0]
    return _solve_nonneg(rows, rhs, None) is not None


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
        row._init(normal, strict)
        return row

    def value(self, g: Sequence[float]) -> float:
        return dot(self.normal, g)

    def satisfied_by(self, g: Sequence[float]) -> bool:
        return self.value(g) >= (1.0 if self.strict else 0.0) - TOL


class FeasibilityResult(Value):
    __slots__ = ("feasible", "witness")

    def __init__(self, feasible: bool, witness: Vector | None) -> None:
        self._init(feasible, witness)


def _pivot(tableau: list[list[float]], rhs: list[float], basis: list[int],
           row: int, col: int) -> None:
    """Pivot on ``tableau[row][col]``. Only the pivot row's nonzero entries
    are divided, and other rows change only where it is nonzero: elsewhere
    the update would subtract a zero product. Skipping a zero can change
    only the sign of a zero, and no decision reads a zero's sign."""
    pivot_row = tableau[row]
    piv = pivot_row[col]
    support = []
    for j, v in enumerate(pivot_row):
        if v:
            v /= piv
            pivot_row[j] = v
            if v:
                support.append((j, v))
    r = rhs[row] = rhs[row] / piv
    for i, other in enumerate(tableau):
        factor = other[col]
        if i == row or factor == 0.0:
            continue
        for j, v in support:
            other[j] -= factor * v
        rhs[i] -= factor * r
    basis[row] = col


def _minimize(tableau: list[list[float]], rhs: list[float], basis: list[int],
              reduced: list[float], enterable: int) -> None:
    """Bland-rule simplex sweep, in place, from the priced-out reduced-cost
    row ``reduced``.

    The lowest-index rule on entering and leaving variables makes the walk,
    and therefore the final basic solution, deterministic; it also rules
    out cycling. Only the first ``enterable`` columns may enter the basis.
    The reduced-cost row rides along as one more tableau row that every
    pivot updates; its right-hand entry goes unread. More than
    ``PIVOT_CAP`` pivots raise CapExceededError.
    """
    m = len(basis)
    cap = PIVOT_CAP
    tableau.append(reduced)
    rhs.append(0.0)
    pivots = 0
    while True:
        for enter in range(enterable):
            if reduced[enter] < -_RC_EPS:
                break
        else:
            break
        leave = -1
        best = math.inf
        for i in range(m):
            coef = tableau[i][enter]
            if coef > _PIVOT_EPS:
                ratio = rhs[i] / coef
                if ratio < best - _RATIO_TIE or (
                    abs(ratio - best) <= _RATIO_TIE
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # no finite step remains; keep the current point
        _pivot(tableau, rhs, basis, leave, enter)
        pivots += 1
        if pivots > cap:
            raise CapExceededError(f"simplex exceeded {cap} pivots")
    tableau.pop()
    rhs.pop()


def _solve_nonneg(eq_lhs: Sequence[Sequence[float]], eq_rhs: Sequence[float],
                  objective: Sequence[float] | None) -> list[float] | None:
    """Find x >= 0 with ``eq_lhs @ x = eq_rhs``, or None if infeasible.

    Phase one drives one artificial variable per row to zero. When an
    objective is given, a second phase minimizes it with the artificial
    columns locked out, so the returned basic solution is pinned by rule
    rather than by accident of phase one.
    """
    m, n = len(eq_lhs), len(eq_lhs[0])
    tableau = [[-v for v in row] if b < 0 else list(row)
               for row, b in zip(eq_lhs, eq_rhs)]
    # Every artificial starts basic with cost 1, so pricing out subtracts
    # each row from the cost row in turn: phase one's reduced costs are
    # minus the column sums, in row order. Zero entries are skipped, which
    # moves only the signs of zeros, and the artificial columns price out
    # to exactly zero.
    reduced = [0.0] * (n + m)
    for row in tableau:
        for j, v in enumerate(row):
            if v:
                reduced[j] -= v
    zeros = [0.0] * m
    for i, row in enumerate(tableau):
        row += zeros
        row[n + i] = 1.0
    rhs = [abs(b) for b in eq_rhs]
    basis = list(range(n, n + m))
    _minimize(tableau, rhs, basis, reduced, n + m)
    residual = plain_sum(rhs[i] for i, col in enumerate(basis) if col >= n)
    if residual > 1e-9 * (1.0 + plain_sum(rhs)):
        return None
    # Pivot zero-level artificials out so phase two cannot reactivate them.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(tableau[i][j]) > _PIVOT_EPS:
                    _pivot(tableau, rhs, basis, i, j)
                    break
    rhs = [v if v > 0.0 else 0.0 for v in rhs]
    if objective is not None:
        cost = list(objective) + zeros
        reduced = list(cost)
        for i, col in enumerate(basis):
            c = cost[col]
            if c != 0.0:
                reduced = [r - c * t for r, t in zip(reduced, tableau[i])]
        _minimize(tableau, rhs, basis, reduced, n)
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
    if not any(c.strict for c in cons):
        return FeasibilityResult(True, (0.0,) * dim)
    m = len(cons)
    eq: list[list[float]] = []
    b: list[float] = []
    strict_weight = [0.0] * dim
    zeros = [0.0] * m
    for i, c in enumerate(cons):
        row = [-v for v in c.normal]  # row @ g <= b[i]
        # Split the free vector as g = p - q with p, q >= 0, then add a
        # slack. The q block, -row, is the normal itself bit for bit.
        eq_row = [*row, *c.normal, *zeros]
        eq_row[2 * dim + i] = 1.0
        eq.append(eq_row)
        b.append(-1.0 if c.strict else 0.0)
        if c.strict:
            strict_weight = [w - v for w, v in zip(strict_weight, row)]
    objective = strict_weight + [-w for w in strict_weight] + zeros
    x = _solve_nonneg(eq, b, objective)
    if x is None:
        return FeasibilityResult(False, None)
    g = tuple(x[j] - x[dim + j] for j in range(dim))
    if not all(c.satisfied_by(g) for c in cons):
        # Margin polishing went numerically astray; fall back to phase one.
        x = _solve_nonneg(eq, b, None)
        g = tuple(x[j] - x[dim + j] for j in range(dim))
        if not all(c.satisfied_by(g) for c in cons):
            raise SolverError("feasibility witness failed verification")
    return FeasibilityResult(True, g)


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


class ArcSet(Value):
    """Closed subset of the unit circle as disjoint closed angle intervals.

    Intervals live inside [0, 2*pi]; a set crossing angle zero is stored as
    two pieces, and all operations account for the identification of 0 with
    2*pi. Build instances through :meth:`normalize`.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs: tuple[tuple[float, float], ...]) -> None:
        self._init(arcs)

    @staticmethod
    def normalize(raw: Iterable[tuple[float, float]]) -> "ArcSet":
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
            return ArcSet(())
        pieces.sort()
        merged = [list(pieces[0])]
        for s, e in pieces[1:]:
            if s <= merged[-1][1] + ANGLE_TOL:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        return ArcSet(tuple((s, e) for s, e in merged))

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet(((0.0, TWO_PI),))

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet(())

    def contains(self, theta: float) -> bool:
        t = _norm_angle(theta)
        for s, e in self.arcs:
            for cand in (t, t + TWO_PI, t - TWO_PI):
                if s - ANGLE_TOL <= cand <= e + ANGLE_TOL:
                    return True
        return False

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet.normalize(self.arcs + other.arcs)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        pieces = []
        for a1, b1 in self.arcs:
            for a2, b2 in other.arcs:
                for shift in (-TWO_PI, 0.0, TWO_PI):
                    lo = max(a1, a2 + shift)
                    hi = min(b1, b2 + shift)
                    if hi >= lo - ANGLE_TOL:
                        pieces.append((lo, max(lo, hi)))
        return ArcSet.normalize(pieces)


def _coverage_gaps(covered: ArcSet, lo: float, hi: float) -> list[tuple[float, float]]:
    """Uncovered stretches of [lo, hi] relative to ``covered``."""
    cands = []
    for s, e in covered.arcs:
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


def arcset_subset(a: ArcSet, b: ArcSet) -> tuple[bool, float | None]:
    """Is every angle of ``a`` covered by ``b`` (up to ``ANGLE_TOL``)?

    On failure also return a witness angle, the midpoint of the earliest
    uncovered stretch. Stretches touching angle zero from both sides are
    merged first so the witness of a gap that straddles zero is its true
    midpoint rather than an endpoint artifact.
    """
    gaps: list[tuple[float, float]] = []
    for lo, hi in a.arcs:
        if hi - lo <= 2.0 * ANGLE_TOL:
            mid = 0.5 * (lo + hi)
            if not b.contains(mid):
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


def halfcircle(v: Sequence[float], *, nonnegative: bool) -> ArcSet:
    """Angles whose unit direction has nonnegative (or nonpositive) inner
    product with ``v``. The zero vector imposes no restriction."""
    if len(v) != 2:
        raise DimensionMismatchError("halfcircle needs a plane vector")
    if abs(v[0]) <= TOL and abs(v[1]) <= TOL:
        return ArcSet.full()
    phi = math.atan2(v[1], v[0])
    center = phi if nonnegative else phi + math.pi
    return ArcSet.normalize([(center - 0.5 * math.pi, center + 0.5 * math.pi)])
