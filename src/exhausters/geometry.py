"""Vertex-list polytopes, cone predicates, deterministic linear feasibility,
and exact angular-arc algebra in the plane.

Every predicate the optimality checkers need reduces to signs of vertex dot
products, so polytopes stay in vertex form and facets are never enumerated.
Strict homogeneous inequalities are encoded with a unit margin: the
predicates are positively homogeneous, so asking for ``<= -1`` instead of
``< 0`` loses nothing and keeps every feasibility system closed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, IterationCapError

Vector = tuple[float, ...]

TOL = 1e-9
ANGLE_TOL = 1e-9
TWO_PI = 2.0 * math.pi
PIVOT_CAP = 20_000  # simplex pivots per phase; read at every call

_RC_EPS = 1e-9      # reduced-cost threshold for simplex optimality
_PIVOT_EPS = 1e-9   # smallest acceptable pivot magnitude
_RATIO_TIE = 1e-12


def as_vector(coords: Iterable[float]) -> Vector:
    """Coerce to an immutable tuple of finite floats."""
    vec = tuple(float(c) for c in coords)
    for c in vec:
        if not math.isfinite(c):
            raise ValueError(f"non-finite coordinate {c!r}")
    return vec


def as_int(value) -> int:
    """Coerce to int, rejecting a number with a fractional part (or a
    non-finite one) instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"non-integral number {value!r}")
    return int(value)


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"vectors of length {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def unit_direction(theta: float) -> Vector:
    return (math.cos(theta), math.sin(theta))


def sample_unit_directions(dim: int, count: int, seed: int = 0) -> list[Vector]:
    """Deterministic unit directions: evenly spaced on the circle in the
    plane, seeded gaussians elsewhere."""
    if count < 1:
        raise ValueError("need at least one direction")
    if dim == 2:
        return [unit_direction(TWO_PI * k / count) for k in range(count)]
    rng = random.Random(seed)
    dirs: list[Vector] = []
    while len(dirs) < count:
        raw = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(c * c for c in raw))
        if norm < 1e-6:
            continue
        dirs.append(tuple(c / norm for c in raw))
    return dirs


@dataclass(frozen=True)
class Polytope:
    """Convex compact set described by the vertices of its hull.

    Duplicate or redundant vertices are permitted; two polytopes are "the
    same set" when their hulls coincide (see exhauster.polytopes_equal),
    not when their vertex lists match.
    """

    dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        verts = tuple(as_vector(v) for v in self.vertices)
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        for v in verts:
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"vertex {v} does not have dimension {self.dim}")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def from_vertices(cls, vertices: Iterable[Iterable[float]]) -> "Polytope":
        verts = [as_vector(v) for v in vertices]
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        return cls(len(verts[0]), tuple(verts))

    @classmethod
    def from_json(cls, data) -> "Polytope":
        return cls.from_vertices(data)

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


def conjugate_membership(polytope: Polytope, g: Sequence[float], tol: float = TOL) -> bool:
    """Is ``g`` in the cone dual to cone{polytope}: ``<v, g> >= 0`` for
    every vertex."""
    return support_value(polytope, g, "min") >= -tol


def hull_contains(polytope: Polytope, point: Sequence[float]) -> bool:
    """Convex-combination feasibility: does the hull contain ``point``."""
    target = as_vector(point)
    if len(target) != polytope.dim:
        raise DimensionMismatchError(
            f"point of length {len(target)} against dimension {polytope.dim}")
    k = len(polytope.vertices)
    rows = np.zeros((polytope.dim + 1, k))
    for j, v in enumerate(polytope.vertices):
        rows[: polytope.dim, j] = v
    rows[polytope.dim, :] = 1.0
    rhs = np.array(list(target) + [1.0])
    return _solve_nonneg(rows, rhs, None) is not None


def contains_origin(polytope: Polytope) -> bool:
    return hull_contains(polytope, (0.0,) * polytope.dim)


# ---------------------------------------------------------------------------
# Linear feasibility
# ---------------------------------------------------------------------------

class Sense(str, Enum):
    """Comparison applied to the inner product with the constraint normal.

    The unit-margin senses stand for strict inequalities: positive
    homogeneity lets ``< 0`` be replaced by ``<= -1`` without loss.
    """

    LE_ZERO = "<=0"
    LE_MINUS_ONE = "<=-1"
    GE_ZERO = ">=0"
    GE_ONE = ">=1"


@dataclass(frozen=True)
class LinearConstraint:
    normal: Vector
    sense: Sense

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "sense", Sense(self.sense))

    def value(self, g: Sequence[float]) -> float:
        return dot(self.normal, g)

    def satisfied_by(self, g: Sequence[float], tol: float = TOL) -> bool:
        v = self.value(g)
        if self.sense is Sense.LE_ZERO:
            return v <= tol
        if self.sense is Sense.LE_MINUS_ONE:
            return v <= -1.0 + tol
        if self.sense is Sense.GE_ZERO:
            return v >= -tol
        return v >= 1.0 - tol


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Optional[Vector]
    certificate: str


def _pivot(tableau: np.ndarray, rhs: np.ndarray, basis: list[int],
           row: int, col: int) -> None:
    piv = tableau[row, col]
    tableau[row] /= piv
    rhs[row] /= piv
    for i in range(tableau.shape[0]):
        if i == row:
            continue
        factor = tableau[i, col]
        if factor != 0.0:
            tableau[i] -= factor * tableau[row]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def _minimize(tableau: np.ndarray, rhs: np.ndarray, basis: list[int],
              cost: np.ndarray, enterable: np.ndarray) -> None:
    """Bland-rule simplex sweep, in place.

    The lowest-index rule on entering and leaving variables makes the walk,
    and therefore the final basic solution, deterministic; it also rules
    out cycling. ``enterable`` masks columns allowed into the basis. More
    than ``PIVOT_CAP`` pivots raise IterationCapError.
    """
    m = tableau.shape[0]
    pivots = 0
    while True:
        y = cost[basis] @ tableau
        reduced = cost - y
        enter = -1
        for j in range(tableau.shape[1]):
            if enterable[j] and reduced[j] < -_RC_EPS:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = math.inf
        for i in range(m):
            coef = tableau[i, enter]
            if coef > _PIVOT_EPS:
                ratio = rhs[i] / coef
                if ratio < best - _RATIO_TIE or (
                    abs(ratio - best) <= _RATIO_TIE
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return  # no finite step remains; keep the current point
        _pivot(tableau, rhs, basis, leave, enter)
        pivots += 1
        if pivots > PIVOT_CAP:
            raise IterationCapError(f"simplex exceeded {PIVOT_CAP} pivots")


def _solve_nonneg(eq_lhs: np.ndarray, eq_rhs: np.ndarray,
                  objective: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Find x >= 0 with ``eq_lhs @ x = eq_rhs``, or None if infeasible.

    Phase one drives one artificial variable per row to zero. When an
    objective is given, a second phase minimizes it with the artificial
    columns locked out, so the returned basic solution is pinned by rule
    rather than by accident of phase one.
    """
    lhs = np.array(eq_lhs, dtype=float)
    rhs = np.array(eq_rhs, dtype=float)
    m, n = lhs.shape
    neg = rhs < 0
    lhs[neg] *= -1.0
    rhs = np.abs(rhs)
    tableau = np.hstack([lhs, np.eye(m)])
    basis = list(range(n, n + m))
    phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    every = np.ones(n + m, dtype=bool)
    _minimize(tableau, rhs, basis, phase1, every)
    if phase1[basis] @ rhs > 1e-9 * (1.0 + float(np.sum(rhs))):
        return None
    # Pivot zero-level artificials out so phase two cannot reactivate them.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if abs(tableau[i, j]) > _PIVOT_EPS:
                    _pivot(tableau, rhs, basis, i, j)
                    break
    np.clip(rhs, 0.0, None, out=rhs)
    if objective is not None:
        cost = np.concatenate([np.asarray(objective, dtype=float), np.zeros(m)])
        real = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
        _minimize(tableau, rhs, basis, cost, real)
    x = np.zeros(n)
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
    """
    cons = list(constraints)
    for c in cons:
        if len(c.normal) != dim:
            raise DimensionMismatchError(
                f"constraint normal of length {len(c.normal)} in dimension {dim}")
    if not cons:
        return FeasibilityResult(True, (0.0,) * dim, "empty system")
    m = len(cons)
    normals = np.array([c.normal for c in cons], dtype=float)
    le_senses = (Sense.LE_ZERO, Sense.LE_MINUS_ONE)
    flip = np.array([1.0 if c.sense in le_senses else -1.0 for c in cons])
    rows = normals * flip[:, None]  # rows @ g <= b
    b = np.array([0.0 if c.sense in (Sense.LE_ZERO, Sense.GE_ZERO) else -1.0
                  for c in cons])
    # Split the free vector as g = p - q with p, q >= 0, then add slacks.
    eq = np.hstack([rows, -rows, np.eye(m)])
    strict_weight = np.zeros(dim)
    has_strict = False
    for c in cons:
        if c.sense is Sense.LE_MINUS_ONE:
            strict_weight -= np.array(c.normal)
            has_strict = True
        elif c.sense is Sense.GE_ONE:
            strict_weight += np.array(c.normal)
            has_strict = True
    objective = None
    if has_strict:
        objective = np.concatenate([strict_weight, -strict_weight, np.zeros(m)])
    x = _solve_nonneg(eq, b, objective)
    if x is None:
        return FeasibilityResult(
            False, None,
            f"infeasible: phase-one optimum stays positive over {m} rows")
    g = tuple(float(x[j] - x[dim + j]) for j in range(dim))
    if not all(c.satisfied_by(g) for c in cons):
        # Margin polishing went numerically astray; fall back to phase one.
        x = _solve_nonneg(eq, b, None)
        g = tuple(float(x[j] - x[dim + j]) for j in range(dim))
        if not all(c.satisfied_by(g) for c in cons):
            raise ArithmeticError("feasibility witness failed verification")
    return FeasibilityResult(
        True, g, f"witness from deterministic simplex over {m} rows")


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


@dataclass(frozen=True)
class ArcSet:
    """Closed subset of the unit circle as disjoint closed angle intervals.

    Intervals live inside [0, 2*pi]; a set crossing angle zero is stored as
    two pieces, and all operations account for the identification of 0 with
    2*pi. Build instances through :meth:`normalize`.
    """

    arcs: tuple[tuple[float, float], ...]

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

    def is_empty(self) -> bool:
        return not self.arcs

    def measure(self) -> float:
        return min(sum(e - s for s, e in self.arcs), TWO_PI)

    def contains(self, theta: float, tol: float = ANGLE_TOL) -> bool:
        t = _norm_angle(theta)
        for s, e in self.arcs:
            for cand in (t, t + TWO_PI, t - TWO_PI):
                if s - tol <= cand <= e + tol:
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


def _coverage_gaps(covered: ArcSet, lo: float, hi: float,
                   tol: float) -> list[tuple[float, float]]:
    """Uncovered stretches of [lo, hi] relative to ``covered``."""
    cands = []
    for s, e in covered.arcs:
        for shift in (-TWO_PI, 0.0, TWO_PI):
            s2, e2 = s + shift, e + shift
            if e2 >= lo - tol and s2 <= hi + tol:
                cands.append((s2, e2))
    cands.sort()
    gaps = []
    cur = lo
    for s2, e2 in cands:
        if s2 > cur + tol and cur < hi - tol:
            gaps.append((cur, min(s2, hi)))
        cur = max(cur, e2)
        if cur >= hi - tol:
            break
    if cur < hi - tol:
        gaps.append((cur, hi))
    return gaps


def arcset_subset(a: ArcSet, b: ArcSet,
                  tol: float = ANGLE_TOL) -> tuple[bool, Optional[float]]:
    """Is every angle of ``a`` covered by ``b`` (up to ``tol``)?

    On failure also return a witness angle, the midpoint of the earliest
    uncovered stretch. Stretches touching angle zero from both sides are
    merged first so the witness of a gap that straddles zero is its true
    midpoint rather than an endpoint artifact.
    """
    gaps: list[tuple[float, float]] = []
    for lo, hi in a.arcs:
        if hi - lo <= 2.0 * tol:
            mid = 0.5 * (lo + hi)
            if not b.contains(mid, tol):
                gaps.append((mid, mid))
            continue
        gaps.extend(_coverage_gaps(b, lo, hi, tol))
    if not gaps:
        return True, None
    gaps.sort()
    head = gaps[0]
    tail = gaps[-1]
    if len(gaps) > 1 and head[0] <= tol and tail[1] >= TWO_PI - tol:
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


def cone_arcs(polytope: Polytope, mode: str) -> ArcSet:
    """Exact circle trace of a vertex-sign predicate over a plane polytope.

    mode 'all_geq': every vertex product >= 0 (the dual cone)
         'all_leq': every vertex product <= 0 (negative of the dual cone)
         'any_leq': some vertex product <= 0
         'any_geq': some vertex product >= 0

    Boundary angles are the roots of the vertex inner products, obtained in
    closed form, so the result is exact up to the angle tolerance.
    """
    if polytope.dim != 2:
        raise DimensionMismatchError("arc algebra is available in the plane only")
    if mode in ("all_geq", "all_leq"):
        acc = ArcSet.full()
        for v in polytope.vertices:
            acc = acc.intersect(halfcircle(v, nonnegative=(mode == "all_geq")))
        return acc
    if mode in ("any_leq", "any_geq"):
        acc = ArcSet.empty()
        for v in polytope.vertices:
            acc = acc.union(halfcircle(v, nonnegative=(mode == "any_geq")))
        return acc
    raise ValueError(f"unknown mode {mode!r}")
