"""Necessary optimality condition checkers.

Every condition side is a sign region {g : s * h(g) >= 0} of one family,
where h is the family's function (min of max vertex products for an upper
family, max of min products for a lower one) and s is +1 or -1. A
constrained condition is an inclusion between two of them: the region
{u' <= 0} of the constraint's family must lie inside the region where the
objective family has the sign an extremum requires. An unconstrained
condition is the same inclusion with every direction on the left.
Inclusions are decided exactly, either on the circle by angular-arc
algebra (constrained plane conditions) or in any dimension by a pruned
search over vertex choices, each system decided by the deterministic
feasibility solver. Regularity of the constraint is one more inclusion of
the same kind. A sampled oracle that works straight from the derivative
trees cross-checks each verdict but never claims an exact "holds".

Reducing a family is one more search of the same kind: a set goes when no
direction strictly prefers it over the sets kept. The checks and
reductions of one run share a ``RunMemo``, so that every search meets the
run's cap, a side several conditions name is traced once, a set is tested
for the origin once and a vertex-selection system is solved once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from functools import reduce

# The benchmark's tracer (perfbench/spans.py) wraps linear_feasibility,
# contains_origin and eval_minmax by name in this module and stops if one is
# missing, so linear_feasibility and eval_minmax stay imported although
# nothing here calls them.
from .deriv import (FD_BLOCK, MinMaxTree, _arc_bounder, _minmax_columns, eval_minmax,
                    expr_dim, leaves)
from .errors import DimensionMismatchError, ExhausterKindError
from .exhauster import Exhauster, eval_exhauster, find_direction
from .geometry import (
    FULL_CIRCLE,
    TOL,
    Arcs,
    FeasibilityResult,
    LinearConstraint,
    Polytope,
    Value,
    Vector,
    _intersect,
    _normalize,
    arcset_subset,
    contains_origin,
    dot,
    halfcircle,
    linear_feasibility,
    plain_sum,
    sample_unit_directions,
    unit_direction,
)

ORACLE_MARGIN = 1e-6


class SignRegion(Value):
    """The cone region {g : sign * h(g) >= 0}, where h is the function the
    family represents: min over sets of the max vertex product for an upper
    family, max over sets of the min product for a lower one.

    Spelled out per set C, the region asks sign * <v, g> >= 0 at every
    vertex v of C and lets the sets unite (``every``), or asks it at some
    vertex and intersects the sets. When a set of a some-vertex region
    contains the origin, its predicate holds for every direction; the
    checkers add a note naming such sets.
    """

    __slots__ = ("family", "sign")

    def __init__(self, family: Exhauster, sign: float) -> None:
        if sign not in (1.0, -1.0):
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        self._init(family, sign)

    @property
    def every(self) -> bool:
        return (self.family.kind == "lower") == (self.sign > 0)


class ConditionID(str, Enum):
    """Constrained ids read SENSE_FKIND_UKIND: which family of the
    objective f and of the constraint u the condition is phrased in.
    Unconstrained ids read UNC_SENSE_FKIND. ``sense``, ``f_kind`` and
    ``u_kind`` name these parts in lower case; ``u_kind`` is None for an
    unconstrained id."""

    MIN_UPPER_LOWER = "MIN_UPPER_LOWER"
    MIN_UPPER_UPPER = "MIN_UPPER_UPPER"
    MIN_LOWER_LOWER = "MIN_LOWER_LOWER"
    MIN_LOWER_UPPER = "MIN_LOWER_UPPER"
    MAX_LOWER_LOWER = "MAX_LOWER_LOWER"
    MAX_LOWER_UPPER = "MAX_LOWER_UPPER"
    MAX_UPPER_LOWER = "MAX_UPPER_LOWER"
    MAX_UPPER_UPPER = "MAX_UPPER_UPPER"
    UNC_MIN_UPPER = "UNC_MIN_UPPER"
    UNC_MIN_LOWER = "UNC_MIN_LOWER"
    UNC_MAX_LOWER = "UNC_MAX_LOWER"
    UNC_MAX_UPPER = "UNC_MAX_UPPER"

    def __init__(self, value: str) -> None:
        parts = value.lower().split("_")
        if parts[0] == "unc":
            parts = parts[1:] + [None]
        self.sense, self.f_kind, self.u_kind = parts


CONDITION_READINGS = {
    ConditionID.MIN_UPPER_LOWER: "minimum: objective's upper family (proper) with constraint's lower family",
    ConditionID.MIN_UPPER_UPPER: "minimum: objective's upper family (proper) with constraint's upper family",
    ConditionID.MIN_LOWER_LOWER: "minimum: objective's lower family (adjoint) with constraint's lower family",
    ConditionID.MIN_LOWER_UPPER: "minimum: objective's lower family (adjoint) with constraint's upper family",
    ConditionID.MAX_LOWER_LOWER: "maximum: objective's lower family (proper) with constraint's lower family",
    ConditionID.MAX_LOWER_UPPER: "maximum: objective's lower family (proper) with constraint's upper family",
    ConditionID.MAX_UPPER_LOWER: "maximum: objective's upper family (adjoint) with constraint's lower family",
    ConditionID.MAX_UPPER_UPPER: "maximum: objective's upper family (adjoint) with constraint's upper family",
    ConditionID.UNC_MIN_UPPER: "unconstrained minimum: origin in every set of the upper family",
    ConditionID.UNC_MIN_LOWER: "unconstrained minimum: dual cones of the lower family cover all directions",
    ConditionID.UNC_MAX_LOWER: "unconstrained maximum: origin in every set of the lower family",
    ConditionID.UNC_MAX_UPPER: "unconstrained maximum: negative dual cones of the upper family cover all directions",
}


class Verdict(Value):
    """Outcome of one check. It does not name what it decided: the report
    that holds it names each verdict by its condition id, ``REGULARITY``
    or ``ORACLE_<SENSE>``.

    ``violated`` always carries a re-checkable witness direction. Sampled
    methods never report a plain ``holds``; their positive outcome is
    ``inconclusive`` so that exactness claims stay confined to the exact2d
    and lp_enumeration methods.
    """

    __slots__ = ("status", "witness", "certificate", "method")

    def __init__(self, status: str, witness: Vector | None, certificate: str,
                 method: str) -> None:
        self._init(status, witness, certificate, method)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "method": self.method,
            "witness": list(self.witness) if self.witness is not None else None,
            "certificate": self.certificate,
        }


class ConstrainedCondition(Value):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: SignRegion, rhs: SignRegion) -> None:
        self._init(lhs, rhs)


# ---------------------------------------------------------------------------
# Region evaluation
# ---------------------------------------------------------------------------

def region_membership(region: SignRegion, g: Sequence[float], tol: float = TOL) -> bool:
    """Is ``sign * h(g) >= -tol``? ``tol`` loosens the comparison; pass a
    negative value to demand the region with a strict margin instead."""
    return region.sign * eval_exhauster(region.family, g) >= -tol


def region_arcs(region: SignRegion) -> Arcs:
    """Exact trace of the region on the unit circle (plane only), as arcs:
    per set, the intersection (every vertex) or union (some vertex, the
    arcs joined and normalized) of one closed half-circle per vertex, then
    the sets united or intersected. Boundary angles are the roots of the
    vertex inner products, obtained in closed form, so the result is exact
    up to the angle tolerance."""
    if region.family.dim != 2:
        raise DimensionMismatchError("arc algebra is available in the plane only")

    def union(left: Arcs, right: Arcs) -> Arcs:
        return _normalize(left + right)

    every = region.every
    inner, outer = (_intersect, union) if every else (union, _intersect)
    return reduce(outer, [
        reduce(inner, [halfcircle(v, nonnegative=region.sign > 0) for v in c.vertices],
               FULL_CIRCLE if every else ())
        for c in region.family.sets])


DEFAULT_COMBINATION_CAP = 1_000_000  # vertex selections per search


class RunMemo:
    """The run a check or reduction belongs to: its combination cap, and
    what its searches compute once per side, set or system.

    ``max_combinations`` caps the vertex-selection systems of every search
    (see ``_search``); a cap below one is a ValueError, since reduction
    would keep every candidate set under it. The memo keeps the circle
    trace of a sign region, keyed by the region's value; whether a set
    contains the origin, keyed by the set's vertex tuple (its value, and
    cheaper to hash); and, in ``solved``, the solver's result on each
    vertex-selection system, keyed by ``(dim, rows)`` as ``find_direction``
    looks it up. Value keys let the sides that ``build_condition`` rebuilds
    for every id hit, and the proper and adjoint forms of a condition, or
    the constraint's two families, meet the same systems. A trace depends
    on the value alone: a signed zero changes an angle only in atan2's
    +-pi, which gives the same half-circle.

    Make one per run and pass it to every check and reduction of that run;
    a call made without one uses a fresh one with the default cap. Nothing
    is kept between runs, so a run computes, and a tracer counts, the same
    work whatever ran before it.
    """

    def __init__(self, max_combinations: int = DEFAULT_COMBINATION_CAP) -> None:
        if max_combinations < 1:
            raise ValueError(f"max-combinations must be positive, got {max_combinations}")
        self.max_combinations = max_combinations
        self._arcs: dict[SignRegion, Arcs] = {}
        self._origin: dict[tuple[Vector, ...], bool] = {}
        self.solved: dict[tuple[int, tuple[LinearConstraint, ...]], FeasibilityResult] = {}

    def arcs(self, region: SignRegion) -> Arcs:
        arcs = self._arcs.get(region)
        if arcs is None:
            arcs = self._arcs[region] = region_arcs(region)
        return arcs

    def holds_origin(self, polytope: Polytope) -> bool:
        found = self._origin.get(polytope.vertices)
        if found is None:
            # Looked up in this module at each call, where a tracer can wrap it.
            found = self._origin[polytope.vertices] = contains_origin(polytope)
        return found


# ---------------------------------------------------------------------------
# Condition catalog
# ---------------------------------------------------------------------------

def build_condition(cid: ConditionID, ef: Exhauster,
                    eu: Exhauster | None = None) -> ConstrainedCondition | SignRegion:
    """Materialize the regions of one condition id, validating family
    kinds. The left side {u' <= 0} is the constraint family's region of
    sign -1; the right side is the objective family's region of sign +1
    for a minimum and -1 for a maximum. An unconstrained id has no left
    side, since every direction is admissible, and is returned as its
    right side alone: the condition holds when that region covers every
    direction."""
    cid = ConditionID(cid)
    if cid.u_kind is not None and eu is None:
        raise ExhausterKindError(f"{cid.value} needs a constraint family")
    if ef.kind != cid.f_kind:
        raise ExhausterKindError(
            f"{cid.value} needs an objective family of kind {cid.f_kind}, got {ef.kind}")
    rhs = SignRegion(ef, 1.0 if cid.sense == "min" else -1.0)
    if cid is ConditionID.UNC_MIN_UPPER:
        # The origin form "some <v, g> <= 0 in every set", like
        # UNC_MAX_LOWER: it covers every direction exactly when the origin
        # lies in every set, and its witness is a direction separating a
        # set from the origin: the negative of a descent direction.
        rhs = SignRegion(Exhauster("lower", ef.dim, ef.sets), -1.0)
    if cid.u_kind is None:
        return rhs
    if eu.kind != cid.u_kind:
        raise ExhausterKindError(
            f"{cid.value} needs a constraint family of kind {cid.u_kind}, got {eu.kind}")
    if ef.dim != eu.dim:
        raise DimensionMismatchError(
            f"objective family dimension {ef.dim} vs constraint {eu.dim}")
    return ConstrainedCondition(SignRegion(eu, -1.0), rhs)


# ---------------------------------------------------------------------------
# Inclusion decision
# ---------------------------------------------------------------------------

def _degeneracy_notes(lhs: SignRegion, rhs: SignRegion, memo: RunMemo) -> str:
    notes = []
    for label, region in (("lhs", lhs), ("rhs", rhs)):
        if region.every:
            continue
        for i, c in enumerate(region.family.sets):
            if memo.holds_origin(c):
                notes.append(
                    f"degenerate {label} atom {i}: set contains the origin, "
                    "predicate covers every direction")
    return ("; " + "; ".join(notes)) if notes else ""


def _choice_points(region: SignRegion, negate: bool) -> list[list[list[LinearConstraint]]]:
    """Choice points whose systems' solution sets unite to the region (or
    its complement, "-sign * <v, g> > 0" with the quantifiers swapped; it
    is open, and the unit margin of strict rows realizes it losslessly).
    Where each set needs every vertex, the sets unite: one choice point
    with one option per set, holding all its rows. Where it needs some
    vertex, the sets intersect: one choice point per set, with one
    single-row option per vertex. Options keep (set index, vertex index)
    order, so the first feasible system found is deterministic. A row's
    normal is the vertex itself, already checked finite, or its exact
    negation."""
    checked = LinearConstraint._checked
    flip = (region.sign > 0) == negate  # the rows' sign is -1
    rows = [[checked(tuple([-x for x in v]) if flip else v, negate) for v in c.vertices]
            for c in region.family.sets]
    if region.every != negate:
        return [rows]
    return [[[row] for row in set_rows] for set_rows in rows]


def _search(choice_points: list[list[list[LinearConstraint]]], dim: int,
            violated: str, holds: str, memo: RunMemo, notes: str = "") -> Verdict:
    """The lp_enumeration verdict on a disjunction of linear systems, one
    per choice of an option at every choice point: the first feasible
    system in lexicographic order gives the violation witness, none means
    the condition holds, and more than the run's ``memo.max_combinations``
    systems leave it inconclusive. ``holds`` may name the system count as
    ``{count}``. Systems the run has decided are taken from ``memo``."""
    count = math.prod(len(point) for point in choice_points)
    if count > memo.max_combinations:
        return Verdict(
            "inconclusive", None,
            f"enumeration needs {count} combinations, above the cap of "
            f"{memo.max_combinations}" + notes, "lp_enumeration")
    result = find_direction(choice_points, dim, memo.solved)
    if result is not None:
        return Verdict("violated", result.witness, violated + notes, "lp_enumeration")
    return Verdict("holds", None, holds.format(count=count) + notes, "lp_enumeration")


def _exact_method(dim: int) -> str:
    return "exact2d" if dim == 2 else "lp_enumeration"


def inclusion_check(lhs: SignRegion, rhs: SignRegion, *,
                    memo: RunMemo | None = None) -> Verdict:
    """Decide whether every direction of ``lhs`` belongs to ``rhs``: in the
    plane by exact2d, which traces both regions as circle arcs and tests
    arc coverage, above it by lp_enumeration (``_lp_inclusion``). Both are
    exact, and in the plane they agree. ``memo`` is the run's cap, traces,
    origin tests and solved systems (see ``RunMemo``)."""
    memo = memo or RunMemo()
    dim = lhs.family.dim
    if rhs.family.dim != dim:
        raise DimensionMismatchError(
            f"lhs dimension {dim} vs rhs dimension {rhs.family.dim}")
    if _exact_method(dim) == "lp_enumeration":
        return _lp_inclusion(lhs, rhs, memo)
    notes = _degeneracy_notes(lhs, rhs, memo)
    left, right = memo.arcs(lhs), memo.arcs(rhs)
    holds, angle = arcset_subset(left, right)
    if holds:
        return Verdict("holds", None, f"{len(left)} lhs arcs covered by "
                       f"{len(right)} rhs arcs" + notes, "exact2d")
    return Verdict("violated", unit_direction(angle),
                   f"uncovered angle {angle:.12g} rad" + notes, "exact2d")


def _lp_inclusion(lhs: SignRegion, rhs: SignRegion, memo: RunMemo) -> Verdict:
    """lp_enumeration's decision of ``inclusion_check``, in any dimension:
    ``find_direction`` searches for a direction in lhs minus rhs, over the
    lhs membership choice points followed by the rhs negation choice
    points, in lexicographic order with infeasible prefixes pruned, each
    system decided by the feasibility solver."""
    return _search(
        _choice_points(lhs, False) + _choice_points(rhs, True), lhs.family.dim,
        "feasible vertex selection: witness lies in lhs with rhs violated at "
        "unit margin", "all {count} vertex-selection systems infeasible", memo,
        _degeneracy_notes(lhs, rhs, memo))


# ---------------------------------------------------------------------------
# One condition id
# ---------------------------------------------------------------------------

def evaluate_condition(cid: ConditionID, ef: Exhauster,
                       eu: Exhauster | None = None, *,
                       memo: RunMemo | None = None) -> Verdict:
    """Build and decide one condition.

    A constrained id is one ``inclusion_check``. An unconstrained id is a
    constrained condition with every direction admissible: the objective
    side that ``build_condition`` returns must cover every direction, and the
    search looks for a direction outside it. In the origin form (some
    vertex per set) the complement's systems are one per set, each asking
    for unit margin on all of the set's vertices; by Gordan's alternative
    one is feasible exactly when the origin lies outside that set, and its
    solution strictly separates the two. In the covering form (every
    vertex of some set) they choose one vertex per set at unit margin.
    Both forms are decided by lp_enumeration in every dimension, the plane
    included. ``memo`` is the run's ``RunMemo``; a call without one makes
    a fresh one.
    """
    cid = ConditionID(cid)
    built = build_condition(cid, ef, eu)
    memo = memo or RunMemo()
    if cid.u_kind is not None:
        return inclusion_check(built.lhs, built.rhs, memo=memo)
    rhs = built
    if rhs.every:
        side = "negative" if rhs.sign > 0 else "positive"
        violated = f"direction with a strictly {side} vertex in every set: covering fails"
        holds = "all {count} vertex selections infeasible: cones cover every direction"
    else:
        violated = "origin lies outside a set; witness is a strictly separating direction"
        holds = "origin belongs to all {count} sets"
    return _search(_choice_points(rhs, True), ef.dim, violated, holds, memo)


# ---------------------------------------------------------------------------
# Regularity of the constraint at the point
# ---------------------------------------------------------------------------

def regularity_check(family: Exhauster, *, memo: RunMemo | None = None) -> Verdict:
    """Is every zero direction of the constraint's derivative a limit of
    strictly negative directions?

    ``family`` is an upper family {D_j} of the constraint, so that
    u'(g) = min_j max_{w in D_j} <w, g>. With P_j = {g : <w, g> <= 0 for
    all w in D_j}, the region {u' <= 0} is the union of all P_j. By
    Gordan's alternative, {max_{w in D_k} <w, g> < 0} is nonempty exactly
    when the origin lies outside D_k (an open set), and its closure is
    then P_k; a set holding the origin (a closed set) has no strictly
    negative direction. The closure of {u' < 0} is thus the union of the
    open sets' P_k, and regularity is the inclusion of the closed sets'
    P_j in it, each side the sign -1 region of an upper family, decided by
    ``inclusion_check``: exact2d arcs in the plane, lp_enumeration above
    it. With no open set the right side is the cone {0}, the P of the
    cross-polytope. A violation witness is a unit zero direction outside
    every open set's P_k. ``memo`` is the run's ``RunMemo``, if any.
    """
    if family.kind != "upper":
        raise ExhausterKindError(f"regularity needs an upper family, got {family.kind}")
    memo = memo or RunMemo()
    dim = family.dim
    closed: list[Polytope] = []
    opened: list[Polytope] = []
    for c in family.sets:
        (closed if memo.holds_origin(c) else opened).append(c)
    if not closed:
        return Verdict(
            "holds", None,
            f"none of the {len(family.sets)} sets contains the origin: every "
            "zero direction is a limit of strictly negative ones", _exact_method(dim))
    if not opened:
        axes = [tuple(s if j == i else 0.0 for j in range(dim))
                for i in range(dim) for s in (1.0, -1.0)]
        opened = [Polytope(dim, tuple(axes))]
    verdict = inclusion_check(
        SignRegion(Exhauster("upper", dim, closed), -1.0),
        SignRegion(Exhauster("upper", dim, opened), -1.0), memo=memo)
    witness = verdict.witness
    if witness is not None:
        norm = math.sqrt(dot(witness, witness))
        witness = tuple(x / norm for x in witness)
    return verdict.replace(witness=witness, certificate=(
        f"{len(closed)} of {len(family.sets)} sets contain the origin; "
        + verdict.certificate))


# ---------------------------------------------------------------------------
# Reduction of a family
# ---------------------------------------------------------------------------

_TRIAL_MARGIN = 1e-6  # relative margin of a trial direction, far above rounding


def _trial_feasible(normals: list[Vector]) -> bool:
    """Does the sum g of the unit normals u of ``normals``, strict rows
    given by their normals n, meet each row with ``<u, g> >= _TRIAL_MARGIN
    * |g|``, that is ``<n, g> >= _TRIAL_MARGIN * |n| * |g|``? Then a
    multiple of g satisfies the system at unit margin, so True is exact;
    False decides nothing. Rounding in u and in the inner products is a few
    1e-16 of ``|g|``, far below the margin. A zero norm, or the infinite
    one of a normal with an overflowed coordinate, gives False."""
    units = []
    for n in normals:
        norm = math.hypot(*n)
        if not 0.0 < norm < math.inf:
            return False
        units.append(tuple(x / norm for x in n))
    g = tuple(map(plain_sum, zip(*units)))
    floor = _TRIAL_MARGIN * math.hypot(*g)
    return floor > 0.0 and all(dot(u, g) >= floor for u in units)


def reduce_exhauster(family: Exhauster, *, memo: RunMemo | None = None) -> Exhauster:
    """Drop family members that never decide the min (resp. max) value.

    Members are tried in order, each against the sets still kept. For an
    upper family a candidate matters somewhere only if a direction makes
    every kept set's max-support strictly larger than the candidate's, i.e.
    some vertex w per kept set has ``<w - v, g> > 0`` at every candidate
    vertex v; lower families mirror it with ``<v - w, g> > 0``. Each kept
    set is one choice point of ``_search`` on the run's ``memo`` (a fresh
    one without it), and the candidate is removed only when the search
    holds, so evaluation is preserved pointwise. A candidate whose search
    is over the cap (``inconclusive``) is kept.

    Most candidates are needed, and the search's first system, the first
    vertex of every kept set, usually shows it. So only that system's
    differences are computed first, and it is tried at the sum of their
    unit normals (``_trial_feasible``): when that direction meets every row
    with a clear margin, the candidate is kept with no LP solved and
    nothing stored in ``memo``. The trial only ever keeps a set, and the
    search decides every other candidate. Its rows are built, and checked
    finite, only for that search, in choice-point order, so the first
    difference that overflows raises LinearConstraint's ValueError.
    """
    memo = memo or RunMemo()
    sign = 1.0 if family.kind == "upper" else -1.0
    work = list(family.sets)
    pos = 0
    while len(work) > 1 and pos < len(work):
        vertices = work[pos].vertices
        kept = work[:pos] + work[pos + 1:]
        if _trial_feasible([tuple(sign * (wi - vi) for wi, vi in zip(s.vertices[0], v))
                            for s in kept for v in vertices]):
            pos += 1
            continue
        choice_points = [[[LinearConstraint((sign * (wi - vi) for wi, vi in zip(w, v)), True)
                           for v in vertices] for w in s.vertices] for s in kept]
        if _search(choice_points, family.dim, "", "", memo).status == "holds":
            work.pop(pos)
        else:
            pos += 1
    return Exhauster(family.kind, family.dim, tuple(work))


# ---------------------------------------------------------------------------
# Sampled cross-check straight from the derivative trees
# ---------------------------------------------------------------------------

def necessary_condition_oracle(f_tree: MinMaxTree, u_tree: MinMaxTree,
                               senses: Sequence[str], samples: int = 720,
                               seed: int = 0, *, tol: float = TOL
                               ) -> dict[str, Verdict]:
    """Search sampled directions, for each of the ``senses`` ("min",
    "max"), for one that is admissible for the constraint yet has the wrong
    objective-derivative sign; the verdicts by sense, which the report
    names ``ORACLE_<SENSE>``.

    This bypasses families and regions entirely, so it cross-checks every
    constrained verdict. The directions are ``sample_unit_directions``'s,
    which raises ValueError for fewer than one sample. One scan serves every
    sense: each direction's derivatives are evaluated once, each sense
    keeps the first direction that violates it, and the scan stops when
    every sense has one. In the plane, a block of ``FD_BLOCK`` directions
    is not evaluated when its bounds (``_arc_bounder``) admit no direction
    or violate no sense still open, so the verdicts stay the full scan's.
    A clean pass is only ever ``inconclusive``.
    """
    senses = tuple(dict.fromkeys(senses))
    for sense in senses:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    dim = expr_dim(f_tree)
    forms = [[leaf.form for leaf in leaves(tree)] for tree in (f_tree, u_tree)]
    if any(len(form) != dim for tree_forms in forms for form in tree_forms):
        raise DimensionMismatchError(f"every linear form of the trees must have length {dim}")
    directions = sample_unit_directions(dim, samples, seed)
    found: dict[str, Verdict] = {}
    # From 2 * FD_BLOCK evenly spaced plane directions on, a block spans under a
    # half turn; no column overflows where each leaf's (|a| + |b|) * leaf count < 1e300.
    f_bounds = u_bounds = None
    if dim == 2 and len(directions) >= 2 * FD_BLOCK and all(
            (abs(a) + abs(b)) * len(tree_forms) < 1e300
            for tree_forms in forms for a, b in tree_forms):
        f_bounds, u_bounds = _arc_bounder(f_tree), _arc_bounder(u_tree)
    # Block by block, since above the plane the first violation usually comes
    # early; the directions are sampled in the trees' dimension, checked above.
    for start in range(0, len(directions), FD_BLOCK):
        if len(found) == len(senses):
            break
        block = directions[start:start + FD_BLOCK]
        if u_bounds:
            # A block that admits no direction is read as f' = 0.
            arc = *block[0], *block[-1]
            lo, hi = (0.0, 0.0) if u_bounds(arc)[0] > tol else f_bounds(arc)
            if all(sense in found or (hi if sense == "max" else -lo) <= ORACLE_MARGIN
                   for sense in senses):
                continue
        admissible = [(g, hu) for g, hu in zip(block, _minmax_columns(u_tree, block))
                      if hu <= tol]
        hfs = _minmax_columns(f_tree, [g for g, _ in admissible])
        for sense in senses:
            if sense in found:
                continue
            # A violation has s * hf > ORACLE_MARGIN; a NaN compares false.
            s = 1 if sense == "max" else -1
            k = next((k for k, hf in enumerate(hfs) if s * hf > ORACLE_MARGIN), None)
            if k is not None:
                (g, hu), hf = admissible[k], hfs[k]
                found[sense] = Verdict(
                    "violated", g,
                    f"admissible direction with objective derivative {hf:.6g} "
                    f"(constraint derivative {hu:.6g})", "sampled")
    clean = Verdict(
        "inconclusive", None,
        f"no violating direction among {len(directions)} samples", "sampled")
    return {sense: found.get(sense, clean) for sense in senses}
