"""Necessary optimality condition checkers.

Each constrained condition is an inclusion between two cone regions: the
region where the constraint's directional derivative is nonpositive must
lie inside the region where the objective's derivative has the sign an
extremum requires. An unconstrained condition is the same inclusion with
every direction on the left. Regions are unions or intersections of four
primitive vertex-sign predicates over the family members. Inclusions are
decided exactly, either on the circle by angular-arc algebra (constrained
plane conditions) or in any dimension by a pruned search over vertex
choices, each system decided by the deterministic feasibility solver.
Regularity of the constraint is one more inclusion of the same kind. A
sampled oracle that works straight from the derivative trees cross-checks
each verdict but never claims an exact "holds".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

# The benchmark's tracer (perfbench/spans.py) wraps linear_feasibility,
# contains_origin and eval_minmax by name in this module and stops if one is
# missing, so linear_feasibility and eval_minmax stay imported although
# nothing here calls them.
from .deriv import MinMaxTree, eval_minmax, eval_minmax_many, tree_dim
from .errors import DimensionMismatchError, ExhausterKindError
from .exhauster import DEFAULT_COMBINATION_CAP, Exhauster, find_direction
from .geometry import (
    ANGLE_TOL,
    TOL,
    ArcSet,
    LinearConstraint,
    Polytope,
    Vector,
    arcset_subset,
    as_vector,
    contains_origin,
    dot,
    halfcircle,
    linear_feasibility,
    sample_unit_directions,
    unit_direction,
)

ORACLE_MARGIN = 1e-6
# Directions the oracle evaluates per step. Above the plane the first
# violation usually lies among the first few directions, so evaluating the
# whole sample at once would waste most of the work.
_ORACLE_BLOCK = 64


class AtomKind(str, Enum):
    """Primitive direction predicates over one polytope C: the dual cone of
    cone{C} (``K_PLUS``), its negative (``NEG_K_PLUS``), and their closed
    complements (``NOT_K_PLUS``, ``NOT_NEG_K_PLUS``). ``_PREDICATE`` gives
    each one's operational semantics on a direction g.

    When C contains the origin the two complement-style predicates hold for
    every direction while the closed set-complement they normally encode
    degenerates; the predicates stay the decidable ground truth and the
    checkers emit a note naming such sets.
    """

    K_PLUS = "kplus"
    NEG_K_PLUS = "neg_kplus"
    NOT_K_PLUS = "not_kplus"
    NOT_NEG_K_PLUS = "not_neg_kplus"


# kind -> (every, sign): the atom holds at g when sign * <v, g> >= 0 at
# every vertex v of C (every=True) or at some vertex (every=False). This is
# the only place that tells the four kinds apart.
_PREDICATE = {
    AtomKind.K_PLUS: (True, 1.0),
    AtomKind.NEG_K_PLUS: (True, -1.0),
    AtomKind.NOT_K_PLUS: (False, -1.0),
    AtomKind.NOT_NEG_K_PLUS: (False, 1.0),
}


@dataclass(frozen=True)
class RegionAtom:
    kind: AtomKind
    polytope: Polytope

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AtomKind(self.kind))


@dataclass(frozen=True)
class RegionExpr:
    """Union or intersection of region atoms (one atom per family set)."""

    combinator: str
    atoms: tuple[RegionAtom, ...]

    def __post_init__(self) -> None:
        if self.combinator not in ("intersection", "union"):
            raise ValueError(f"bad combinator {self.combinator!r}")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a region needs at least one atom")
        dims = {a.polytope.dim for a in self.atoms}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.atoms[0].polytope.dim


class ConditionID(str, Enum):
    """Constrained ids read SENSE_FKIND_UKIND: which family of the
    objective f and of the constraint u the condition is phrased in.
    Unconstrained ids read UNC_SENSE_FKIND."""

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


CONSTRAINED_IDS = tuple(cid for cid in ConditionID if not cid.value.startswith("UNC"))
UNCONSTRAINED_IDS = tuple(cid for cid in ConditionID if cid.value.startswith("UNC"))

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


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``violated`` always carries a re-checkable witness direction. Sampled
    methods never report a plain ``holds``; their positive outcome is
    ``inconclusive`` so that exactness claims stay confined to the exact2d
    and lp_enumeration methods.
    """

    status: str
    witness: Optional[Vector]
    certificate: str
    method: str
    condition: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "method": self.method,
            "witness": list(self.witness) if self.witness is not None else None,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class ConstrainedCondition:
    cid: ConditionID
    lhs: RegionExpr
    rhs: RegionExpr


@dataclass(frozen=True)
class UnconstrainedCondition:
    """``rhs`` is the region the extremum forces on the objective's
    derivative; the condition holds when it covers every direction."""

    cid: ConditionID
    family: Exhauster
    rhs: RegionExpr


# ---------------------------------------------------------------------------
# Atom and region evaluation
# ---------------------------------------------------------------------------

def atom_membership(atom: RegionAtom, g: Sequence[float], tol: float = TOL) -> bool:
    """Evaluate the atom's vertex-sign predicate at a direction.

    ``tol`` loosens the comparison; pass a negative value to demand the
    predicate with a strict margin instead.
    """
    every, sign = _PREDICATE[atom.kind]
    quantifier = all if every else any
    return quantifier(sign * dot(v, g) >= -tol for v in atom.polytope.vertices)


def region_membership(expr: RegionExpr, g: Sequence[float], tol: float = TOL) -> bool:
    if expr.combinator == "intersection":
        return all(atom_membership(a, g, tol) for a in expr.atoms)
    return any(atom_membership(a, g, tol) for a in expr.atoms)


def arcs_from_atom(atom: RegionAtom) -> ArcSet:
    """Exact trace of the atom's predicate on the unit circle (plane only):
    the intersection (every) or union (some) of one closed half-circle per
    vertex. Boundary angles are the roots of the vertex inner products,
    obtained in closed form, so the result is exact up to the angle
    tolerance."""
    if atom.polytope.dim != 2:
        raise DimensionMismatchError("arc algebra is available in the plane only")
    every, sign = _PREDICATE[atom.kind]
    acc = ArcSet.full() if every else ArcSet.empty()
    for v in atom.polytope.vertices:
        half = halfcircle(v, nonnegative=sign > 0)
        acc = acc.intersect(half) if every else acc.union(half)
    return acc


def region_arcs(expr: RegionExpr) -> ArcSet:
    acc: Optional[ArcSet] = None
    for atom in expr.atoms:
        arcs = arcs_from_atom(atom)
        if acc is None:
            acc = arcs
        elif expr.combinator == "intersection":
            acc = acc.intersect(arcs)
        else:
            acc = acc.union(arcs)
    assert acc is not None
    return acc


# ---------------------------------------------------------------------------
# Condition catalog
# ---------------------------------------------------------------------------

def _region(combinator: str, kind: AtomKind, family: Exhauster) -> RegionExpr:
    return RegionExpr(combinator, tuple(RegionAtom(kind, c) for c in family.sets))


def _constrained_sides(sense: str, f_kind: str, u_kind: str,
                       ef: Exhauster, eu: Exhauster) -> tuple[RegionExpr, RegionExpr]:
    # Left side: operational form of "constraint derivative <= 0" in terms
    # of u's family. Right side: the sign region the extremum forces on the
    # objective derivative, in terms of f's family.
    if u_kind == "lower":
        lhs = _region("intersection", AtomKind.NOT_K_PLUS, eu)
    else:
        lhs = _region("union", AtomKind.NEG_K_PLUS, eu)
    if sense == "min" and f_kind == "upper":
        rhs = _region("intersection", AtomKind.NOT_NEG_K_PLUS, ef)
    elif sense == "min":
        rhs = _region("union", AtomKind.K_PLUS, ef)
    elif f_kind == "lower":
        rhs = _region("intersection", AtomKind.NOT_K_PLUS, ef)
    else:
        rhs = _region("union", AtomKind.NEG_K_PLUS, ef)
    return lhs, rhs


# The region each unconstrained condition requires to cover every
# direction. The origin forms both read "some <v, g> <= 0 in every set",
# which covers every direction exactly when the origin lies in every set;
# for UNC_MIN_UPPER this mirrors the constrained NOT_NEG_K_PLUS side
# (g -> -g), so its witness is a direction separating a set from the
# origin rather than a descent direction.
_UNCONSTRAINED_SIDES = {
    ConditionID.UNC_MIN_UPPER: ("intersection", AtomKind.NOT_K_PLUS),
    ConditionID.UNC_MAX_LOWER: ("intersection", AtomKind.NOT_K_PLUS),
    ConditionID.UNC_MIN_LOWER: ("union", AtomKind.K_PLUS),
    ConditionID.UNC_MAX_UPPER: ("union", AtomKind.NEG_K_PLUS),
}


def build_condition(cid: ConditionID, ef: Exhauster,
                    eu: Optional[Exhauster] = None
                    ) -> Union[ConstrainedCondition, UnconstrainedCondition]:
    """Materialize the region expressions of one condition id, validating
    family kinds: both sides of a constrained condition, or the objective
    side of an unconstrained one, whose constraint side is every
    direction."""
    cid = ConditionID(cid)
    parts = cid.value.split("_")
    if parts[0] == "UNC":
        required = parts[2].lower()
        if ef.kind != required:
            raise ExhausterKindError(
                f"{cid.value} needs an {required} family for the objective, got {ef.kind}")
        return UnconstrainedCondition(cid, ef, _region(*_UNCONSTRAINED_SIDES[cid], ef))
    sense, f_kind, u_kind = parts[0].lower(), parts[1].lower(), parts[2].lower()
    if eu is None:
        raise ExhausterKindError(f"{cid.value} needs a constraint family")
    if ef.kind != f_kind:
        raise ExhausterKindError(
            f"{cid.value} needs an {f_kind} family for the objective, got {ef.kind}")
    if eu.kind != u_kind:
        raise ExhausterKindError(
            f"{cid.value} needs a {u_kind} family for the constraint, got {eu.kind}")
    if ef.dim != eu.dim:
        raise DimensionMismatchError(
            f"objective family dimension {ef.dim} vs constraint {eu.dim}")
    lhs, rhs = _constrained_sides(sense, f_kind, u_kind, ef, eu)
    return ConstrainedCondition(cid, lhs, rhs)


# ---------------------------------------------------------------------------
# Inclusion decision
# ---------------------------------------------------------------------------

def _degeneracy_notes(lhs: RegionExpr, rhs: RegionExpr) -> str:
    notes = []
    for label, expr in (("lhs", lhs), ("rhs", rhs)):
        for i, atom in enumerate(expr.atoms):
            some_vertex = not _PREDICATE[atom.kind][0]
            if some_vertex and contains_origin(atom.polytope):
                notes.append(
                    f"degenerate {label} atom {i}: set contains the origin, "
                    "predicate covers every direction")
    return ("; " + "; ".join(notes)) if notes else ""


def _atom_options(atom: RegionAtom, negate: bool) -> list[list[LinearConstraint]]:
    """The atom (or its complement) as a disjunction of linear systems.

    The complement of "sign * <v, g> >= 0 at every (some) vertex" is
    "-sign * <v, g> > 0 at some (every) vertex"; complements are open, and
    the unit margin of strict rows realizes them losslessly.
    """
    every, sign = _PREDICATE[atom.kind]
    if negate:
        every, sign = not every, -sign
    rows = [LinearConstraint(tuple(sign * c for c in v), strict=negate)
            for v in atom.polytope.vertices]
    return [rows] if every else [[row] for row in rows]


def _choice_points(expr: RegionExpr, negate: bool) -> list[list[list[LinearConstraint]]]:
    """Choice points whose systems' solution sets unite to the region (or
    its complement): one per atom on a conjunctive side, a single one
    holding every atom's options on a disjunctive side. Options keep
    (set index, vertex index) order, so the first feasible system found is
    deterministic."""
    options = [_atom_options(a, negate) for a in expr.atoms]
    if (expr.combinator == "intersection") != negate:
        return options
    return [[opt for atom_options in options for opt in atom_options]]


def _search(choice_points: list[list[list[LinearConstraint]]], dim: int,
            max_combinations: int, violated: str, holds: str,
            notes: str = "") -> Verdict:
    """The lp_enumeration verdict on a disjunction of linear systems, one
    per choice of an option at every choice point: the first feasible
    system in lexicographic order gives the violation witness, none means
    the condition holds, and more than ``max_combinations`` systems leave
    it inconclusive. ``holds`` may name the system count as ``{count}``."""
    count = math.prod(len(point) for point in choice_points)
    if count > max_combinations:
        return Verdict(
            "inconclusive", None,
            f"enumeration needs {count} combinations, above the cap of {max_combinations}" + notes,
            "lp_enumeration")
    result = find_direction(choice_points, dim)
    if result is not None:
        return Verdict("violated", result.witness, violated + notes, "lp_enumeration")
    return Verdict("holds", None, holds.format(count=count) + notes, "lp_enumeration")


def inclusion_check(lhs: RegionExpr, rhs: RegionExpr, *, method: str = "auto",
                    max_combinations: int = DEFAULT_COMBINATION_CAP) -> Verdict:
    """Decide whether every direction of ``lhs`` belongs to ``rhs``.

    exact2d intersects/unions the atoms' circle arcs and tests arc
    coverage; lp_enumeration searches for a direction in lhs minus rhs with
    ``find_direction``: the lhs membership choice points followed by the
    rhs negation choice points, searched in lexicographic order with
    infeasible prefixes pruned, each system decided by the feasibility
    solver. Both are exact; in the plane they must agree.
    """
    if lhs.dim != rhs.dim:
        raise DimensionMismatchError(
            f"lhs dimension {lhs.dim} vs rhs dimension {rhs.dim}")
    if method == "auto":
        method = "exact2d" if lhs.dim == 2 else "lp_enumeration"
    notes = _degeneracy_notes(lhs, rhs)
    if method == "exact2d":
        if lhs.dim != 2:
            raise DimensionMismatchError("exact2d needs plane regions")
        left = region_arcs(lhs)
        right = region_arcs(rhs)
        holds, angle = arcset_subset(left, right, ANGLE_TOL)
        if holds:
            return Verdict(
                "holds", None,
                f"{len(left.arcs)} lhs arcs covered by {len(right.arcs)} rhs arcs" + notes,
                "exact2d")
        witness = unit_direction(angle)
        return Verdict(
            "violated", witness,
            f"uncovered angle {angle:.12g} rad" + notes, "exact2d")
    if method != "lp_enumeration":
        raise ValueError(f"unknown method {method!r}")
    return _search(
        _choice_points(lhs, False) + _choice_points(rhs, True), lhs.dim,
        max_combinations,
        "feasible vertex selection: witness lies in lhs with rhs violated at "
        "unit margin", "all {count} vertex-selection systems infeasible", notes)


# ---------------------------------------------------------------------------
# Unconstrained conditions
# ---------------------------------------------------------------------------

def check_unconstrained(cid: ConditionID, family: Exhauster, *,
                        max_combinations: int = DEFAULT_COMBINATION_CAP) -> Verdict:
    """Decide one of the four unconstrained conditions exactly.

    Each is a constrained condition with every direction admissible: the
    objective side ``rhs`` of ``build_condition`` must cover every
    direction. ``inclusion_check``'s search looks for a direction outside
    it. In the origin form the complement's systems are one per set, each
    asking for unit margin on all of the set's vertices; by Gordan's
    alternative one is feasible exactly when the origin lies outside that
    set, and its solution strictly separates the two. In the covering form
    they choose one vertex per set at unit margin. Both forms are decided
    by lp_enumeration in every dimension, the plane included.
    """
    built = build_condition(cid, family)
    if built.rhs.combinator == "intersection":
        violated = ("origin lies outside a set; witness is a strictly "
                    "separating direction")
        holds = "origin belongs to all {count} sets"
    else:
        side = "negative" if built.cid is ConditionID.UNC_MIN_LOWER else "positive"
        violated = (f"direction with a strictly {side} vertex in every set: "
                    "covering fails")
        holds = ("all {count} vertex selections infeasible: cones cover "
                 "every direction")
    return _search(_choice_points(built.rhs, True), family.dim,
                   max_combinations, violated, holds)


def evaluate_condition(cid: ConditionID, ef: Exhauster,
                       eu: Optional[Exhauster] = None, *, method: str = "auto",
                       max_combinations: int = DEFAULT_COMBINATION_CAP) -> Verdict:
    """Build and run one condition, labelling the verdict with its id."""
    built = build_condition(cid, ef, eu)
    if isinstance(built, ConstrainedCondition):
        verdict = inclusion_check(built.lhs, built.rhs, method=method,
                                  max_combinations=max_combinations)
    else:
        verdict = check_unconstrained(built.cid, built.family,
                                      max_combinations=max_combinations)
    return replace(verdict, condition=ConditionID(cid).value)


# ---------------------------------------------------------------------------
# Regularity of the constraint at the point
# ---------------------------------------------------------------------------

def regularity_check(family: Exhauster, *,
                     max_combinations: int = DEFAULT_COMBINATION_CAP) -> Verdict:
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
    P_j in it, decided by ``inclusion_check``: exact2d arcs in the plane,
    lp_enumeration above it. With no open set the right side is the cone
    {0}, the P of the cross-polytope. A violation witness is a unit zero
    direction outside every open set's P_k.
    """
    if family.kind != "upper":
        raise ExhausterKindError(f"regularity needs an upper family, got {family.kind}")
    closed: list[Polytope] = []
    opened: list[Polytope] = []
    for c in family.sets:
        (closed if contains_origin(c) else opened).append(c)
    if not closed:
        return Verdict(
            "holds", None,
            f"none of the {len(family.sets)} sets contains the origin: every "
            "zero direction is a limit of strictly negative ones",
            "exact2d" if family.dim == 2 else "lp_enumeration")
    if not opened:
        axes = [tuple(s if j == i else 0.0 for j in range(family.dim))
                for i in range(family.dim) for s in (1.0, -1.0)]
        opened = [Polytope(family.dim, tuple(axes))]
    verdict = inclusion_check(
        RegionExpr("union", tuple(RegionAtom(AtomKind.NEG_K_PLUS, c) for c in closed)),
        RegionExpr("union", tuple(RegionAtom(AtomKind.NEG_K_PLUS, c) for c in opened)),
        max_combinations=max_combinations)
    witness = verdict.witness
    if witness is not None:
        norm = math.sqrt(sum(x * x for x in witness))
        witness = tuple(x / norm for x in witness)
    return replace(verdict, witness=witness, certificate=(
        f"{len(closed)} of {len(family.sets)} sets contain the origin; "
        + verdict.certificate))


# ---------------------------------------------------------------------------
# Sampled cross-check straight from the derivative trees
# ---------------------------------------------------------------------------

def necessary_condition_oracle(f_tree: MinMaxTree, u_tree: MinMaxTree, sense: str,
                               samples: int = 720, seed: int = 0, *,
                               tol: float = TOL, margin: float = ORACLE_MARGIN,
                               extra_directions: Sequence[Sequence[float]] = ()
                               ) -> Verdict:
    """Search sampled directions for one that is admissible for the
    constraint yet has the wrong objective-derivative sign.

    This bypasses families and regions entirely, so it cross-checks every
    constrained verdict. Pass a candidate witness through
    ``extra_directions`` to have it examined first. A clean pass is only
    ever ``inconclusive``.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    dim = tree_dim(f_tree)
    if tree_dim(u_tree) != dim:
        raise DimensionMismatchError("objective and constraint trees disagree "
                                     "on dimension")
    directions: list[Vector] = []
    for d in extra_directions:
        vec = as_vector(d)
        norm = math.sqrt(sum(c * c for c in vec))
        if norm > 1e-12:
            directions.append(tuple(c / norm for c in vec))
    directions.extend(sample_unit_directions(dim, samples, seed))
    for start in range(0, len(directions), _ORACLE_BLOCK):
        block = directions[start:start + _ORACLE_BLOCK]
        admissible = [(g, hu) for g, hu in zip(block, eval_minmax_many(u_tree, block))
                      if hu <= tol]
        hfs = eval_minmax_many(f_tree, [g for g, _ in admissible])
        for (g, hu), hf in zip(admissible, hfs):
            if (sense == "min" and hf < -margin) or (sense == "max" and hf > margin):
                return Verdict(
                    "violated", g,
                    f"admissible direction with objective derivative {hf:.6g} "
                    f"(constraint derivative {hu:.6g})", "sampled")
    return Verdict(
        "inconclusive", None,
        f"no violating direction among {len(directions)} samples", "sampled")
