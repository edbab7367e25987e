"""Families of polytopes representing a piecewise-linear positively
homogeneous function.

An upper family evaluates as the minimum over its sets of the maximal
vertex product; a lower family as the maximum of the minimal products. Both
are built by the exhauster calculus from the same derivative tree, whose
``Sum``, ``Max`` and ``Min`` nodes over ``Leaf`` forms are the expression's
own operators, so they agree pointwise with the tree and with each other.

``find_direction`` is the vertex-selection search behind every exact
decision; ``conditions`` runs it, under a run's cap and store, for each
condition, regularity test and reduction of a family.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .deriv import Leaf, Max, Min, MinMaxTree, Sum, expr_dim
from .errors import CapExceededError, DimensionMismatchError
from .geometry import (
    FeasibilityResult,
    LinearConstraint,
    Polytope,
    Value,
    Vector,
    as_int,
    hull_contains,
    linear_feasibility,
    support_value,
)

DEFAULT_FAMILY_CAP = 10_000  # vertices over a family's sets; read at every call
KINDS = ("upper", "lower")


class Exhauster(Value):
    """Tagged family of polytopes; ``upper`` is min-of-max, ``lower`` is
    max-of-min."""

    __slots__ = ("kind", "dim", "sets")

    def __init__(self, kind: str, dim: int, sets: Iterable[Polytope]) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        sets = tuple(sets)
        if not sets:
            raise ValueError("a family needs at least one set")
        for s in sets:
            if s.dim != dim:
                raise DimensionMismatchError(
                    f"set of dimension {s.dim} in a family of dimension {dim}")
        self._init(kind, dim, sets)

    @classmethod
    def from_json(cls, data) -> "Exhauster":
        if not isinstance(data, dict):
            raise ValueError("family must be an object")
        for key in ("kind", "dim", "sets"):
            if key not in data:
                raise ValueError(f"family is missing {key!r}")
        sets = tuple(Polytope.from_json(s) for s in data["sets"])
        return cls(str(data["kind"]), as_int(data["dim"]), sets)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "sets": [s.to_json() for s in self.sets],
        }


def exhauster_from_tree(tree: MinMaxTree, kind: str) -> Exhauster:
    """Build the family of the requested kind from a derivative tree by the
    exhauster calculus, bottom-up.

    A ``Leaf`` is one singleton set. The node that matches the kind (``Min``
    for upper, ``Max`` for lower) concatenates its children's families; the
    other takes their product, uniting one set of each child per
    combination; a ``Sum`` node takes the pairwise Minkowski sums of the
    sets, whose vertices are ``v + w`` over every pair of vertices.
    Children fold left to right. Redundant vertices are left alone (hull
    equality, not list equality, is the notion of sameness downstream). A
    family whose vertices, summed over its sets, would exceed
    ``DEFAULT_FAMILY_CAP`` raises ``CapExceededError`` before it is built.
    """
    concat_node = Min if kind == "upper" else Max

    def build(node: MinMaxTree) -> list[tuple[Vector, ...]]:
        if isinstance(node, Leaf):
            return [(node.form,)]
        acc, *rest = (build(child) for child in node.children)
        for family in rest:
            have, more = sum(map(len, acc)), sum(map(len, family))
            if isinstance(node, concat_node):
                _check_family_cap(have + more)
                acc = acc + family
            elif isinstance(node, Sum):
                _check_family_cap(have * more)
                acc = [tuple(tuple(x + y for x, y in zip(v, w)) for v in a for w in b)
                       for a in acc for b in family]
            else:
                _check_family_cap(have * len(family) + more * len(acc))
                acc = [a + b for a in acc for b in family]
        return acc

    dim = expr_dim(tree)
    return Exhauster(kind, dim, tuple(Polytope(dim, s) for s in build(tree)))


def _check_family_cap(vertices: int) -> None:
    if vertices > DEFAULT_FAMILY_CAP:
        raise CapExceededError(
            f"a family would hold {vertices} vertices, over {DEFAULT_FAMILY_CAP}")


def eval_exhauster(family: Exhauster, g: Sequence[float]) -> float:
    if family.kind == "upper":
        return min(support_value(s, g, "max") for s in family.sets)
    return max(support_value(s, g, "min") for s in family.sets)


def exhauster_tree(family: Exhauster) -> MinMaxTree:
    """The family's own function as a tree: a min over the sets of the max
    over each set's vertex forms for an upper family, a max of mins for a
    lower one. ``eval_minmax_many`` on it gives ``eval_exhauster``'s values
    bit for bit, since both take the first extreme and add ``dot``'s way."""
    outer, inner = (Min, Max) if family.kind == "upper" else (Max, Min)
    return outer(tuple(inner(tuple(Leaf(v) for v in s.vertices)) for s in family.sets))


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    """Hull equality: every vertex of each polytope lies in the hull of the
    other."""
    if a.dim != b.dim:
        return False
    return all(hull_contains(b, v) for v in a.vertices) and \
        all(hull_contains(a, v) for v in b.vertices)


def find_direction(choice_points: Sequence[Sequence[Sequence[LinearConstraint]]],
                   dim: int, solved: dict) -> FeasibilityResult | None:
    """Search a disjunction of linear systems for a feasible one.

    A choice point is a list of options and an option a list of
    constraints; choosing one option per choice point gives one system,
    whose rows are the chosen options' rows in choice-point order. Returns
    the solver's result on the first feasible system in lexicographic order
    of the choices, or None when every system is infeasible.

    Each full system is tried first, so a feasible first choice costs one
    LP. When it fails, the search looks for ``last``, the latest position
    whose choice has a later option. With none, no system is left, and it
    returns None at once: no prefix is solved and no table is built.
    Otherwise its prefixes are probed from length 1 up, but only those of
    at most ``last`` positions: a longer refuted prefix would advance
    ``last``, as the failed system does. A prefix solved before is answered
    by ``solved`` with no LP. The choice at the first infeasible prefix's
    last position then advances, which skips the whole subtree behind it,
    since adding rows never restores feasibility.

    Once the first full system has failed, a conflict table refutes systems
    with no LP. The table waits for that failure because building it costs
    more than the single LP that a feasible first system needs. Two rows
    clash when one is strict and their normals point in exactly opposite
    directions: ``<n, g> >= 1`` and ``<-c n, g> >= 0`` with ``c > 0``
    exclude each other, and a strict row with a zero normal clashes with
    itself. The first prefix holding a clash, within one option or across
    two, is infeasible, so its last position advances as for an infeasible
    prefix and no LP is solved. The test is exact (see ``_ray``), so every
    skipped system is infeasible and the result is the one plain enumeration
    finds, except that a clashing system the solver would accept within its
    tolerance, such as ``<(1, 0), g> >= 1`` with ``<(-1e-12, 0), g> >= 0``,
    is refuted unless it is the first one tried.

    ``solved`` maps ``(dim, rows)``, the rows an ordered tuple, to the
    solver's result on that system; each full or prefix system is looked
    up there before it is solved, and every result solved is added. The
    solver is a deterministic function of its ordered rows, so a hit is
    what a fresh solve would give. Keys compare floats by value, so -0.0
    matches 0.0: the solver skips zero entries and draws its right-hand
    sides from the strict flags alone, so a zero's sign reaches neither a
    pivot decision nor the witness. Its one caller, ``conditions._search``,
    passes the run's store (``RunMemo.solved``), so that the condition,
    regularity and reduction searches of a run solve each system once.
    """

    def solve(parts):
        rows = tuple(c for part in parts for c in part)
        result = solved.get((dim, rows))
        if result is None:
            result = solved[dim, rows] = linear_feasibility(rows, dim)
        return result

    depth = len(choice_points)
    final = [len(point) - 1 for point in choice_points]  # last option of each
    choice = [0] * depth
    clean = 0  # length of the longest prefix known to hold no clash
    table = None  # built once the first full system fails
    while True:
        # bad: length of a prefix shown infeasible, by a clash or by the
        # solver; depth + 1 while none is
        bad = depth + 1 if table is None else _first_clash(table, choice, clean) + 1
        if bad > depth:
            parts = [point[j] for point, j in zip(choice_points, choice)]
            result = solve(parts)
            if result.feasible:
                return result
            # The failure advances the latest position with a later option.
            last = depth - 1
            while last >= 0 and choice[last] == final[last]:
                last -= 1
            if last < 0:
                return None
            if table is None:
                table = _conflict_table(choice_points)
                bad = _first_clash(table, choice, 0) + 1
            if bad > depth:
                # A refuted prefix longer than last would advance last too.
                bad = next((k for k in range(1, last + 1)
                            if not solve(parts[:k]).feasible), depth)
        pos = bad - 1
        while pos >= 0 and choice[pos] == final[pos]:
            pos -= 1
        if pos < 0:
            return None
        choice[pos:] = [choice[pos] + 1] + [0] * (depth - pos - 1)
        clean = pos


def _ray(normal: Vector) -> tuple[int, ...]:
    """The primitive integer vector on the ray of ``normal``. Floats are
    dyadic rationals, so scaling by the largest denominator (a power of
    two) and dividing by the gcd is exact: two normals are positive
    multiples of each other exactly when their rays are equal."""
    ratios = [x.as_integer_ratio() for x in normal]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    common = math.gcd(*ints) or 1
    return tuple(i // common for i in ints)


def _conflict_table(choice_points: Sequence[Sequence[Sequence[LinearConstraint]]]) -> list:
    """For each option of each choice point: None if its own rows clash,
    else the pairs (earlier position, its options that clash with this
    one), nonempty ones only. Two options clash when the opposite ray of a
    strict row of either is the ray of a row of the other."""
    rays: dict[Vector, tuple] = {}  # normal -> (ray, opposite ray)
    earlier = []  # per position: (rays, strict rows' opposite rays) of each option
    table = []
    for point in choice_points:
        sides = []
        entries = []
        for option in point:
            own, against = set(), set()
            for c in option:
                pair = rays.get(c.normal)
                if pair is None:
                    ray = _ray(c.normal)
                    pair = rays[c.normal] = (ray, tuple(-i for i in ray))
                own.add(pair[0])
                if c.strict:
                    against.add(pair[1])
            sides.append((own, against))
            if not against.isdisjoint(own):
                entries.append(None)
                continue
            entry = []
            for q, options in enumerate(earlier):
                hit = set()
                for j, (their_own, their_against) in enumerate(options):
                    if not against.isdisjoint(their_own) or not own.isdisjoint(their_against):
                        hit.add(j)
                if hit:
                    entry.append((q, frozenset(hit)))
            entries.append(entry)
        earlier.append(sides)
        table.append(entries)
    return table


def _first_clash(table: list, choice: list[int], start: int) -> int:
    """The first position from ``start`` on whose chosen option clashes
    with itself or with an earlier choice; ``len(choice)`` if none does."""
    for p in range(start, len(choice)):
        entry = table[p][choice[p]]
        if entry is None or any(choice[q] in hit for q, hit in entry):
            return p
    return len(choice)

