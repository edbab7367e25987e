"""Families of polytopes representing a piecewise-linear positively
homogeneous function.

An upper family evaluates as the minimum over its sets of the maximal
vertex product; a lower family as the maximum of the minimal products. Both
come out of the same min/max tree by lattice distributivity, so they agree
pointwise with the tree and with each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .deriv import Leaf, MaxNode, MinMaxTree, MinNode, tree_dim
from .errors import CapExceededError, DimensionMismatchError
from .geometry import (
    FeasibilityResult,
    LinearConstraint,
    Polytope,
    Sense,
    Vector,
    as_int,
    hull_contains,
    linear_feasibility,
    support_value,
)

DEFAULT_CLAUSE_CAP = 10_000
KINDS = ("upper", "lower")


@dataclass(frozen=True)
class Exhauster:
    """Tagged family of polytopes; ``upper`` is min-of-max, ``lower`` is
    max-of-min."""

    kind: str
    dim: int
    sets: tuple[Polytope, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("a family needs at least one set")
        for s in self.sets:
            if s.dim != self.dim:
                raise DimensionMismatchError(
                    f"set of dimension {s.dim} in a family of dimension {self.dim}")

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


def normalize(tree: MinMaxTree, target: str, *,
              clause_cap: int = DEFAULT_CLAUSE_CAP) -> list[tuple[Vector, ...]]:
    """Flatten a min/max tree into clause form by lattice distributivity.

    target 'cnf': clauses are max-groups and the tree equals their minimum;
    target 'dnf': clauses are min-groups and the tree equals their maximum.
    Pointwise equality is exact; only the representation changes. Clause
    count is capped because distribution multiplies.
    """
    if target not in ("cnf", "dnf"):
        raise ValueError(f"target must be 'cnf' or 'dnf', got {target!r}")
    concat_node = MinNode if target == "cnf" else MaxNode

    def flatten(node: MinMaxTree) -> list[tuple[Vector, ...]]:
        if isinstance(node, Leaf):
            return [(node.form,)]
        if isinstance(node, concat_node):
            clauses: list[tuple[Vector, ...]] = []
            for child in node.children:
                clauses.extend(flatten(child))
                if len(clauses) > clause_cap:
                    raise CapExceededError(
                        f"clause count exceeded {clause_cap}")
            return clauses
        acc: list[tuple[Vector, ...]] = [()]
        for child in node.children:
            child_clauses = flatten(child)
            if len(acc) * len(child_clauses) > clause_cap:
                raise CapExceededError(f"clause count exceeded {clause_cap}")
            acc = [a + c for a in acc for c in child_clauses]
        return acc

    return flatten(tree)


def exhauster_from_tree(tree: MinMaxTree, kind: str, *,
                        clause_cap: int = DEFAULT_CLAUSE_CAP) -> Exhauster:
    """Build the family of the requested kind from a min/max tree.

    Each clause of the matching normal form becomes one polytope whose
    vertices are the clause's linear forms verbatim; redundant vertices are
    left alone (hull equality, not list equality, is the notion of sameness
    downstream).
    """
    target = "cnf" if kind == "upper" else "dnf"
    clauses = normalize(tree, target, clause_cap=clause_cap)
    dim = tree_dim(tree)
    sets = tuple(Polytope(dim, clause) for clause in clauses)
    return Exhauster(kind, dim, sets)


def eval_exhauster(family: Exhauster, g: Sequence[float]) -> float:
    if len(g) != family.dim:
        raise DimensionMismatchError(
            f"direction of length {len(g)} against dimension {family.dim}")
    if family.kind == "upper":
        return min(support_value(s, g, "max") for s in family.sets)
    return max(support_value(s, g, "min") for s in family.sets)


def polytopes_equal(a: Polytope, b: Polytope) -> bool:
    """Hull equality: every vertex of each polytope lies in the hull of the
    other."""
    if a.dim != b.dim:
        return False
    return all(hull_contains(b, v) for v in a.vertices) and \
        all(hull_contains(a, v) for v in b.vertices)


def polytope_families_equal(a: Iterable[Polytope], b: Iterable[Polytope]) -> bool:
    """Multiset equality of two polytope families under hull equality."""
    remaining = list(b)
    for pa in a:
        for i, pb in enumerate(remaining):
            if polytopes_equal(pa, pb):
                remaining.pop(i)
                break
        else:
            return False
    return not remaining


def find_direction(choice_points: Sequence[Sequence[Sequence[LinearConstraint]]],
                   dim: int) -> Optional[FeasibilityResult]:
    """Search a disjunction of linear systems for a feasible one.

    A choice point is a list of options and an option a list of
    constraints; choosing one option per choice point gives one system,
    whose rows are the chosen options' rows in choice-point order. Returns
    the solver's result on the first feasible system in lexicographic order
    of the choices, or None when every system is infeasible.

    Each full system is tried first, so a feasible first choice costs one
    LP. Only when it fails are its prefixes tested, upward from the longest
    one known feasible; the choice at the first infeasible prefix's last
    position then advances, which skips the whole subtree behind it, since
    adding rows never restores feasibility.
    """
    def solve(parts):
        return linear_feasibility([c for part in parts for c in part], dim)

    depth = len(choice_points)
    choice = [0] * depth
    known = 0  # length of the longest prefix known to be feasible
    while True:
        parts = [point[j] for point, j in zip(choice_points, choice)]
        result = solve(parts)
        if result.feasible:
            return result
        bad = next((k for k in range(known + 1, depth)
                    if not solve(parts[:k]).feasible), depth)
        pos = bad - 1
        while pos >= 0 and choice[pos] == len(choice_points[pos]) - 1:
            pos -= 1
        if pos < 0:
            return None
        choice[pos:] = [choice[pos] + 1] + [0] * (depth - pos - 1)
        known = pos


def reduce_exhauster(family: Exhauster, *,
                     max_combinations: int = 1_000_000) -> Exhauster:
    """Drop family members that never decide the min (resp. max) value.

    Members are tried in order, each against the sets still kept. One is
    removed only when a feasibility search certifies that no direction
    strictly prefers it over every remaining set, so evaluation is
    preserved pointwise. Candidates whose certification would need more
    than ``max_combinations`` vertex selections are kept.
    """
    work = list(family.sets)
    pos = 0
    while len(work) > 1 and pos < len(work):
        if _certified_redundant(work[pos], work[:pos] + work[pos + 1:],
                                family.kind, max_combinations):
            work.pop(pos)
        else:
            pos += 1
    return Exhauster(family.kind, family.dim, tuple(work))


def _certified_redundant(candidate: Polytope, rest: list[Polytope], kind: str,
                         max_combinations: int) -> bool:
    """Certify that no direction strictly prefers the candidate.

    For an upper family the candidate matters somewhere only if a direction
    makes every remaining set's max-support strictly larger than the
    candidate's, i.e. some vertex choice w per remaining set satisfies
    ``<w - v, g> > 0`` for all candidate vertices v. Each remaining set is
    one choice point of ``find_direction``; if no system is feasible the
    candidate is redundant. Lower families are the mirrored statement.
    """
    if math.prod(len(s.vertices) for s in rest) > max_combinations:
        return False
    sense = Sense.GE_ONE if kind == "upper" else Sense.LE_MINUS_ONE
    choice_points = [
        [[LinearConstraint(tuple(wi - vi for wi, vi in zip(w, v)), sense)
          for v in candidate.vertices]
         for w in s.vertices]
        for s in rest]
    return find_direction(choice_points, candidate.dim) is None
