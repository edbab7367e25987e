"""Shared builders for the test suite: the plane reference problem
(abs-difference objective over a four-disc constraint) and seeded random
generators."""

import math
from itertools import product

from exhausters.conditions import Verdict
from exhausters.deriv import (
    AtomExpr,
    Leaf,
    Max,
    MaxNode,
    Min,
    MinNode,
    Scale,
    SmoothAtom,
    Sum,
    directional_derivative_tree,
    eval_minmax,
    tree_dim,
)
from exhausters.exhauster import Exhauster
from exhausters.geometry import Polytope, linear_feasibility, sample_unit_directions

# The four segment polytopes of the reference example.
C1 = Polytope.from_vertices([(1, 1), (-1, 1)])
C2 = Polytope.from_vertices([(1, -1), (-1, -1)])
C3 = Polytope.from_vertices([(1, 1), (1, -1)])
C4 = Polytope.from_vertices([(-1, 1), (-1, -1)])

F_UPPER = Exhauster("upper", 2, (C1, C2))
F_LOWER = Exhauster("lower", 2, (C3, C4))
U_UPPER = Exhauster("upper", 2, (C3, C4))
U_LOWER = Exhauster("lower", 2, (C1, C2))


def coord(dim, index, coef=1.0):
    return AtomExpr(SmoothAtom.coordinate(dim, index, coef))


def disc_atom(sx, sy):
    """Quadratic piece 0.5*x1^2 + 0.5*x2^2 + sx*x1 + sy*x2."""
    return AtomExpr(SmoothAtom(2, (
        (0.5, (2, 0)), (0.5, (0, 2)), (sx, (1, 0)), (sy, (0, 1)))))


def objective_expr():
    """|x1| - |x2| written as max(x1, -x1) + min(x2, -x2)."""
    return Sum((
        Max((coord(2, 0), coord(2, 0, -1.0))),
        Min((coord(2, 1), coord(2, 1, -1.0))),
    ))


def constraint_expr():
    """min(max(h1, h2), max(h3, h4)) over the four quadratic pieces."""
    return Min((
        Max((disc_atom(-1, -1), disc_atom(-1, 1))),
        Max((disc_atom(1, -1), disc_atom(1, 1))),
    ))


def objective_tree():
    return directional_derivative_tree(objective_expr(), (0.0, 0.0))


def constraint_tree():
    return directional_derivative_tree(constraint_expr(), (0.0, 0.0))


def unit(theta):
    return (math.cos(theta), math.sin(theta))


def circle_directions(count):
    return [unit(2.0 * math.pi * k / count) for k in range(count)]


def random_polytope(rng, dim=2, max_vertices=4):
    count = rng.randint(1, max_vertices)
    return Polytope.from_vertices([
        tuple(float(rng.randint(-3, 3)) for _ in range(dim))
        for _ in range(count)
    ])


def random_family(rng, kind, dim=2, max_sets=3, max_vertices=4):
    count = rng.randint(1, max_sets)
    return Exhauster(kind, dim, tuple(
        random_polytope(rng, dim, max_vertices) for _ in range(count)))


def random_atom(rng, dim):
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * dim
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(dim)] += 1
        terms.append((float(rng.choice([-3, -2, -1, 1, 2, 3])), tuple(exps)))
    return SmoothAtom(dim, tuple(terms))


def random_expr(rng, dim=2, depth=3, budget=None):
    if budget is None:
        budget = [6]
    if depth == 0 or budget[0] <= 1 or rng.random() < 0.25:
        budget[0] -= 1
        return AtomExpr(random_atom(rng, dim))
    kind = rng.choice(["sum", "scale", "max", "min"])
    if kind == "scale":
        return Scale(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                     random_expr(rng, dim, depth - 1, budget))
    node = {"sum": Sum, "max": Max, "min": Min}[kind]
    children = tuple(random_expr(rng, dim, depth - 1, budget)
                     for _ in range(rng.randint(2, 3)))
    return node(children)


def random_point(rng, dim=2, scale=2.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(dim))


def problem_dict(sense="min"):
    from exhausters.deriv import expr_to_json

    return {
        "dim": 2,
        "objective": expr_to_json(objective_expr()),
        "constraint": expr_to_json(constraint_expr()),
        "point": [0, 0],
        "sense": sense,
    }


def brute_force_direction(choice_points, dim):
    """Unpruned reference for ``find_direction``: one LP per full choice,
    in ``itertools.product`` order."""
    for combo in product(*choice_points):
        result = linear_feasibility([c for option in combo for c in option], dim)
        if result.feasible:
            return result
    return None


def random_minmax_tree(rng, dim, depth=3):
    """Min/max tree over linear forms with single-child nodes and signed
    zero coefficients among its draws."""
    if depth == 0 or rng.random() < 0.3:
        return Leaf(tuple(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, rng.uniform(-3, 3)])
                          for _ in range(dim)))
    node = rng.choice([MaxNode, MinNode])
    return node(tuple(random_minmax_tree(rng, dim, depth - 1)
                      for _ in range(rng.randint(1, 3))))


def oracle_reference(f_tree, u_tree, sense, samples=720, seed=0, *,
                     tol=1e-9, margin=1e-6, extra_directions=()):
    """Per-direction reference for ``necessary_condition_oracle``: one
    ``eval_minmax`` of each tree per direction, in scan order."""
    directions = []
    for d in extra_directions:
        norm = math.sqrt(sum(float(c) * float(c) for c in d))
        if norm > 1e-12:
            directions.append(tuple(float(c) / norm for c in d))
    directions.extend(sample_unit_directions(tree_dim(f_tree), samples, seed))
    for g in directions:
        hu = eval_minmax(u_tree, g)
        if hu <= tol:
            hf = eval_minmax(f_tree, g)
            if (sense == "min" and hf < -margin) or (sense == "max" and hf > margin):
                return Verdict(
                    "violated", g,
                    f"admissible direction with objective derivative {hf:.6g} "
                    f"(constraint derivative {hu:.6g})", "sampled")
    return Verdict(
        "inconclusive", None,
        f"no violating direction among {len(directions)} samples", "sampled")

