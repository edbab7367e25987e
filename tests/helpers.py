"""Shared builders for the test suite: the plane reference problem
(abs-difference objective over a four-disc constraint) and seeded random
generators."""

import math
from itertools import product

from exhausters.conditions import (
    ORACLE_MARGIN,
    SignRegion,
    Verdict,
    necessary_condition_oracle,
)
from exhausters.deriv import (
    Leaf,
    Max,
    Min,
    Scale,
    SmoothAtom,
    Sum,
    directional_derivative_tree,
    eval_minmax,
    expr_dim,
)
from exhausters.exhauster import Exhauster
from exhausters.geometry import (
    TOL,
    Polytope,
    dot,
    linear_feasibility,
    sample_unit_directions,
)

# The four segment polytopes of the reference example.
C1 = Polytope.from_vertices([(1, 1), (-1, 1)])
C2 = Polytope.from_vertices([(1, -1), (-1, -1)])
C3 = Polytope.from_vertices([(1, 1), (1, -1)])
C4 = Polytope.from_vertices([(-1, 1), (-1, -1)])

F_UPPER = Exhauster("upper", 2, (C1, C2))
F_LOWER = Exhauster("lower", 2, (C3, C4))
U_UPPER = Exhauster("upper", 2, (C3, C4))
U_LOWER = Exhauster("lower", 2, (C1, C2))

# (family kind, sign) of the four regions one set C spans on its own: the
# dual cone of cone(C) (every <v, g> >= 0), its negative, and their closed
# complements (some <v, g> <= 0, some <v, g> >= 0).
DUAL = ("lower", 1.0)
NEG_DUAL = ("upper", -1.0)
NOT_DUAL = ("lower", -1.0)
NOT_NEG_DUAL = ("upper", 1.0)
SIGN_KINDS = (DUAL, NEG_DUAL, NOT_DUAL, NOT_NEG_DUAL)


def sign_region(kind_sign, *sets):
    """The sign region of a family of the given (kind, sign) over ``sets``."""
    kind, sign = kind_sign
    return SignRegion(Exhauster(kind, sets[0].dim, sets), sign)


def coord(dim, index, coef=1.0):
    return SmoothAtom(dim, ((coef, tuple(1 if i == index else 0 for i in range(dim))),))


def disc_atom(sx, sy):
    """Quadratic piece 0.5*x1^2 + 0.5*x2^2 + sx*x1 + sy*x2."""
    return SmoothAtom(2, (
        (0.5, (2, 0)), (0.5, (0, 2)), (sx, (1, 0)), (sy, (0, 1))))


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
        return random_atom(rng, dim)
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


def count_lps(monkeypatch):
    """Count the solver calls made through the exhauster module: those of
    reduction and of every condition search."""
    import exhausters.exhauster as module

    calls = []
    solve = module.linear_feasibility

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(module, "linear_feasibility", counted)
    return calls


def abs_sum_json(pattern):
    """``sum_i a_i(x_i)`` in wire form: ``a`` is |x_i| = max(x_i, -x_i),
    ``n`` is min(x_i, -x_i)."""
    dim = len(pattern)

    def term(i, ch):
        coords = [{"atom": {"terms": [{"c": c, "e": [int(j == i) for j in range(dim)]}]}}
                  for c in (1, -1)]
        return {"op": "max" if ch == "a" else "min", "args": coords}
    return {"op": "sum", "args": [term(i, ch) for i, ch in enumerate(pattern)]}


def abs_sum_problem(f_pattern, u_pattern):
    """Abs-sum rung at the origin, such as ``annn/aaan``."""
    dim = len(f_pattern)
    return {"dim": dim, "objective": abs_sum_json(f_pattern),
            "constraint": abs_sum_json(u_pattern), "point": [0] * dim}


def random_minmax_tree(rng, dim, depth=3):
    """Max/min/sum tree over linear forms with single-child nodes and signed
    zero coefficients among its draws."""
    if depth == 0 or rng.random() < 0.3:
        return Leaf(tuple(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, rng.uniform(-3, 3)])
                          for _ in range(dim)))
    node = rng.choice([Max, Min, Sum])
    return node(tuple(random_minmax_tree(rng, dim, depth - 1)
                      for _ in range(rng.randint(1, 3))))


def oracle_flags(f_tree, u_tree, sense, witness, samples=720):
    """Does the sampled oracle find ``sense`` violated once an exact
    verdict's ``witness`` joins its directions? Either the unit witness
    passes the oracle's own test (u' <= TOL, and f' beyond
    ``ORACLE_MARGIN`` with the sign of the sense), or the oracle's sampled
    scan finds a violation."""
    if witness is not None:
        norm = math.sqrt(dot(witness, witness))
        if norm > 1e-12:
            g = tuple(c / norm for c in witness)
            if eval_minmax(u_tree, g) <= TOL:
                hf = eval_minmax(f_tree, g)
                if hf < -ORACLE_MARGIN if sense == "min" else hf > ORACLE_MARGIN:
                    return True
    scan = necessary_condition_oracle(f_tree, u_tree, (sense,), samples)[sense]
    return scan.status == "violated"


def oracle_reference(f_tree, u_tree, sense, samples=720, seed=0, *,
                     tol=1e-9, margin=1e-6):
    """Per-direction reference for ``necessary_condition_oracle``: one
    ``eval_minmax`` of each tree per direction, in scan order."""
    directions = sample_unit_directions(expr_dim(f_tree), samples, seed)
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

