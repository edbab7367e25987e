"""Seeded problem generators for the benchmark workloads.

Every generator returns problem JSON in the library's wire format, so the
library only ever sees plain inputs. All problems sit at the origin.

* ``kinked`` builds two-summand problems whose atoms all vanish at the
  origin, so every max/min child is active and the derivative tree keeps
  the full fan-out. A template such as ``"M2+m3"`` fixes the node kinds
  (``M`` max, ``m`` min, ``?`` drawn from the seed) and fan-outs; a
  trailing ``c`` closes a node: its last atom's gradient is minus the sum
  of the others, so the origin lies in the hull of that node's gradients.
* ``abs_sum`` builds the abs-sum ladder, ``f = sum_i a_i(x_i)`` with
  ``a`` either ``|x_i|`` or ``min(x_i, -x_i)``.
"""

from __future__ import annotations

import random


def _linear(dim: int, coefs) -> list[dict]:
    return [{"c": c, "e": [1 if j == i else 0 for j in range(dim)]}
            for i, c in enumerate(coefs) if c]


def _atom(dim: int, coefs, square: int) -> dict:
    # The quadratic term vanishes with its gradient at the origin; it only
    # makes the atom a genuine polynomial rather than a linear form.
    terms = _linear(dim, coefs)
    terms.append({"c": 0.5, "e": [2 if j == square else 0 for j in range(dim)]})
    return {"atom": {"terms": terms}}


def _node(rng: random.Random, dim: int, spec: str) -> dict:
    kind, fan, closed = spec[0], int(spec[1]), spec.endswith("c")
    if kind == "?":
        kind = rng.choice("Mm")
    coefs = []
    for _ in range(fan - 1 if closed else fan):
        while True:
            c = [rng.randint(-3, 3) for _ in range(dim)]
            if any(c):
                break
        coefs.append(c)
    if closed:
        coefs.append([-sum(col) for col in zip(*coefs)])
    args = [_atom(dim, c, rng.randrange(dim)) for c in coefs]
    return {"op": "max" if kind == "M" else "min", "args": args}


def kinked(dim: int, template: tuple[str, str], seed: int) -> dict:
    """Kinked problem: objective and constraint from the two templates."""
    rng = random.Random(seed)

    def function(spec: str) -> dict:
        return {"op": "sum", "args": [_node(rng, dim, s) for s in spec.split("+")]}

    return {"dim": dim, "objective": function(template[0]),
            "constraint": function(template[1]), "point": [0] * dim}


def abs_sum(f_pattern: str, u_pattern: str) -> dict:
    """Ladder rung: ``a`` is ``|x_i|``, ``n`` is ``min(x_i, -x_i)``."""
    dim = len(f_pattern)

    def term(i: int, ch: str) -> dict:
        plus = {"atom": {"terms": _linear(dim, [1 if j == i else 0 for j in range(dim)])}}
        minus = {"atom": {"terms": _linear(dim, [-1 if j == i else 0 for j in range(dim)])}}
        return {"op": "max" if ch == "a" else "min", "args": [plus, minus]}

    def function(pattern: str) -> dict:
        return {"op": "sum", "args": [term(i, ch) for i, ch in enumerate(pattern)]}

    return {"dim": dim, "objective": function(f_pattern),
            "constraint": function(u_pattern), "point": [0] * dim}

