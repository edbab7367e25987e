"""Relations that the theory forces between verdicts, checked on seeded
problems beyond the plane.

Each of the four constrained ids of a sense decides the same inclusion
{u' <= 0} in {f' >= 0} (or f' <= 0 for a maximum), phrased in different
families of the same two functions, so no two of them may reach opposite
decided statuses.
"""

import random

from exhausters.cli import analyze_problem


def kinked_function(rng, dim, fans):
    """A sum of max or min nodes, one per fan-out in ``fans``, over linear
    atoms with small integer coefficients: all of them vanish at the
    origin, so every child is active there. About half of the nodes are
    closed: their last atom is minus the sum of the others, so the origin
    lies in the hull of the node's gradients."""
    def coefs():
        while True:
            c = [rng.randint(-3, 3) for _ in range(dim)]
            if any(c):
                return c

    def node(fan):
        forms = [coefs() for _ in range(fan)]
        closing = [-sum(column) for column in zip(*forms[:-1])]
        if rng.random() < 0.5 and any(closing):
            forms[-1] = closing
        atoms = [{"atom": {"terms": [{"c": c, "e": [int(j == i) for j in range(dim)]}
                                     for i, c in enumerate(form) if c]}}
                 for form in forms]
        return {"op": rng.choice(("max", "min")), "args": atoms}

    return {"op": "sum", "args": [node(fan) for fan in fans]}


def test_constrained_ids_of_a_sense_agree():
    rng = random.Random(61)
    decided = {"holds": 0, "violated": 0}
    for trial in range(150):
        dim = 3 + trial % 3
        problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                   "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
        report, _ = analyze_problem(problem, sense="both")
        for sense in ("MIN", "MAX"):
            statuses = {report.conditions[f"{sense}_{f}_{u}"].status
                        for f in ("UPPER", "LOWER") for u in ("UPPER", "LOWER")}
            statuses.discard("inconclusive")
            assert len(statuses) <= 1, (trial, sense, statuses)
            for status in statuses:
                decided[status] += 1
    assert decided["holds"] >= 20 and decided["violated"] >= 100
