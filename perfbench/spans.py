"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public names at the sites where the pipeline binds
them, so the library itself stays unchanged: stages are looked up in the
``exhausters.cli`` namespace, the LP and hull calls in
``exhausters.exhauster`` and ``exhausters.conditions``. Each call records a
span with its parent; a layer's self time is its span minus its children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from exhausters.deriv import leaf_count

# (module, attribute, span name); a span name of None only counts calls.
HOOKS = (
    ("exhausters.cli", "expr_from_json", "deriv.parse"),
    ("exhausters.cli", "directional_derivative_tree", "deriv.tree"),
    ("exhausters.cli", "exhauster_from_tree", "exhauster.normalize"),
    ("exhausters.cli", "reduce_exhauster", "exhauster.reduce"),
    ("exhausters.cli", "evaluate_condition", "conditions.check"),
    ("exhausters.cli", "regularity_check", "conditions.regularity"),
    ("exhausters.cli", "necessary_condition_oracle", "conditions.oracle"),
    ("exhausters.cli", "render_report", "report.render"),
    ("exhausters.exhauster", "linear_feasibility", "geometry.lp"),
    ("exhausters.exhauster", "hull_contains", "geometry.hull"),
    ("exhausters.conditions", "linear_feasibility", "geometry.lp"),
    ("exhausters.conditions", "contains_origin", "geometry.hull"),
    ("exhausters.conditions", "eval_minmax", None),
)

# Metrics that are counts: they must repeat exactly between passes.
COUNT_METRICS = (
    "deriv.tree_leaves", "exhauster.sets_built", "exhauster.reduce_lp_calls",
    "exhauster.sets_removed", "geometry.lp_calls", "geometry.lp_rows",
    "geometry.lp_feasible", "geometry.hull_calls", "conditions.lp_calls", "conditions.exact2d_calls",
    "conditions.lp_enum_calls", "conditions.holds", "conditions.violated",
    "conditions.inconclusive", "conditions.oracle_directions", "report.bytes",
)
TIME_METRICS = (
    "deriv.parse_s", "deriv.tree_s", "exhauster.normalize_s",
    "exhauster.reduce_self_s", "exhauster.reduce_lp_s", "geometry.lp_s",
    "geometry.hull_s", "conditions.check_self_s", "conditions.regularity_s",
    "conditions.oracle_s", "report.render_s", "cli.import_s", "cli.process_s",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = {}


def _info(name: str, args, result) -> dict:
    """Work counts for one finished call, taken outside its timed span."""
    if name == "geometry.lp":
        return {"rows": len(args[0]), "feasible": result.feasible}
    if name == "deriv.tree":
        return {"leaves": leaf_count(result)}
    if name == "exhauster.normalize":
        return {"sets": len(result.sets)}
    if name == "exhauster.reduce":
        return {"removed": len(args[0].sets) - len(result.sets)}
    if name == "conditions.check":
        return {"status": result.status, "method": result.method}
    if name == "report.render":
        return {"bytes": len(result)}
    return {}


class Tracer:
    """Records spans while installed; ``take`` hands them over and resets."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise LookupError(
                    f"trace hook {module_name}.{attr} is missing: the traced "
                    "run would report zero for it")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapper = self._counter(original) if name is None \
                else self._wrap(original, name)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, clock())
            if name == "conditions.oracle":
                span.info = {"gate": args[1], "dirs": 0}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            spans.append(span)
            span.info.update(_info(name, args, result))
            return result

        return traced

    def _counter(self, fn):
        stack = self.stack

        def counted(tree, g):
            # Oracle directions: one evaluation of the constraint tree each.
            if stack and stack[-1].name == "conditions.oracle" \
                    and tree is stack[-1].info["gate"]:
                stack[-1].info["dirs"] += 1
            return fn(tree, g)

        return counted

    def take(self) -> list[Span]:
        """Spans finished since the last call; open spans are dropped."""
        spans = list(self.spans)
        self.spans.clear()
        self.stack.clear()
        return spans


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one pass: times in seconds, counts as numbers."""
    out = dict.fromkeys(COUNT_METRICS + TIME_METRICS, 0)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.end - s.start
    for s in spans:
        dur = s.end - s.start
        self_s = dur - child_time[id(s)]
        info = s.info
        if s.name == "geometry.lp":
            out["geometry.lp_calls"] += 1
            out["geometry.lp_rows"] += info["rows"]
            out["geometry.lp_s"] += dur
            out["geometry.lp_feasible"] += info["feasible"]
            # An LP's parent is the stage that asked for it.
            owner = s.parent.name if s.parent is not None else None
            if owner == "exhauster.reduce":
                out["exhauster.reduce_lp_calls"] += 1
                out["exhauster.reduce_lp_s"] += dur
            elif owner == "conditions.check":
                out["conditions.lp_calls"] += 1
        elif s.name == "geometry.hull":
            out["geometry.hull_calls"] += 1
            out["geometry.hull_s"] += dur
        elif s.name == "deriv.parse":
            out["deriv.parse_s"] += dur
        elif s.name == "deriv.tree":
            out["deriv.tree_s"] += dur
            out["deriv.tree_leaves"] += info["leaves"]
        elif s.name == "exhauster.normalize":
            out["exhauster.normalize_s"] += dur
            out["exhauster.sets_built"] += info["sets"]
        elif s.name == "exhauster.reduce":
            out["exhauster.reduce_self_s"] += self_s
            out["exhauster.sets_removed"] += info["removed"]
        elif s.name == "conditions.check":
            out["conditions.check_self_s"] += self_s
            out[f"conditions.{info['status']}"] += 1
            if info["method"] == "exact2d":
                out["conditions.exact2d_calls"] += 1
            else:
                out["conditions.lp_enum_calls"] += 1
        elif s.name == "conditions.regularity":
            out["conditions.regularity_s"] += dur
        elif s.name == "conditions.oracle":
            out["conditions.oracle_s"] += dur
            out["conditions.oracle_directions"] += info["dirs"]
        elif s.name == "report.render":
            out["report.render_s"] += dur
            out["report.bytes"] += info["bytes"]
    return out


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Add the ratio metrics; each ratio's base is reported beside it."""
    out = dict(raw)
    lp_calls = raw["geometry.lp_calls"]
    out["geometry.lp_ms_per_call"] = 1000.0 * raw["geometry.lp_s"] / lp_calls if lp_calls else 0.0
    out["geometry.lp_feasible_frac"] = raw["geometry.lp_feasible"] / lp_calls if lp_calls else 0.0
    reduce_lps = raw["exhauster.reduce_lp_calls"]
    out["exhauster.removed_per_lp"] = raw["exhauster.sets_removed"] / reduce_lps if reduce_lps else 0.0
    del out["geometry.lp_feasible"]
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_ms_per_call"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric == "exhauster.removed_per_lp":
        return "sets/LP"
    if metric == "report.bytes":
        return "bytes"
    return "count"
