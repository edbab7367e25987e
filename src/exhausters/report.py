"""Analysis reports and plane figures.

Reports serialize deterministically: fixed key order, no wall-clock data,
so identical runs produce identical bytes. A report holds the analysis's
families as ``Exhauster`` objects and writes them out only when it is
serialized. Figures are standalone SVG documents of plane polytopes, such
as the sets of those families, with one group per polytope.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

from .conditions import CONDITION_READINGS, ConditionID, Verdict
from .errors import DimensionMismatchError
from .exhauster import Exhauster
from .geometry import Polytope, Value, Vector, plain_sum

CONDITION_ORDER = [cid.value for cid in ConditionID]


class AnalysisReport(Value):
    """Everything one analysis produced, ready for serialization.

    ``exhausters`` maps a function name (``f``, ``u``) to its families by
    kind (``upper``, ``lower``), in the order they are written out. A dict
    left out is empty.
    """

    __slots__ = ("problem", "conditions", "point", "sense", "values", "exhausters",
                 "regularity", "oracle", "warnings", "metadata")

    def __init__(self, problem: dict, conditions: dict[str, Verdict],
                 point: Vector | None = None, sense: str | None = None,
                 values: dict | None = None,
                 exhausters: dict[str, dict[str, Exhauster]] | None = None,
                 regularity: Verdict | None = None, oracle: dict | None = None,
                 warnings: Sequence[str] = (), metadata: dict | None = None) -> None:
        if not conditions:
            raise ValueError("a report needs at least one condition verdict")
        self._init(problem, conditions, point, sense, values or {}, exhausters or {},
                   regularity, oracle or {}, tuple(warnings), metadata or {})

    def ordered_conditions(self) -> list[tuple[str, Verdict]]:
        """Verdicts in catalog order; a key that is no condition id raises
        ValueError."""
        return sorted(self.conditions.items(),
                      key=lambda item: CONDITION_ORDER.index(item[0]))

    def to_json_obj(self) -> dict:
        obj: dict = {"problem": self.problem}
        obj["point"] = list(self.point) if self.point is not None else None
        obj["sense"] = self.sense
        obj["values"] = {k: self.values[k] for k in sorted(self.values)}
        obj["exhausters"] = {func: {kind: e.to_json() for kind, e in kinds.items()}
                             for func, kinds in self.exhausters.items()}
        obj["conditions"] = {c: _labelled(c, v) for c, v in self.ordered_conditions()}
        obj["regularity"] = (_labelled("REGULARITY", self.regularity)
                             if self.regularity else None)
        obj["oracle"] = {k: _labelled(f"ORACLE_{k.upper()}", self.oracle[k])
                         for k in sorted(self.oracle)}
        obj["warnings"] = list(self.warnings)
        obj["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return obj


def _labelled(label: str, verdict: Verdict) -> dict:
    """A verdict as the report writes it, under the name of what it decided."""
    return {"condition": label, **verdict.to_json()}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_vec(vec: Sequence[float]) -> str:
    return "(" + ", ".join(_fmt(v) for v in vec) + ")"


def _verdict_line(name: str, verdict: Verdict, reading: str) -> list[str]:
    lines = [f"  {name}: {verdict.status.upper()} [{verdict.method}] {reading}"]
    if verdict.witness is not None:
        lines.append(f"      witness: {_fmt_vec(verdict.witness)}")
    lines.append(f"      {verdict.certificate}")
    return lines


def render_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Serialize a report; identical reports give identical bytes. A JSON
    report holding a non-finite float raises ValueError, since ``NaN`` and
    ``Infinity`` are not JSON."""
    if fmt == "json":
        text = json.dumps(report.to_json_obj(), indent=2, allow_nan=False) + "\n"
        return text.encode("utf-8")
    if fmt != "text":
        raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")
    lines = []
    if report.point is not None:
        lines.append(f"point: {_fmt_vec(report.point)}")
    if report.sense:
        lines.append(f"sense: {report.sense}")
    for key in sorted(report.values):
        lines.append(f"{key}(x) = {_fmt(report.values[key])}")
    lines.append("conditions:")
    for name, verdict in report.ordered_conditions():
        lines.extend(_verdict_line(name, verdict, CONDITION_READINGS[ConditionID(name)]))
    if report.regularity is not None:
        lines.extend(_verdict_line("regularity", report.regularity,
                                   "constraint cone closure at the point"))
    for key in sorted(report.oracle):
        lines.extend(_verdict_line(f"oracle[{key}]", report.oracle[key],
                                   "sampled finite-difference cross-check"))
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

SIZE = 800      # canvas width and height in px
EXTENT = 2.0    # world units drawn on each side of the origin
_SCALE = SIZE / (2.0 * EXTENT)

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")


def _to_px(point: Sequence[float]) -> tuple[float, float]:
    return (point[0] + EXTENT) * _SCALE, (EXTENT - point[1]) * _SCALE


def _polytope_svg(polytope: Polytope, color: str) -> str:
    verts = polytope.vertices
    if len(verts) == 1:
        x, y = _to_px(verts[0])
        return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="{color}"/>'
    if len(verts) == 2:
        (x1, y1), (x2, y2) = _to_px(verts[0]), _to_px(verts[1])
        return (f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="3"/>')
    # Order by angle about the centroid so the outline is the hull boundary.
    cx = plain_sum(v[0] for v in verts) / len(verts)
    cy = plain_sum(v[1] for v in verts) / len(verts)
    ordered = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(_to_px, ordered))
    return (f'<polygon points="{points}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="2"/>')


def render_svg(polytopes: Sequence[Polytope]) -> str:
    """Standalone SVG of plane polytopes on a fixed canvas: a point as a
    dot, a segment as a line, anything larger as a filled polygon. Every
    polytope becomes exactly one ``<g id="item-<i>">`` element; a polytope
    outside the plane raises DimensionMismatchError."""
    groups = []
    for idx, polytope in enumerate(polytopes):
        if polytope.dim != 2:
            raise DimensionMismatchError("can only draw plane polytopes")
        body = _polytope_svg(polytope, PALETTE[idx % len(PALETTE)])
        groups.append(f'<g id="item-{idx}">{body}</g>')
    half = SIZE / 2.0
    axes = (f'<line x1="0" y1="{half:.1f}" x2="{SIZE}" y2="{half:.1f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
            f'<line x1="{half:.1f}" y1="0" x2="{half:.1f}" y2="{SIZE}" '
            f'stroke="#cccccc" stroke-width="1"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
            f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">'
            f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>'
            f"{axes}{''.join(groups)}</svg>")
