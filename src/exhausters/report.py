"""Analysis reports and plane figures.

Reports serialize deterministically: fixed key order, no wall-clock data,
so identical runs produce identical bytes. Figures are standalone SVG
documents with one drawable group per input item.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .conditions import CONDITION_READINGS, ConditionID, Verdict
from .errors import DimensionMismatchError
from .geometry import TWO_PI, ArcSet, Polytope, Vector

CONDITION_ORDER = [cid.value for cid in ConditionID]


@dataclass
class AnalysisReport:
    """Everything one analysis produced, ready for serialization."""

    problem: dict
    conditions: dict[str, Verdict]
    point: Optional[Vector] = None
    sense: Optional[str] = None
    values: dict = field(default_factory=dict)
    exhausters: dict = field(default_factory=dict)
    regularity: Optional[Verdict] = None
    oracle: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("a report needs at least one condition verdict")
        self.warnings = tuple(self.warnings)

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
        obj["exhausters"] = self.exhausters
        obj["conditions"] = {c: v.to_json() for c, v in self.ordered_conditions()}
        obj["regularity"] = self.regularity.to_json() if self.regularity else None
        obj["oracle"] = {k: self.oracle[k].to_json() for k in sorted(self.oracle)}
        obj["warnings"] = list(self.warnings)
        obj["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return obj


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
    """Serialize a report; identical reports give identical bytes."""
    if fmt == "json":
        text = json.dumps(report.to_json_obj(), indent=2) + "\n"
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

@dataclass(frozen=True)
class Canvas:
    size: int = 800
    extent: float = 2.0
    arc_radius: float = 1.8


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

DrawItem = Union[Polytope, ArcSet, tuple, list]


def _make_to_px(canvas: Canvas):
    scale = canvas.size / (2.0 * canvas.extent)

    def to_px(point: Sequence[float]) -> tuple[float, float]:
        return ((point[0] + canvas.extent) * scale,
                (canvas.extent - point[1]) * scale)

    return to_px


def _polytope_svg(polytope: Polytope, color: str, to_px) -> str:
    verts = polytope.vertices
    if len(verts) == 1:
        x, y = to_px(verts[0])
        return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="{color}"/>'
    if len(verts) == 2:
        (x1, y1), (x2, y2) = to_px(verts[0]), to_px(verts[1])
        return (f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="3"/>')
    # Order by angle about the centroid so the outline is the hull boundary.
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    ordered = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in (to_px(v) for v in ordered))
    return (f'<polygon points="{points}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="2"/>')


def _arcset_svg(arcs: ArcSet, color: str, canvas: Canvas, to_px) -> str:
    ox, oy = to_px((0.0, 0.0))
    radius = canvas.arc_radius
    parts = []
    for start, end in arcs.arcs:
        span = end - start
        if span >= TWO_PI - 1e-9:
            scale = canvas.size / (2.0 * canvas.extent)
            parts.append(
                f'<circle cx="{ox:.3f}" cy="{oy:.3f}" r="{radius * scale:.3f}" '
                f'fill="{color}" fill-opacity="0.3"/>')
            continue
        x1, y1 = to_px((radius * math.cos(start), radius * math.sin(start)))
        x2, y2 = to_px((radius * math.cos(end), radius * math.sin(end)))
        scale = canvas.size / (2.0 * canvas.extent)
        large = 1 if span > math.pi else 0
        # Counterclockwise in world coordinates is sweep 0 on a flipped axis.
        parts.append(
            f'<path d="M {ox:.3f} {oy:.3f} L {x1:.3f} {y1:.3f} '
            f'A {radius * scale:.3f} {radius * scale:.3f} 0 {large} 0 '
            f'{x2:.3f} {y2:.3f} Z" fill="{color}" fill-opacity="0.3" '
            f'stroke="{color}" stroke-width="1"/>')
    return "".join(parts)


def _vector_svg(vec: Sequence[float], color: str, to_px) -> str:
    ox, oy = to_px((0.0, 0.0))
    tx, ty = to_px(vec)
    dx, dy = tx - ox, ty - oy
    length = math.hypot(dx, dy)
    if length < 1e-9:
        return f'<circle cx="{ox:.3f}" cy="{oy:.3f}" r="4" fill="{color}"/>'
    ux, uy = dx / length, dy / length
    head = 12.0
    bx, by = tx - head * ux, ty - head * uy
    px, py = -uy, ux
    barb1 = (bx + 0.5 * head * px, by + 0.5 * head * py)
    barb2 = (bx - 0.5 * head * px, by - 0.5 * head * py)
    return (f'<line x1="{ox:.3f}" y1="{oy:.3f}" x2="{bx:.3f}" y2="{by:.3f}" '
            f'stroke="{color}" stroke-width="2.5"/>'
            f'<polygon points="{tx:.3f},{ty:.3f} {barb1[0]:.3f},{barb1[1]:.3f} '
            f'{barb2[0]:.3f},{barb2[1]:.3f}" fill="{color}"/>')


def render_svg(items: Sequence[DrawItem], canvas: Optional[Canvas] = None) -> str:
    """Standalone SVG: polytopes as dots/segments/polygons, arc sets as
    shaded sectors about the origin, plain vectors as arrows. Every input
    item becomes exactly one <g> element."""
    canvas = canvas or Canvas()
    to_px = _make_to_px(canvas)
    size = canvas.size
    half = size / 2.0
    groups = []
    for idx, item in enumerate(items):
        color = PALETTE[idx % len(PALETTE)]
        if isinstance(item, Polytope):
            if item.dim != 2:
                raise DimensionMismatchError("can only draw plane polytopes")
            body = _polytope_svg(item, color, to_px)
        elif isinstance(item, ArcSet):
            body = _arcset_svg(item, color, canvas, to_px)
        elif isinstance(item, (tuple, list)):
            if len(item) != 2:
                raise DimensionMismatchError("can only draw plane vectors")
            body = _vector_svg(item, color, to_px)
        else:
            raise TypeError(f"cannot draw {type(item).__name__}")
        groups.append(f'<g id="item-{idx}">{body}</g>')
    axes = (f'<line x1="0" y1="{half:.1f}" x2="{size}" y2="{half:.1f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
            f'<line x1="{half:.1f}" y1="0" x2="{half:.1f}" y2="{size}" '
            f'stroke="#cccccc" stroke-width="1"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">'
            f'<rect width="{size}" height="{size}" fill="white"/>'
            f"{axes}{''.join(groups)}</svg>")
