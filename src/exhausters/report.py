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
import sys
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

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


# ``json`` indents in C only from Python 3.13 on: before that,
# ``JSONEncoder.iterencode`` takes its C encoder only when ``indent`` is None
# and writes an indented document through nested generators.
_JSON_INDENTS_IN_C = sys.version_info >= (3, 13)


class _Unwritable(Exception):
    """A value outside the report's JSON types, left to ``json.dumps``."""


def _write_json(value, chunks: list[str], newline: str) -> None:
    """Append ``json.dumps(value, indent=2, allow_nan=False)``'s text, as
    ``json``'s own encoder writes it, for str keys and str, int, float, bool
    and None values in lists, tuples and dicts; ``newline`` is the line break
    and indent of the enclosing level. Anything else, a non-finite float or
    a non-str key included, raises ``_Unwritable``."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise _Unwritable
        chunks.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        prefix, separator = "[" + inner, "," + inner
        for item in value:
            chunks.append(prefix)
            prefix = separator
            _write_json(item, chunks, inner)
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        prefix, separator = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise _Unwritable
            chunks.append(prefix + encode_basestring_ascii(key) + ": ")
            prefix = separator
            _write_json(item, chunks, inner)
        chunks.append(newline + "}")
    else:
        raise _Unwritable


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` by ``_write_json``;
    whatever that writer leaves, and a cycle or input nested too deep for
    it, goes to ``json.dumps``, so every error and key conversion is its."""
    chunks: list[str] = []
    try:
        _write_json(obj, chunks, "\n")
    except (_Unwritable, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False)
    return "".join(chunks)


def render_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Serialize a report; identical reports give identical bytes.

    A JSON report is ``json.dumps(obj, indent=2, allow_nan=False)``'s text
    of ``to_json_obj()`` plus a newline, byte for byte on every interpreter.
    From Python 3.13 on, where ``json`` indents in C, it is that call;
    before, where ``json`` indents in Python, ``_write_json`` writes the
    report's own types (str keys; str, int, float, bool and None values;
    lists, tuples and dicts) in about half the time, and anything else is
    left to ``json.dumps``. So a report holding a non-finite float raises
    ``json``'s ValueError, since ``NaN`` and ``Infinity`` are not JSON."""
    if fmt == "json":
        obj = report.to_json_obj()
        text = (json.dumps(obj, indent=2, allow_nan=False) if _JSON_INDENTS_IN_C
                else _json_text(obj))
        return (text + "\n").encode("utf-8")
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


def _hull_corners(verts: Sequence[Vector]) -> list[Vector]:
    """The corners of the hull of plane points, in the order given: no
    interior point, repeat or point inside an edge. Andrew's monotone
    chain: the lower and the upper chain keep a point only where they turn
    left."""
    unique = list(dict.fromkeys(verts))

    def chain(points):
        kept: list[Vector] = []
        for x, y in points:
            while len(kept) >= 2:
                (ox, oy), (ax, ay) = kept[-2], kept[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                kept.pop()
            kept.append((x, y))
        return kept

    ordered = sorted(unique)
    corners = set(chain(ordered) + chain(reversed(ordered)))
    return [v for v in unique if v in corners]


def _polytope_svg(polytope: Polytope, color: str) -> str:
    verts = _hull_corners(polytope.vertices)
    if len(verts) == 1:
        x, y = _to_px(verts[0])
        return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="{color}"/>'
    if len(verts) == 2:
        (x1, y1), (x2, y2) = _to_px(verts[0]), _to_px(verts[1])
        return (f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="3"/>')
    # Corners in angle order about their centroid trace the hull boundary.
    cx = plain_sum(v[0] for v in verts) / len(verts)
    cy = plain_sum(v[1] for v in verts) / len(verts)
    ordered = sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(_to_px, ordered))
    return (f'<polygon points="{points}" fill="{color}" fill-opacity="0.25" '
            f'stroke="{color}" stroke-width="2"/>')


def render_svg(polytopes: Sequence[Polytope]) -> str:
    """Standalone SVG of the hulls of plane polytopes on a fixed canvas: a
    point as a dot, a segment as a line, anything larger as a filled
    polygon through its corners. Every polytope becomes exactly one
    ``<g id="item-<i>">`` element; a polytope outside the plane raises
    DimensionMismatchError."""
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
