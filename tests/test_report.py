import json
import xml.etree.ElementTree as ET

import pytest

from exhausters.cli import analyze_problem
from exhausters.conditions import Verdict
from exhausters.geometry import Polytope
from exhausters.report import AnalysisReport, render_report, render_svg

from helpers import C1, C2, C3, C4, problem_dict


def sample_report():
    verdict = Verdict("holds", None, "test certificate", "exact2d",
                      "MIN_UPPER_LOWER")
    return AnalysisReport(problem={"dim": 2}, conditions={verdict.condition: verdict},
                          point=(0.0, 0.0), sense="min", values={"f": 0.0})


class TestReportSerialization:
    def test_full_analysis_both_senses(self):
        report, code = analyze_problem(problem_dict(), sense="both")
        assert code == 1
        obj = report.to_json_obj()
        assert len(obj["conditions"]) == 8
        for name, verdict in obj["conditions"].items():
            if name.startswith("MIN"):
                assert verdict["status"] == "holds"
        assert any(v["status"] == "violated"
                   for n, v in obj["conditions"].items() if n.startswith("MAX"))

    def test_empty_verdict_map_rejected_at_construction(self):
        with pytest.raises(ValueError):
            AnalysisReport(problem={}, conditions={})

    def test_non_finite_value_fails_to_render(self):
        # NaN is not JSON: the report raises instead of writing b"NaN".
        report, code = analyze_problem(dict(problem_dict(), note=float("nan")))
        assert code == 0
        with pytest.raises(ValueError):
            render_report(report)

    def test_byte_identical_rendering(self):
        report, _ = analyze_problem(problem_dict())
        assert render_report(report, "json") == render_report(report, "json")
        assert render_report(report, "text") == render_report(report, "text")

    def test_json_round_trip_preserves_verdicts(self):
        report, _ = analyze_problem(problem_dict())
        parsed = json.loads(render_report(report, "json"))
        for name, verdict in report.conditions.items():
            assert parsed["conditions"][name] == verdict.to_json()
        assert parsed["regularity"]["status"] == report.regularity.status
        assert parsed["point"] == [0.0, 0.0]

    def test_text_format_lists_pairings_and_witnesses(self):
        report, _ = analyze_problem(problem_dict(), sense="max")
        text = render_report(report, "text").decode()
        assert "MAX_UPPER_UPPER: VIOLATED" in text
        assert "witness: (1, 0)" in text
        assert "proper" in text and "adjoint" in text

    def test_condition_order_is_stable(self):
        report, _ = analyze_problem(problem_dict(), sense="both")
        names = list(report.to_json_obj()["conditions"])
        assert names == sorted(names, key=lambda n: (
            ["MIN_UPPER_LOWER", "MIN_UPPER_UPPER", "MIN_LOWER_LOWER",
             "MIN_LOWER_UPPER", "MAX_LOWER_LOWER", "MAX_LOWER_UPPER",
             "MAX_UPPER_LOWER", "MAX_UPPER_UPPER"].index(n)))

    def test_unknown_condition_key_rejected(self):
        report = sample_report()
        report.conditions["AUXILIARY"] = report.conditions["MIN_UPPER_LOWER"]
        for fmt in ("json", "text"):
            with pytest.raises(ValueError):
                render_report(report, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(sample_report(), "yaml")


class TestSvg:
    def test_reference_square_sides(self):
        doc = render_svg([C1, C2, C3, C4])
        root = ET.fromstring(doc)
        groups = [e for e in root if e.tag.endswith("}g")]
        assert len(groups) == 4
        lines = [e for g in groups for e in g if e.tag.endswith("}line")]
        assert len(lines) == 4  # two-vertex polytopes render as segments

    def test_empty_canvas_is_valid(self):
        doc = render_svg([])
        root = ET.fromstring(doc)
        assert root.tag.endswith("}svg")
        assert root.get("width") == "800"

    def test_every_item_owns_one_group(self):
        items = [C1, Polytope.from_vertices([(0, 0), (1, 0), (0, 1)]),
                 Polytope.from_vertices([(0.5, 0.5)]),
                 Polytope.from_vertices([(1, 1)])]
        doc = render_svg(items)
        root = ET.fromstring(doc)
        groups = [e for e in root if e.tag.endswith("}g")]
        assert len(groups) == len(items)
        assert {g.get("id") for g in groups} == {f"item-{i}" for i in range(4)}

    def test_polygon_rendering(self):
        tri = Polytope.from_vertices([(1, 0), (0, 1), (-1, -1)])
        doc = render_svg([tri])
        root = ET.fromstring(doc)
        polys = [e for e in root.iter() if e.tag.endswith("}polygon")]
        assert len(polys) == 1
