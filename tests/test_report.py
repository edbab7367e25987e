import json
import random
import sys
import xml.etree.ElementTree as ET

import pytest

from exhausters import cli
from exhausters.cli import analyze_problem
from exhausters.conditions import ConditionID, Verdict
from exhausters.geometry import Polytope
from exhausters.report import AnalysisReport, _write_json, render_report, render_svg

from helpers import C1, C2, C3, C4, FIXTURES, kinked_function, problem_dict


def sample_report():
    verdict = Verdict("holds", None, "test certificate", "exact2d")
    return AnalysisReport(problem={"dim": 2}, conditions={"MIN_UPPER_LOWER": verdict},
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
            assert parsed["conditions"][name] == {"condition": name, **verdict.to_json()}
            assert list(parsed["conditions"][name]) == [
                "condition", "status", "method", "witness", "certificate"]
        assert parsed["regularity"] == {"condition": "REGULARITY",
                                        **report.regularity.to_json()}
        assert parsed["oracle"] == {"min": {"condition": "ORACLE_MIN",
                                            **report.oracle["min"].to_json()}}
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


def written(obj):
    """``obj`` as the report's own JSON writer gives it, with no fallback to
    ``json.dumps``: a value it leaves raises."""
    chunks = []
    _write_json(obj, chunks, "\n")
    return "".join(chunks)


def dumped(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


STRINGS = ["", 'a "quoted" \\ backslash', "\x00\x08\t\n\x0c\r\x1f\x7f", "dérivée ∂f",
           "\U0001d4d5 and \ud800 alone"]
NUMBERS = [-0.0, 5e-324, 1e16, 1e22, 0.1, 10**30, True, False, None, 0, -7, 1.5e-7]
EMPTIES = [{}, [], (), {"a": {}}, [[]], [()], ((), {}), {"a": [], "b": {"c": ()}}, [[[{}]]]]


class TestJsonWriter:
    """The writer gives ``json.dumps(indent=2, allow_nan=False)``'s text on
    every interpreter, whichever one ``render_report`` uses there."""

    def test_fixture_reports(self):
        paths = sorted(FIXTURES.glob("*/problem.json"))
        assert len(paths) == 6
        for path in paths:
            report, _ = analyze_problem(json.loads(path.read_text()), sense="both")
            obj = report.to_json_obj()
            assert written(obj) == dumped(obj), path

    def test_check_report(self, monkeypatch, capsys):
        reports = []

        def recording(report, fmt):
            reports.append(report)
            return render_report(report, fmt)

        monkeypatch.setattr(cli, "render_report", recording)
        case = FIXTURES / "reference-example"
        assert cli.main(["check", "--f-exhauster", str(case / "f-upper.json"),
                         "--u-exhauster", str(case / "u-lower.json"), "--conditions",
                         "MIN_UPPER_LOWER,MAX_UPPER_LOWER,UNC_MIN_UPPER,UNC_MAX_UPPER"]) == 1
        obj = reports[0].to_json_obj()
        assert written(obj) + "\n" == capsys.readouterr().out
        assert written(obj) == dumped(obj)

    def test_seeded_kinked_reports(self):
        rng = random.Random(83)
        for trial in range(24):
            dim = 2 + trial % 4
            problem = {"dim": dim, "objective": kinked_function(rng, dim, (3, 2)),
                       "constraint": kinked_function(rng, dim, (2, 3)), "point": [0] * dim}
            obj = analyze_problem(problem, sense="both", samples=16)[0].to_json_obj()
            assert written(obj) == dumped(obj), trial

    def test_hand_picked_values(self):
        ids = {cid: cid for cid in ConditionID}
        values = [*STRINGS, *NUMBERS, *EMPTIES, ConditionID.MIN_UPPER_LOWER, ids,
                  STRINGS, tuple(NUMBERS), EMPTIES, {s: s for s in STRINGS},
                  {"numbers": NUMBERS, "nested": {"empties": EMPTIES, "ids": [ids]}}]
        for value in [*values, values]:
            assert written(value) == dumped(value), value

    def test_values_outside_the_writer_render_as_json_dumps_does(self):
        cycle = {}
        cycle["self"] = cycle
        deep = []
        for _ in range(5000):
            deep = [deep]
        echoes = [float("nan"), float("inf"), [1.0, -float("inf")], {1: "a", 2.5: "b"},
                  {True: 0, False: 1, None: 2}, {"key": object()}, {1, 2}, cycle, deep]
        for echo in echoes:
            report = AnalysisReport(problem={"dim": 2, "echo": echo},
                                    conditions=sample_report().conditions)
            expected = outcome(lambda: (dumped(report.to_json_obj()) + "\n").encode())
            assert outcome(lambda: render_report(report)) == expected, type(echo)

    def test_json_dumps_renders_where_json_indents_in_c(self, monkeypatch):
        calls = []
        original = json.dumps

        def recording(obj, **options):
            calls.append(options)
            return original(obj, **options)

        monkeypatch.setattr(json, "dumps", recording)
        render_report(sample_report())
        in_c = sys.version_info >= (3, 13)
        assert calls == ([{"indent": 2, "allow_nan": False}] if in_c else [])
