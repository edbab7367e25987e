import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from exhausters import cli
from exhausters.cli import main
from exhausters.exhauster import Exhauster
from exhausters.geometry import Polytope

from helpers import abs_sum_json, abs_sum_problem, count_lps, problem_dict

FIXTURE = "fixtures/reference-example/problem.json"
# Every recorded report: fixtures/<case>/expected-report.json is the
# problem's report under --sense min, expected-report-<sense>.json under
# that sense.
RECORDED = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob(
    "*/expected-report*.json"))
# Every recorded oracle output: fixtures/<case>/expected-oracle.txt is the
# problem's under the default options, expected-oracle-samples97-seed5.txt
# the one under --samples 97 --seed 5.
RECORDED_ORACLE = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob(
    "*/expected-oracle*.txt"))
# Every recorded check report: fixtures/<case>/expected-check-<f>-<u>.json
# is one check call on the case's f-<f>.json and u-<u>.json over the ids
# MIN_<F>_<U>, MAX_<F>_<U>, UNC_MIN_<F> and UNC_MAX_<F>.
RECORDED_CHECK = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob(
    "*/expected-check-*.json"))


def line_problem():
    """f = x on the line, at the origin."""
    return {"dim": 1, "objective": {"atom": {"terms": [{"c": 1, "e": [1]}]}},
            "point": [0]}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_dict()))
    return str(path)


@pytest.fixture
def family_files(tmp_path):
    f_path = tmp_path / "f.json"
    u_path = tmp_path / "u.json"
    f_path.write_text(json.dumps({
        "kind": "upper", "dim": 2,
        "sets": [[[1, 1], [-1, 1]], [[1, -1], [-1, -1]]]}))
    u_path.write_text(json.dumps({
        "kind": "lower", "dim": 2,
        "sets": [[[1, 1], [-1, 1]], [[1, -1], [-1, -1]]]}))
    return str(f_path), str(u_path)


class TestAnalyze:
    def test_minimum_all_conditions_hold(self, problem_file, capsys):
        code = main(["analyze", problem_file, "--sense", "min"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [v["status"] for v in out["conditions"].values()] == ["holds"] * 4
        assert out["regularity"]["status"] == "holds"

    def test_maximum_violated_with_axis_witness(self, problem_file, capsys):
        code = main(["analyze", problem_file, "--sense", "max"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        witness = out["conditions"]["MAX_UPPER_UPPER"]["witness"]
        assert abs(witness[1]) <= 1e-9 and abs(witness[0]) >= 1 - 1e-9

    def test_truncated_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "objective"')
        code = main(["analyze", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2

    def test_condition_selection(self, problem_file, capsys):
        code = main(["analyze", problem_file,
                     "--conditions", "MIN_UPPER_LOWER,MAX_UPPER_UPPER"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1  # the max condition fails at a minimizer
        assert set(out["conditions"]) == {"MIN_UPPER_LOWER", "MAX_UPPER_UPPER"}

    def test_unknown_condition_rejected(self, problem_file):
        assert main(["analyze", problem_file, "--conditions", "BOGUS"]) == 2

    def test_zero_samples_is_input_error(self, problem_file, capsys):
        assert main(["analyze", problem_file, "--samples", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_tolerance_is_input_error(self, problem_file, capsys, tol):
        # A NaN tolerance would reach the report as a bare NaN, not JSON.
        assert main(["analyze", problem_file, f"--tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tol must be finite")

    def test_abs_sum_4d_rung_is_decided_in_few_lps(self, monkeypatch):
        calls = count_lps(monkeypatch)
        report, code = cli.analyze_problem(abs_sum_problem("annn", "aaan"), sense="both")
        assert code == 1
        assert all(v.status != "inconclusive" for v in report.conditions.values())
        assert report.regularity.status == "holds"
        assert len(calls) <= 100

    def test_abs_sum_5d_rung_ends_without_a_cap(self):
        # A normal form of these families would need more than 10^4 clauses.
        report, code = cli.analyze_problem(abs_sum_problem("annnn", "aaaan"), sense="both")
        assert code == 1
        assert report.conditions["MIN_UPPER_UPPER"].status == "violated"

    def test_one_run_solves_no_system_twice(self, monkeypatch):
        # The four reductions, the conditions and regularity of one run
        # share its store. Reductions keep most sets on a trial direction
        # and rarely meet each other's systems, but in 3-D the proper and
        # adjoint forms of a condition do: under both senses 6 of this
        # run's 20 lookups find a system already solved.
        import exhausters.exhauster as module

        solved = []
        solve = module.linear_feasibility
        monkeypatch.setattr(module, "linear_feasibility", lambda rows, dim: (
            solved.append((dim, tuple(rows))) or solve(rows, dim)))
        cli.analyze_problem(abs_sum_problem("ann", "aan"), sense="both")
        assert solved
        assert len(solved) == len(set(solved))

    def test_non_integer_dim_is_input_error(self, tmp_path, capsys):
        # A fractional dimension is rejected, not truncated to 2.
        for dim in ("two", 2.5):
            path = tmp_path / "dim.json"
            path.write_text(json.dumps(dict(problem_dict(), dim=dim)))
            assert main(["analyze", str(path)]) == 2
            assert "error" in capsys.readouterr().err

    def test_boolean_or_string_dim_is_input_error(self, tmp_path, capsys):
        # true once read as 1, so this ran as the 1-D problem f = x and
        # exited 1; "2" once read as 2.
        path = tmp_path / "dim.json"
        for problem in (dict(line_problem(), dim=True), dict(problem_dict(), dim="2")):
            path.write_text(json.dumps(problem))
            assert main(["analyze", str(path)]) == 2
            assert "expected an integer" in capsys.readouterr().err

    def test_coefficient_must_be_a_number(self, tmp_path, capsys):
        # Both once read through float(): true as 1.0, "1" as 1.0.
        path = tmp_path / "coefficient.json"
        for value in (True, "1"):
            term = line_problem()
            term["objective"]["atom"]["terms"][0]["c"] = value
            scaled = line_problem()
            scaled["objective"] = {"op": "scale", "coef": value,
                                   "arg": scaled["objective"]}
            for problem in (term, scaled):
                path.write_text(json.dumps(problem))
                assert main(["analyze", str(path)]) == 2
                assert "coefficient must be a number" in capsys.readouterr().err

    def test_fractional_exponent_is_input_error(self, tmp_path, capsys):
        spec = problem_dict()
        spec["objective"]["args"][0]["args"][0]["atom"]["terms"][0]["e"] = [1.5, 0]
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", str(path)]) == 2
        assert "non-integral" in capsys.readouterr().err

    def test_point_must_be_an_array_of_numbers(self, tmp_path, capsys):
        # An object or a string is not iterated into coordinates: the
        # object's keys "1", "2" once read as the point (1, 2).
        path = tmp_path / "point.json"
        for point in ({"1": 0, "2": 0}, "00", ["0", 0], [True, False]):
            path.write_text(json.dumps(dict(problem_dict(), point=point)))
            for command in ("analyze", "oracle"):
                assert main([command, str(path)]) == 2
                assert "array of numbers" in capsys.readouterr().err

    def test_exponents_must_be_an_array_of_numbers(self, tmp_path, capsys):
        # "10" once read as the exponents (1, 0).
        path = tmp_path / "exponent.json"
        for exps in ("10", {"1": 1, "0": 0}):
            spec = problem_dict()
            spec["objective"]["args"][0]["args"][0]["atom"]["terms"][0]["e"] = exps
            path.write_text(json.dumps(spec))
            assert main(["analyze", str(path)]) == 2
            assert "array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("terms", [5, None, "ab", {"c": 1, "e": [1, 0]}],
                             ids=["number", "null", "string", "object"])
    def test_atom_terms_must_be_an_array(self, tmp_path, capsys, terms):
        # These once printed "'int' object is not iterable", the same for
        # 'NoneType', or a complaint that a term needs 'c' and 'e'.
        spec = problem_dict()
        spec["objective"]["args"][0]["args"][0]["atom"]["terms"] = terms
        path = tmp_path / "terms.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: malformed problem: atom node needs a "
                                     f"'terms' array, got {{'terms': {terms!r}}}\n")

    def test_overflow_at_the_point_is_input_error(self, tmp_path, capsys):
        # x1^400 overflows the power itself, 1e300*x1^2 the value, and
        # 1e308*x1^2 at x1 = 1.2 only the gradient.
        cases = [({"c": 1, "e": [400, 0]}, 1e10), ({"c": 1e300, "e": [2, 0]}, 1e10),
                 ({"c": 1e308, "e": [2, 0]}, 1.2)]
        for term, x1 in cases:
            path = tmp_path / "overflow.json"
            path.write_text(json.dumps({
                "dim": 2, "objective": {"atom": {"terms": [term]}},
                "point": [x1, 0]}))
            for command in ("analyze", "oracle"):
                assert main([command, str(path)]) == 2
                assert "overflows the floats" in capsys.readouterr().err

    def test_overflow_in_a_sum_names_the_function(self, tmp_path, capsys):
        # Every gradient is finite; only the sum of two, a vertex of a
        # summed family, overflows. In the second objective the two
        # summands cancel, so every difference quotient is finite too.
        def atom(c):
            return {"atom": {"terms": [{"c": c, "e": [1]}]}}

        kinked = {"op": "max", "args": [atom(1e308), atom(-1e308)]}
        cases = [({"op": "sum", "args": [atom(1e308), kinked]}, ("analyze",)),
                 ({"op": "sum", "args": [kinked, {"op": "min", "args": [
                     atom(1e308), atom(-1e308)]}]}, ("analyze", "oracle"))]
        path = tmp_path / "overflow.json"
        for objective, commands in cases:
            path.write_text(json.dumps(
                {"dim": 1, "objective": objective, "point": [0]}))
            for command in commands:
                assert main([command, str(path)]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.startswith(
                    "error: objective overflows the floats at the point:")

    def test_overflow_in_a_vertex_difference_names_the_function(self, tmp_path, capsys):
        # min(|1e308 x|, |1e308 x|): every vertex of the upper family is
        # finite, but the reduction's rows w - v = 1e308 - (-1e308) are not.
        def atom(c):
            return {"atom": {"terms": [{"c": c, "e": [1]}]}}

        kinked = {"op": "max", "args": [atom(1e308), atom(-1e308)]}
        overflowing = {"op": "min", "args": [kinked, kinked]}
        path = tmp_path / "overflow.json"
        for label, problem in (
                ("objective", {"objective": overflowing}),
                ("constraint", {"objective": atom(1.0), "constraint": overflowing})):
            path.write_text(json.dumps({"dim": 1, "point": [0], **problem}))
            assert main(["analyze", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {label} overflows the floats")

    def test_pivot_cap_gives_inconclusive_exit(self, problem_file, capsys,
                                               monkeypatch):
        monkeypatch.setattr("exhausters.geometry.PIVOT_CAP", 0)
        assert main(["analyze", problem_file]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_nan_coefficient_is_input_error(self, tmp_path, capsys):
        spec = problem_dict()
        spec["objective"]["args"][0]["args"][0]["atom"]["terms"][0]["c"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(spec))
        assert "NaN" in path.read_text()
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unconstrained_defaults(self, tmp_path, capsys):
        spec = problem_dict()
        del spec["constraint"]
        path = tmp_path / "unconstrained.json"
        path.write_text(json.dumps(spec))
        code = main(["analyze", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1  # the origin is not an unconstrained minimizer
        assert set(out["conditions"]) == {"UNC_MIN_UPPER", "UNC_MIN_LOWER"}
        assert out["regularity"] is None

    @pytest.mark.parametrize("dim, conditions", [
        (14, "MIN_UPPER_LOWER"), (2, "UNC_MIN_UPPER,MIN_UPPER_LOWER")])
    def test_constrained_id_without_constraint_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, dim, conditions):
        # Fourteen abs terms would exceed the family cap, and the families
        # of the plane problem would be reduced and UNC_MIN_UPPER decided.
        spec = {"dim": dim, "objective": abs_sum_json("a" * dim), "point": [0] * dim}
        path = tmp_path / "unconstrained.json"
        path.write_text(json.dumps(spec))
        calls = count_lps(monkeypatch)
        assert main(["analyze", str(path), "--conditions", conditions]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: MIN_UPPER_LOWER needs a constraint, none was given\n"
        assert calls == []

    def test_enumeration_cap_gives_inconclusive_exit(self, tmp_path, capsys):
        # Dimension three forces the enumeration method; a cap of one
        # combination leaves verdicts inconclusive.
        spec = {
            "dim": 3,
            "objective": {"op": "max", "args": [
                {"atom": {"terms": [{"c": 1, "e": [1, 0, 0]}]}},
                {"atom": {"terms": [{"c": -1, "e": [1, 0, 0]}]}}]},
            "constraint": {"op": "min", "args": [
                {"op": "max", "args": [
                    {"atom": {"terms": [{"c": 1, "e": [0, 1, 0]}]}},
                    {"atom": {"terms": [{"c": 1, "e": [0, 0, 1]}]}}]},
                {"op": "max", "args": [
                    {"atom": {"terms": [{"c": -1, "e": [0, 1, 0]}]}},
                    {"atom": {"terms": [{"c": -1, "e": [0, 0, 1]}]}}]}]},
            "point": [0, 0, 0],
            "sense": "min",
        }
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(spec))
        code = main(["analyze", str(path), "--max-combinations", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 3
        assert any(v["status"] == "inconclusive"
                   for v in out["conditions"].values())

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, problem_file, capsys, cap):
        # Reduction would keep every candidate set under such a cap.
        assert main(["analyze", problem_file, "--max-combinations", cap]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: max-combinations must be positive, got {cap}\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_json_number_is_input_error(self, tmp_path, capsys, literal):
        # Echoed into the report, it would make a file strict parsers reject.
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_dict())[:-1] + f', "note": {literal}}}')
        assert main(["analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {literal} in {path}")

    def test_runs_share_nothing(self, monkeypatch):
        # B checks A's sets in swapped roles; A's bytes and its origin
        # tests must not change.
        import exhausters.conditions as module

        tested = []
        contains_origin = module.contains_origin
        monkeypatch.setattr(module, "contains_origin",
                            lambda c: tested.append(c) or contains_origin(c))
        a = json.loads((Path(__file__).resolve().parents[1] / FIXTURE).read_text())
        b = dict(a, objective=a["constraint"], constraint=a["objective"])

        def analyze(problem):
            tested.clear()
            report, code = cli.analyze_problem(problem, sense="both")
            return cli.render_report(report), code, len(tested)

        first = analyze(a)
        assert first[2] > 0
        assert analyze(b)[:2] != first[:2]
        assert analyze(a) == first

    def test_oracle_tolerance_not_offered(self, problem_file, capsys):
        # No verdict of analyze reads a finite-difference tolerance.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", problem_file, "--oracle-tol", "1e-3"])
        assert exc.value.code == 2
        assert "--oracle-tol" in capsys.readouterr().err

    def test_byte_identical_reruns(self, problem_file, capsys):
        main(["analyze", problem_file, "--seed", "3"])
        first = capsys.readouterr().out
        main(["analyze", problem_file, "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_svg_side_output(self, problem_file, tmp_path, capsys):
        target = tmp_path / "families.svg"
        main(["analyze", problem_file, "--svg", str(target)])
        capsys.readouterr()
        root = ET.parse(target).getroot()
        groups = [e for e in root if e.tag.endswith("}g")]
        assert len(groups) == 8  # two sets in each of the four families

    def test_text_format(self, problem_file, capsys):
        code = main(["analyze", problem_file, "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MIN_UPPER_LOWER: HOLDS" in out


class TestCheck:
    def test_reference_min_condition(self, family_files, capsys):
        f_path, u_path = family_files
        code = main(["check", "--f-exhauster", f_path, "--u-exhauster", u_path,
                     "--conditions", "MIN_UPPER_LOWER"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["conditions"]["MIN_UPPER_LOWER"]["status"] == "holds"

    def test_origin_condition_violated(self, family_files, capsys):
        f_path, _ = family_files
        code = main(["check", "--f-exhauster", f_path,
                     "--conditions", "UNC_MIN_UPPER"])
        capsys.readouterr()
        assert code == 1

    def test_kind_mismatch_is_input_error(self, family_files, capsys):
        f_path, u_path = family_files
        code = main(["check", "--f-exhauster", f_path, "--u-exhauster", f_path,
                     "--conditions", "MIN_UPPER_LOWER"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: MIN_UPPER_LOWER needs a constraint family of kind lower, got upper\n")
        code = main(["check", "--f-exhauster", u_path, "--u-exhauster", u_path,
                     "--conditions", "MIN_UPPER_LOWER"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: MIN_UPPER_LOWER needs an objective family of kind upper, got lower\n")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, family_files, capsys, cap):
        f_path, _ = family_files
        assert main(["check", "--f-exhauster", f_path, "--conditions", "UNC_MIN_UPPER",
                     "--max-combinations", cap]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: max-combinations must be positive, got {cap}\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_json_number_is_input_error(self, tmp_path, capsys, literal):
        path = tmp_path / "family.json"
        path.write_text('{"kind": "upper", "dim": 2, "sets": [[[1, 1], [%s, 1]]]}' % literal)
        assert main(["check", "--f-exhauster", str(path),
                     "--conditions", "UNC_MIN_UPPER"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {literal} in {path}")

    def test_constrained_without_u_family(self, family_files):
        f_path, _ = family_files
        assert main(["check", "--f-exhauster", f_path,
                     "--conditions", "MIN_UPPER_LOWER"]) == 2

    @pytest.mark.parametrize("use_u, message", [
        (False, "MIN_UPPER_LOWER needs --u-exhauster"),
        (True, "MIN_UPPER_LOWER needs a constraint family of kind lower, got upper")])
    def test_bad_id_exits_2_before_any_search(self, family_files, capsys, monkeypatch,
                                              use_u, message):
        # UNC_MIN_UPPER alone would be decided by an LP.
        f_path, _ = family_files
        calls = count_lps(monkeypatch)
        u_option = ["--u-exhauster", f_path] if use_u else []
        assert main(["check", "--f-exhauster", f_path, *u_option,
                     "--conditions", "UNC_MIN_UPPER,MIN_UPPER_LOWER"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert calls == []

    def test_u_family_with_no_constrained_id_exits_2(self, family_files, tmp_path, capsys,
                                                     monkeypatch):
        # The u family, even one of the wrong dimension, was loaded and
        # echoed, and the run exited 1 on UNC_MIN_UPPER alone.
        f_path, _ = family_files
        u_path = tmp_path / "u-3d.json"
        u_path.write_text('{"kind": "lower", "dim": 3, "sets": [[[1, 0, 0]]]}')
        calls = count_lps(monkeypatch)
        assert main(["check", "--f-exhauster", f_path, "--u-exhauster", str(u_path),
                     "--conditions", "UNC_MIN_UPPER"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: --u-exhauster given, but no requested "
                                     "condition has a constraint\n")
        assert calls == []

    def test_unverified_witness_exits_3(self, tmp_path, capsys):
        # Finite families whose LP witness fails re-substitution: the
        # solver error once escaped as a traceback with exit 1, the code
        # for "violated".
        f_path = tmp_path / "f.json"
        u_path = tmp_path / "u.json"
        f_path.write_text('{"kind": "upper", "dim": 3, "sets": [[[1.6496210364357323e+149, '
                          '-9.332702121806376e-09, -96201908.34121098]]]}')
        u_path.write_text('{"kind": "lower", "dim": 3, "sets": [[[5.943698771050184e-09, '
                          '6.876294940686056e+148, 0.47409833741964447], '
                          '[-6.066942759721972e-302, 6.471288545276688e-301, '
                          '2.8459553209414922e-301]]]}')
        assert main(["check", "--f-exhauster", str(f_path), "--u-exhauster", str(u_path),
                     "--conditions", "MIN_UPPER_LOWER"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: feasibility witness failed verification\n"

    def test_fractional_dim_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        for dim in (2.7, None):
            path.write_text(json.dumps({
                "kind": "upper", "dim": dim, "sets": [[[1, 1], [-1, 1]]]}))
            assert main(["check", "--f-exhauster", str(path),
                         "--conditions", "UNC_MIN_UPPER"]) == 2
            assert "error" in capsys.readouterr().err

    def test_boolean_or_string_dim_is_input_error(self, tmp_path, capsys):
        # true once read as 1 and "2" as 2, and the check ran.
        path = tmp_path / "f.json"
        for dim, vertices in ((True, [[1], [-1]]), ("2", [[1, 1], [-1, 1]])):
            path.write_text(json.dumps({"kind": "upper", "dim": dim, "sets": [vertices]}))
            assert main(["check", "--f-exhauster", str(path),
                         "--conditions", "UNC_MIN_UPPER"]) == 2
            assert "expected an integer" in capsys.readouterr().err

    def test_vertex_must_be_an_array_of_numbers(self, tmp_path, capsys):
        # The vertex "10" once read as (1, 0).
        path = tmp_path / "f.json"
        for vertex in ("10", {"1": 1, "0": 0}):
            path.write_text(json.dumps({
                "kind": "upper", "dim": 2, "sets": [[vertex, [-1, 1]]]}))
            assert main(["check", "--f-exhauster", str(path),
                         "--conditions", "UNC_MIN_UPPER"]) == 2
            assert "array of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("sets", 5, "family 'sets' must be an array of sets, got 5"),
        ("sets", "ab", "family 'sets' must be an array of sets, got 'ab'"),
        ("sets", {"a": [1, 2]}, "family 'sets' must be an array of sets, got {'a': [1, 2]}"),
        ("sets", [5], "a set must be an array of vertices, got 5"),
        ("kind", ["upper"], "family 'kind' must be a string, got ['upper']"),
    ], ids=["sets-number", "sets-string", "sets-object", "set-number", "kind-array"])
    def test_family_type_error_names_the_field(self, tmp_path, capsys, field, value,
                                               message):
        # These once printed "'int' object is not iterable", a complaint
        # about a vertex 'a', or the kind "['upper']".
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "upper", "dim": 2, "sets": [[[1, 1]]],
                                    field: value}))
        assert main(["check", "--f-exhauster", str(path),
                     "--conditions", "UNC_MIN_UPPER"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: malformed family in {path}: {message}\n"

    def test_tolerance_not_offered(self, family_files, capsys):
        f_path, _ = family_files
        with pytest.raises(SystemExit) as exc:
            main(["check", "--f-exhauster", f_path,
                  "--conditions", "UNC_MIN_UPPER", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_sampling_options_not_offered(self, family_files, capsys):
        f_path, _ = family_files
        with pytest.raises(SystemExit) as exc:
            main(["check", "--f-exhauster", f_path,
                  "--conditions", "UNC_MIN_UPPER", "--samples", "5"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestOracleCommand:
    def test_reference_problem_within_tolerance(self, problem_file, capsys):
        code = main(["oracle", problem_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "objective" in out and "constraint" in out

    def test_smooth_quadratic_tight_tolerance(self, tmp_path, capsys):
        spec = {
            "dim": 2,
            "objective": {"atom": {"terms": [
                {"c": 0.5, "e": [2, 0]}, {"c": 0.5, "e": [0, 2]},
                {"c": -1, "e": [1, 0]}, {"c": -1, "e": [0, 1]}]}},
            "point": [0, 0],
            "sense": "min",
        }
        path = tmp_path / "smooth.json"
        path.write_text(json.dumps(spec))
        code = main(["oracle", str(path), "--oracle-tol", "1e-6"])
        capsys.readouterr()
        assert code == 0

    def test_tolerance_scales_with_the_derivative(self, tmp_path, capsys):
        # f' reaches 3.6e304 here; the difference quotient errs by about
        # 7e-8 of that, far above any absolute tolerance.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1.79768e300, "e": [2, 0]}]}},
            "point": [1e4, 0]}))
        assert main(["oracle", str(path)]) == 0
        assert "derivative scale 3.6e+304" in capsys.readouterr().out

    def test_wrong_lower_family_is_violated(self, problem_file, monkeypatch, capsys):
        real = cli.exhauster_from_tree

        def shifted_lower(tree, kind):
            family = real(tree, kind)
            if kind == "upper":
                return family
            return Exhauster(kind, family.dim, tuple(
                Polytope.from_vertices([tuple(c + 1.0 for c in v) for v in s.vertices])
                for s in family.sets))

        monkeypatch.setattr(cli, "exhauster_from_tree", shifted_lower)
        assert main(["oracle", problem_file]) == 1
        capsys.readouterr()

    def test_zero_samples_is_input_error(self, problem_file):
        assert main(["oracle", problem_file, "--samples", "0"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_input_error(self, problem_file, capsys, tol):
        # A NaN tolerance would pass every deviation, a negative one none.
        assert main(["oracle", problem_file, f"--oracle-tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: oracle-tol must be finite")

    def test_overflow_at_a_difference_step_is_input_error(self, tmp_path, capsys):
        # Value and gradient are finite at x1 = 1.00069, but x1^1000000
        # overflows once a finite-difference step moves x1 past about 1.00071.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1, "e": [1000000, 0]}]}},
            "point": [1.00069, 0]}))
        assert main(["oracle", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite-difference step" in err

    def test_non_finite_difference_quotient_is_input_error(self, tmp_path, capsys):
        # The value is finite at the point, but within 5e-10 of the largest
        # float: c * x1^2 overflows to inf at every step, without raising.
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1.797693134e300, "e": [2, 0]}]}},
            "point": [1e4, 0]}))
        assert main(["oracle", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err

    def test_non_finite_estimate_from_finite_quotients_is_input_error(self, tmp_path, capsys):
        # At x1 = 5.8 every step of x1^400 and all three difference
        # quotients (about 1.62e307) are finite; the line fit's slope
        # overflows, so the error names the estimate, not a step or a
        # quotient.
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1, "e": [400, 0]}]}},
            "point": [5.8, 0]}))
        assert main(["oracle", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: objective overflows the floats in a "
                              "finite-difference estimate")
        assert "not finite" in err and "step" not in err and "quotient" not in err

    def test_overflow_in_the_constraint_alone_prints_nothing(self, tmp_path, capsys):
        # The objective's estimates are fine; the constraint overflows at a
        # step, so the failure names it and the objective's line is not
        # printed either.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1, "e": [1, 0]}]}},
            "constraint": {"atom": {"terms": [{"c": 1, "e": [1000000, 0]}]}},
            "point": [1.00069, 0]}))
        assert main(["oracle", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: constraint") and "finite-difference step" in err
        # The OverflowError of a step the estimate reads, not a non-finite
        # estimate.
        assert "not finite" not in err

    def test_condition_options_not_offered(self, problem_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", problem_file, "--max-combinations", "1"])
        assert exc.value.code == 2
        assert "--max-combinations" in capsys.readouterr().err


class TestShippedFixture:
    def test_fixture_runs_green(self, capsys):
        assert main(["analyze", FIXTURE]) == 0
        capsys.readouterr()

    def test_console_script_runs_the_fixture(self, monkeypatch, capsys):
        # pyproject.toml installs cli.entrypoint as the exhausters command.
        monkeypatch.setattr(sys, "argv", ["exhausters", "analyze", FIXTURE, "--sense", "min"])
        with pytest.raises(SystemExit) as stop:
            cli.entrypoint()
        assert stop.value.code == 0
        expected = Path(FIXTURE).with_name("expected-report.json")
        assert capsys.readouterr().out == expected.read_text(encoding="utf-8")

    @pytest.mark.parametrize("expected", RECORDED,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_recorded_report_replays_byte_for_byte(self, expected, capsys):
        sense = expected.stem.partition("expected-report-")[2] or "min"
        code = main(["analyze", str(expected.with_name("problem.json")),
                     "--sense", sense])
        text = expected.read_text(encoding="utf-8")
        assert capsys.readouterr().out == text
        report = json.loads(text)
        conditions = [v["status"] for v in report["conditions"].values()]
        oracle = [v["status"] for v in report["oracle"].values()]
        assert code == (1 if "violated" in conditions + oracle
                        else 3 if "inconclusive" in conditions else 0)

    @pytest.mark.parametrize("expected", RECORDED_ORACLE,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_recorded_oracle_output_replays_byte_for_byte(self, expected, capsys):
        # A suffix such as -samples97-seed5 gives the options --samples 97
        # --seed 5.
        suffix = expected.stem.partition("expected-oracle-")[2]
        options = [arg for name, value in re.findall(r"([a-z]+)(\d+)", suffix)
                   for arg in (f"--{name}", value)]
        assert main(["oracle", str(expected.with_name("problem.json"))] + options) == 0
        assert capsys.readouterr().out == expected.read_text(encoding="utf-8")

    def test_recorded_check_report_replays_byte_for_byte(self, monkeypatch, capsys):
        # One check call per recorded report, one memo over constrained and
        # unconstrained ids. The report echoes the family paths, so they are
        # given as recorded.
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(root)
        assert len(RECORDED_CHECK) >= 2
        for expected in RECORDED_CHECK:
            case = expected.parent.relative_to(root)
            f, u = expected.stem.partition("expected-check-")[2].split("-")
            F, U = f.upper(), u.upper()
            code = main(["check", "--f-exhauster", str(case / f"f-{f}.json"),
                         "--u-exhauster", str(case / f"u-{u}.json"), "--conditions",
                         f"MIN_{F}_{U},MAX_{F}_{U},UNC_MIN_{F},UNC_MAX_{F}"])
            text = expected.read_text(encoding="utf-8")
            assert capsys.readouterr().out == text, expected
            statuses = [v["status"] for v in json.loads(text)["conditions"].values()]
            assert code == (1 if "violated" in statuses
                            else 3 if "inconclusive" in statuses else 0), expected

    def test_recorded_text_report_replays_byte_for_byte(self, capsys):
        fixture = Path(__file__).resolve().parents[1] / FIXTURE
        assert main(["analyze", str(fixture), "--sense", "both",
                     "--format", "text"]) == 1
        assert capsys.readouterr().out == \
            fixture.with_name("expected-report-both.txt").read_text(encoding="utf-8")

    def test_recorded_figure_replays_byte_for_byte(self, tmp_path, capsys):
        fixture = Path(__file__).resolve().parents[1] / FIXTURE
        target = tmp_path / "families.svg"
        assert main(["analyze", str(fixture), "--svg", str(target)]) == 0
        capsys.readouterr()
        assert target.read_bytes() == \
            fixture.with_name("expected-families.svg").read_bytes()


def test_cli_import_leaves_numpy_out():
    # Every CLI call pays the import; the library needs no numpy.
    code = "import sys, exhausters.cli; print('numpy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_code_generation_out():
    # The standard modules the package uses load none of these; only
    # dataclasses pulled in the code generators, and typing only the
    # annotations, which are strings anyway. Each costs every CLI call.
    # The child runs without site, whose .pth files may load typing.
    slow = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    code = ("import sys, argparse, json, random; base = set(sys.modules); "
            f"import exhausters.cli; print([m for m in {slow!r} "
            "if m in sys.modules and m not in base])")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestExitBoundary:
    """Every failure ends in exit 2 or 3 with one line on stderr; none is
    a traceback that exits 1, which reads as a violated condition."""

    def test_family_cap_in_oracle_exits_3(self, tmp_path, capsys):
        # |x_1| + ... + |x_14| at the origin: the upper family is one set of
        # 2^14 vertices, the lower one 2^14 singletons.
        dim = 14
        terms = [{"op": "max", "args": [
            {"atom": {"terms": [{"c": c, "e": [int(j == i) for j in range(dim)]}]}}
            for c in (1, -1)]} for i in range(dim)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "dim": dim, "objective": {"op": "sum", "args": terms},
            "point": [0] * dim}))
        assert main(["oracle", str(path), "--samples", "4"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cap exceeded: a family would hold")

    def test_svg_of_a_space_problem_exits_2_without_a_report(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "dim": 3, "objective": {"op": "max", "args": [
                {"atom": {"terms": [{"c": c, "e": [1, 0, 0]}]}} for c in (1, -1)]},
            "point": [0, 0, 0]}))
        code = main(["analyze", str(path), "--svg", str(tmp_path / "f.svg")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error:") and "plane" in err
        assert not (tmp_path / "f.svg").exists()

    def test_svg_into_a_missing_directory_exits_2(self, problem_file, tmp_path, capsys):
        target = tmp_path / "missing" / "f.svg"
        assert main(["analyze", problem_file, "--svg", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_deeply_nested_problem_exits_2(self, tmp_path, capsys):
        expr = '{"atom": {"terms": [{"c": 1, "e": [1, 0]}]}}'
        for _ in range(3000):
            expr = '{"op": "scale", "coef": 1, "arg": ' + expr + '}'
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 2, "objective": ' + expr + ', "point": [0, 0]}')
        for command in ("analyze", "oracle"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_family_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "upper", "dim": 2, "sets": '
                        + "[" * 3000 + "]" * 3000 + "}")
        assert main(["check", "--f-exhauster", str(path),
                     "--conditions", "UNC_MIN_UPPER"]) == 2
        assert capsys.readouterr().err.startswith("error:")


_JUNK = (None, True, -1, 0, 3, 2.5, 1e308, -1e308, 10 ** 400, "x", "", [],
         {}, [[]], [1, 2, 3], {"op": "max"}, {"op": "sum", "args": []},
         {"atom": {}}, {"atom": {"terms": []}}, {"c": 1, "e": [1]},
         [1e308, 1e308], float("nan"), float("inf"))


def _mutate(rng, doc):
    """One random defect in a JSON document: a node replaced by junk or
    dropped, or a list lengthened or cut."""
    paths = []

    def walk(node, path):
        paths.append(path)
        children = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            walk(child, path + (key,))

    walk(doc, ())
    path = rng.choice(paths)
    if not path:
        return rng.choice(_JUNK)
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    move = rng.random()
    if move < 0.6:
        parent[path[-1]] = rng.choice(_JUNK)
    elif move < 0.8 and isinstance(parent, dict):
        del parent[path[-1]]
    elif isinstance(parent, list) and rng.random() < 0.5:
        del parent[path[-1]:]
    elif isinstance(parent, list):
        parent.append(parent[0])
    else:
        parent[path[-1]] = [parent[path[-1]]]
    return doc


def test_malformed_input_fuzz(tmp_path, capsys):
    """Seeded defects in problem and family files, through all three
    subcommands: each call ends in an exit code from 0 to 3, and exits 2
    and 3 on an error print one line and no report."""
    rng = random.Random(8)
    family = {"kind": "upper", "dim": 2,
              "sets": [[[1, 1], [-1, 1]], [[1, -1], [-1, -1]]]}
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps(dict(family, kind="lower")))
    path = tmp_path / "input.json"
    text = json.dumps(problem_dict())
    calls = []
    for _ in range(40):
        problem = json.dumps(_mutate(rng, problem_dict()))
        calls.append((problem, ["analyze", str(path), "--samples", "16"]))
        calls.append((problem, ["oracle", str(path), "--samples", "16"]))
        calls.append((json.dumps(_mutate(rng, family)), [
            "check", "--f-exhauster", str(path), "--u-exhauster", str(u_path),
            "--conditions", "MIN_UPPER_LOWER,UNC_MIN_UPPER"]))
    for _ in range(10):
        calls.append((text[:rng.randrange(len(text))], ["analyze", str(path)]))
    for document, argv in calls:
        path.write_text(document)
        code = main(argv)
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert code in (0, 1, 2, 3), (argv[0], document)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), document
        if lines:
            prefix = "error: " if code == 2 else "cap exceeded: "
            assert len(lines) == 1 and lines[0].startswith(prefix), document
            assert out == "", document
