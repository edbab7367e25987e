import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from exhausters import cli
from exhausters.cli import main
from exhausters.exhauster import Exhauster
from exhausters.geometry import Polytope

from helpers import problem_dict

FIXTURE = "fixtures/reference-example/problem.json"


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

    def test_non_integer_dim_is_input_error(self, tmp_path, capsys):
        # A fractional dimension is rejected, not truncated to 2.
        for dim in ("two", 2.5):
            path = tmp_path / "dim.json"
            path.write_text(json.dumps(dict(problem_dict(), dim=dim)))
            assert main(["analyze", str(path)]) == 2
            assert "error" in capsys.readouterr().err

    def test_fractional_exponent_is_input_error(self, tmp_path, capsys):
        spec = problem_dict()
        spec["objective"]["args"][0]["args"][0]["atom"]["terms"][0]["e"] = [1.5, 0]
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(spec))
        assert main(["analyze", str(path)]) == 2
        assert "non-integral" in capsys.readouterr().err

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
        f_path, _ = family_files
        code = main(["check", "--f-exhauster", f_path, "--u-exhauster", f_path,
                     "--conditions", "MIN_UPPER_LOWER"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_constrained_without_u_family(self, family_files):
        f_path, _ = family_files
        assert main(["check", "--f-exhauster", f_path,
                     "--conditions", "MIN_UPPER_LOWER"]) == 2

    def test_fractional_dim_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        for dim in (2.7, None):
            path.write_text(json.dumps({
                "kind": "upper", "dim": dim, "sets": [[[1, 1], [-1, 1]]]}))
            assert main(["check", "--f-exhauster", str(path),
                         "--conditions", "UNC_MIN_UPPER"]) == 2
            assert "error" in capsys.readouterr().err

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

    def test_overflow_at_a_difference_step_is_input_error(self, tmp_path, capsys):
        # Value and gradient are finite at x1 = 5.82, but x1^400 overflows
        # once a finite-difference step moves x1 past about 5.9.
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "dim": 2, "objective": {"atom": {"terms": [{"c": 1, "e": [400, 0]}]}},
            "point": [5.82, 0]}))
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

    def test_condition_options_not_offered(self, problem_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", problem_file, "--max-combinations", "1"])
        assert exc.value.code == 2
        assert "--max-combinations" in capsys.readouterr().err


class TestShippedFixture:
    def test_fixture_runs_green(self, capsys):
        assert main(["analyze", FIXTURE]) == 0
        capsys.readouterr()


def test_cli_import_leaves_numpy_out():
    # Every CLI call pays the import; the library needs no numpy.
    code = "import sys, exhausters.cli; print('numpy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
