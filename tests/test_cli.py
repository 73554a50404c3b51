"""Command-line surface: subcommands, file formats, exit codes.

Exit-code contract: 0 when every requested check passes, 1 for a failed
check, 2 for usage errors, 3 for I/O problems.  All tests run ``main``
in-process and parse the machine-readable ``--json`` output where the
payload matters.
"""

import csv
import json

import pytest

from consonance.cli import main
from consonance.outcome import MAX_GRID_POINTS


def run_cli(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def label_files(tmp_path):
    """space.json + data.csv for the worked three-label bag."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"labels": ["A", "B", "C"]}))
    data = tmp_path / "data.csv"
    rows = ["y"] + ["A"] * 20 + ["B"] * 30 + ["C"] * 50
    data.write_text("\n".join(rows) + "\n")
    return space, data


@pytest.fixture
def label_contour(tmp_path, label_files, capsys):
    space, data = label_files
    out = tmp_path / "contour.json"
    code, _ = run_cli(
        ["transduce", "--data", str(data), "--space", str(space),
         "--psi", "one-minus-emp", "--out", str(out)],
        capsys,
    )
    assert code == 0
    return out


class TestTransduce:
    def test_writes_exact_rational_contour(self, label_contour):
        obj = json.loads(label_contour.read_text())
        assert obj["labels"] == ["A", "B", "C"]
        assert obj["pi"] == ["21/101", "51/101", "1/1"]
        assert obj["provenance"] == "raw"

    def test_grid_pipeline_with_adjustment(self, tmp_path, capsys):
        space = tmp_path / "grid.json"
        space.write_text(json.dumps({"lo": 0.0, "hi": 4.0, "num_points": 41}))
        data = tmp_path / "data.csv"
        data.write_text("y\n1.9\n2.1\n2.0\n2.2\n1.8\n")
        out = tmp_path / "contour.json"
        code, _ = run_cli(
            ["transduce", "--data", str(data), "--space", str(space),
             "--psi", "mean-abs", "--adjust", "double-prime", "--out", str(out)],
            capsys,
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["provenance"] == "double-prime-adjusted"
        assert obj["grid"]["num_points"] == 41
        assert "1/1" in obj["pi"]

    def test_missing_file_is_an_io_error(self, tmp_path, label_files, capsys):
        space, _ = label_files
        code, _ = run_cli(
            ["transduce", "--data", str(tmp_path / "nope.csv"), "--space", str(space),
             "--psi", "one-minus-emp", "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 3

    def test_wrong_header_is_a_check_failure(self, tmp_path, label_files, capsys):
        space, _ = label_files
        bad = tmp_path / "bad.csv"
        bad.write_text("value\nA\n")
        code, _ = run_cli(
            ["transduce", "--data", str(bad), "--space", str(space),
             "--psi", "one-minus-emp", "--out", str(tmp_path / "o.json")],
            capsys,
        )
        assert code == 1


class TestPossibility:
    def test_upper_of_an_event(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "possibility", "upper", "--contour", str(label_contour),
             "--event", "A,B"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"event": ["A", "B"], "upper": "51/101"}

    def test_mass_rows(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "possibility", "mass", "--contour", str(label_contour)], capsys
        )
        assert code == 0
        assert json.loads(out)["mass"] == [
            {"event": ["C"], "mass": "50/101"},
            {"event": ["B", "C"], "mass": "30/101"},
            {"event": ["A", "B", "C"], "mass": "21/101"},
        ]

    def test_mass_at_the_float_tolerance(self, tmp_path, capsys):
        """The 1e-12 mass was dropped and the rest then failed the sum
        check: ``masses sum to 0.9999999999989999, expected 1``."""
        path = tmp_path / "contour.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c", "d"], "pi": [1.0, "1/2", "1/3", 1e-12]}))
        code, out = run_cli(["--json", "possibility", "mass", "--contour", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["mass"][-1] == {"event": ["a", "b", "c", "d"], "mass": 1e-12}

    def test_focal_chain_is_nested(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "possibility", "focal", "--contour", str(label_contour)], capsys
        )
        assert code == 0 and json.loads(out)["nested"] is True

    def test_capacity_checks_pass(self, label_contour, capsys):
        for action in ("check-alt", "check-mon"):
            code, out = run_cli(
                ["--json", "possibility", action, "2", "--contour", str(label_contour)],
                capsys,
            )
            assert code == 0
            assert json.loads(out)["ok"] is True

    def test_check_without_order_is_a_usage_error(self, label_contour, capsys):
        code, _ = run_cli(
            ["possibility", "check-alt", "--contour", str(label_contour)], capsys
        )
        assert code == 2

    def test_upper_without_event_tabulates_everything(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "possibility", "upper", "--contour", str(label_contour)], capsys
        )
        assert code == 0
        assert len(json.loads(out)["upper"]) == 8


class TestRegion:
    def test_cut_labels(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "region", "--contour", str(label_contour),
             "--alpha", "0.3", "--kind", "cut"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == ["B", "C"] and payload["size"] == 2

    def test_intersection_matches_cut(self, label_contour, capsys):
        _, out_cut = run_cli(
            ["--json", "region", "--contour", str(label_contour),
             "--alpha", "0.3", "--kind", "cut"],
            capsys,
        )
        _, out_int = run_cli(
            ["--json", "region", "--contour", str(label_contour),
             "--alpha", "0.3", "--kind", "intersection"],
            capsys,
        )
        assert json.loads(out_cut)["labels"] == json.loads(out_int)["labels"]

    def test_prop1_sweep_passes(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "region", "prop1", "--contour", str(label_contour)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["failures"] == []

    def test_alpha_bounds_are_usage_errors(self, label_contour, capsys):
        code, _ = run_cli(
            ["region", "--contour", str(label_contour), "--alpha", "1.5"], capsys
        )
        assert code == 2

    def test_region_needs_alpha_or_action(self, label_contour, capsys):
        code, _ = run_cli(["region", "--contour", str(label_contour)], capsys)
        assert code == 2


class TestCredal:
    def test_member_and_non_member_exit_codes(self, label_contour, capsys):
        member, _ = run_cli(
            ["credal", "check", "--contour", str(label_contour),
             "--p", "1/5,3/10,1/2"],
            capsys,
        )
        assert member == 0
        outsider, _ = run_cli(
            ["credal", "check", "--contour", str(label_contour),
             "--p", "1/3,1/3,1/3"],
            capsys,
        )
        assert outsider == 1

    def test_extreme_points(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "credal", "extremes", "--contour", str(label_contour)], capsys
        )
        assert code == 0
        rows = json.loads(out)["extreme_points"]
        assert len(rows) == 4
        assert ["0/1", "0/1", "1/1"] in rows

    def test_entropy_is_zero(self, label_contour, capsys):
        code, out = run_cli(
            ["--json", "credal", "entropy", "--contour", str(label_contour)], capsys
        )
        assert code == 0 and json.loads(out)["lower_entropy"] == 0.0

    def test_sampling_requires_a_seed(self, label_contour, capsys):
        code, _ = run_cli(
            ["credal", "sample", "--contour", str(label_contour), "--count", "3"],
            capsys,
        )
        assert code == 2

    def test_ternary_export(self, tmp_path, label_contour, capsys):
        out_csv = tmp_path / "ternary.csv"
        code, _ = run_cli(
            ["credal", "ternary", "--contour", str(label_contour),
             "--count", "5", "--seed", "3", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "label"]
        labels = {r[2] for r in rows[1:]}
        assert labels == {"extreme", "sample"}
        assert len(rows) == 1 + 4 + 5


class TestBsa:
    def test_geometric_support(self, capsys):
        code, out = run_cli(
            ["--json", "bsa", "--priors", '[{"a": 1, "b": 1}]', "--alpha", "0.2"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == [0, 1, 2]
        assert payload["lower"] == pytest.approx(0.875, abs=1e-12)

    def test_counts_update_through_csv(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("y\n3\n1\n")
        code, out = run_cli(
            ["--json", "bsa", "--priors", '[{"a": 2, "b": 1}, {"a": 5, "b": 2}]',
             "--data", str(data), "--alpha", "0.1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] >= 0.9
        assert len(payload["per_component"]) == 2

    def test_alpha_zero_is_a_usage_error(self, capsys):
        code, _ = run_cli(
            ["bsa", "--priors", '[{"a": 1, "b": 1}]', "--alpha", "0"], capsys
        )
        assert code == 2


class TestCoverage:
    def test_report_row_matches_frozen_run(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"family": "iid-categorical", "weights": [0.2, 0.3, 0.5]})
        )
        out_csv = tmp_path / "report.csv"
        code, out = run_cli(
            ["--json", "coverage", "--spec", str(spec), "--n", "20",
             "--alpha", "0.2", "--trials", "300", "--seed", "7",
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hits"] == 271 and payload["pass"] is True
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "n", "alpha", "trials", "hits", "coverage", "se", "pass"]
        assert rows[1][4] == "271"

    def test_missing_spec_flag(self, capsys):
        code, _ = run_cli(["coverage", "--n", "10", "--alpha", "0.2"], capsys)
        assert code == 2


class TestTable1:
    def test_full_artifact(self, capsys):
        code, out = run_cli(["--json", "table1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["contour"] == ["21/101", "51/101", "1/1"]
        rows = {tuple(r["event"]): (r["lower"], r["upper"]) for r in payload["rows"]}
        assert rows[("B", "C")] == ("80/101", "1/1")
        assert rows[("A", "C")] == ("50/101", "1/1")
        assert rows[("A", "B")] == ("0/1", "51/101")
        assert payload["lower_entropy"] == 0.0
        assert len(payload["ternary"]) == 21  # 20 samples + p_emp

    def test_text_mode_mentions_every_row(self, capsys):
        code, out = run_cli(["table1"], capsys)
        assert code == 0
        for fragment in ("21/101", "51/101", "80/101", "50/101", "30/101"):
            assert fragment in out


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _ = run_cli(["frobnicate"], capsys)
        assert code == 2


class TestFloatContourRegions:
    """Float contours once split the CPR from the IHDR intersection when
    ``1 - upper >= 1 - alpha`` rounded; the CLI now agrees with the cut."""

    @staticmethod
    def _contour(tmp_path, pi):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "pi": pi}))
        return str(path)

    def test_intersection_keeps_a_value_just_above_alpha(self, tmp_path, capsys):
        contour = self._contour(tmp_path, [0.30000000000000004, 1.0])
        for kind in ("cpr", "intersection"):
            code, out = run_cli(
                ["--json", "region", "--contour", contour, "--alpha", "0.3", "--kind", kind],
                capsys,
            )
            assert code == 0 and json.loads(out)["labels"] == ["a", "b"]

    def test_prop1_passes_on_a_tiny_value(self, tmp_path, capsys):
        contour = self._contour(tmp_path, [1e-17, 1.0])
        code, out = run_cli(["--json", "region", "prop1", "--contour", contour], capsys)
        assert code == 0 and json.loads(out)["passed"] is True


class TestBadInputExitsOne:
    """Content errors end in exit 1 with one ``error:`` line, never a traceback."""

    @staticmethod
    def _run(argv, capsys):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return code

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_grid_data(self, tmp_path, cell, capsys):
        space = tmp_path / "grid.json"
        space.write_text(json.dumps({"lo": 0.0, "hi": 4.0, "num_points": 5}))
        data = tmp_path / "data.csv"
        data.write_text(f"y\n1.0\n{cell}\n")
        out = tmp_path / "contour.json"
        argv = ["transduce", "--data", str(data), "--space", str(space),
                "--psi", "mean-abs", "--out", str(out)]
        assert self._run(argv, capsys) == 1
        assert not out.exists()

    def test_non_finite_counts(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("y\n3\ninf\n")
        argv = ["bsa", "--priors", '[{"a": 2, "b": 1}]', "--data", str(data), "--alpha", "0.1"]
        assert self._run(argv, capsys) == 1

    def test_infinite_grid_bound(self, tmp_path, capsys):
        space = tmp_path / "grid.json"
        space.write_text('{"lo": 0.0, "hi": Infinity, "num_points": 5}')
        data = tmp_path / "data.csv"
        data.write_text("y\n1.0\n")
        argv = ["transduce", "--data", str(data), "--space", str(space),
                "--psi", "mean-abs", "--out", str(tmp_path / "o.json")]
        assert self._run(argv, capsys) == 1

    def test_grid_past_exact_float_indices(self, tmp_path, capsys):
        """Falsifying example of the CLI fuzz test: ``GridOutcomeSpace.point``
        raised ``OverflowError`` on 10**400 points."""
        space = tmp_path / "grid.json"
        space.write_text(json.dumps({"lo": 0.0, "hi": 2.0, "num_points": 10**400}))
        data = tmp_path / "data.csv"
        data.write_text("y\n1\n")
        argv = ["transduce", "--data", str(data), "--space", str(space),
                "--psi", "mean-abs", "--adjust", "none", "--out", str(tmp_path / "o.json")]
        assert self._run(argv, capsys) == 1

    def test_grid_past_the_point_budget(self, tmp_path, capsys):
        """One point over the budget is refused before any point is built."""
        space = tmp_path / "grid.json"
        space.write_text(json.dumps({"lo": 0.0, "hi": 2.0, "num_points": MAX_GRID_POINTS + 1}))
        data = tmp_path / "data.csv"
        data.write_text("y\n1\n")
        out = tmp_path / "o.json"
        argv = ["transduce", "--data", str(data), "--space", str(space),
                "--psi", "mean-abs", "--out", str(out)]
        assert self._run(argv, capsys) == 1
        assert not out.exists()

    @pytest.mark.parametrize("count", ["1.5", "-0.5"])
    def test_fractional_or_negative_count(self, tmp_path, count, capsys):
        data = tmp_path / "counts.csv"
        data.write_text(f"y\n3\n{count}\n")
        argv = ["bsa", "--priors", '[{"a": 2, "b": 1}]', "--data", str(data), "--alpha", "0.1"]
        assert self._run(argv, capsys) == 1

    def test_truncation_cap_reached(self, capsys):
        argv = ["bsa", "--priors", '[{"a": 1000000, "b": 1}]', "--alpha", "0.1"]
        assert self._run(argv, capsys) == 1

    @pytest.mark.parametrize(
        "obj",
        [
            {"labels": ["a", "b"], "pi": None},
            {"labels": ["a", "b"], "pi": [[1], 1]},
            {"labels": ["a", "b"], "pi": ["1/0", "1/1"]},
            {"labels": "ab", "pi": ["1/2", "1/1"]},
            {"labels": ["a", "b"], "pi": [True, 1]},
            {"labels": ["a", "b"], "pi": ["1/2", 10**400]},
            {"grid": {"lo": None, "hi": 1.0, "num_points": 2}, "pi": [1.0, 1.0]},
            {"grid": {"lo": 0, "hi": 1, "num_points": 2.5}, "pi": [1.0, 1.0]},
            {"grid": [0, 1, 2], "pi": [1.0, 1.0]},
            ["labels", "pi"],
        ],
    )
    def test_malformed_contour_file(self, tmp_path, obj, capsys):
        """Each of these ended in a TypeError or ZeroDivisionError traceback,
        or (labels "ab") was read silently as the labels a and b."""
        path = tmp_path / "contour.json"
        path.write_text(json.dumps(obj))
        assert self._run(["possibility", "mass", "--contour", str(path)], capsys) == 1

    def test_a_decimal_string_names_the_string_forms(self, tmp_path, capsys):
        """``"1.0"`` failed with ``invalid literal for int() with base 10``."""
        path = tmp_path / "contour.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "pi": ["1.0", "1/2"]}))
        code = main(["possibility", "mass", "--contour", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: a string must be an integer or \"num/den\", got '1.0'\n"

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "polya-urn", "counts": [1e999, 2]},
            {"family": "iid-categorical", "weights": 0.5},
            {"family": "iid-categorical", "weights": [0.5, 0.5], "labels": "ab"},
            {"family": "iid-gaussian", "mu": None, "sigma": 1.0},
            [1, 2],
        ],
    )
    def test_malformed_process_spec(self, tmp_path, spec, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec).replace("1e999", "Infinity"))
        argv = ["coverage", "--spec", str(path), "--n", "3", "--alpha", "0.2", "--trials", "2", "--seed", "1"]
        assert self._run(argv, capsys) == 1

    @pytest.mark.parametrize("priors", ["[1]", '[{"a": null, "b": 1}]', '{"a": 1, "b": 1}'])
    def test_malformed_priors(self, priors, capsys):
        assert self._run(["bsa", "--priors", priors, "--alpha", "0.1"], capsys) == 1

    def test_zero_denominator_in_a_point(self, label_contour, capsys):
        argv = ["credal", "check", "--contour", str(label_contour), "--p", "1/0,1"]
        assert self._run(argv, capsys) == 1

    def test_mean_abs_on_labels(self, label_files, tmp_path, capsys):
        space, data = label_files
        argv = ["transduce", "--data", str(data), "--space", str(space),
                "--psi", "mean-abs", "--out", str(tmp_path / "o.json")]
        assert self._run(argv, capsys) == 1
