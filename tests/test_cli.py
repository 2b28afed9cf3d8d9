"""CLI contract: flags, output formats, exit codes, reproducibility."""

import csv
import io
import json
import math
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from hdrelay.cli import (
    MAX_GRID_POINTS,
    OUTAGE_COLUMNS,
    _build_parser,
    emit,
    parse_count,
    parse_grid,
    render,
    run,
)
from hdrelay.lemmas import CheckKind, VerificationReport
from hdrelay.montecarlo import OutageRow, OutageTable


def _data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _read_csv(text):
    return list(csv.DictReader(_data_lines(text)))


class TestGridParsing:
    def test_range_inclusive(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_grid("10:40:5") == [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

    def test_endpoint_within_half_step(self):
        assert parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
        assert parse_grid("0:1.05:0.25")[-1] == 1.0

    def test_single_and_list(self):
        assert parse_grid("5") == [5.0]
        assert parse_grid("1,2.5,7") == [1.0, 2.5, 7.0]

    def test_bad_grids(self):
        for text in ("0:1", "1:0:0.1", "0:1:0", "0:1:-1", "a:b:c", "zzz"):
            with pytest.raises(ValueError):
                parse_grid(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:inf:1", "must be finite"),
            ("nan:1:0.1", "must be finite"),
            ("0:1:inf", "must be finite"),
            ("0:1:1e-12", f"more than {MAX_GRID_POINTS} points"),
            ("-1e308:1e308:1", f"more than {MAX_GRID_POINTS} points"),  # stop - start overflows
        ],
    )
    def test_non_finite_or_oversized_ranges(self, text, message):
        # rejected before any list is built
        with pytest.raises(ValueError, match=message):
            parse_grid(text)

    def test_largest_range(self):
        grid = parse_grid("0:1:0.0001")
        assert len(grid) == MAX_GRID_POINTS and grid[-1] == 1.0

    def test_counts(self):
        assert parse_count("1e6") == 1_000_000
        assert parse_count("250") == 250
        for text in ("0", "-3", "2.5", "nan", "abc"):
            with pytest.raises(ValueError):
                parse_count(text)


class TestRender:
    def test_empty_table_is_header_only(self):
        text = render(["a", "b"], [], None, "csv")
        assert text == "a,b\n"

    def test_csv_has_lf_endings_and_dot_decimals(self):
        text = render(["x"], [{"x": 0.5}, {"x": 1_000_000.25}], None, "csv")
        assert "\r" not in text
        assert text == "x\n0.5\n1000000.25\n"

    def test_json_round_trip(self):
        rows = [{"x": 0.1, "y": 3}, {"x": 2.0000000001, "y": -4}]
        text = render(["x", "y"], rows, {"seed": 1}, "json")
        doc = json.loads(text)
        assert doc["rows"] == rows
        assert doc["metadata"] == {"seed": 1}

    def test_non_finite_become_empty_or_null(self):
        rows = [{"x": math.nan, "y": 1}, {"x": math.inf, "y": 2}]
        assert render(["x", "y"], rows, None, "csv") == "x,y\n,1\n,2\n"
        assert json.loads(render(["x"], rows, None, "json"))["rows"] == [{"x": None}, {"x": None}]

    def test_emit_outage_table_and_curve(self, tmp_path):
        row = OutageRow(10.0, 10.0, 2.0, 100, 5, 0.05, 0.02, 0.11)
        table = OutageTable(rows=(row,), metadata={"seed": 9})
        path = tmp_path / "t.csv"
        emit(OUTAGE_COLUMNS, [asdict(r) for r in table.rows], table.metadata, "csv", str(path))
        text = path.read_text()
        assert "# seed=9" in text
        parsed = _read_csv(text)
        assert parsed[0]["outage_count"] == "5"
        assert list(parsed[0]) == OUTAGE_COLUMNS
        curve = [{"r": 0.0, "d": 2.0}, {"r": 1.0, "d": 0.0}]
        emit(["r", "d"], curve, None, "json", str(tmp_path / "c.json"))
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["rows"] == [{"r": 0.0, "d": 2.0}, {"r": 1.0, "d": 0.0}]

    def test_emit_is_byte_stable(self):
        row = OutageRow(10.0, 10.0, 2.0, 100, 5, 0.05, 0.02, 0.11)
        table = OutageTable(rows=(row,), metadata={"seed": 9})
        buf = [render(["snr_db"], [{"snr_db": r.snr_db} for r in table.rows], table.metadata, f) for f in ("csv", "json")]
        again = [render(["snr_db"], [{"snr_db": r.snr_db} for r in table.rows], table.metadata, f) for f in ("csv", "json")]
        assert buf == again


class TestExponentCommand:
    def test_single_relay_sweep(self, capsys):
        code = run(
            ["exponent", "--relays", "1", "--t", "0.5", "--r-grid", "0:1:0.1", "--oracle-step", "0.005"]
        )
        assert code == 0
        rows = _read_csv(capsys.readouterr().out)
        assert list(rows[0].keys()) == ["r", "d_analytic", "d_oracle"]
        by_r = {row["r"]: row for row in rows}
        assert float(by_r["0.5"]["d_analytic"]) == 1.0
        for row in rows:
            assert abs(float(row["d_analytic"]) - float(row["d_oracle"])) <= 0.045

    def test_multi_relay_uses_min_cut_exponent(self, capsys):
        code = run(["exponent", "--relays", "2", "--r-grid", "0:1:0.5", "--oracle-step", "0.05"])
        assert code == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [float(r["d_analytic"]) for r in rows] == [3.0, 1.5, 0.0]
        for row in rows:
            assert abs(float(row["d_analytic"]) - float(row["d_oracle"])) <= 0.2

    def test_four_relays_fit_the_default_budget(self, capsys):
        # the staircase costs 5 * 51^4 * bit_length(51) = 202,956,030 evaluations;
        # the 5 * 51^5 grid points of an exhaustive search would exceed 1e9
        code = run(["exponent", "--relays", "4", "--r-grid", "0.5", "--oracle-step", "0.02"])
        assert code == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert abs(float(row["d_oracle"]) - 5 * (1 - 0.5)) <= 5 * 0.02

    def test_budget_is_checked_before_any_work(self, capsys):
        argv = ["exponent", "--relays", "4", "--r-grid", "0.5", "--oracle-step", "0.02"]
        assert run(argv + ["--budget", "202956029"]) == 2
        assert "5 * 51^4 * bit_length(51) = 202956030" in capsys.readouterr().err

    def test_huge_relay_count_is_a_budget_error(self, capsys):
        # 5001 * 21^5000 * bit_length(21) is over budget without being formed or printed
        assert run(["exponent", "--relays", "5000", "--r-grid", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: budget exceeded")

    def test_analytic_blank_off_half_listen(self, capsys):
        code = run(["exponent", "--t", "0.3", "--r-grid", "0.5", "--oracle-step", "0.05", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["d_analytic"] is None
        assert doc["rows"][0]["d_oracle"] == pytest.approx((1 - 0.5) / (1 - 0.3), abs=0.15)


class TestCurvesCommand:
    def test_miso_three(self, capsys):
        assert run(["curves", "--miso", "3", "--r-grid", "0:1:0.25"]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [float(r["d"]) for r in rows] == [3.0, 2.25, 1.5, 0.75, 0.0]

    def test_requires_exactly_one_curve(self, capsys):
        assert run(["curves", "--r-grid", "0:1:0.5"]) == 2
        # the alias flags of m = 2 and m = N+1 are gone; --miso is the one way
        assert run(["curves", "--parallel"]) == 2
        assert run(["curves", "--miso", "2", "--single-relay"]) == 2
        assert run(["curves", "--two-hop", "2"]) == 2

    def test_other_curves(self, capsys):
        assert run(["curves", "--miso", "2", "--r-grid", "0,1"]) == 0
        assert _read_csv(capsys.readouterr().out)[0]["d"] == "2.0"
        assert run(["curves", "--miso", "2", "--r-grid", "0.25"]) == 0
        assert float(_read_csv(capsys.readouterr().out)[0]["d"]) == 1.5
        assert run(["curves", "--miso", "4", "--r-grid", "0.5"]) == 0
        assert float(_read_csv(capsys.readouterr().out)[0]["d"]) == 2.0

    def test_metadata_names_the_miso_curve(self, capsys):
        assert run(["curves", "--miso", "3", "--r-grid", "0.5", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["curve"] == "miso-3x1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--miso 2 --r-grid 0.5,0.2", "multiplexing gains must be strictly increasing"),
            ("--miso 2 --r-grid 0.5,0.5", "multiplexing gains must be strictly increasing"),
            ("--miso 2 --r-grid 1.5", "multiplexing gain r must lie in [0, 1], got 1.5"),
            ("--miso 0", "m_antennas must be >= 1, got 0"),
        ],
        ids=["decreasing-r", "repeated-r", "r-above-1", "miso-0"],
    )
    def test_bad_curves_are_usage_errors(self, argv, message, capsys):
        assert run(["curves", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hdrelay: error: {message}\n"


class TestOutageAndSlopeCommands:
    def test_end_to_end_json(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        args = [
            "outage", "--r", "0.75", "--snr-db", "10:30:10", "--trials", "2e4",
            "--seed", "11", "--workers", "2", "--format", "json", "--output", str(out),
        ]
        assert run(args) == 0
        doc = json.loads(out.read_text())
        meta = doc["metadata"]
        assert meta["seed"] == 11
        assert meta["generator"] == "philox4x64-10"
        assert meta["model"] == "single-relay-ub"
        assert len(doc["rows"]) == 3
        for row in doc["rows"]:
            assert row["trials"] == 20000
            assert row["ci_low"] <= row["p_hat"] <= row["ci_high"]
            assert row["rate_bits"] == pytest.approx(0.75 * math.log2(row["snr_linear"]))

        # identical rerun: counts must match exactly even with another worker count
        out2 = tmp_path / "again.json"
        args2 = [a if a != str(out) else str(out2) for a in args]
        args2[args2.index("--workers") + 1] = "5"
        assert run(args2) == 0
        doc2 = json.loads(out2.read_text())
        assert [r["outage_count"] for r in doc2["rows"]] == [r["outage_count"] for r in doc["rows"]]

        assert run(["slope", "--input", str(out), "--min-count", "1"]) == 0
        fit = _read_csv(capsys.readouterr().out)[0]
        assert fit["points_used"] == "3"
        assert 0.0 < float(fit["slope"]) < 1.0

    def test_slope_reads_csv_with_comments(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(
            ["outage", "--r", "0.5", "--snr-db", "10:20:10", "--trials", "1e4",
             "--seed", "5", "--output", str(out)]
        ) == 0
        text = out.read_text()
        assert text.startswith("#")
        assert run(["slope", "--input", str(out), "--min-count", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["points_used"] == 2
        assert doc["metadata"]["source"]["seed"] == 5
        assert doc["rows"][0]["stderr"] is None  # two-point fit has no residual dof

    def test_slope_insufficient_data(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(
            ["outage", "--r", "0.0", "--snr-db", "10:20:10", "--trials", "100",
             "--seed", "5", "--output", str(out)]
        ) == 0
        assert run(["slope", "--input", str(out)]) == 2

    def test_workers_env_override(self, tmp_path, capsys, monkeypatch):
        # --workers is the one way to set the count; the environment is not read
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("HDRELAY_WORKERS", "x")
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100",
                    "--seed", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["workers"] == 3
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100",
                    "--seed", "2", "--workers", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["workers"] == 1
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100", "--seed", "2",
                    "--workers", "257"]) == 2
        assert capsys.readouterr().err.endswith("hdrelay: error: workers must be <= 256, got 257\n")

    def test_default_workers_are_capped(self, capsys, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1000)
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100",
                    "--seed", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["workers"] == 256

    def test_two_hop_model(self, capsys):
        assert run(["outage", "--model", "two-hop-zlb", "--relays", "2", "--r", "0.5",
                    "--snr-db", "10:20:10", "--trials", "1000", "--seed", "8",
                    "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["schedule"]["weights"] == [0.25, 0.25, 0.25, 0.25]


class TestScheduleOptCommand:
    def test_returns_half(self, capsys):
        assert run(["schedule-opt", "--r-grid", "0.75", "--t-step", "0.25",
                    "--oracle-step", "0.05"]) == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert float(row["t_star"]) == 0.5
        assert float(row["d_star"]) == pytest.approx(0.5, abs=0.15)


    def test_budget_bounds_the_t_sweep(self, capsys, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr("hdrelay.dmt.exponent_grid_oracle", no_oracle)
        assert run(["schedule-opt", "--r-grid", "0.5", "--t-step", "1e-6"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: budget exceeded: 1000001 * ")


class TestVerifyCommand:
    def test_avg_lemma_suite(self, capsys):
        assert run(["verify", "--kind", "avg-lemma", "--instances", "10000", "--seed", "7"]) == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert row["violations"] == "0"
        assert int(row["instances"]) == 10000

    def test_instances_accept_scientific_notation(self, capsys):
        assert run(["verify", "--kind", "tchebychef", "--instances", "1e4", "--seed", "1"]) == 0
        assert int(_read_csv(capsys.readouterr().out)[0]["instances"]) == 10_000

    @pytest.mark.parametrize("count", ["2.5", "0", "inf"])
    def test_bad_instance_counts_are_usage_errors(self, count, capsys):
        assert run(["verify", "--kind", "tchebychef", "--instances", count, "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: count must be a positive integer")

    def test_violation_exit_code(self, capsys, monkeypatch):
        fake = VerificationReport(
            kind=CheckKind.TCHEBYCHEF, instances=5, violations=2, worst_margin=-0.5, seed=1
        )
        monkeypatch.setattr("hdrelay.cli.run_randomized_suite", lambda *a, **k: fake)
        assert run(["verify", "--kind", "tchebychef", "--instances", "5", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert _read_csv(captured.out)[0]["violations"] == "2"


class TestPinnedResults:
    """Exact outputs, fixed so that a refactor claiming bit-identical results
    is checked rather than diffed by hand.  A deliberate contract change
    (a new RNG layout, say) updates these values and says so."""

    @pytest.mark.parametrize(
        "argv, column, expected",
        [
            ("outage --r 0.5 --snr-db 10:30:10 --trials 20000 --seed 1 --workers 1",
             "outage_count", [1346, 439, 91]),
            ("outage --model two-hop-zlb --relays 2 --weights 0.1,0.2,0.3,0.4 --gap-bits 0.5 "
             "--r 0.5 --snr-db 10:20:10 --trials 5000 --seed 3 --workers 2",
             "outage_count", [685, 79]),
            ("exponent --relays 1 --t 0.3 --r-grid 0.2,0.6 --oracle-step 0.05",
             "d_oracle", [1.35, 0.5999999999999996]),
            ("exponent --relays 2 --r-grid 0.1,0.3 --oracle-step 0.05",
             "d_analytic", [2.7, 2.0999999999999996]),
            ("curves --miso 2 --r-grid 0:1:0.25", "d", [2.0, 1.5, 1.0, 0.5, 0.0]),
            ("curves --miso 2 --r-grid 0.3,0.7", "d", [1.4, 0.6000000000000001]),
            ("curves --miso 3 --r-grid 0.1,0.3,0.9", "d",
             [2.7, 2.0999999999999996, 0.29999999999999993]),
            ("verify --kind avg-lemma --instances 5 --seed 7 --max-len 16",
             "worst_margin", [1.8804357568813472]),
            ("outage --model two-hop-zlb --relays 6 --r 0.75 --snr-db 10:30:10 --trials 8192 --seed 1",
             "outage_count", [68, 3, 0]),
        ],
    )
    def test_pinned_values(self, argv, column, expected, capsys):
        assert run(argv.split() + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row[column] for row in rows] == expected


class TestExitCodesAndSafety:
    def test_help_exits_zero_and_lists_flags(self, capsys):
        assert run(["--help"]) == 0
        for sub, flags in [
            ("exponent", ["--relays", "--t", "--r-grid", "--oracle-step", "--budget", "--format", "--output"]),
            ("outage", ["--model", "--relays", "--t", "--weights", "--r", "--snr-db", "--trials",
                        "--seed", "--gap-bits", "--workers", "--format", "--output"]),
            ("slope", ["--input", "--min-count", "--format", "--output"]),
            ("schedule-opt", ["--r-grid", "--t-step", "--oracle-step", "--budget", "--format", "--output"]),
            ("curves", ["--miso", "--r-grid", "--format", "--output"]),
            ("verify", ["--kind", "--instances", "--seed", "--max-len", "--max-relays", "--format", "--output"]),
        ]:
            assert run([sub, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (sub, flag)

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        commands = [
            words[1:]
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if (words := shlex.split(line, comments=True))[:1] == ["hdrelay"]
        ]
        assert commands
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: hdrelay {shlex.join(argv)}")

    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "hdrelay" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert run(["curves", "--miso", "2", "--nope"]) == 2

    def test_missing_required_seed(self, capsys):
        assert run(["outage", "--r", "0.5", "--snr-db", "10"]) == 2
        assert run(["verify", "--kind", "cut-avg"]) == 2

    def test_usage_error_leaves_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(["outage", "--r", "0.5", "--snr-db", "30:10:5", "--trials", "10",
                    "--seed", "1", "--output", str(out)]) == 2
        assert not out.exists()
        assert run(["exponent", "--r-grid", "junk", "--output", str(out)]) == 2
        assert not out.exists()

    def test_bad_flag_values(self, capsys):
        assert run(["outage", "--r", "1.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]) == 2
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "0", "--seed", "1"]) == 2
        assert run(["exponent", "--oracle-step", "0.5"]) == 2
        assert run(["verify", "--kind", "avg-lemma", "--seed", "1", "--max-len", "40"]) == 2
        # r is checked on the oracle route too, not only by the t = 0.5 closed form
        assert run(["exponent", "--t", "0.3", "--r-grid", "1.5,2", "--oracle-step", "0.05"]) == 2
        assert run(["exponent", "--t", "0.3", "--r-grid", "nan", "--oracle-step", "0.05"]) == 2

    @pytest.mark.parametrize(
        "snr_linear, expected",
        [
            ([10.0, 10.0, 10.0], "need >= 2 distinct snr_linear values, got 1"),
            ([10.0, 10.0], "need >= 2 distinct snr_linear values, got 1"),
            ([0.0, 100.0], "snr_linear must be finite and > 0, got 0.0"),
            ([10.0, math.inf], "snr_linear must be finite and > 0, got inf"),
        ],
        ids=["one-snr-three-rows", "one-snr-two-rows", "zero-snr", "infinite-snr"],
    )
    def test_degenerate_slope_tables_are_usage_errors(self, snr_linear, expected, tmp_path, capsys):
        rows = [
            {"snr_db": 10.0 * k, "snr_linear": snr, "rate_bits": 1.0, "trials": 1000,
             "outage_count": 100 - 10 * k, "p_hat": (100 - 10 * k) / 1000,
             "ci_low": 0.0, "ci_high": 1.0}
            for k, snr in enumerate(snr_linear)
        ]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"metadata": {}, "rows": rows}), encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert expected in captured.err

    def test_p_hat_that_contradicts_the_counts_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(",".join(OUTAGE_COLUMNS) + "\n"
                        "10.0,10.0,1.0,100,50,0.0,0.0,1.0\n"
                        "20.0,100.0,1.0,100,10,0.1,0.0,1.0\n", encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p_hat must equal outage_count / trials, got 0.0" in captured.err

    def test_malformed_inputs_are_usage_errors(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{bad", encoding="utf-8")
        assert run(["slope", "--input", str(bad_json)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert run(["outage", "--model", "two-hop-zlb", "--relays", "2", "--weights", "a,b,c,d",
                    "--r", "0.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]) == 2
        assert "bad --weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gap-bits", "nan"],
            ["--snr-db", "nan"],
            ["--snr-db", "inf"],
            ["--snr-db", "10,nan"],
            ["--model", "two-hop-zlb", "--relays", "1", "--weights", "nan,nan"],
            ["--model", "two-hop-zlb", "--relays", "1", "--weights", "1e308,1e308"],  # the sum overflows
            ["--snr-db", "-4000"],  # the linear SNR underflows to 0
            ["--snr-db", "10,4000"],  # and overflows to inf
        ],
    )
    def test_non_finite_values_are_usage_errors(self, flags, capsys):
        base = {"--r": "0.5", "--snr-db": "10", "--trials": "10", "--seed": "1"}
        for flag, value in zip(flags[::2], flags[1::2]):
            base[flag] = value
        argv = ["outage"] + [item for pair in base.items() for item in pair]
        assert run(argv) == 2
        assert "hdrelay: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "outage --model two-hop-zlb --relays 2 --t 0.3",
            "outage --model single-relay-ub --weights 0.5,0.5",
            "exponent --relays 3 --t 0.2",
            "verify --kind cut-avg --max-len 3",
            "verify --kind tchebychef --max-relays 3",
            "verify --kind avg-lemma --max-relays 3",
        ],
    )
    def test_flags_the_mode_ignores_are_usage_errors(self, argv, capsys):
        rest = {"outage": "--r 0.5 --snr-db 10 --trials 10 --seed 1",
                "exponent": "--r-grid 0.5", "verify": "--instances 10 --seed 1"}
        words = argv.split()
        assert run(words + rest[words[0]].split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("hdrelay: error: --") and "does not apply to" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_usage_error(self, seed, capsys):
        # reduced mod 2**64, -1 would replay the campaign of seed 2**64 - 1
        for argv in (["outage", "--r", "0.5", "--snr-db", "10", "--trials", "10"],
                     ["verify", "--kind", "cut-avg", "--instances", "10"]):
            assert run(argv + ["--seed", seed]) == 2
            assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
            assert run(argv + ["--seed", "18446744073709551615"]) == 0
            capsys.readouterr()

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "out.csv"  # parent dir does not exist
        for argv in (["curves", "--miso", "2", "--r-grid", "0:1:0.5"],
                     ["outage", "--r", "0.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]):
            assert run(argv + ["--output", str(missing)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("hdrelay: error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ["curves --miso 2 --r-grid 0:inf:1", "exponent --r-grid 0:1:1e-12"])
    def test_bad_ranges_are_usage_errors(self, argv, capsys):
        assert run(argv.split()) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: bad grid")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("exponent --relays 0 --r-grid 0.5", "n_relays must be >= 1, got 0"),
            ("slope --min-count 0", "min_count must be >= 1, got 0"),
            ("outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --workers 0", "workers must be >= 1, got 0"),
            ("outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --workers 257", "workers must be <= 256, got 257"),
        ],
        ids=["relays-0", "min-count-0", "workers-0", "workers-257"],
    )
    def test_library_checks_are_usage_errors(self, argv, message, tmp_path, capsys):
        table = tmp_path / "t.csv"
        assert run(["outage", "--r", "0.5", "--snr-db", "10:20:10", "--trials", "100",
                    "--seed", "1", "--output", str(table)]) == 0
        words = argv.split() + (["--input", str(table)] if argv.startswith("slope") else [])
        assert run(words) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hdrelay: error: {message}\n"

    def test_any_value_error_is_usage_error(self, capsys, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("x")

        monkeypatch.setattr("hdrelay.cli.estimate_outage", reject)
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "hdrelay: error: x\n"

    def test_runtime_error_exit_code(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("hdrelay.cli.estimate_outage", crash)
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "hdrelay: RuntimeError: boom\n"

    def test_outage_byte_stable_except_timestamp(self, tmp_path):
        args = ["outage", "--r", "0.6", "--snr-db", "10:20:10", "--trials", "500", "--seed", "4"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("# timestamp=")
                           and not ln.startswith("# command=")]
        assert strip(a) == strip(b)
