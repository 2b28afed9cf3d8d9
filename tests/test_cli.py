"""CLI contract: flags, output formats, exit codes, reproducibility."""

import csv
import io
import json
import math
import re
import shlex
import sys
import threading
from dataclasses import asdict
from pathlib import Path
from unittest.mock import patch

import pytest

from hdrelay import __version__, cli
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
from hdrelay.dmt import miso_dmt, single_relay_dmt
from hdrelay.lemmas import CheckKind, VerificationReport
from hdrelay.montecarlo import OutageRow


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

    def test_lists_are_capped_like_ranges(self, capsys):
        assert len(parse_grid(",".join(["0.5"] * MAX_GRID_POINTS))) == MAX_GRID_POINTS
        too_long = ",".join(["0.5"] * 20_000)
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
            parse_grid(too_long)
        # rejected before the first of the 20,000 oracle calls
        with patch.object(cli, "exponent_grid_oracle", side_effect=AssertionError("oracle called")):
            assert run(["exponent", "--relays", "1", "--r-grid", too_long]) == 2
        assert f"more than {MAX_GRID_POINTS} points" in capsys.readouterr().err

    def test_counts(self):
        # read exactly: a float rounds 9007199254740993 and 9.007199254740993e15 to 2^53, and
        # 18446744073709551617 to 2^64
        for text, expected in [
            ("1e6", 10**6), ("250", 250), ("7.0", 7), ("1e20", 10**20), ("9007199254740993", 2**53 + 1),
            ("9.007199254740993e15", 2**53 + 1), ("18446744073709551617", 2**64 + 1), ("1e4299", 10**4299),
        ]:
            assert parse_count(text) == expected
        # within 1e-9 relative of an integer is not one: 999999.9995 is not 10^6 trials
        for text in ("0", "-3", "2.5", "nan", "inf", "abc", "999999.9995", "2.0000000001", "1e-999999999",
                     "-inf", "Infinity", "sNaN"):
            with pytest.raises(ValueError):
                parse_count(text)
        # as an integer 1e999999999 would take minutes and 400 MB to form
        for text in ("1e999999999", "1e4300", "1" * 4301):
            with pytest.raises(ValueError, match="has more than 4300 digits"):
                parse_count(text)

    def test_trial_counts_reach_the_campaign_exactly(self, capsys, monkeypatch):
        # 2^53 + 1 trials per point fit the stream space, so the campaign is built with
        # that exact count (and stubbed out here); 2^62 + 1 does not, and the error says so
        seen = []
        monkeypatch.setattr(cli, "estimate_outage", lambda cfg, workers: seen.append(cfg) or ((), {}))
        argv = ["outage", "--r", "0.5", "--snr-db", "10", "--seed", "1", "--trials"]
        assert run(argv + ["9007199254740993"]) == 0
        assert [cfg.trials_per_point for cfg in seen] == [9007199254740993]
        assert run(argv + ["4611686018427387905"]) == 2
        assert "got 4611686018427387905" in capsys.readouterr().err
        for trials in ("999999.9995", "2.0000000001"):
            assert run(argv + [trials]) == 2
            assert capsys.readouterr().err.startswith("hdrelay: error: count must be a positive integer")
        assert len(seen) == 1


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
        path = tmp_path / "t.csv"
        emit(OUTAGE_COLUMNS, [asdict(row)], {"seed": 9}, "csv", str(path))
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
        buf = [render(["snr_db"], [{"snr_db": row.snr_db}], {"seed": 9}, f) for f in ("csv", "json")]
        again = [render(["snr_db"], [{"snr_db": row.snr_db}], {"seed": 9}, f) for f in ("csv", "json")]
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

    def test_huge_level_count_is_a_budget_error(self, capsys):
        # 3 * (1e300 + 1)^2 * bit_length(1e300 + 1) is over budget without being formed
        assert run(["exponent", "--relays", "1", "--oracle-step", "1e-300"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: budget exceeded")

    def test_analytic_is_the_closed_form_off_half_listen(self, capsys):
        code = run(["exponent", "--t", "0.3", "--r-grid", "0.5", "--oracle-step", "0.05", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["d_analytic"] == single_relay_dmt(0.5, 0.3) == (1 - 0.5) / (1 - 0.3)
        assert 0 <= doc["rows"][0]["d_oracle"] - doc["rows"][0]["d_analytic"] <= 3 * 0.05

    def test_analytic_cell_holds_the_closed_form_in_csv_off_half_listen(self, capsys):
        assert run(["exponent", "--relays", "1", "--t", "0.3", "--r-grid", "0.5", "--oracle-step", "0.05"]) == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert float(row["d_analytic"]) == single_relay_dmt(0.5, 0.3) and float(row["d_oracle"]) > 0


# JSON rows (r, d_analytic, d_oracle) of `exponent` as the one-region-per-call
# oracle wrote them, the batched search must give the same bytes, with
# d_analytic the closed form at every t; and (r, t_star, d_star) of
# `schedule-opt`, whose d_star is the closed form at t_star
PINNED_ROWS = {
    "exponent --relays 1 --t 0.5": [
        (0.0, 2.0, 2.0), (0.1, 1.8, 1.7999999999999998), (0.2, 1.6, 1.5999999999999999),
        (0.3, 1.4, 1.4), (0.4, 1.2, 1.1999999999999997), (0.5, 1.0, 1.0), (0.6, 0.8, 0.7999999999999998),
        (0.7, 0.6000000000000001, 0.5999999999999996), (0.8, 0.3999999999999999, 0.3999999999999999),
        (0.9, 0.19999999999999996, 0.19999999999999973), (1.0, 0.0, 0.0),
    ],
    "exponent --relays 1 --t 0.3": [
        (0.0, 2.0, 2.0), (0.1, 1.6666666666666665, 1.67), (0.2, 1.3333333333333333, 1.335), (0.3, 1.0, 1.0),
        (0.4, 0.8571428571428572, 0.8599999999999999), (0.5, 0.7142857142857143, 0.7149999999999999),
        (0.6, 0.5714285714285715, 0.5750000000000002), (0.7, 0.42857142857142866, 0.4299999999999997),
        (0.8, 0.28571428571428564, 0.29000000000000004), (0.9, 0.14285714285714282, 0.14500000000000002),
        (1.0, 0.0, 0.0),
    ],
    "exponent --relays 2": [
        (0.0, 3.0, 3.0), (0.1, 2.7, 2.7), (0.2, 2.4000000000000004, 2.4), (0.3, 2.0999999999999996, 2.1),
        (0.4, 1.7999999999999998, 1.7999999999999998), (0.5, 1.5, 1.5),
        (0.6, 1.2000000000000002, 1.2000000000000002), (0.7, 0.9000000000000001, 0.9499999999999997),
        (0.8, 0.5999999999999999, 0.5999999999999996), (0.9, 0.29999999999999993, 0.2999999999999998),
        (1.0, 0.0, 0.0),
    ],
    "exponent --relays 3 --oracle-step 0.1": [
        (0.0, 4.0, 4.0), (0.1, 3.6, 3.6), (0.2, 3.2, 3.2), (0.3, 2.8, 2.8), (0.4, 2.4, 2.4), (0.5, 2.0, 2.0),
        (0.6, 1.6, 1.6), (0.7, 1.2000000000000002, 1.2000000000000002),
        (0.8, 0.7999999999999998, 0.7999999999999998), (0.9, 0.3999999999999999, 0.3999999999999999),
        (1.0, 0.0, 0.0),
    ],
    "schedule-opt --r-grid 0.25,0.5 --t-step 0.25": [(0.25, 0.5, 1.5), (0.5, 0.5, 1.0)],
}

# exit code and stderr of each budget case, as the one-region-per-call oracle
# gave them: the budget prices one r's search; and the cap on schedule-opt's t grid
BUDGET_OUTCOMES = [
    ("exponent --relays 12", 2, "budget exceeded: 13 * 21^12 * bit_length(21) evaluations > 1000000000"),
    ("exponent --relays 1 --budget -1", 2, "budget exceeded: 3 * 201^2 * bit_length(201) evaluations > -1"),
    ("exponent --relays 1 --budget 969624", 0, ""),
    ("exponent --relays 1 --budget 969623", 2,
     "budget exceeded: 3 * 201^2 * bit_length(201) = 969624 evaluations > 969623"),
    ("exponent --relays 3 --r-grid 0.5 --oracle-step 0.1 --budget 1", 2,
     "budget exceeded: 4 * 11^3 * bit_length(11) evaluations > 1"),
    ("schedule-opt --r-grid 0.5 --t-step 1e-6", 2, "t_step 1e-06 gives 1000001 listen fractions, more than 10001"),
]


class TestBatchedExponentRows:
    @pytest.mark.parametrize("command", list(PINNED_ROWS))
    def test_rows_are_pinned(self, command, capsys):
        assert run([*command.split(), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [tuple(row.values()) for row in rows] == PINNED_ROWS[command]

    @pytest.mark.parametrize("command, code, message", BUDGET_OUTCOMES, ids=[c for c, *_ in BUDGET_OUTCOMES])
    def test_budget_outcomes(self, command, code, message, capsys):
        assert run([*command.split(), "--format", "json"]) == code
        err = capsys.readouterr().err
        assert err == (f"hdrelay: error: {message}\n" if message else "")

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--r-grid 0.2,0.4,1.5,0.6", "multiplexing gain r must lie in [0, 1], got 1.5"),
            ("--r-grid 0.2,nan,0.6", "multiplexing gain r must lie in [0, 1], got nan"),
            ("--relays 2 --r-grid 0.2,0.4,-0.5", "multiplexing gain r must lie in [0, 1], got -0.5"),
            ("--t 1.5 --r-grid 0.2,0.4", "listen fraction t must lie in [0, 1], got 1.5"),
        ],
    )
    def test_one_bad_value_in_the_grid_exits_2(self, flags, message, capsys):
        with patch.object(cli, "exponent_grid_oracle", side_effect=AssertionError("oracle called")):
            assert run(["exponent", *flags.split(), "--oracle-step", "0.05"]) == 2
        assert capsys.readouterr().err == f"hdrelay: error: {message}\n"


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
            (f"--miso {'9' * 400}", f"m_antennas must be <= 1.7976931348623157e+308, got {'9' * 400}"),
        ],
        ids=["decreasing-r", "repeated-r", "r-above-1", "miso-0", "miso-400-digits"],
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

    def test_slope_keeps_csv_metadata_that_is_not_json_as_text(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(["outage", "--r", "0.5", "--snr-db", "10:20:10", "--trials", "1e4",
                    "--seed", "5", "--output", str(out)]) == 0
        out.write_text("# note=edited by hand\n" + out.read_text(), encoding="utf-8")
        assert run(["slope", "--input", str(out), "--min-count", "1", "--format", "json"]) == 0
        source = json.loads(capsys.readouterr().out)["metadata"]["source"]
        assert source["note"] == "edited by hand" and source["seed"] == 5

    def test_slope_of_a_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert run(["slope", "--input", str(tmp_path / "no-such-table.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hdrelay: error: cannot read ") and captured.err.count("\n") == 1

    def test_slope_insufficient_data(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(
            ["outage", "--r", "0.0", "--snr-db", "10:20:10", "--trials", "100",
             "--seed", "5", "--output", str(out)]
        ) == 0
        assert run(["slope", "--input", str(out)]) == 2

    def test_workers_env_override(self, tmp_path, capsys, monkeypatch):
        # --workers is the one way to set the count; neither the environment nor the core count is
        # read, when the shared parser is built before the patch or when a parser is built under it
        shared = _build_parser()
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("HDRELAY_WORKERS", "x")
        for parser in (shared, _build_parser.__wrapped__()):
            assert parser.parse_args(["outage", "--r", "0.5", "--snr-db", "10", "--seed", "2"]).workers == 1
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100",
                    "--seed", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["workers"] == 1
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100",
                    "--seed", "2", "--workers", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["workers"] == 2
        assert run(["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100", "--seed", "2",
                    "--workers", "257"]) == 2
        assert capsys.readouterr().err.endswith("hdrelay: error: workers must be <= 256, got 257\n")

    def test_negative_grid_start_takes_the_equals_form(self, capsys):
        # argparse reads a separate "-10:0:10" as a flag, so a grid below 0 dB is one word
        argv = ["outage", "--r", "0.5", "--trials", "100", "--seed", "2", "--format", "json"]
        assert run([*argv, "--snr-db", "-10:0:10"]) == 2
        assert "argument --snr-db: expected one argument" in capsys.readouterr().err
        assert run([*argv, "--snr-db=-10:0:10"]) == 0
        assert [row["snr_db"] for row in json.loads(capsys.readouterr().out)["rows"]] == [-10.0, 0.0]

    def test_two_hop_model(self, capsys):
        assert run(["outage", "--model", "two-hop-zlb", "--relays", "2", "--r", "0.5",
                    "--snr-db", "10:20:10", "--trials", "1000", "--seed", "8",
                    "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["schedule"]["weights"] == [0.25, 0.25, 0.25, 0.25]


class TestScheduleOptCommand:
    def test_returns_half(self, capsys):
        assert run(["schedule-opt", "--r-grid", "0.75", "--t-step", "0.25"]) == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert float(row["t_star"]) == 0.5
        assert float(row["d_star"]) == 0.5

    def test_default_rows_are_the_miso_curve_without_the_oracle(self, capsys, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called")

        monkeypatch.setattr("hdrelay.dmt.exponent_grid_oracle", no_oracle)
        monkeypatch.setattr("hdrelay.cli.exponent_grid_oracle", no_oracle)
        assert run(["schedule-opt", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "oracle_step" not in doc["metadata"]
        assert [(row["t_star"], row["d_star"]) for row in doc["rows"]] == [
            (0.5, miso_dmt(2, k / 10)) for k in range(11)
        ]

    @pytest.mark.parametrize("flag", ["--oracle-step 0.05", "--budget 1000"])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        assert run(["schedule-opt", *flag.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    @pytest.mark.parametrize("t_step, t_star", [("0.3", 0.6), ("0.5", 0.5), ("1", 0.0)])
    def test_steps_up_to_one_take_the_grid_point_nearest_half(self, t_step, t_star, capsys):
        # the oracle's (0, 0.25] step range once bounded the t grid too
        assert run(["schedule-opt", "--t-step", t_step, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [tuple(row.values()) for row in doc["rows"]] == [
            (k / 10, t_star, single_relay_dmt(k / 10, t_star)) for k in range(11)
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("schedule-opt --t-step 1.5", "t_step must lie in (0, 1], got 1.5"),
            ("schedule-opt --t-step 0", "t_step must lie in (0, 1], got 0.0"),
            ("schedule-opt --t-step nan", "t_step must lie in (0, 1], got nan"),
            ("exponent --oracle-step 0.3", "step must lie in (0, 0.25], got 0.3"),
        ],
    )
    def test_steps_outside_their_range_are_usage_errors(self, argv, message, capsys):
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"hdrelay: error: {message}\n"

    def test_grid_cap_bounds_the_t_sweep(self, capsys, monkeypatch):
        def no_grid(step):
            raise AssertionError(f"grid of step {step} built")

        monkeypatch.setattr("hdrelay.dmt._unit_grid", no_grid)
        assert run(["schedule-opt", "--r-grid", "0.5", "--t-step", "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hdrelay: error: t_step 1e-06 gives 1000001 listen fractions, more than 10001\n"


class TestVerifyCommand:
    def test_avg_lemma_suite(self, capsys):
        assert run(["verify", "--kind", "avg-lemma", "--instances", "10000", "--seed", "7"]) == 0
        row = _read_csv(capsys.readouterr().out)[0]
        assert row["violations"] == "0"
        assert int(row["instances"]) == 10000

    def test_instances_accept_scientific_notation(self, capsys):
        assert run(["verify", "--kind", "tchebychef", "--instances", "1e4", "--seed", "1"]) == 0
        assert int(_read_csv(capsys.readouterr().out)[0]["instances"]) == 10_000

    @pytest.mark.parametrize("count", ["2.5", "0", "inf", "999999.9995"])
    def test_bad_instance_counts_are_usage_errors(self, count, capsys):
        assert run(["verify", "--kind", "tchebychef", "--instances", count, "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: count must be a positive integer")

    @pytest.mark.parametrize("count", ["1e20", "18446744073709551617"])
    def test_more_instances_than_streams_is_a_usage_error_before_any_draw(self, count, capsys, monkeypatch):
        # 2^64 + 1, read as a float, would round to 2^64 and pass
        def no_draw(*args):
            raise AssertionError("instances drawn")

        monkeypatch.setattr("hdrelay.lemmas.uniforms_for_streams", no_draw)
        assert run(["verify", "--kind", "cut-avg", "--instances", count, "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("hdrelay: error: n_instances must lie in [1, 2^64]")

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
             "outage_count", [1353, 407, 71]),
            ("outage --model two-hop-zlb --relays 2 --weights 0.1,0.2,0.3,0.4 --gap-bits 0.5 "
             "--r 0.5 --snr-db 10:20:10 --trials 5000 --seed 3 --workers 2",
             "outage_count", [695, 104]),
            ("exponent --relays 1 --t 0.3 --r-grid 0.2,0.6 --oracle-step 0.05",
             "d_oracle", [1.35, 0.5999999999999996]),
            ("exponent --relays 2 --r-grid 0.1,0.3 --oracle-step 0.05",
             "d_analytic", [2.7, 2.0999999999999996]),
            ("curves --miso 2 --r-grid 0:1:0.25", "d", [2.0, 1.5, 1.0, 0.5, 0.0]),
            ("curves --miso 2 --r-grid 0.3,0.7", "d", [1.4, 0.6000000000000001]),
            ("curves --miso 3 --r-grid 0.1,0.3,0.9", "d",
             [2.7, 2.0999999999999996, 0.29999999999999993]),
            ("verify --kind avg-lemma --instances 5 --seed 7 --max-len 16",
             "worst_margin", [1.8804357568813437]),
            ("outage --model two-hop-zlb --relays 6 --r 0.75 --snr-db 10:30:10 --trials 8192 --seed 1",
             "outage_count", [66, 5, 0]),
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
            ("schedule-opt", ["--r-grid", "--t-step", "--format", "--output"]),
            ("curves", ["--miso", "--r-grid", "--format", "--output"]),
            ("verify", ["--kind", "--instances", "--seed", "--max-len", "--max-relays", "--format", "--output"]),
        ]:
            assert run([sub, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (sub, flag)
            if sub == "schedule-opt":
                assert "--oracle-step" not in text and "--budget" not in text

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
            ([0.0, 100.0], "snr_linear must be > 0, got 0.0"),
            ([10.0, math.inf], "snr_linear must be finite, got inf"),
        ],
        ids=["one-snr-three-rows", "one-snr-two-rows", "zero-snr", "infinite-snr"],
    )
    def test_degenerate_slope_tables_are_usage_errors(self, snr_linear, expected, tmp_path, capsys):
        # each finite, positive row's snr_db matches its snr_linear, so only the named check fires
        rows = [
            {"snr_db": 10.0 * math.log10(snr) if 0.0 < snr < math.inf else 10.0 * k,
             "snr_linear": snr, "rate_bits": 1.0, "trials": 1000,
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

    @pytest.mark.parametrize(
        "row, column, value, expected",
        [
            (1, "snr_db", 55.0, "snr_linear must be 10^(snr_db/10), got 10.0 at 55.0 dB"),
            (2, "rate_bits", -3.0, "rate_bits must be r * log2(snr_linear) for an r in [0, 1], got -3.0"),
        ],
        ids=["snr-db-off-snr-linear", "rate-below-zero"],
    )
    def test_row_that_contradicts_itself_is_usage_error(self, row, column, value, expected, tmp_path, capsys):
        path = tmp_path / "table.json"
        assert run(["outage", "--r", "0.5", "--snr-db", "0:20:10", "--trials", "20000", "--seed", "1",
                    "--format", "json", "--output", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["rows"][row][column] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["slope", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hdrelay: error: ") and expected in captured.err

    def test_p_hat_that_contradicts_the_counts_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(",".join(OUTAGE_COLUMNS) + "\n"
                        "10.0,10.0,1.0,100,50,0.0,0.0,1.0\n"
                        "20.0,100.0,1.0,100,10,0.1,0.0,1.0\n", encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p_hat must equal outage_count / trials, got 0.0" in captured.err

    @pytest.mark.parametrize(
        "fmt, column, cell",
        [("json", "snr_db", "NaN"), ("json", "rate_bits", "NaN"), ("json", "ci_high", "Infinity"),
         ("json", "ci_low", "-Infinity"), ("csv", "snr_db", "nan"), ("csv", "rate_bits", "inf")],
    )
    def test_non_finite_float_cells_are_usage_errors(self, fmt, column, cell, tmp_path, capsys):
        # Python's json reads NaN and Infinity, and float() reads nan and inf: a fit took them
        path = tmp_path / f"table.{fmt}"
        assert run(["outage", "--r", "0.5", "--snr-db", "0:20:10", "--trials", "20000", "--seed", "1",
                    "--format", fmt, "--output", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        if fmt == "json":
            doc = json.loads(text)
            doc["rows"][1][column] = float(cell)
            path.write_text(json.dumps(doc), encoding="utf-8")
        else:
            lines = text.splitlines()
            header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
            cells = lines[header + 2].split(",")
            cells[OUTAGE_COLUMNS.index(column)] = cell
            lines[header + 2] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hdrelay: error: {str(path)!r} is not an outage table: {column} must be finite")

    @pytest.mark.parametrize(
        "column, cell",
        [("trials", "1000.7"), ("outage_count", "true"), ("trials", "Infinity"), ("trials", "1e400"),
         ("trials", "NaN"), ("trials", '"1000"'), ("outage_count", "null")],
    )
    def test_inexact_json_counts_are_usage_errors(self, column, cell, tmp_path, capsys):
        # a JSON count is an integer, not a bool, or an integral finite float: int() would read 1000.7
        # as 1000 and true as 1, and raise OverflowError (exit 1) on Infinity and 1e400
        rows = [
            {"snr_db": 10.0 * k, "snr_linear": 10.0 ** k, "rate_bits": 1.0, "trials": 1000,
             "outage_count": 10 ** (3 - k), "p_hat": 10 ** (3 - k) / 1000, "ci_low": 0.0, "ci_high": 1.0}
            for k in (1, 2)
        ]
        path = tmp_path / "table.json"
        text = json.dumps({"metadata": {}, "rows": rows})
        path.write_text(text.replace(f'"{column}": {rows[0][column]}', f'"{column}": {cell}', 1), encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an outage table" in captured.err and "is not an integer" in captured.err
        path.write_text(text.replace('"trials": 1000', '"trials": 1e3'), encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 0  # integral floats are counts

    @pytest.mark.parametrize("column, cell", [("snr_db", "true"), ("snr_linear", '"1e2"'), ("rate_bits", "null")])
    def test_non_number_json_floats_are_usage_errors(self, column, cell, tmp_path, capsys):
        # a JSON float column takes an int or a float: float() would read true as 1.0 and "1e2" as 100.0
        rows = [
            {"snr_db": 10 * k, "snr_linear": 10.0 ** k, "rate_bits": 1.0, "trials": 1000,
             "outage_count": 10 ** (3 - k), "p_hat": 10 ** (3 - k) / 1000, "ci_low": 0.0, "ci_high": 1.0}
            for k in (1, 2)
        ]
        path = tmp_path / "table.json"
        text = json.dumps({"metadata": {}, "rows": rows})
        path.write_text(text.replace(f'"{column}": {rows[1][column]}', f'"{column}": {cell}', 1), encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an outage table" in captured.err and "is not a number" in captured.err
        path.write_text(text, encoding="utf-8")  # snr_db is the JSON integer 20
        snr_db = [row.snr_db for row in cli._read_table(str(path))[0]]
        assert snr_db == [10.0, 20.0] and all(type(v) is float for v in snr_db)
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 0
        # an integer beyond the float range raised OverflowError (exit 1)
        path.write_text(text.replace('"snr_db": 20', '"snr_db": 1' + "0" * 400), encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        assert "is not an outage table: int too large to convert to float" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["1000.7", "1000.0", "1e3", "inf", "true", ""])
    def test_non_integer_csv_counts_are_usage_errors(self, cell, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(",".join(OUTAGE_COLUMNS) + "\n"
                        f"10.0,10.0,1.0,{cell},10,0.01,0.0,1.0\n"
                        "20.0,100.0,1.0,1000,1,0.001,0.0,1.0\n", encoding="utf-8")
        assert run(["slope", "--input", str(path), "--min-count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "is not an outage table" in captured.err

    @pytest.mark.parametrize("indent", [None, 2])
    def test_a_bare_json_array_of_rows_is_not_an_outage_table(self, indent, tmp_path, capsys):
        # read as one-line CSV, a one-line array blamed the data ("insufficient data"),
        # and an indented one read "is not an outage table: 'snr_db'"
        path = tmp_path / "rows.json"
        assert run(["outage", "--r", "0.5", "--snr-db", "0:20:10", "--trials", "20000", "--seed", "1",
                    "--format", "json", "--output", str(path)]) == 0
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        path.write_text(json.dumps(rows, indent=indent), encoding="utf-8")
        assert run(["slope", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"hdrelay: error: {str(path)!r} is not an outage table: "
                                "expected an object with 'rows', got a JSON array\n")

    @pytest.mark.parametrize(
        "name, text, reason",
        [
            ("empty.csv", "", "the CSV header lacks one of"),
            ("blank.csv", "\n  \n", "the CSV header lacks one of"),
            ("partial.csv", "snr_db,trials\n10.0,1000\n", "the CSV header lacks one of"),
            ("object.json", "{}", "expected an object with 'rows', got an object without it"),
            ("metadata.json", '{"metadata": {"seed": 1}}', "expected an object with 'rows', got an object without it"),
        ],
    )
    def test_a_file_that_holds_no_table_is_not_an_outage_table(self, name, text, reason, tmp_path, capsys):
        # each of these read as an empty table, and the fit blamed the data ("insufficient data")
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert run(["slope", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hdrelay: error: {str(path)!r} is not an outage table: {reason}")

    @pytest.mark.parametrize(
        "name, text",
        [("rows.json", '{"rows": []}'), ("header.csv", "# seed=1\n" + ",".join(OUTAGE_COLUMNS) + "\n")],
    )
    def test_a_table_without_rows_reads_as_empty(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli._read_table(str(path))[0] == ()
        assert run(["slope", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hdrelay: error: insufficient data: need >= 2 rows with outage_count >= 50, got 0\n"

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

    def test_single_relay_model_takes_one_relay(self, capsys):
        assert run(["outage", "--relays", "2", "--r", "0.5", "--snr-db", "10", "--trials", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hdrelay: error: --model single-relay-ub requires --relays 1\n"

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
            ("exponent --relays 0 --r-grid 0.5", "n_relays must lie in [1, 12], got 0"),
            ("exponent --relays 5000 --r-grid 0.5", "n_relays must lie in [1, 12], got 5000"),
            ("slope --min-count 0", "min_count must be >= 1, got 0"),
            ("outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --workers 0", "workers must be >= 1, got 0"),
            ("outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --workers 257", "workers must be <= 256, got 257"),
            # checked before the 2^N uniform weights are built (2^40 of them raised MemoryError)
            ("outage --model two-hop-zlb --relays 40 --r 0.5 --snr-db 10 --trials 10 --seed 1",
             "n_relays must lie in [1, 12], got 40"),
            ("outage --model two-hop-zlb --relays -1 --r 0.5 --snr-db 10 --trials 10 --seed 1",
             "n_relays must lie in [1, 12], got -1"),
        ],
        ids=["relays-0", "relays-5000", "min-count-0", "workers-0", "workers-257", "two-hop-relays-40", "two-hop-relays-neg"],
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

    @pytest.mark.parametrize(
        "argv",
        ["exponent --oracle-step 5e-324", "exponent --oracle-step 1e-310", "schedule-opt --t-step 5e-324",
         "schedule-opt --r-grid 0.5 --t-step 1e-320"],
    )
    def test_subnormal_grid_steps_are_usage_errors(self, argv, capsys):
        # 1 / step is inf, which math.floor turned into OverflowError (exit 1)
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hdrelay: error: ") and "has no finite level count" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "exponent --r-grid 0.5 --relays N",
            "exponent --r-grid 0.5 --budget N",
            "schedule-opt --r-grid 0.5 --t-step N",
            "outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --relays N",
            "outage --model two-hop-zlb --r 0.5 --snr-db 10 --trials 10 --seed 1 --relays N",
            "outage --r 0.5 --snr-db 10 --trials 10 --seed N",
            "outage --r 0.5 --snr-db 10 --trials 10 --seed 1 --workers N",
            "slope --min-count N",
            "curves --miso N",
            "verify --kind cut-avg --instances 10 --seed N",
            "verify --kind avg-lemma --instances 10 --seed 1 --max-len N",
            "verify --kind cut-avg --instances 10 --seed 1 --max-relays N",
        ],
    )
    def test_huge_integer_flags_never_exit_1(self, argv, tmp_path):
        # a 400-digit int has no float value: a check that converts it raised OverflowError
        words = argv.replace("N", "9" * 400).split()
        if argv.startswith("slope"):
            words += ["--input", str(tmp_path / "t.csv")]
            assert run(["outage", "--r", "0.5", "--snr-db", "10:20:10", "--trials", "100",
                        "--seed", "1", "--output", words[-1]]) == 0
        assert run(words) in (0, 2)

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


class TestSharedParser:
    """`run` builds one parser per process; no run may leave state for the next."""

    EXPONENT = ["exponent", "--r-grid", "0.2,0.7", "--format", "json"]

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_runs_in_sequence_leave_nothing_behind(self, capsys):
        sequence = [
            (self.EXPONENT, 0),
            (["outage", "--r", "0.9", "--trials", "7", "--seed", "5", "--workers", "2", "--snr-db"], 2),
            (["outage", "--help"], 0),
            (["--version"], 0),
            (["outage", "--r", "0.5", "--snr-db", "10", "--trials", "100", "--seed", "2", "--format", "json"], 0),
            (["verify", "--kind", "cut-avg", "--instances", "100", "--seed", "3", "--format", "json"], 0),
            (self.EXPONENT, 0),
        ]
        captured = []
        for argv, code in sequence:
            assert run(argv) == code, argv
            captured.append(capsys.readouterr())
        assert captured[1].out == "" and "argument --snr-db: expected one argument" in captured[1].err
        assert captured[2].out.startswith("usage: hdrelay outage") and captured[2].err == ""
        assert captured[3].out == f"hdrelay {__version__}\n"
        docs = {k: json.loads(captured[k].out) for k in (0, 4, 5, 6)}
        for k, doc in docs.items():
            assert doc["metadata"]["command"] == "hdrelay " + shlex.join(sequence[k][0])
        assert docs[6]["rows"] == docs[0]["rows"]
        # nothing of the failed outage's flags reaches the next outage
        meta = docs[4]["metadata"]
        assert (meta["r"], meta["trials_per_point"], meta["seed"], meta["workers"]) == (0.5, 100, 2, 1)

    def test_concurrent_runs_match_serial_runs(self, tmp_path):
        commands = [
            self.EXPONENT,
            ["exponent", "--relays", "2", "--r-grid", "0:1:0.5", "--format", "json"],
            ["outage", "--model", "two-hop-zlb", "--relays", "2", "--r", "0.5", "--snr-db", "0:20:10",
             "--trials", "500", "--seed", "9", "--format", "json"],
            ["verify", "--kind", "cut-avg", "--instances", "200", "--seed", "4", "--max-relays", "3",
             "--format", "json"],
            ["curves", "--miso", "3", "--r-grid", "0:1:0.25", "--format", "json"],
        ]
        reps = 3

        def rows(argv, path):
            return run([*argv, "--output", str(path)]), json.loads(path.read_text())["rows"]

        serial = [rows(argv, tmp_path / f"serial-{i}.json") for i, argv in enumerate(commands)]
        results = [[] for _ in commands]  # stdout is process-wide, so each run writes its own file

        def worker(i):
            for rep in range(reps):
                results[i].append(rows(commands[i], tmp_path / f"thread-{i}-{rep}.json"))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(commands))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected] * reps for expected in serial]


class TestCommandTables:
    """Handlers return (columns, rows, metadata); `run` adds the base keys, writes the
    table once and picks the exit code."""

    COMMANDS = [
        "exponent --relays 2 --r-grid 0.5 --oracle-step 0.1",
        "outage --r 0.5 --snr-db 10:20:10 --trials 1000 --seed 3",
        "slope --min-count 1",
        "schedule-opt --r-grid 0.5 --t-step 0.25",
        "curves --miso 2 --r-grid 0:1:0.5",
        "verify --kind avg-lemma --instances 100 --seed 2",
    ]
    BASE = ["tool", "version", "command", "timestamp"]

    @pytest.fixture
    def argvs(self, tmp_path):
        table = tmp_path / "table.csv"
        assert run(["outage", "--r", "0.5", "--snr-db", "10:30:10", "--trials", "2000", "--seed", "1",
                    "--output", str(table)]) == 0
        return [c.split() + (["--input", str(table)] if c.startswith("slope") else []) for c in self.COMMANDS]

    def test_handlers_return_tables_and_write_nothing(self, argvs, capsys):
        capsys.readouterr()
        for argv in argvs:
            args = _build_parser().parse_args(argv)
            columns, rows, metadata = args.handler(args)
            assert capsys.readouterr() == ("", "")
            assert rows and all(list(row) == columns for row in rows), argv
            assert not {"tool", "command", "timestamp"} & set(metadata), argv

    def test_metadata_starts_with_the_base_keys(self, argvs, capsys):
        keys = []
        for argv in argvs:
            assert run(argv + ["--format", "json"]) == 0
            meta = json.loads(capsys.readouterr().out)["metadata"]
            assert meta["command"] == "hdrelay " + shlex.join(argv + ["--format", "json"])
            keys.append(list(meta))
        assert all(k[:4] == self.BASE for k in keys)
        # outage's own keys follow in the campaign's order, then workers
        assert keys[1][4:7] == ["generator", "seed", "model"] and keys[1][-1] == "workers"

    def test_rows_that_report_violations_exit_3_after_the_table_is_written(self, tmp_path, capsys, monkeypatch):
        fake = VerificationReport(kind=CheckKind.CUT_AVG, instances=9, violations=4, worst_margin=-1.0, seed=5)
        monkeypatch.setattr("hdrelay.cli.run_randomized_suite", lambda *a, **k: fake)
        out = tmp_path / "report.json"
        assert run(["verify", "--kind", "cut-avg", "--instances", "9", "--seed", "5",
                    "--format", "json", "--output", str(out)]) == 3
        assert capsys.readouterr() == ("", "verification failed: 4 violations\n")
        assert json.loads(out.read_text())["rows"] == [
            {"kind": "cut-avg", "instances": 9, "violations": 4, "worst_margin": -1.0, "seed": 5}
        ]
