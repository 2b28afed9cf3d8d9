"""Tests of the benchmark itself: each output check can fail, and the
self-time arithmetic of the tracer is right across threads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import bench
from spans import Span, Tracer, layer_summary, self_times

hdrelay = bench.import_hdrelay()

SMALL_SINGLE = replace(
    bench.WORKLOADS["campaign-single"], argv=bench.campaign_argv(bench.SINGLE_ARGS, 4000, 1)
)
COARSE_STEP = 0.05
SMALL_EXPONENT = replace(
    bench.WORKLOADS["exponent-sweep"],
    argv=lambda seed: ["exponent", "--relays", "1", "--r-grid", "0.2,0.7",
                       "--oracle-step", str(COARSE_STEP), "--format", "json"],
)


def tampering(edit, on_calls):
    """hdrelay.cli.run whose JSON output is passed through `edit` on the given calls (1-based)."""
    calls = []

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = hdrelay.cli.run(argv)
        calls.append(argv)
        doc = json.loads(buf.getvalue())
        if len(calls) in on_calls:
            edit(doc)
        sys.stdout.write(json.dumps(doc))
        return code

    return run


def error_rate(workload, cli_run):
    tally = bench.Tally()
    bench.measure_plain(cli_run, workload, seed=5, seconds=0.0, tally=tally)
    return tally.failed / tally.attempted, tally


def test_untampered_passes_have_no_errors():
    for workload in (SMALL_SINGLE, SMALL_EXPONENT):
        rate, tally = error_rate(workload, hdrelay.cli.run)
        assert rate == 0.0, tally.failures
        assert tally.attempted == 1 + bench.MIN_PASSES


def test_count_changed_between_passes_raises_error_rate():
    def bump(doc):
        doc["rows"][2]["outage_count"] += 1

    rate, tally = error_rate(SMALL_SINGLE, tampering(bump, on_calls={3}))
    assert tally.failed == 1 and rate == pytest.approx(1 / (1 + bench.MIN_PASSES))
    assert "differ from the first pass" in tally.failures[0]


def test_count_far_from_reference_raises_error_rate():
    def triple(doc):
        doc["rows"][0]["outage_count"] *= 3

    rate, tally = error_rate(SMALL_SINGLE, tampering(triple, on_calls=set(range(1, 10))))
    assert rate == 1.0
    assert all("z = " in failure for failure in tally.failures)


def test_exponent_outside_dim_step_raises_error_rate():
    def shift(doc):
        doc["rows"][1]["d_oracle"] += 3 * COARSE_STEP + 1e-3

    rate, tally = error_rate(SMALL_EXPONENT, tampering(shift, on_calls={2}))
    assert tally.failed == 1 and rate > 0.0
    assert "is not within" in tally.failures[0]


def test_exponent_check_accepts_the_dim_step_band():
    doc = {"metadata": {"oracle_step": 0.01}, "rows": [{"r": 0.5, "d_oracle": 1.0 + 0.029}]}
    assert bench.check_exponent(doc, None, {}) == []
    doc["rows"][0]["d_oracle"] = 1.0 - 0.031
    assert bench.check_exponent(doc, None, {}) != []


def test_verify_violation_fails_the_check():
    row = {"kind": "cut-avg", "instances": bench.VERIFY_INSTANCES, "violations": 0}
    assert bench.check_verify({"rows": [row]}, None, {}) == []
    assert bench.check_verify({"rows": [dict(row, violations=2)]}, None, {}) != []


def test_nonzero_exit_is_a_failure():
    rate, tally = error_rate(SMALL_SINGLE, lambda argv: 1)
    assert rate == 1.0


def test_self_times_on_nested_spans_across_two_threads():
    # root on thread A; two children on threads B and C overlapping in
    # [2, 5]; a grandchild nested inside the child on B
    spans = [
        Span(1, None, "montecarlo", thread=10, start=0.0, end=10.0),
        Span(2, 1, "cutset", thread=11, start=1.0, end=5.0),
        Span(3, 1, "cutset", thread=12, start=2.0, end=8.0),
        Span(4, 2, "rng", thread=11, start=2.0, end=3.5, work={"rng.words": 6.0}),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 7.0, 2: 4.0 - 1.5, 3: 6.0, 4: 1.5})
    busy, work, work_busy = layer_summary(spans)
    assert busy == pytest.approx({"montecarlo": 3.0, "cutset": 8.5, "rng": 1.5})
    # busy time summed over threads exceeds the 10 s of wall time
    assert sum(busy.values()) == pytest.approx(13.0)
    assert work == {"rng.words": 6.0} and work_busy == pytest.approx({"rng.words": 1.5})


def test_pool_spans_take_the_submitting_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: x, "rng")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap(fan_out, "montecarlo")() == [0, 1, 2, 3]
    root = next(s for s in tracer.spans if s.layer == "montecarlo")
    leaves = [s for s in tracer.spans if s.layer == "rng"]
    assert len(leaves) == 4 and all(s.parent == root.id for s in leaves)
    assert all(s.thread != threading.get_ident() for s in leaves)
    assert all(t >= 0.0 for t in self_times(tracer.spans).values())


def test_traced_passes_count_work_and_restore_the_package():
    import hdrelay.montecarlo

    original = hdrelay.montecarlo.sample_gain_arrays
    tally = bench.Tally()
    layers, plain, traced = bench.measure_traced(hdrelay.cli.run, SMALL_SINGLE, 5, 0.0, tally)
    assert tally.failed == 0 and len(traced) == len(plain) == bench.MIN_PASSES
    assert hdrelay.montecarlo.sample_gain_arrays is original
    assert set(layers["montecarlo.tasks"]) == {7.0}  # 7 SNR points of one 4000-trial chunk
    assert set(layers["lemmas.instances"]) == {0.0}
    assert min(layers["rng.self_s"]) > 0.0 and min(layers["rng.share"]) > 50.0

    layers, _, _ = bench.measure_traced(hdrelay.cli.run, SMALL_EXPONENT, 5, 0.0, tally)
    assert tally.failed == 0
    assert set(layers["dmt.oracle_calls"]) == {2.0}
    assert set(layers["dmt.points_evaluated"]) == set(layers["dmt.grid_points"]) == {2.0 * 21**3}
