"""Outage Monte Carlo: events, determinism, intervals, and slope fits."""

import math
import threading
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from hdrelay import channel, montecarlo
from hdrelay.channel import MAX_TRIALS, sample_gain_arrays
from hdrelay.cli import run
from hdrelay.cutset import SingleRelaySchedule, TwoHopSchedule, _min_cut_floor, link_capacities
from hdrelay.montecarlo import (
    OutageRow,
    RunConfig,
    _count_outages,
    _counts_per_point,
    confidence_interval,
    db_to_linear,
    estimate_diversity_slope,
    estimate_outage,
)
from hdrelay.rng import GENERATOR_NAME


def _single_cfg(**overrides):
    base = dict(
        schedule=SingleRelaySchedule(0.5),
        r=0.75,
        snr_db_grid=(10.0, 20.0, 30.0),
        trials_per_point=20_000,
        seed=77,
        gap_bits=0.0,
    )
    base.update(overrides)
    return RunConfig(**base)


def in_outage(g_sd, g_sr, g_rd, snr, rate_bits, schedule, gap_bits=0.0):
    """The campaign's outage test on one realization: `_counts_per_point` on a batch of one row."""
    batch = (np.array([g_sd]), np.array([g_sr]), np.array([g_rd]))
    return bool(_counts_per_point(schedule, *batch, [1], [snr], [rate_bits], gap_bits)[0])


class TestOutageEvent:
    def test_zero_rate_never_in_outage(self):
        assert not in_outage(0.5, [0.0], [0.0], 10.0, 0.0, SingleRelaySchedule(0.5))

    def test_dead_channel_always_in_outage(self):
        assert in_outage(0.0, [0.0], [0.0], 10.0, 0.1, SingleRelaySchedule(0.5))

    def test_threshold_case(self):
        # bound at unit gains, snr 1, t 0.5 is 0.5*log2(3) + 0.5 = 1.2925
        sched = SingleRelaySchedule(0.5)
        assert in_outage(1.0, [1.0], [1.0], 1.0, 1.3, sched)
        assert not in_outage(1.0, [1.0], [1.0], 1.0, 1.29, sched)

    def test_gap_shifts_event(self):
        sched = SingleRelaySchedule(0.5)
        assert not in_outage(1.0, [1.0], [1.0], 1.0, 1.0, sched, gap_bits=0.0)
        assert in_outage(1.0, [1.0], [1.0], 1.0, 1.0, sched, gap_bits=0.5)

    def test_realization_relays_must_match_schedule(self):
        with pytest.raises(ValueError, match="gain arrays have 1 relays"):
            in_outage(1.0, [1.0], [1.0], 1.0, 1.0, TwoHopSchedule.uniform(2))
        with pytest.raises(ValueError, match="gain arrays have 2 relays"):
            in_outage(1.0, [1.0, 1.0], [1.0, 1.0], 1.0, 1.0, TwoHopSchedule.uniform(3))

    def test_cleared_rows_skip_the_min_cut(self, monkeypatch):
        # the kernel sees only the rows `_min_cut_floor` leaves below each point's
        # rate, in one call for all points, and is still called when none are left,
        # so it checks the relay count
        kernel, seen = montecarlo.two_hop_bound_array, []

        def recording(g_sd, *args):
            seen.append(g_sd.shape[0])
            return kernel(g_sd, *args)

        monkeypatch.setattr(montecarlo, "two_hop_bound_array", recording)
        rng = np.random.default_rng(5)
        gains = rng.exponential(size=64), rng.exponential(size=(64, 2)), rng.exponential(size=(64, 2))
        schedule = TwoHopSchedule.uniform(2)
        floor = _min_cut_floor(*link_capacities(*gains, 100.0), schedule.weights)
        rate = float(np.median(floor))
        counts = _counts_per_point(schedule, *gains, [64, 40], [100.0, 100.0], [rate, 2.0 * rate], 0.0)
        _counts_per_point(schedule, *gains, [64], [100.0], [0.0], 0.0)
        assert seen == [np.count_nonzero(floor < rate) + np.count_nonzero(floor[:40] < 2.0 * rate), 0]
        bound = kernel(*gains, 100.0, schedule)
        assert counts.tolist() == [np.count_nonzero(bound < rate), np.count_nonzero(bound[:40] < 2.0 * rate)]
        with pytest.raises(ValueError, match="gain arrays have 1 relays"):
            in_outage(1.0, [1.0], [1.0], 1.0, 0.0, schedule)

    def test_min_cut_rows_of_the_two_hop_benchmark_campaign(self, monkeypatch):
        # N=6, r=0.75, 10/20/30 dB, 8,192 trials: the direct link and the min-cut floor
        # leave at most 600 of 24,576 (trial, point) pairs to the kernel (395 at seed 1, and
        # 4,238 under the floor 2^N (n_sd + sum h) / (N+1)), so a floor that falls back to a
        # weaker bound shows; the 8,192 trials fit one task, so the kernel runs once
        kernel, seen = montecarlo.two_hop_bound_array, []

        def recording(g_sd, *args):
            seen.append(g_sd.shape[0])
            return kernel(g_sd, *args)

        monkeypatch.setattr(montecarlo, "two_hop_bound_array", recording)
        cfg = RunConfig(TwoHopSchedule.uniform(6), 0.75, (10.0, 20.0, 30.0), 8192, seed=1)
        table, _ = estimate_outage(cfg, workers=1)
        assert [row.outage_count for row in table] == [66, 5, 0]
        assert len(seen) == 1 and sum(seen) <= 600


class TestRunConfigValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            _single_cfg(snr_db_grid=(10.0, 10.0))
        with pytest.raises(ValueError):
            _single_cfg(snr_db_grid=())

    def test_trials_and_gap(self):
        with pytest.raises(ValueError):
            _single_cfg(trials_per_point=0)
        with pytest.raises(ValueError):
            _single_cfg(trials_per_point=MAX_TRIALS + 1)
        with pytest.raises(ValueError):
            _single_cfg(gap_bits=-0.1)

    def test_trials_must_fit_the_stream_space(self):
        # trial k < 2^62 keys relay stream 2^63 + k, so 2^62 trials per point fit and one more
        # does not; the grid has no cap of its own, since every point shares the trials
        assert _single_cfg(trials_per_point=MAX_TRIALS).trials_per_point == 2**62
        with pytest.raises(ValueError, match=r"must lie in \[1, 2\*\*62\], got 4611686018427387905"):
            _single_cfg(trials_per_point=2**62 + 1)
        # the sampler takes the same check: a trial past it would alias a relay stream
        with pytest.raises(ValueError, match=r"<= 2\*\*62"):
            sample_gain_arrays(1, 5, MAX_TRIALS, MAX_TRIALS + 1)
        grid = tuple(float(db) for db in range(-2000, 2001))  # 4,001 points
        table, _ = estimate_outage(_single_cfg(snr_db_grid=grid, trials_per_point=3))
        assert [row.snr_db for row in table] == list(grid)
        assert run(["outage", "--snr-db", "10:30:10", "--trials", str(2**62 + 1), "--seed", "1"]) == 2

    def test_non_finite_values_rejected(self):
        for overrides in (
            dict(gap_bits=math.nan),
            dict(gap_bits=math.inf),
            dict(snr_db_grid=(math.nan,)),
            dict(snr_db_grid=(math.inf,)),
            dict(snr_db_grid=(10.0, math.nan)),
            dict(snr_db_grid=(-4000.0,)),  # linear SNR underflows to 0
            dict(snr_db_grid=(10.0, 4000.0)),  # and overflows to inf
            dict(r=math.nan),
        ):
            with pytest.raises(ValueError):
                _single_cfg(**overrides)

    def test_seed_must_fit_64_bits(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                _single_cfg(seed=seed)
        assert _single_cfg(seed=0).seed == 0 and _single_cfg(seed=2**64 - 1).seed == 2**64 - 1

    def test_schedule_names_model_and_relay_count(self):
        for schedule, model, n_relays in [
            (SingleRelaySchedule(0.5), "single-relay-ub", 1),
            (TwoHopSchedule.uniform(1), "two-hop-zlb", 1),
            (TwoHopSchedule.uniform(3), "two-hop-zlb", 3),
        ]:
            _, meta = estimate_outage(_single_cfg(schedule=schedule, trials_per_point=10))
            assert (meta["model"], meta["n_relays"]) == (model, n_relays)


class TestEstimateOutage:
    def test_direct_uniform_threshold_past_the_float_range(self):
        # at -3000 dB the rate is below -gap, so no trial is in outage, and with a gap of
        # 1e308 every trial is; math.expm1 would raise OverflowError on either threshold
        for schedule in (SingleRelaySchedule(0.5), TwoHopSchedule.uniform(3)):
            low, _ = estimate_outage(RunConfig(schedule, 0.5, (-3000.0,), 100, 1))
            high, _ = estimate_outage(RunConfig(schedule, 0.5, (10.0,), 100, 1, 1e308))
            assert (low[0].outage_count, high[0].outage_count) == (0, 100)

    def test_zero_rate_gives_zero_outage(self):
        table, _ = estimate_outage(_single_cfg(r=0.0, trials_per_point=5_000))
        assert all(row.outage_count == 0 for row in table)
        assert all(row.p_hat == 0.0 for row in table)

    def test_deterministic_rerun(self):
        a, _ = estimate_outage(_single_cfg(trials_per_point=1), workers=1)
        b, _ = estimate_outage(_single_cfg(trials_per_point=1), workers=1)
        assert a == b

    def test_worker_count_invariance_across_chunks(self):
        # trials span several fixed chunks so the partition is exercised
        cfg = _single_cfg(trials_per_point=150_000, snr_db_grid=(10.0, 25.0))
        counts = {
            w: [row.outage_count for row in estimate_outage(cfg, workers=w)[0]]
            for w in (1, 3, 8)
        }
        assert counts[1] == counts[3] == counts[8]

    def test_rate_monotonicity_with_shared_realizations(self):
        low, _ = estimate_outage(_single_cfg(r=0.3))
        high, _ = estimate_outage(_single_cfg(r=0.6))
        for a, b in zip(low, high):
            assert b.outage_count >= a.outage_count

    def test_gap_monotonicity_with_shared_realizations(self):
        base, _ = estimate_outage(_single_cfg())
        gapped, _ = estimate_outage(_single_cfg(gap_bits=0.5))
        for a, b in zip(base, gapped):
            assert b.outage_count >= a.outage_count

    def test_rate_column_and_metadata(self):
        cfg = _single_cfg(trials_per_point=100)
        table, metadata = estimate_outage(cfg)
        for row, snr_db in zip(table, cfg.snr_db_grid):
            snr = float(db_to_linear(snr_db))
            assert row.snr_linear == pytest.approx(snr)
            assert row.rate_bits == pytest.approx(cfg.r * math.log2(snr))
        assert metadata["seed"] == cfg.seed
        assert metadata["generator"] == GENERATOR_NAME
        assert metadata["model"] == "single-relay-ub"

    def test_matches_independent_simulation(self):
        # same bound evaluated with numpy's own generator; agreement is
        # statistical, not bitwise
        cfg = _single_cfg(trials_per_point=100_000, snr_db_grid=(15.0,), r=0.6, seed=5)
        mine = estimate_outage(cfg)[0][0].p_hat
        rng = np.random.default_rng(999)
        rho = 10 ** 1.5
        rate = 0.6 * math.log2(rho)
        g_sd, g_sr, g_rd = (rng.exponential(size=200_000) for _ in range(3))
        b1 = 0.5 * np.log2(1 + rho * (g_sr + g_sd)) + 0.5 * np.log2(1 + rho * g_sd)
        b2 = 0.5 * np.log2(1 + rho * (np.sqrt(g_rd) + np.sqrt(g_sd)) ** 2) + 0.5 * np.log2(
            1 + rho * g_sd
        )
        independent = float(np.mean(np.minimum(b1, b2) < rate))
        assert mine == pytest.approx(independent, abs=0.008)

    def test_two_hop_model_matches_scalar_path(self):
        cfg = RunConfig(
            schedule=TwoHopSchedule.uniform(2),
            r=0.5,
            snr_db_grid=(12.0,),
            trials_per_point=300,
            seed=31,
        )
        table, _ = estimate_outage(cfg)
        snr = float(db_to_linear(12.0))
        rate = 0.5 * math.log2(snr)
        expected = 0
        g_sd, g_sr, g_rd = ref.campaign_gains(2, 31, range(300))
        for trial in range(300):
            gains = (float(g_sd[trial]), g_sr[trial].tolist(), g_rd[trial].tolist())
            bound = ref.min_cut(*gains, snr, cfg.schedule.weights)
            expected += bound < rate
        assert table[0].outage_count == expected

    def test_invalid_workers(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        for workers in (0, 257):
            with pytest.raises(ValueError, match="workers must be"):
                estimate_outage(_single_cfg(trials_per_point=10), workers=workers)


class TestBoundedSubmission:
    """Chunks are submitted lazily, at most a window of them in flight."""

    CHUNK = 500
    CFG = _single_cfg(trials_per_point=15_000)  # 30 chunks, each counted at 3 points
    # not a multiple of 4, so chunks start and stop inside a block of direct gains
    ODD_CHUNK = 333

    def _traced_count(self, monkeypatch, fail_at=None):
        """Patch a small chunk and a `_count_outages` that records each task's
        start and finish by its index, its first trial over `_CHUNK`; task 0 is
        slow so that later tasks would overtake it if nothing held them back."""
        monkeypatch.setattr(montecarlo, "_CHUNK", self.CHUNK)
        count = montecarlo._count_outages
        lock = threading.Lock()
        finished = set()
        spans = []  # index started, oldest unfinished index at that moment

        def traced(cfg, points, first, last):
            k = first // self.CHUNK
            with lock:
                spans.append((k, min(j for j in range(k + 1) if j not in finished)))
            if k == 0:
                time.sleep(0.05)
            if k == fail_at:
                raise RuntimeError(f"chunk {k} failed")
            result = count(cfg, points, first, last)
            with lock:
                finished.add(k)
            return result

        monkeypatch.setattr(montecarlo, "_count_outages", traced)
        return spans

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_in_flight_chunks_stay_within_the_window(self, monkeypatch, workers):
        whole = [row.outage_count for row in estimate_outage(self.CFG, workers=1)[0]]
        spans = self._traced_count(monkeypatch)
        counts = [row.outage_count for row in estimate_outage(self.CFG, workers=workers)[0]]
        assert counts == whole
        assert sorted(k for k, _ in spans) == list(range(30))
        window = montecarlo._IN_FLIGHT_PER_WORKER * workers
        # chunks from the oldest unfinished one to the newest started one
        assert max(k - oldest + 1 for k, oldest in spans) <= window

    def _assert_chunk_invariant(self, monkeypatch, cfg, workers, chunk=ODD_CHUNK):
        whole = [row.outage_count for row in estimate_outage(cfg, workers=1)[0]]
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        counts = [row.outage_count for row in estimate_outage(cfg, workers=workers)[0]]
        assert counts == whole and 0 < sum(whole) < cfg.trials_per_point * len(whole)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_two_hop_counts_do_not_depend_on_chunks_or_workers(self, monkeypatch, workers):
        # 3,000 trials in tasks of 333, each counted at 3 points; the min-cut runs only on
        # the rows its floor leaves
        cfg = RunConfig(
            schedule=TwoHopSchedule.uniform(3),
            r=0.75,
            snr_db_grid=(0.0, 10.0, 20.0),
            trials_per_point=3_000,
            seed=41,
            gap_bits=0.5,
        )
        self._assert_chunk_invariant(monkeypatch, cfg, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_single_relay_counts_do_not_depend_on_chunks_or_workers(self, monkeypatch, workers):
        cfg = _single_cfg(snr_db_grid=(0.0, 10.0, 20.0), trials_per_point=3_000, gap_bits=0.5)
        self._assert_chunk_invariant(monkeypatch, cfg, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1, 1 << 20], ids=["one-trial", "whole-grid"])
    @pytest.mark.parametrize("kind", ["single", "two-hop"])
    def test_counts_do_not_depend_on_task_packing(self, monkeypatch, kind, chunk, workers):
        # a chunk of 1 makes each trial a task, one past 201 trials the whole range one task
        schedule = SingleRelaySchedule(0.5) if kind == "single" else TwoHopSchedule.uniform(3)
        cfg = RunConfig(schedule, 0.75, (0.0, 10.0, 20.0), 201, 43, gap_bits=0.5)
        self._assert_chunk_invariant(monkeypatch, cfg, workers, chunk)

    @pytest.mark.parametrize("chunk", [1, 67, 1 << 20])
    def test_a_task_draws_in_two_passes(self, monkeypatch, chunk):
        """However many SNR points it counts, a task makes one Philox call for the direct
        uniforms of its trials and one for the relay words of the trials it keeps."""
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        cfg = RunConfig(TwoHopSchedule.uniform(2), 0.75, (0.0, 10.0, 20.0), 201, 43, gap_bits=0.5)
        calls, tasks = [], []
        draw, count = channel.rng.uniforms_for_streams, montecarlo._count_outages

        def counting_draw(*args):
            calls.append(args)
            return draw(*args)

        def recording_count(cfg, points, first, last):
            counts = count(cfg, points, first, last)
            tasks.append(len(counts))
            return counts

        monkeypatch.setattr(channel.rng, "uniforms_for_streams", counting_draw)
        monkeypatch.setattr(montecarlo, "_count_outages", recording_count)
        estimate_outage(cfg, workers=1)
        assert len(tasks) == -(-201 // chunk) and len(calls) == 2 * len(tasks)
        assert set(tasks) == {3}  # every task counts every point

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunk_exception_surfaces(self, monkeypatch, workers):
        self._traced_count(monkeypatch, fail_at=13)
        with pytest.raises(RuntimeError, match="chunk 13 failed"):
            estimate_outage(self.CFG, workers=workers)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["single", "two-hop"]),
    st.integers(1, 4),
    st.integers(1, 300).filter(lambda t: t % 4 != 0),
    st.data(),
)
def test_counts_of_any_slicing_sum_to_the_whole_range_slice(kind, n_points, trials, data):
    """Cut the trial range into slices at random points, so slices start and stop inside
    blocks of direct gains: their per-point counts add up to those of one slice over the
    whole range."""
    schedule = SingleRelaySchedule(0.5) if kind == "single" else TwoHopSchedule.uniform(2)
    cfg = RunConfig(schedule, 0.75, (0.0, 10.0, 20.0, 30.0)[:n_points], trials, 43, gap_bits=0.5)
    snrs = [float(db_to_linear(snr_db)) for snr_db in cfg.snr_db_grid]
    points = [(snr_db, snr, cfg.r * math.log2(snr)) for snr_db, snr in zip(cfg.snr_db_grid, snrs)]
    edges = sorted({0, trials, *data.draw(st.lists(st.integers(0, trials), max_size=8))})
    pieces = sum(_count_outages(cfg, points, first, last) for first, last in zip(edges, edges[1:]))
    assert pieces.tolist() == _count_outages(cfg, points, 0, trials).tolist()


db_grids = st.lists(st.integers(-20, 60), min_size=1, max_size=6, unique=True).map(sorted)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["single", "two-hop"]),
    db_grids,
    st.integers(1, 300),
    st.sampled_from([1, 2]),
    st.sampled_from([7, 64, montecarlo._CHUNK]),
    st.data(),
)
def test_a_row_does_not_depend_on_the_rest_of_its_grid(kind, grid, trials, workers, chunk, data):
    """Every SNR point counts the same realizations, so a campaign over any sub-grid, at
    any worker count and task size, gives each of its rows exactly as the full grid
    does at the same SNR, and a one-point campaign gives that row too."""
    schedule = SingleRelaySchedule(0.4) if kind == "single" else TwoHopSchedule.uniform(2)
    sub = sorted(data.draw(st.sets(st.sampled_from(grid), min_size=1)))
    one = data.draw(st.sampled_from(grid))

    def rows(snr_db_grid, chunk):
        cfg = RunConfig(schedule, 0.6, tuple(float(db) for db in snr_db_grid), trials, 11, gap_bits=0.3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK", chunk)
            return {row.snr_db: row for row in estimate_outage(cfg, workers=workers)[0]}

    full = rows(grid, montecarlo._CHUNK)
    for snr_db, row in {**rows(sub, chunk), **rows([one], chunk)}.items():
        assert row == full[snr_db]


class TestOutageRowValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            OutageRow(10.0, 10.0, 1.0, 100, 101, 1.01, 0.9, 1.0)
        with pytest.raises(ValueError):
            OutageRow(10.0, 10.0, 1.0, 100, 50, 0.5, 0.6, 0.7)  # ci does not bracket
        with pytest.raises(ValueError):
            OutageRow(10.0, 10.0, 1.0, 100, -1, 0.0, 0.0, 0.1)

    # p_hat is finite already, as a count ratio
    @pytest.mark.parametrize("field", ["snr_db", "snr_linear", "rate_bits", "ci_low", "ci_high"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_fields_must_be_finite(self, field, value):
        row = dict(snr_db=10.0, snr_linear=10.0, rate_bits=1.0, trials=100, outage_count=50, p_hat=0.5,
                   ci_low=0.0, ci_high=1.0)
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            OutageRow(**{**row, field: value})

    @pytest.mark.parametrize(
        "trials, count, p_hat, message",
        [
            (100, 50, 0.0, "p_hat must equal outage_count / trials"),
            (100, 50, 0.5000000000000001, "p_hat must equal outage_count / trials"),
            (100, 50, math.nan, "p_hat must equal outage_count / trials"),
            (0, 0, 0.0, "trials must be >= 1"),
        ],
    )
    def test_p_hat_is_the_count_ratio(self, trials, count, p_hat, message):
        with pytest.raises(ValueError, match=message):
            OutageRow(10.0, 10.0, 1.0, trials, count, p_hat, 0.0, 1.0)

    @pytest.mark.parametrize(
        "snr_db, snr_linear, rate_bits, message",
        [
            (55.0, 10.0, 1.0, "snr_linear must be 10"),
            (10.0, 10.0 * (1.0 + 1e-11), 1.0, "snr_linear must be 10"),
            (4000.0, 1e300, 1.0, "snr_linear must be 10"),  # 10^400 overflows to inf
            (10.0, 10.0, -3.0, "rate_bits must be r"),
            (10.0, 10.0, 3.33, "rate_bits must be r"),  # log2(10) = 3.32
            (-10.0, 0.1, 0.5, "rate_bits must be r"),  # below 0 dB the rate is <= 0
        ],
    )
    def test_columns_agree_with_snr_linear(self, snr_db, snr_linear, rate_bits, message):
        with pytest.raises(ValueError, match=message):
            OutageRow(snr_db, snr_linear, rate_bits, 100, 50, 0.5, 0.0, 1.0)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0 * math.log10(2.0), 10.0, 55.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_writer_columns_are_accepted(self, snr_db, r):
        # a writer may compute the linear SNR with another power, a few ulps away
        snr = float(db_to_linear(snr_db)) * (1.0 + 5e-13)
        row = OutageRow(snr_db, snr, r * math.log2(snr), 100, 50, 0.5, 0.0, 1.0)
        assert row.rate_bits == r * math.log2(snr)


class TestConfidenceInterval:
    def test_boundary_cases(self):
        low, high = confidence_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.1
        low, high = confidence_interval(100, 100)
        assert high == 1.0 and 0.9 < low < 1.0

    def test_against_reference_implementation(self):
        # the Wilson bounds are the two roots p of (p_hat - p)^2 = z^2 p (1 - p) / n,
        # i.e. (1 + z^2/n) p^2 - (2 p_hat + z^2/n) p + p_hat^2 = 0
        z = NormalDist().inv_cdf(0.975)
        for successes, trials in [(50, 100), (3, 1000), (999, 1000), (120, 345)]:
            low, high = confidence_interval(successes, trials)
            p_hat = successes / trials
            a = 1.0 + z * z / trials
            b = -(2.0 * p_hat + z * z / trials)
            c = p_hat * p_hat
            root = math.sqrt(b * b - 4.0 * a * c)
            assert low == pytest.approx((-b - root) / (2.0 * a), abs=1e-10)
            assert high == pytest.approx((-b + root) / (2.0 * a), abs=1e-10)

    def test_half_case_value(self):
        low, high = confidence_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=5e-4)
        assert high == pytest.approx(0.5962, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(-1, 10)
        with pytest.raises(ValueError):
            confidence_interval(11, 10)
        with pytest.raises(ValueError):
            confidence_interval(5, 0)


def _synthetic_table(ps, trials=10**6, snrs=(10.0, 100.0, 1000.0)):
    rows = []
    for snr, p in zip(snrs, ps):
        count = int(round(p * trials))
        p_hat = count / trials  # OutageRow rejects any other value
        rows.append(
            OutageRow(
                snr_db=10 * math.log10(snr),
                snr_linear=snr,
                rate_bits=1.0,
                trials=trials,
                outage_count=count,
                p_hat=p_hat,
                ci_low=p_hat,
                ci_high=p_hat,
            )
        )
    return tuple(rows)


class TestDiversitySlope:
    def test_exact_power_law(self):
        table = _synthetic_table([1e-1, 1e-3, 1e-5])
        slope, stderr = estimate_diversity_slope(table, min_count=1)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-9)

    def test_constant_probability(self):
        table = _synthetic_table([0.25, 0.25, 0.25])
        slope, _ = estimate_diversity_slope(table, min_count=1)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_two_rows_have_nan_stderr(self):
        table = _synthetic_table([1e-1, 1e-2], snrs=(10.0, 100.0))
        slope, stderr = estimate_diversity_slope(table, min_count=1)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(stderr)

    def test_low_count_rows_excluded(self):
        # last row has too few events to qualify and would spoil the fit
        table = _synthetic_table([1e-1, 1e-2, 7e-6], trials=10**5)
        slope, _ = estimate_diversity_slope(table, min_count=50)
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        table = _synthetic_table([1e-1, 1e-2, 1e-3], trials=100)
        with pytest.raises(ValueError, match="insufficient data"):
            estimate_diversity_slope(table, min_count=50)
        with pytest.raises(ValueError):
            estimate_diversity_slope(table, min_count=0)
