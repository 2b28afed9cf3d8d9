"""Seeded Monte Carlo estimation of outage probability across an SNR grid.

A channel is in outage when its capacity bound, minus an optional constant
gap, falls below the target rate r * log2(snr).  A trial's gains are a pure
function of (seed, snr point index, trial index) (the stream layout is in
`channel`), so every count is a pure function of the configuration: reruns
are bit identical for any worker count or chunking, and campaigns that
differ only in rate or gap see exactly the same channel realizations (which
makes the monotonicity checks in the test suite exact rather than
statistical).

Every cut of both bounds is at least the direct link's capacity, so a chunk
draws its direct gains first and draws relay gains only for the trials the
direct link cannot clear of outage.  A two-hop trial then meets an O(N)
lower bound on its min-cut; the 4^N min-cut kernel runs only on trials that
bound cannot clear either.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any

import numpy as np

from ._version import __version__
from .channel import check_stream_space, sample_gain_arrays
from .cutset import Schedule, SingleRelaySchedule, _min_cut_floor, check_multiplexing_gain
from .cutset import link_capacities, link_capacity_bits, single_relay_bound_array, two_hop_bound_array
from .rng import GENERATOR_NAME, check_seed

_CHUNK = 1 << 16  # trials per task; fixed so chunking never shows in results

_IN_FLIGHT_PER_WORKER = 2  # chunks submitted but not yet summed, per worker

MAX_WORKERS = 256  # threads per campaign; the pool may start one per worker

CONFIDENCE_LEVEL = 0.95  # of the Wilson interval in every row

# relative slack of the n_sd and `_min_cut_floor` tests: the kernel's state-order sum and the
# floor round by under 2^N + N ulps (5e-13 at N=12); the n_sd term alone also needs it for weights
# summing to 1 - WEIGHT_SUM_TOL and for single-relay cuts t*x + (1-t)*n_sd, an ulp below n_sd
_FLOOR_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """One outage campaign: schedule (which fixes the bound and the relay
    count), rate, SNR grid, seeding."""

    schedule: Schedule
    r: float
    snr_db_grid: tuple[float, ...]
    trials_per_point: int
    seed: int
    gap_bits: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db_grid", tuple(float(v) for v in self.snr_db_grid))
        check_multiplexing_gain(self.r)
        if self.trials_per_point < 1:
            raise ValueError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid must be non-empty")
        check_stream_space(len(self.snr_db_grid), self.trials_per_point)
        with np.errstate(over="ignore"):
            snr = db_to_linear(self.snr_db_grid)
        # a dB value past about +-3000 over- or underflows the linear SNR
        if not np.all(np.isfinite(snr) & (snr > 0)):
            raise ValueError(
                f"snr_db_grid values must be finite with a linear SNR in (0, inf), "
                f"got {self.snr_db_grid!r}"
            )
        if any(b <= a for a, b in zip(self.snr_db_grid, self.snr_db_grid[1:])):
            raise ValueError("snr_db_grid must be strictly ascending")
        check_seed(self.seed)
        if not (math.isfinite(self.gap_bits) and self.gap_bits >= 0):
            raise ValueError(f"gap_bits must be finite and >= 0, got {self.gap_bits!r}")


@dataclass(frozen=True)
class OutageRow:
    """Result at one SNR point."""

    snr_db: float
    snr_linear: float
    rate_bits: float
    trials: int
    outage_count: int
    p_hat: float
    ci_low: float
    ci_high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.snr_linear) and self.snr_linear > 0):
            raise ValueError(f"snr_linear must be finite and > 0, got {self.snr_linear!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.outage_count <= self.trials:
            raise ValueError("outage_count must lie in [0, trials]")
        # exact: writers compute it so, and repr round-trips through CSV and JSON
        if self.p_hat != self.outage_count / self.trials:
            raise ValueError(f"p_hat must equal outage_count / trials, got {self.p_hat!r}")
        if not self.ci_low <= self.p_hat <= self.ci_high:
            raise ValueError("confidence interval must bracket p_hat")


@dataclass(frozen=True)
class OutageTable:
    """Rows per SNR point plus the metadata needed to reproduce them."""

    rows: tuple[OutageRow, ...]
    metadata: dict[str, Any] = field(default_factory=dict)


def db_to_linear(snr_db):
    return 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)


def _outage_mask(
    schedule: Schedule, g_sd, g_sr, g_rd, snr: float, rate_bits: float, gap: float
) -> np.ndarray:
    """Per-row outage: the schedule's bound, reduced by the gap, falls below the rate."""
    if isinstance(schedule, SingleRelaySchedule):
        bound = single_relay_bound_array(g_sd, g_sr[:, 0], g_rd[:, 0], snr, schedule.t)
        return bound - gap < rate_bits
    lb = _min_cut_floor(*link_capacities(g_sd, g_sr, g_rd, snr), schedule.weights)
    rows = np.flatnonzero(lb * (1.0 - _FLOOR_TOL) - gap < rate_bits)
    mask = np.zeros(lb.shape, dtype=bool)
    # called on no rows too: the kernel checks the relay count
    mask[rows] = two_hop_bound_array(g_sd[rows], g_sr[rows], g_rd[rows], snr, schedule) - gap < rate_bits
    return mask


def _count_outages(
    cfg: RunConfig, snr_index: int, snr: float, rate_bits: float, start: int, stop: int
) -> int:
    """Outage count over trials [start, stop) at one SNR point.

    A trial with n_sd * (1 - _FLOOR_TOL) - gap >= rate is not in outage, so
    its relay gains are never drawn; `_outage_mask` decides the others."""

    def uncleared(g_sd):
        return link_capacity_bits(g_sd, snr) * (1.0 - _FLOOR_TOL) - cfg.gap_bits < rate_bits

    gains = sample_gain_arrays(cfg.schedule.n_relays, cfg.seed, snr_index, start, stop, uncleared)
    return int(np.count_nonzero(_outage_mask(cfg.schedule, *gains, snr, rate_bits, cfg.gap_bits)))


def _schedule_metadata(schedule: Schedule) -> dict[str, Any]:
    if isinstance(schedule, SingleRelaySchedule):
        return {"kind": "single-relay", "t": schedule.t}
    return {"kind": "two-hop", "weights": list(schedule.weights)}


def estimate_outage(cfg: RunConfig, workers: int = 1) -> OutageTable:
    """Run the campaign and return one row per SNR point.

    `workers` only parallelizes the fixed-size trial chunks over threads;
    counts are integer sums of per-chunk counts, each a pure function of
    (seed, snr index, trial range), so the table is identical for any value.
    Chunks run in (point, trial range) order with at most
    `_IN_FLIGHT_PER_WORKER * workers` submitted but not yet summed, so
    memory does not grow with the trial count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    points = []
    for snr_db in cfg.snr_db_grid:
        snr = float(db_to_linear(snr_db))
        points.append((snr_db, snr, cfg.r * math.log2(snr)))
    # generated lazily: a campaign may hold millions of chunks per point
    tasks = (
        (i, snr, rate_bits, start, min(start + _CHUNK, cfg.trials_per_point))
        for i, (_, snr, rate_bits) in enumerate(points)
        for start in range(0, cfg.trials_per_point, _CHUNK)
    )

    counts = [0] * len(points)
    in_flight: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for task in tasks:
            if len(in_flight) == _IN_FLIGHT_PER_WORKER * workers:
                i, future = in_flight.popleft()
                counts[i] += future.result()
            in_flight.append((task[0], pool.submit(_count_outages, cfg, *task)))
        for i, future in in_flight:
            counts[i] += future.result()

    rows = []
    for (snr_db, snr, rate_bits), count in zip(points, counts):
        p_hat = count / cfg.trials_per_point
        ci_low, ci_high = confidence_interval(count, cfg.trials_per_point)
        rows.append(
            OutageRow(
                snr_db=snr_db,
                snr_linear=snr,
                rate_bits=rate_bits,
                trials=cfg.trials_per_point,
                outage_count=count,
                p_hat=p_hat,
                ci_low=ci_low,
                ci_high=ci_high,
            )
        )
    metadata: dict[str, Any] = {
        "version": __version__,
        "generator": GENERATOR_NAME,
        "seed": cfg.seed,
        "model": cfg.schedule.model,
        "n_relays": cfg.schedule.n_relays,
        "schedule": _schedule_metadata(cfg.schedule),
        "r": cfg.r,
        "trials_per_point": cfg.trials_per_point,
        "gap_bits": cfg.gap_bits,
        "confidence_level": CONFIDENCE_LEVEL,
    }
    return OutageTable(rows=tuple(rows), metadata=metadata)


def confidence_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at `CONFIDENCE_LEVEL` for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    z = NormalDist().inv_cdf(0.5 + CONFIDENCE_LEVEL / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def estimate_diversity_slope(table: OutageTable, min_count: int = 50) -> tuple[float, float]:
    """Least-squares slope of -log10(p_hat) against log10(snr).

    Rows with fewer than `min_count` outage events are excluded (their
    p_hat is too noisy to anchor a log fit); the rest must span at least
    two SNR values.  Returns (slope, stderr); stderr is NaN when only two
    rows qualify.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    qualifying = [row for row in table.rows if row.outage_count >= min_count]
    if len(qualifying) < 2:
        raise ValueError(
            f"insufficient data: need >= 2 rows with outage_count >= {min_count}, "
            f"got {len(qualifying)}"
        )
    distinct = len({row.snr_linear for row in qualifying})
    if distinct < 2:
        raise ValueError(
            f"insufficient data: need >= 2 distinct snr_linear values, got {distinct}"
        )
    x = np.log10([row.snr_linear for row in qualifying])
    y = -np.log10([row.p_hat for row in qualifying])
    n = len(x)
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    if n == 2:
        return slope, math.nan
    residuals = y - (y_bar + slope * (x - x_bar))
    rss = float(np.sum(residuals**2))
    stderr = math.sqrt(rss / (n - 2) / sxx)
    return slope, stderr
