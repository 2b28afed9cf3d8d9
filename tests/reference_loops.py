"""Loop-based reference implementations of the package's array kernels.

The package writes each formula once, as an array kernel over a batch of
rows.  These references compute the same quantities for one row of plain
floats by explicit per-link, per-state and per-relay Python loops, with the
same arithmetic in the same order, so the tests can require exact equality
(``==``) with the kernels evaluated on a batch of one.  Gains come as
``g_sd`` and the per-relay sequences ``g_sr`` and ``g_rd``; a cut is its
``omega_mask`` (bit j set: relay j sits with the source).  The grid oracle's
reference evaluates every grid point instead of searching a staircase.
"""

from __future__ import annotations

import math

import numpy as np

from hdrelay.cutset import SingleRelaySchedule, link_capacity_bits, single_relay_bound_array, two_hop_bound_array
from hdrelay.dmt import _unit_grid
from hdrelay.rng import uniforms_for_streams


def capacity(g: float, snr: float) -> float:
    return float(link_capacity_bits(g, snr))


def cut_flow(g_sd, g_sr, g_rd, snr: float, weights, omega_mask: int) -> float:
    """Schedule-weighted Z-channel flow across one cut, state by state."""
    n = len(g_sr)
    snr = float(snr)
    n_sd = capacity(g_sd, snr)
    n_sr = [capacity(g, snr) for g in g_sr]
    n_rd = [capacity(g, snr) for g in g_rd]
    total = 0.0
    for state_mask, weight in enumerate(weights):
        if weight == 0.0:
            continue
        # omega relays transmitting in this state
        v_mask = omega_mask & ~state_mask
        # complement relays listening in this state
        w_mask = ~omega_mask & state_mask & ((1 << n) - 1)
        best_rd = max((n_rd[j] for j in range(n) if v_mask >> j & 1), default=0.0)
        best_sr = max((n_sr[j] for j in range(n) if w_mask >> j & 1), default=0.0)
        total += weight * max(n_sd, best_rd + best_sr)
    return total


def min_cut(g_sd, g_sr, g_rd, snr: float, weights) -> float:
    """Minimum of `cut_flow` over all 2^N cuts."""
    return min(cut_flow(g_sd, g_sr, g_rd, snr, weights, m) for m in range(1 << len(g_sr)))


def cut_average(g_sd, g_sr, g_rd, snr: float, omega_mask: int) -> float:
    """Average capacity of the N+1 links crossing the cut, relay by relay."""
    n = len(g_sr)
    snr = float(snr)
    total = capacity(g_sd, snr)
    for j in range(n):
        if omega_mask >> j & 1:
            total += capacity(g_rd[j], snr)
        else:
            total += capacity(g_sr[j], snr)
    return total / (n + 1)


def subset_max_sum(n_sd: float, h) -> float:
    """Sum over the 2^N relay subsets x of max(n_sd, max of h over x), subset by subset and
    exactly rounded (`math.fsum`); each mask's max is that of the mask without its lowest bit,
    taken with that bit's h."""
    maxima = [n_sd] * (1 << len(h))
    for mask in range(1, 1 << len(h)):
        low = mask & -mask
        maxima[mask] = max(maxima[mask ^ low], h[low.bit_length() - 1])
    return math.fsum(maxima)


def highsnr_order(a_sd: float, a_sr: float, a_rd: float, t: float) -> float:
    """a_sd + min{t*(a_sr - a_sd)^+, (1-t)*(a_rd - a_sd)^+} in Python floats."""
    gain_sr = max(a_sr - a_sd, 0.0)
    gain_rd = max(a_rd - a_sd, 0.0)
    return a_sd + min(t * gain_sr, (1.0 - t) * gain_rd)


def two_hop_cut_outage(a_sd: float, a_sr, a_rd, r: float, omega_mask: int) -> bool:
    """Sum of the crossing-link orders, relay by relay, against (N+1)*r."""
    n = len(a_sr)
    total = a_sd
    for j in range(n):
        total += a_rd[j] if omega_mask >> j & 1 else a_sr[j]
    return total <= (n + 1) * r


def crossing_columns(n_relays: int, omega_mask: int) -> list[int]:
    """Columns of one cut's N+1 crossing links in a row of 2N+1 orders: a_sd,
    then a_sr of the complement relays, then a_rd of the omega relays."""
    sr = [1 + j for j in range(n_relays) if not omega_mask >> j & 1]
    rd = [1 + n_relays + j for j in range(n_relays) if omega_mask >> j & 1]
    return [0, *sr, *rd]


Row = tuple[float, list[float], list[float]]


def split_row(g: np.ndarray, n_relays: int) -> Row:
    """(sd, [sr...], [rd...]) parts of one row of 2N+1 per-link gains or orders."""
    return float(g[0]), g[1 : 1 + n_relays].tolist(), g[1 + n_relays :].tolist()


# the campaign stream layout, written out here so that a change to it shows
RELAY_STREAMS = 2**63


def campaign_gains(n_relays: int, seed: int, trials) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every listed trial's full gains -ln(1 - u), shared by all SNR points, each trial
    drawing its own streams: g_sd is word k % 4 of stream k // 4, and g_sr, g_rd are the
    first 2N words of stream 2**63 + k."""
    k = np.asarray(trials, dtype=np.uint64)
    direct = uniforms_for_streams(seed, k // np.uint64(4), 4)
    relay = uniforms_for_streams(seed, np.uint64(RELAY_STREAMS) + k, 2 * n_relays)
    g_sd = -np.log1p(-direct[np.arange(k.size), (k % np.uint64(4)).astype(np.int64)])
    g = -np.log1p(-relay)
    return g_sd, g[:, :n_relays], g[:, n_relays:]


def campaign_bound(schedule, gains, snr: float) -> np.ndarray:
    """The schedule's bound on every row of `campaign_gains`: no certificate clears
    a trial, so a trial is in outage when this, less the gap, is below the rate."""
    g_sd, g_sr, g_rd = gains
    if isinstance(schedule, SingleRelaySchedule):
        return single_relay_bound_array(g_sd, g_sr[:, 0], g_rd[:, 0], snr, schedule.t)
    return two_hop_bound_array(g_sd, g_sr, g_rd, snr, schedule)


def tchebychef_instance(u: np.ndarray, max_len: int) -> float:
    """One product-mean suite instance from its uniforms, as the suite draws it:
    mean(a*b) - mean(a)*mean(b) over one pair of sorted sequences."""
    n = 1 + int(u[0] * max_len)
    a = np.sort(10.0 * u[1 : 1 + n])
    b = np.sort(10.0 * u[1 + max_len : 1 + max_len + n])
    return float((a * b).mean() - a.mean() * b.mean())


def avg_lemma_row(u: np.ndarray, max_len: int) -> tuple[float, list[float]]:
    """The (a, s) of one subset-average suite instance from its uniforms."""
    n = 1 + int(u[0] * max_len)
    return float(10.0 * u[1]), (10.0 * u[2 : 2 + n]).tolist()


def avg_lemma_instance(u: np.ndarray, max_len: int) -> float:
    """One subset-average suite instance from its uniforms, subset by subset: the exact
    average of max(a, max of s over V) over the 2^n bitmasks V, minus (a + sum(s)) / (n + 1)."""
    a, s = avg_lemma_row(u, max_len)
    return subset_max_sum(a, s) / (1 << len(s)) - (a + math.fsum(s)) / (len(s) + 1)


def cut_avg_instance(u: np.ndarray, max_relays: int) -> float:
    """One cut-avg suite instance from its uniforms, as the suite draws it."""
    n = 1 + int(u[0] * max_relays)
    omega_mask = int(u[1] * (1 << n))
    snr = float(10.0 ** (4.0 * u[2]))  # 0..40 dB
    gains = split_row(-np.log1p(-u[3 : 3 + 2 * n + 1]), n)
    weights = (1.0 / (1 << n),) * (1 << n)  # the uniform schedule
    return cut_flow(*gains, snr, weights, omega_mask) - cut_average(*gains, snr, omega_mask)


def on_region(predicate, alpha) -> np.ndarray:
    """Mask of a `predicate(alpha, which)` on rows that all belong to region 0."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return predicate(alpha, np.zeros(alpha.shape[0], dtype=np.int64))


def exhaustive_grid_oracle(predicate, dim: int, step: float, chunk_size: int = 1 << 20) -> float:
    """Min of sum(1 - a_i) over every grid point in the outage set, point by point.

    Evaluates the predicate on all L^dim grid points (no budget), so it needs
    no down-set assumption; the staircase oracle must return the same float.
    """
    coords = _unit_grid(step)
    levels = len(coords)
    total = levels**dim
    strides = [levels ** (dim - 1 - k) for k in range(dim)]
    best_sum = -math.inf
    for start in range(0, total, chunk_size):
        idx = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        alpha = np.empty((idx.shape[0], dim), dtype=np.float64)
        for k, stride in enumerate(strides):
            alpha[:, k] = coords[(idx // stride) % levels]
        mask = on_region(predicate, alpha)
        if np.any(mask):
            best_sum = max(best_sum, float(alpha[mask].sum(axis=1).max()))
    if best_sum == -math.inf:
        return math.inf
    return dim - best_sum
