"""Loop-based reference implementations of the package's scalar formulas.

The package writes each formula once, as an array kernel, and its scalar
functions evaluate that kernel on a batch of one row.  Comparing a scalar
function with its kernel would therefore check the kernel against itself.
These references compute the same quantities by explicit per-link, per-state
and per-relay Python loops, with the same arithmetic in the same order, so the
tests can require exact equality (``==``) with the kernels.  The grid oracle's
reference evaluates every grid point instead of searching a staircase.
"""

from __future__ import annotations

import math

import numpy as np

from hdrelay.channel import ChannelRealization, ExponentVector
from hdrelay.cutset import Cut, TwoHopSchedule, link_capacity_bits
from hdrelay.dmt import _unit_grid
from hdrelay.rng import RandomStream, stream_uniforms


def capacity(g: float, snr: float) -> float:
    return float(link_capacity_bits(g, snr))


def cut_flow(realization: ChannelRealization, snr: float, schedule: TwoHopSchedule, cut: Cut) -> float:
    """Schedule-weighted Z-channel flow across one cut, state by state."""
    n = schedule.n_relays
    snr = float(snr)
    n_sd = capacity(realization.g_sd, snr)
    n_sr = [capacity(g, snr) for g in realization.g_sr]
    n_rd = [capacity(g, snr) for g in realization.g_rd]
    total = 0.0
    for state_mask, weight in enumerate(schedule.weights):
        if weight == 0.0:
            continue
        # omega relays transmitting in this state
        v_mask = cut.omega_mask & ~state_mask
        # complement relays listening in this state
        w_mask = ~cut.omega_mask & state_mask & ((1 << n) - 1)
        best_rd = max((n_rd[j] for j in range(n) if v_mask >> j & 1), default=0.0)
        best_sr = max((n_sr[j] for j in range(n) if w_mask >> j & 1), default=0.0)
        total += weight * max(n_sd, best_rd + best_sr)
    return total


def min_cut(realization: ChannelRealization, snr: float, schedule: TwoHopSchedule) -> float:
    """Minimum of `cut_flow` over all 2^N cuts."""
    n = schedule.n_relays
    return min(cut_flow(realization, snr, schedule, Cut(m, n)) for m in range(1 << n))


def cut_average(realization: ChannelRealization, snr: float, cut: Cut) -> float:
    """Average capacity of the N+1 links crossing the cut, relay by relay."""
    n = cut.n_relays
    snr = float(snr)
    total = capacity(realization.g_sd, snr)
    for j in range(n):
        if cut.contains(j):
            total += capacity(realization.g_rd[j], snr)
        else:
            total += capacity(realization.g_sr[j], snr)
    return total / (n + 1)


def highsnr_order(orders: ExponentVector, t: float) -> float:
    """a_sd + min{t*(a_sr - a_sd)^+, (1-t)*(a_rd - a_sd)^+} in Python floats."""
    a_sd = orders.a_sd
    gain_sr = max(orders.a_sr[0] - a_sd, 0.0)
    gain_rd = max(orders.a_rd[0] - a_sd, 0.0)
    return a_sd + min(t * gain_sr, (1.0 - t) * gain_rd)


def two_hop_cut_outage(orders: ExponentVector, r: float, cut: Cut) -> bool:
    """Sum of the crossing-link orders, relay by relay, against (N+1)*r."""
    n = cut.n_relays
    total = orders.a_sd
    for j in range(n):
        total += orders.a_rd[j] if cut.contains(j) else orders.a_sr[j]
    return total <= (n + 1) * r


def realization_from_stream(n_relays: int, stream: RandomStream) -> ChannelRealization:
    """Inverse-CDF gains -ln(1 - u) of the stream's first 2N+1 uniforms."""
    g = -np.log1p(-stream_uniforms(stream, 2 * n_relays + 1))
    return ChannelRealization(
        g_sd=float(g[0]), g_sr=tuple(g[1 : 1 + n_relays]), g_rd=tuple(g[1 + n_relays :])
    )


def cut_avg_instance(u: np.ndarray, max_relays: int) -> float:
    """One cut-avg suite instance from its uniforms, as the suite draws it."""
    n = 1 + int(u[0] * max_relays)
    cut = Cut(int(u[1] * (1 << n)), n)
    snr = float(10.0 ** (4.0 * u[2]))  # 0..40 dB
    gains = -np.log1p(-u[3 : 3 + 2 * n + 1])
    realization = ChannelRealization(
        g_sd=float(gains[0]),
        g_sr=tuple(gains[1 : 1 + n]),
        g_rd=tuple(gains[1 + n :]),
    )
    schedule = TwoHopSchedule.uniform(n)
    return cut_flow(realization, snr, schedule, cut) - cut_average(realization, snr, cut)


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
        mask = predicate(alpha)
        if np.any(mask):
            best_sum = max(best_sum, float(alpha[mask].sum(axis=1).max()))
    if best_sum == -math.inf:
        return math.inf
    return dim - best_sum
