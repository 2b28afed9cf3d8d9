"""Finite-SNR cut-set bounds for half-duplex relay networks.

Two bound families are implemented:

* the closed-form upper bound on the capacity of the single-relay channel
  under a fixed listen fraction t (minimum of the broadcast cut {S} and
  the cooperation cut {S,R}), and
* an achievability-side lower bound for two-hop networks of N
  non-interfering relays: each cut in each listen/transmit state is
  reduced to a two-user Z-channel whose flow is taken as
  max{C_sd, C_rd* + C_sr*}, the direct link or the best crossing
  relay->destination link plus the best crossing source->relay link, and
  these flows are averaged over the schedule.  That flow is at most the
  Z-channel's log-det flow log2 det(I + snr H H^T).

All capacities are in bits per symbol (base-2 logs).  The single-relay
expression is an upper bound while the multi-relay expression is a lower
bound; the two coincide in diversity-multiplexing behaviour, which is what
the rest of the package extracts from them.

Each formula is written once, as a kernel over arrays of gains, capacities
or orders; the two-hop flow reads subset-max tables of at most `_BLOCK` entries.
Campaigns run the min-cut only on trials that a cheap lower bound on it
cannot clear of outage (`montecarlo._outage_mask`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

MAX_RELAYS = 12  # worst case, nothing pruned: 4^N cut-state pairs per row (0.2 ms at N=8, 2-vCPU Xeon)

WEIGHT_SUM_TOL = 1e-9

# table and gather entries per pass; a cache and memory bound only
_BLOCK = 1 << 15


def check_listen_fraction(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"listen fraction t must lie in [0, 1], got {t!r}")


def check_multiplexing_gain(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"multiplexing gain r must lie in [0, 1], got {r!r}")


def check_relay_count(n_relays: int) -> None:
    if not 1 <= n_relays <= MAX_RELAYS:
        raise ValueError(f"n_relays must lie in [1, {MAX_RELAYS}], got {n_relays}")


@dataclass(frozen=True)
class SingleRelaySchedule:
    """Listen fraction t: the relay listens t of the time, transmits 1-t.
    Measured by the single-relay cut-set upper bound, named by `model`."""

    model: ClassVar[str] = "single-relay-ub"
    n_relays: ClassVar[int] = 1
    t: float

    def __post_init__(self) -> None:
        check_listen_fraction(self.t)


@dataclass(frozen=True)
class TwoHopSchedule:
    """Time fractions over the 2^N listen/transmit states of N relays.

    ``weights[m]`` is the fraction of time spent in state m, where bit j of
    m set means relay j listens.  Weights are nonnegative and sum to 1.
    Measured by the two-hop Z-channel min-cut lower bound, named by `model`.
    """

    model: ClassVar[str] = "two-hop-zlb"
    n_relays: int
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        check_relay_count(self.n_relays)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != 1 << self.n_relays:
            raise ValueError(
                f"need 2^{self.n_relays} weights, got {len(self.weights)}"
            )
        # checked before fsum, which raises OverflowError on a sum past the float range
        if not all(0.0 <= w <= 1.0 + WEIGHT_SUM_TOL for w in self.weights):
            raise ValueError(f"schedule weights must lie in [0, 1], got {self.weights!r}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"schedule weights must sum to 1, got {total!r}")

    @classmethod
    def uniform(cls, n_relays: int) -> "TwoHopSchedule":
        """Equal time 2^-N in every state."""
        m = 1 << n_relays
        return cls(n_relays=n_relays, weights=(1.0 / m,) * m)


Schedule = SingleRelaySchedule | TwoHopSchedule


def link_capacity_bits(g, snr):
    """Point-to-point capacity log2(1 + snr * g) of a link with gain g."""
    return np.log2(1.0 + snr * np.asarray(g, dtype=np.float64))


def single_relay_bound_array(g_sd, g_sr, g_rd, snr: float, t: float) -> np.ndarray:
    """Vectorized single-relay cut-set upper bound over gain arrays.

    Broadcast cut: the relay listens a fraction t, during which the source
    reaches relay and destination jointly (power sum of gains); the rest of
    the time only the direct link carries information.  Cooperation cut:
    while the relay transmits (fraction 1-t) the relay and source amplitudes
    add coherently toward the destination; while it listens only the direct
    link crosses.  The bound is the minimum of the two cuts.
    """
    check_listen_fraction(t)
    if snr <= 0:
        raise ValueError(f"snr must be > 0, got {snr!r}")
    g_sd = np.asarray(g_sd, dtype=np.float64)
    g_sr = np.asarray(g_sr, dtype=np.float64)
    g_rd = np.asarray(g_rd, dtype=np.float64)
    direct = link_capacity_bits(g_sd, snr)
    broadcast_cut = t * link_capacity_bits(g_sr + g_sd, snr) + (1.0 - t) * direct
    miso_gain = (np.sqrt(g_rd) + np.sqrt(g_sd)) ** 2
    cooperation_cut = (1.0 - t) * link_capacity_bits(miso_gain, snr) + t * direct
    return np.minimum(broadcast_cut, cooperation_cut)


def single_relay_order_array(a_sd, a_sr, a_rd, t: float):
    """High-SNR exponential order of the single-relay cut-set bound.

    Normalizing the bound by log2(snr) and letting snr grow, power sums and
    coherent amplitude sums both collapse to the per-link maximum, leaving

        a_sd + min{ t*(a_sr - a_sd)^+ , (1-t)*(a_rd - a_sd)^+ }

    elementwise over order arrays (or scalars).
    """
    check_listen_fraction(t)
    relay_in = t * np.maximum(np.subtract(a_sr, a_sd), 0.0)
    relay_out = (1.0 - t) * np.maximum(np.subtract(a_rd, a_sd), 0.0)
    return a_sd + np.minimum(relay_in, relay_out)


def link_capacities(g_sd, g_sr, g_rd, snr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capacities (n_sd, n_sr, n_rd) of a batch of realizations.

    g_sd has shape (T,), g_sr and g_rd shape (T, N); snr is one value for
    the batch or one per row.
    """
    snr_arr = np.asarray(snr, dtype=np.float64)
    if np.any(snr_arr <= 0):
        raise ValueError(f"snr must be > 0, got {snr!r}")
    per_row = snr_arr[..., None]
    n_sd = link_capacity_bits(g_sd, snr_arr)
    return n_sd, link_capacity_bits(g_sr, per_row), link_capacity_bits(g_rd, per_row)


def _subset_max(table: np.ndarray) -> np.ndarray:
    """(2^N, T) maxima of `table`'s columns per mask, by doubling: row 0 is 0
    and row 2^k is column k, so no nonempty mask's max takes in that 0."""
    n = table.shape[1]
    out = np.zeros((1 << n, table.shape[0]), dtype=np.float64)
    for k in range(n):
        out[1 << k] = table[:, k]
        np.maximum(out[1 : 1 << k], table[:, k], out=out[(1 << k) + 1 : 2 << k])
    return out


def cut_flow_array(n_sd, n_sr, n_rd, weights, omega_mask) -> np.ndarray:
    """Schedule-weighted Z-channel flow across one cut or an array of cuts.

    Capacities have shapes (T,), (T, N), (T, N); `weights` holds the 2^N
    state fractions.  Per state, the flow is max{n_sd, best relay->destination
    link among omega relays currently transmitting + best source->relay link
    among complement relays currently listening}; a side with no active relay
    contributes 0, so the state degrades to the surviving terms.  One cut
    gives shape (T,), a 1-D int array of C cuts shape (C, T).
    """
    n = n_sr.shape[1]
    if len(weights) != 1 << n:
        raise ValueError(f"need 2^{n} weights, got {len(weights)}")
    cuts = np.asarray(omega_mask)
    if np.any((cuts < 0) | (cuts >= 1 << n)):
        raise ValueError(f"omega_mask {omega_mask} out of range for {n} relays")
    flat = cuts.reshape(-1)
    live = [state for state, weight in enumerate(weights) if weight != 0.0]
    states = np.array(live, dtype=np.int64)[:, None]
    scale = np.array([weights[state] for state in live])[:, None, None]
    total = np.zeros((flat.size, n_sd.shape[0]), dtype=np.float64)
    step = max(1, _BLOCK >> n)
    for start in range(0, n_sd.shape[0], step):
        rows = slice(start, start + step)
        best_rd, best_sr = _subset_max(n_rd[rows]), _subset_max(n_sr[rows])
        acc = total[:, rows]
        # states per gather, so that one gather holds at most _BLOCK entries
        per = max(1, _BLOCK // max(1, acc.size))
        for k in range(0, len(live), per):
            # omega relays transmitting, complement relays listening; the gather copies
            flow = best_rd[flat & ~states[k : k + per]]
            flow += best_sr[~flat & states[k : k + per]]
            np.maximum(n_sd[rows], flow, out=flow)
            flow *= scale[k : k + per]
            for term in flow:  # a sequential sum in state order
                acc += term
    return total.reshape(cuts.shape + n_sd.shape)


def cut_average_array(n_sd, n_sr, n_rd, omega_mask: int) -> np.ndarray:
    """Average capacity of the N+1 links crossing one cut, per row.

    Crossing links are source->destination, relay->destination for omega
    relays, and source->relay for complement relays.  Under the uniform
    schedule the cut flow is never below this average.
    """
    n = n_sr.shape[1]
    if not 0 <= omega_mask < 1 << n:
        raise ValueError(f"omega_mask {omega_mask} out of range for {n} relays")
    total = n_sd
    for j in range(n):
        total = total + (n_rd[:, j] if omega_mask >> j & 1 else n_sr[:, j])
    return total / (n + 1)


def _min_cut_floor(n_sd, n_sr, n_rd, weights) -> np.ndarray:
    """A lower bound on the min-cut per row, for any schedule.  In state m the relays crossing
    cut omega are omega ^ m, so its flow is at least H(omega ^ m) = max(n_sd, their best weaker
    hop h); omega ^ m meets every subset once, so each cut is at least min(weights) * the sum of
    H over all subsets, which by the subset-average lemma is >= 2^N * (n_sd + sum h) / (N+1)."""
    h = np.minimum(n_sr, n_rd)
    return np.maximum(n_sd, len(weights) * min(weights) * cut_average_array(n_sd, h, h, 0))


def two_hop_bound_array(g_sd, g_sr, g_rd, snr: float, schedule: TwoHopSchedule) -> np.ndarray:
    """Min-cut lower bound over a batch of realizations.

    g_sd has shape (T,), g_sr and g_rd shape (T, N); the result is the min
    of `cut_flow_array` over all 2^N cuts, on passes of `_BLOCK >> N` rows.
    """
    n = schedule.n_relays
    caps = link_capacities(g_sd, g_sr, g_rd, snr)
    for n_link in caps[1:]:
        if n_link.shape[1] != n:
            raise ValueError(f"gain arrays have {n_link.shape[1]} relays, schedule has {n}")
    best = np.empty(caps[0].shape[0], dtype=np.float64)
    step = max(1, _BLOCK >> n)
    for start in range(0, best.shape[0], step):
        rows = slice(start, start + step)
        best[rows] = cut_flow_array(*(c[rows] for c in caps), schedule.weights, np.arange(1 << n)).min(axis=0)
    return best
