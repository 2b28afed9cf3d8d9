"""Quasi-static Rayleigh channel realizations as gain arrays.

A realization stores squared link-gain magnitudes |h|^2 for the direct
source-destination link and for each relay's source-relay and
relay-destination links.  With unit-variance complex normal fading, each
squared magnitude is Exponential(1); phases never enter any of the bounds
computed by this package, so only the gains are kept.

Campaign stream layout: trial k at SNR point i takes its direct gain g_sd
from word k % 4 of stream ``(seed, 2i * SNR_STREAM_STRIDE + k // 4)``, so
one Philox block serves four trials, and its relay gains g_sr[0..N-1],
g_rd[0..N-1] from the first 2N words of stream
``(seed, (2i + 1) * SNR_STREAM_STRIDE + k)``.  A trial's gains are a pure
function of (seed, i, k), so `sample_gain_arrays` draws any slice of the
flattened (point, trial) sequence, where trial k of point i follows the i * T
trials of the points before it, and the relay words of only the trials it keeps.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

import numpy as np

from . import rng

# stream indices per range; each SNR point holds two ranges, so a grid has at most 2^23 points
SNR_STREAM_STRIDE = 1 << 40


def check_stream_space(points: int, trials: int) -> None:
    """`points` SNR points of `trials` trials each must fit their stream
    ranges, and every range the 64-bit key word, so no two trials share a stream."""
    if trials >= SNR_STREAM_STRIDE:
        raise ValueError(f"trials_per_point must be < {SNR_STREAM_STRIDE}, got {trials}")
    if 2 * points * SNR_STREAM_STRIDE > 1 << 64:
        raise ValueError(f"a campaign holds at most {2**63 // SNR_STREAM_STRIDE} SNR points, got {points}")


def _exponentials(u: np.ndarray) -> np.ndarray:
    """The inverse-CDF transform -ln(1 - u) of uniforms, in place, so a zero uniform maps to gain 0."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u


def sample_gain_arrays(
    n_relays: int, seed: int, trials: int, first: int, last: int,
    keep: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (g_sd, g_sr, g_rd) of the slice [first, last) of the flattened (point, trial)
    sequence of `trials` trials per SNR point, in the campaign stream layout.

    The direct uniforms of the slice are drawn in one pass.  `keep(point, u)` maps those of each
    point the slice reaches, a view of that pass, to a boolean mask; only the trials it selects
    (all when `keep` is None) get their gains transformed and relay gains drawn, in one more
    pass, and appear in the result, in sequence order.
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    trials, first, last = int(trials), int(first), int(last)  # so that the stream arithmetic cannot wrap
    if trials < 1 or not 0 <= first <= last:
        raise ValueError(f"need trials >= 1 and 0 <= first <= last, got {trials}, {first}, {last}")
    # trials [a, b) of each point p the slice reaches; an empty slice reaches one, with none
    points = range(first // trials, max(first, last - 1) // trials + 1)
    check_stream_space(points.stop, trials)
    spans = [(p, max(first - p * trials, 0), min(last - p * trials, trials)) for p in points]
    blocks = [np.arange(a // 4, (b + 3) // 4, dtype=np.uint64) + np.uint64(2 * p * SNR_STREAM_STRIDE)
              for p, a, b in spans]
    words = rng.uniforms_for_streams(seed, np.concatenate(blocks), 4).reshape(-1)
    # trial a of a point is word a % 4 of its first block
    firsts = accumulate((4 * w.size for w in blocks), initial=0)
    direct = [words[f + a % 4 : f + a % 4 + b - a] for f, (_, a, b) in zip(firsts, spans)]
    rows = [np.arange(d.size) if keep is None else np.flatnonzero(keep(p, d)) for p, d in zip(points, direct)]
    cuts = np.cumsum([r.size for r in rows])
    relays = np.empty(cuts[-1], dtype=np.uint64)
    for (p, a, _), r, out in zip(spans, rows, np.split(relays, cuts[:-1])):
        out[:] = r
        out += np.uint64((2 * p + 1) * SNR_STREAM_STRIDE + a)
    u = _exponentials(rng.uniforms_for_streams(seed, relays, 2 * n_relays))
    # gathered after the relay pass: gathered before it, campaign-single took 200-7,400 page
    # faults per pass in 5 of 5 processes, where this order takes 1 or 2 in most
    g_sd = np.concatenate([d[r] for d, r in zip(direct, rows)])
    return _exponentials(g_sd), u[:, :n_relays], u[:, n_relays:]
