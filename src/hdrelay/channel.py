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
function of (seed, i, k), and the relay words of any set of trials can be
drawn without drawing the others.
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


def gains_from_uniforms(u: np.ndarray, n_relays: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_sd, g_sr, g_rd) of shapes (T,), (T, N), (T, N) from (T, 2N+1) uniforms.

    Columns are consumed in the fixed order g_sd, g_sr[0..N-1], g_rd[0..N-1]
    (relay i's source-relay and relay-destination gains), each through the
    inverse-CDF transform -ln(1 - u).  The transform runs in place: `u` is
    overwritten and the gains are views of it.
    """
    _exponentials(u)
    return u[:, 0], u[:, 1 : 1 + n_relays], u[:, 1 + n_relays :]


def sample_gain_arrays(
    n_relays: int, seed: int, point, start, stop,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (g_sd, g_sr, g_rd) of the trials in [start, stop) of SNR point
    `point`, in the campaign stream layout.

    `point`, `start` and `stop` are ints naming one range, or equal-length sequences naming
    several, whose trials follow one another in range order.  The direct uniforms of every range
    are drawn first, in one pass, and copied end to end; `keep` maps them to a boolean mask, and
    only the trials it selects (all when `keep` is None) get their gains transformed and relay
    gains drawn, in one more pass, and appear in the result, in trial order.
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    ranges = list(zip(*(_ints(v) for v in (point, start, stop)), strict=True))
    for p, _, b in ranges:
        check_stream_space(p + 1, b)
    u_sd = _direct_uniforms(seed, ranges)
    rows = np.arange(u_sd.size) if keep is None else np.flatnonzero(keep(u_sd))
    # row k of range j, whose trials begin at row o_j of u_sd, is its trial start_j + k - o_j
    offsets = list(accumulate((b - a for _, a, b in ranges), initial=0))
    cuts = np.searchsorted(rows, offsets).tolist()
    relays = rows.astype(np.uint64)
    for (p, a, _), o, c, d in zip(ranges, offsets, cuts, cuts[1:]):
        relays[c:d] += np.uint64((2 * p + 1) * SNR_STREAM_STRIDE + a - o)
    u = _exponentials(rng.uniforms_for_streams(seed, relays, 2 * n_relays))
    return _exponentials(u_sd[rows]), u[:, :n_relays], u[:, n_relays:]


def _direct_uniforms(seed: int, ranges: list[tuple[int, int, int]]) -> np.ndarray:
    """The direct uniforms of every (point, start, stop) range, end to end, from one pass over
    their blocks: a view of the block words for one range (a copy doubled a single-relay
    campaign's page faults), else a copy, so that the words are freed before the relay pass."""
    blocks = [np.arange(a // 4, (b + 3) // 4, dtype=np.uint64) + np.uint64(2 * p * SNR_STREAM_STRIDE)
              for p, a, b in ranges]
    words = rng.uniforms_for_streams(seed, np.concatenate(blocks), 4).reshape(-1)
    firsts = accumulate((4 * w.size for w in blocks), initial=0)
    spans = [words[f + a % 4 : f + a % 4 + b - a] for f, (_, a, b) in zip(firsts, ranges)]
    return spans[0] if len(spans) == 1 else np.concatenate(spans)


def _ints(v) -> list[int]:
    """An int or a sequence of ints as a list of Python ints, whose stream arithmetic cannot wrap."""
    return [int(x) for x in v] if np.iterable(v) else [int(v)]
