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
    n_relays: int, seed: int, point: int, start: int, stop: int,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (g_sd, g_sr, g_rd) of the trials in [start, stop) of SNR point
    `point`, in the campaign stream layout.

    The direct uniforms of the whole range are drawn first; `keep` maps them to a boolean
    mask, and only the trials it selects (all when `keep` is None) get their gains transformed
    and relay gains drawn, and appear in the result, in trial order.
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    check_stream_space(point + 1, stop)
    first = start // 4
    blocks = np.arange(first, (stop + 3) // 4, dtype=np.uint64) + np.uint64(2 * point * SNR_STREAM_STRIDE)
    u_sd = rng.uniforms_for_streams(seed, blocks, 4).reshape(-1)[start - 4 * first : stop - 4 * first]
    rows = np.arange(stop - start) if keep is None else np.flatnonzero(keep(u_sd))
    relays = rows.astype(np.uint64) + np.uint64((2 * point + 1) * SNR_STREAM_STRIDE + start)
    u = _exponentials(rng.uniforms_for_streams(seed, relays, 2 * n_relays))
    return _exponentials(u_sd[rows]), u[:, :n_relays], u[:, n_relays:]
