"""Quasi-static Rayleigh channel realizations as gain arrays.

A realization stores squared link-gain magnitudes |h|^2 for the direct
source-destination link and for each relay's source-relay and
relay-destination links.  With unit-variance complex normal fading, each
squared magnitude is Exponential(1); phases never enter any of the bounds
computed by this package, so only the gains are kept.
"""

from __future__ import annotations

import numpy as np

from . import rng


def gains_from_uniforms(u: np.ndarray, n_relays: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_sd, g_sr, g_rd) of shapes (T,), (T, N), (T, N) from (T, 2N+1) uniforms.

    Columns are consumed in the fixed order g_sd, g_sr[0..N-1], g_rd[0..N-1]
    (relay i's source-relay and relay-destination gains), each through the
    inverse-CDF transform -ln(1 - u), so a zero uniform maps to gain 0.  The
    transform runs in place: `u` is overwritten and the gains are views of it.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u[:, 0], u[:, 1 : 1 + n_relays], u[:, 1 + n_relays :]


def sample_gain_arrays(
    n_relays: int, seed: int, stream_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`gains_from_uniforms` of the first 2N+1 uniforms of each stream index,
    so a row is a pure function of (seed, stream_index)."""
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    u = rng.uniforms_for_streams(seed, stream_indices, 2 * n_relays + 1)
    return gains_from_uniforms(u, n_relays)
