"""Quasi-static Rayleigh channel realizations as gain arrays.

A realization stores squared link-gain magnitudes |h|^2 for the direct
source-destination link and for each relay's source-relay and
relay-destination links.  With unit-variance complex normal fading, each
squared magnitude is Exponential(1); phases never enter any of the bounds
computed by this package, so only the gains are kept.
"""

from __future__ import annotations

import numpy as np

from .rng import exponentials_for_streams


def sample_gain_arrays(
    n_relays: int, seed: int, stream_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized realizations for a batch of stream indices.

    Returns (g_sd, g_sr, g_rd) with shapes (T,), (T, N), (T, N): g_sd is
    the source-destination gain, g_sr[:, i] and g_rd[:, i] the source-relay
    and relay-destination gains of relay i.  Uniforms of each stream are
    consumed in the fixed order g_sd, g_sr[0..N-1], g_rd[0..N-1], so a row
    is a pure function of (seed, stream_index).
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    g = exponentials_for_streams(seed, stream_indices, 2 * n_relays + 1)
    return g[:, 0], g[:, 1 : 1 + n_relays], g[:, 1 + n_relays :]
