"""Quasi-static Rayleigh channel realizations as gain arrays.

A realization stores squared link-gain magnitudes |h|^2 for the direct
source-destination link and for each relay's source-relay and
relay-destination links.  With unit-variance complex normal fading, each
squared magnitude is Exponential(1); phases never enter any of the bounds
computed by this package, so only the gains are kept.

Campaign stream layout: trial k takes its direct gain g_sd from word k % 4 of
stream ``(seed, k // 4)``, so one Philox block serves four trials, and its
relay gains g_sr[0..N-1], g_rd[0..N-1] from the first 2N words of stream
``(seed, RELAY_STREAMS + k)``.  A trial's gains are a pure function of
(seed, k), shared by every SNR point of a campaign, so `sample_gain_arrays`
draws any slice of the trial range, and the relay words of only the trials
it keeps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import rng

# trial k < 2^62 has direct stream k // 4 < 2^60 and relay stream 2^63 + k, so none overlap nor wrap
RELAY_STREAMS = 1 << 63
MAX_TRIALS = 1 << 62


def _exponentials(u: np.ndarray) -> np.ndarray:
    """The inverse-CDF transform -ln(1 - u) of uniforms, in place, so a zero uniform maps to gain 0."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u


def sample_gain_arrays(
    n_relays: int, seed: int, first: int, last: int,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains (g_sd, g_sr, g_rd) of trials [first, last) in the campaign stream layout.

    The direct uniforms of the slice are drawn in one pass.  `keep(u)` maps them to the
    indices, into the slice, of the trials to keep, in the order their rows should take
    (all, in trial order, when `keep` is None); only those get their gains transformed and
    relay gains drawn, in one more pass, and appear in the result.
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    first, last = int(first), int(last)  # so that the stream arithmetic cannot wrap
    if not 0 <= first <= last <= MAX_TRIALS:
        raise ValueError(f"need 0 <= first <= last <= 2**62, got {first}, {last}")
    # trial first is word first % 4 of the slice's first block
    blocks = np.arange(first // 4, (last + 3) // 4, dtype=np.uint64)
    direct = rng.uniforms_for_streams(seed, blocks, 4).reshape(-1)[first % 4 : first % 4 + last - first]
    rows = np.arange(direct.size) if keep is None else keep(direct)
    relays = rows.astype(np.uint64)
    relays += np.uint64(RELAY_STREAMS + first)
    u = _exponentials(rng.uniforms_for_streams(seed, relays, 2 * n_relays))
    # gathered after the relay pass: gathered before it, campaign-single took 200-7,400 page
    # faults per pass in 5 of 5 processes, where this order takes 1 or 2 in most
    return _exponentials(direct[rows]), u[:, :n_relays], u[:, n_relays:]
