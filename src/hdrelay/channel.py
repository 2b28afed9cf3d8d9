"""Quasi-static Rayleigh channel realizations and high-SNR exponential orders.

A realization stores squared link-gain magnitudes |h|^2 for the direct
source-destination link and for each relay's source-relay and
relay-destination links.  With unit-variance complex normal fading, each
squared magnitude is Exponential(1); phases never enter any of the bounds
computed by this package, so only the gains are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RandomStream, exponentials_for_streams


def _check_gains(name: str, values: tuple[float, ...]) -> None:
    for v in values:
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """Squared link-gain magnitudes for one fading draw.

    g_sd is the source-destination gain; g_sr[i] and g_rd[i] are the
    source-relay and relay-destination gains of relay i.  Amplitudes, where
    a bound needs them, are recovered as square roots.
    """

    g_sd: float
    g_sr: tuple[float, ...] = field(default=())
    g_rd: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_sr", tuple(float(g) for g in self.g_sr))
        object.__setattr__(self, "g_rd", tuple(float(g) for g in self.g_rd))
        object.__setattr__(self, "g_sd", float(self.g_sd))
        if len(self.g_sr) != len(self.g_rd):
            raise ValueError(
                f"g_sr and g_rd must have equal length, got {len(self.g_sr)} and {len(self.g_rd)}"
            )
        _check_gains("g_sd", (self.g_sd,))
        _check_gains("g_sr", self.g_sr)
        _check_gains("g_rd", self.g_rd)

    @property
    def n_relays(self) -> int:
        return len(self.g_sr)

    def as_batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g_sd, g_sr, g_rd) as a batch of one row, shapes (1,), (1, N), (1, N)."""
        return np.array([self.g_sd]), np.array([self.g_sr]), np.array([self.g_rd])


@dataclass(frozen=True)
class ExponentVector:
    """Per-link exponential orders.

    The high-SNR image of a realization: a_xy plays the role of
    log(1 + g_xy * snr) / log(snr).  Asymptotically the orders live in
    [0, 1] (that interval is the support of their limiting density, and
    the outage optimizations search only inside it), but finite-SNR
    conversions of gains above 1 land slightly above 1, so only
    nonnegativity is enforced here.
    """

    a_sd: float
    a_sr: tuple[float, ...] = field(default=())
    a_rd: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_sr", tuple(float(a) for a in self.a_sr))
        object.__setattr__(self, "a_rd", tuple(float(a) for a in self.a_rd))
        object.__setattr__(self, "a_sd", float(self.a_sd))
        if len(self.a_sr) != len(self.a_rd):
            raise ValueError(
                f"a_sr and a_rd must have equal length, got {len(self.a_sr)} and {len(self.a_rd)}"
            )
        for a in (self.a_sd, *self.a_sr, *self.a_rd):
            if not (math.isfinite(a) and a >= 0.0):
                raise ValueError(f"exponential orders must be finite and >= 0, got {a!r}")

    @property
    def n_relays(self) -> int:
        return len(self.a_sr)


def sample_realization(n_relays: int, stream: RandomStream) -> ChannelRealization:
    """Draw one realization with i.i.d. Exponential(1) gains.

    `sample_gain_arrays` at the single stream index of `stream`, so the
    result is a pure function of (seed, stream_index).
    """
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, stream.seed, stream.index_batch())
    return ChannelRealization(g_sd=float(g_sd[0]), g_sr=tuple(g_sr[0]), g_rd=tuple(g_rd[0]))


def sample_gain_arrays(
    n_relays: int, seed: int, stream_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized realizations for a batch of stream indices.

    Returns (g_sd, g_sr, g_rd) with shapes (T,), (T, N), (T, N).  Uniforms
    of each stream are consumed in the fixed order g_sd, g_sr[0..N-1],
    g_rd[0..N-1].
    """
    if n_relays < 0:
        raise ValueError(f"n_relays must be >= 0, got {n_relays}")
    g = exponentials_for_streams(seed, stream_indices, 2 * n_relays + 1)
    return g[:, 0], g[:, 1 : 1 + n_relays], g[:, 1 + n_relays :]


def exponential_order(g, snr):
    """Finite-SNR exponential order log(1 + g*snr) / log(snr).

    The logarithm base cancels.  Accepts scalars or arrays; requires
    snr > 1 so the denominator is positive.
    """
    snr_arr = np.asarray(snr, dtype=np.float64)
    if np.any(snr_arr <= 1.0):
        raise ValueError(f"snr must be > 1, got {snr!r}")
    g_arr = np.asarray(g, dtype=np.float64)
    if np.any(g_arr < 0):
        raise ValueError(f"gain must be >= 0, got {g!r}")
    out = np.log1p(g_arr * snr_arr) / np.log(snr_arr)
    if np.isscalar(g) and np.isscalar(snr):
        return float(out)
    return out


def orders_from_realization(
    realization: ChannelRealization, snr: float, clip: bool = False
) -> ExponentVector:
    """Exponential orders of every link of a realization at finite SNR.

    With `clip`, orders are clamped into [0, 1], the support used by the
    asymptotic outage analysis.
    """
    a_sd = exponential_order(realization.g_sd, snr)
    a_sr = [exponential_order(g, snr) for g in realization.g_sr]
    a_rd = [exponential_order(g, snr) for g in realization.g_rd]
    if clip:
        a_sd = min(a_sd, 1.0)
        a_sr = [min(a, 1.0) for a in a_sr]
        a_rd = [min(a, 1.0) for a in a_rd]
    return ExponentVector(a_sd=a_sd, a_sr=tuple(a_sr), a_rd=tuple(a_rd))
