"""Falsification harnesses for the inequalities behind the multi-relay bound.

Three checks, each returning its margin LHS - RHS (nonnegative when the
inequality holds):

* the product-mean inequality for similarly ordered sequences,
  mean(a*b) >= mean(a) * mean(b);
* the subset-average inequality: if f(V) >= max(a, max_{i in V} s_i) for
  every subset V of {1..n}, then the average of f over all 2^n subsets is
  at least (a + sum(s)) / (n + 1);
* the cut-value consistency: under the uniform schedule, a cut's Z-channel
  flow is at least the average of its crossing-link capacities.

All three inequalities hold unconditionally on their stated domains, so
the randomized suites must report zero violations; they exist to catch
implementation regressions, not to test mathematics.  Inputs are
restricted to nonnegative reals, the regime in which the checks are
applied to link capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cutset import TwoHopSchedule, cut_average_array, cut_flow_array, link_capacities
from .rng import check_seed, uniforms_for_streams, unit_exponentials

SIGN_TOL = 1e-12  # floating tolerance for margin >= 0 assertions

MAX_SUBSET_LEN = 16
MAX_CUT_RELAYS = 10


class CheckKind(str, Enum):
    TCHEBYCHEF = "tchebychef"
    AVG_LEMMA = "avg-lemma"
    CUT_AVG = "cut-avg"


@dataclass(frozen=True)
class VerificationReport:
    kind: CheckKind
    instances: int
    violations: int
    worst_margin: float
    seed: int


def check_tchebychef(a: Sequence[float], b: Sequence[float]) -> float:
    """Margin mean(a*b) - mean(a)*mean(b) for similarly ordered sequences.

    Sequences are similarly ordered when (a_u - a_v)*(b_u - b_v) >= 0 for
    every pair; anything else is rejected because the inequality can fail.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.ndim != 1 or b_arr.ndim != 1 or a_arr.shape != b_arr.shape:
        raise ValueError("a and b must be one-dimensional sequences of equal length")
    if a_arr.size < 1:
        raise ValueError("sequences must have length >= 1")
    da = a_arr[:, None] - a_arr[None, :]
    db = b_arr[:, None] - b_arr[None, :]
    if np.any(da * db < 0):
        raise ValueError("not similarly ordered")
    return float((a_arr * b_arr).mean() - a_arr.mean() * b_arr.mean())


def _subset_maxima(s: Sequence[float]) -> list[float]:
    """max of s over each subset bitmask, -inf for the empty subset."""
    n = len(s)
    out = [-math.inf] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask] = max(out[mask ^ low], s[low.bit_length() - 1])
    return out


def check_avg_lemma(a: float, s: Sequence[float]) -> float:
    """Margin of the subset-average inequality at its tight instantiation,
    f(V) = max(a, max_{i in V} s_i) with f(empty) = a."""
    s = [float(v) for v in s]
    n = len(s)
    if n > MAX_SUBSET_LEN:
        raise ValueError(f"at most {MAX_SUBSET_LEN} elements supported, got {n}")
    if a < 0 or any(v < 0 for v in s):
        raise ValueError("a and all s_i must be >= 0")
    maxima = _subset_maxima(s)
    total = 0.0
    for mask in range(1 << n):
        total += max(a, maxima[mask])
    lhs = total / (1 << n)
    rhs = (a + math.fsum(s)) / (n + 1)
    return lhs - rhs


def _cut_avg_margins(n_sd, n_sr, n_rd, omega_mask: int) -> np.ndarray:
    """Uniform-schedule cut flow minus crossing-link average, per row."""
    n = n_sr.shape[1]
    if n > MAX_CUT_RELAYS:
        raise ValueError(f"at most {MAX_CUT_RELAYS} relays supported, got {n}")
    weights = TwoHopSchedule.uniform(n).weights
    flow = cut_flow_array(n_sd, n_sr, n_rd, weights, omega_mask)
    return flow - cut_average_array(n_sd, n_sr, n_rd, omega_mask)


def _tchebychef_instance(u: np.ndarray, max_len: int) -> float:
    n = 1 + int(u[0] * max_len)
    a = np.sort(10.0 * u[1 : 1 + n])
    b = np.sort(10.0 * u[1 + max_len : 1 + max_len + n])
    return check_tchebychef(a, b)


def _avg_lemma_instance(u: np.ndarray, max_len: int) -> float:
    n = 1 + int(u[0] * max_len)
    a = 10.0 * u[1]
    s = 10.0 * u[2 : 2 + n]
    return check_avg_lemma(float(a), s.tolist())


def cut_avg_suite_margins(uniforms: np.ndarray, max_relays: int) -> np.ndarray:
    """Margins of the cut-avg instances drawn from rows of `uniforms`.

    Row i picks N = 1 + floor(u0 * max_relays), the cut floor(u1 * 2^N),
    snr = 10^(4 u2) (0..40 dB) and Exponential(1) gains from the next 2N+1
    uniforms.  Instances are evaluated in batches of equal (N, cut).
    """
    n = 1 + (uniforms[:, 0] * max_relays).astype(np.int64)
    omega = (uniforms[:, 1] * (1 << n)).astype(np.int64)
    # a python float power per instance: numpy's array power may round differently
    snr = np.array([10.0 ** (4.0 * u) for u in uniforms[:, 2].tolist()])
    margins = np.empty(uniforms.shape[0], dtype=np.float64)
    for n_relays, omega_mask in sorted(set(zip(n.tolist(), omega.tolist()))):
        rows = np.flatnonzero((n == n_relays) & (omega == omega_mask))
        gains = unit_exponentials(uniforms[rows, 3 : 3 + 2 * n_relays + 1])
        g_sd, g_sr, g_rd = gains[:, 0], gains[:, 1 : 1 + n_relays], gains[:, 1 + n_relays :]
        margins[rows] = _cut_avg_margins(*link_capacities(g_sd, g_sr, g_rd, snr[rows]), omega_mask)
    return margins


def run_randomized_suite(
    kind: CheckKind,
    n_instances: int,
    seed: int,
    max_len: int = 8,
    max_relays: int = 6,
) -> VerificationReport:
    """Draw instances from per-index substreams and aggregate check margins.

    Sizes are uniform on their allowed range, a and s values uniform on
    [0, 10], Z-channel gains Exponential(1), SNR log-uniform over 0..40 dB;
    the two product-mean sequences are drawn i.i.d. then sorted so the
    similarly-ordered precondition holds by construction.
    """
    kind = CheckKind(kind)
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    check_seed(seed)
    if not 1 <= max_len <= MAX_SUBSET_LEN:
        raise ValueError(f"max_len must lie in [1, {MAX_SUBSET_LEN}], got {max_len}")
    if not 1 <= max_relays <= MAX_CUT_RELAYS:
        raise ValueError(f"max_relays must lie in [1, {MAX_CUT_RELAYS}], got {max_relays}")
    if kind is CheckKind.TCHEBYCHEF:
        draws = 1 + 2 * max_len
    elif kind is CheckKind.AVG_LEMMA:
        draws = 2 + max_len
    else:
        draws = 3 + 2 * max_relays + 1

    # one batched draw over per-instance substreams; row i is exactly the
    # first `draws` uniforms of stream (seed, i)
    uniforms = uniforms_for_streams(seed, np.arange(n_instances, dtype=np.uint64), draws)
    if kind is CheckKind.CUT_AVG:
        margins = cut_avg_suite_margins(uniforms, max_relays)
    else:
        instance = _tchebychef_instance if kind is CheckKind.TCHEBYCHEF else _avg_lemma_instance
        margins = np.array([instance(u, max_len) for u in uniforms])
    return VerificationReport(
        kind=kind,
        instances=n_instances,
        violations=int(np.count_nonzero(margins < -SIGN_TOL)),
        worst_margin=float(margins.min()),
        seed=seed,
    )
