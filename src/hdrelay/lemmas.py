"""Falsification harnesses for the inequalities behind the multi-relay bound.

Three checks, each an array kernel returning per-row margins LHS - RHS
(nonnegative when the inequality holds):

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

import numpy as np

from .channel import _exponentials
from .cutset import TwoHopSchedule, _subset_average, cut_average_array, cut_flow_array, link_capacities
from .rng import check_seed, uniforms_for_streams

SIGN_TOL = 1e-12  # floating tolerance for margin >= 0 assertions

MAX_SUBSET_LEN = 16  # bounds each block's 2 + n (tchebychef 1 + 2n) draws and tchebychef's (T, n, n) pair arrays
MAX_CUT_RELAYS = 10

# instances per suite block; a memory bound only
_BLOCK = 1 << 16


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


def tchebychef_margin_array(a, b) -> np.ndarray:
    """Margins mean(a*b) - mean(a)*mean(b) of similarly ordered (T, n) rows.

    Rows are similarly ordered when (a_u - a_v)*(b_u - b_v) >= 0 for every
    pair; anything else is rejected because the inequality can fail.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("a and b must be (T, n) arrays of equal shape")
    if a.shape[1] < 1:
        raise ValueError("sequences must have length >= 1")
    da = a[:, :, None] - a[:, None, :]
    db = b[:, :, None] - b[:, None, :]
    if np.any(da * db < 0):
        raise ValueError("not similarly ordered")
    return (a * b).mean(axis=1) - a.mean(axis=1) * b.mean(axis=1)


def avg_lemma_margin_array(a, s) -> np.ndarray:
    """Margins of the subset-average inequality at its tight instantiation, f(V) = max(a, max_{i in V}
    s_i), for a of shape (T,) and s of shape (T, n): the two-hop floor's `cutset._subset_average` - rhs."""
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if a.ndim != 1 or s.ndim != 2 or s.shape[0] != a.shape[0]:
        raise ValueError("a must have shape (T,) and s shape (T, n)")
    if np.any(a < 0) or np.any(s < 0):
        raise ValueError("a and all s_i must be >= 0")
    rhs = (a + np.array([math.fsum(row) for row in s.tolist()])) / (s.shape[1] + 1)
    return _subset_average(a, s) - rhs


def suite_margins(kind: CheckKind, uniforms: np.ndarray, max_len: int, max_relays: int) -> np.ndarray:
    """Margins of the `kind` instances drawn from rows of `uniforms`.

    Row i picks the size n = 1 + floor(u0 * max_len).  Product-mean rows
    take a = sort(10 u[1:1+n]) and b = sort(10 u[1+max_len:1+max_len+n]);
    subset-average rows take a = 10 u1 and s = 10 u[2:2+n].  Cut-avg rows
    instead pick N = 1 + floor(u0 * max_relays), the cut floor(u1 * 2^N),
    snr = 10^(4 u2) (0..40 dB) and Exponential(1) gains from the next 2N+1
    uniforms; their margin is the uniform-schedule cut flow minus the crossing-link
    average.  Rows of equal size, whatever their cut, go through the kernels together.
    """
    if kind is CheckKind.CUT_AVG:
        size = 1 + (uniforms[:, 0] * max_relays).astype(np.int64)
        cut = (uniforms[:, 1] * (1 << size)).astype(np.int64)
        # a python float power per instance: numpy's array power may round differently
        snr = np.array([10.0 ** (4.0 * u) for u in uniforms[:, 2].tolist()])
    else:
        size = 1 + (uniforms[:, 0] * max_len).astype(np.int64)
    margins = np.empty(uniforms.shape[0], dtype=np.float64)
    for n in sorted(set(size.tolist())):
        rows = np.flatnonzero(size == n)
        u = uniforms[rows]
        if kind is CheckKind.TCHEBYCHEF:
            a, b = 10.0 * u[:, 1 : 1 + n], 10.0 * u[:, 1 + max_len : 1 + max_len + n]
            margins[rows] = tchebychef_margin_array(np.sort(a, axis=1), np.sort(b, axis=1))
        elif kind is CheckKind.AVG_LEMMA:
            margins[rows] = avg_lemma_margin_array(10.0 * u[:, 1], 10.0 * u[:, 2 : 2 + n])
        else:
            g = _exponentials(u[:, 3 : 4 + 2 * n])  # g_sd, g_sr[0..n-1], g_rd[0..n-1], in place
            capacities = link_capacities(g[:, 0], g[:, 1 : 1 + n], g[:, 1 + n :], snr[rows])
            flow = cut_flow_array(*capacities, TwoHopSchedule.uniform(n).weights, cut[rows])
            margins[rows] = flow - cut_average_array(*capacities, cut[rows])
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
    similarly-ordered precondition holds by construction.  Instances are
    drawn and checked `_BLOCK` at a time; blocking is a memory measure only
    and does not change the report.
    """
    kind = CheckKind(kind)
    if not 1 <= n_instances <= 1 << 64:
        raise ValueError(f"n_instances must lie in [1, 2^64], one 64-bit stream key each, got {n_instances}")
    check_seed(seed)
    if not 1 <= max_len <= MAX_SUBSET_LEN:
        raise ValueError(f"max_len must lie in [1, {MAX_SUBSET_LEN}], got {max_len}")
    if not 1 <= max_relays <= MAX_CUT_RELAYS:
        raise ValueError(f"max_relays must lie in [1, {MAX_CUT_RELAYS}], got {max_relays}")
    draws = {
        CheckKind.TCHEBYCHEF: 1 + 2 * max_len,
        CheckKind.AVG_LEMMA: 2 + max_len,
        CheckKind.CUT_AVG: 3 + 2 * max_relays + 1,
    }[kind]
    violations, worst = 0, math.inf
    for start in range(0, n_instances, _BLOCK):
        # row i is exactly the first `draws` uniforms of stream (seed, start + i)
        idx = np.arange(start, min(start + _BLOCK, n_instances), dtype=np.uint64)
        margins = suite_margins(kind, uniforms_for_streams(seed, idx, draws), max_len, max_relays)
        violations += int(np.count_nonzero(margins < -SIGN_TOL))
        worst = min(worst, float(margins.min()))
    return VerificationReport(kind, n_instances, violations, worst, seed)
