"""Diversity-multiplexing exponents: a closed form and a grid oracle.

The outage exponent d(r) is the infimum of sum(1 - a_i) over per-link
exponential orders a in [0, 1]^dim that put the channel in outage at
multiplexing gain r.  The one closed form is the m x 1 MISO curve
m*(1 - r): the single relay at listen fraction 1/2 and the two-path
parallel channel follow it with m = 2, and the two-hop N-relay network
under the uniform schedule with m = N+1.  A grid minimizer over each
outage region provides an independent check of it.

Every outage region here is a down-set: lowering any order keeps a point in
outage.  The minimizer relies on that twice.  Rounding every coordinate of a
feasible point down to the grid keeps it feasible, so the grid minimum lands
within dim*step of the true infimum.  And along the last coordinate the grid
points in outage form a prefix, so a staircase search binary-searches that
prefix's end for each grid prefix of the other coordinates instead of
evaluating every grid point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cutset import check_listen_fraction, check_multiplexing_gain, single_relay_order_array

DEFAULT_ORACLE_BUDGET = 1_000_000_000

# grid prefixes the oracle searches together; a memory bound only
_CHUNK = 1 << 16

# predicate values within this of each other are treated as exact ties
_TIE_TOL = 1e-9

RegionPredicate = Callable[[np.ndarray], np.ndarray]


def miso_dmt(m_antennas: int, r: float) -> float:
    """Diversity order m*(1-r) of the fully cooperative m x 1 channel."""
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    check_multiplexing_gain(r)
    return m_antennas * (1.0 - r)


def single_relay_outage_region(r: float, t: float) -> RegionPredicate:
    """Vectorized single-relay outage predicate over (k, 3) arrays.

    Columns are (a_sd, a_sr, a_rd); returns a boolean row mask, true where
    `single_relay_order_array` is at most r (the outage set is taken closed,
    so boundary points count as outage).
    """
    check_listen_fraction(t)
    check_multiplexing_gain(r)

    def predicate(alpha: np.ndarray) -> np.ndarray:
        return single_relay_order_array(alpha[:, 0], alpha[:, 1], alpha[:, 2], t) <= r

    return predicate


def crossing_links_outage_region(n_relays: int, r: float) -> RegionPredicate:
    """Per-cut outage predicate over just the N+1 crossing-link orders.

    Links not crossing the cut never enter the inequality and sit at order 1
    in the optimum, so minimizing over these N+1 coordinates gives the same
    exponent as the full-dimensional search.
    """
    if n_relays < 1:
        raise ValueError(f"n_relays must be >= 1, got {n_relays}")
    check_multiplexing_gain(r)
    threshold = (n_relays + 1) * r

    def predicate(alpha: np.ndarray) -> np.ndarray:
        return alpha.sum(axis=1) <= threshold

    return predicate


def _grid_levels(step: float, name: str = "step") -> int:
    """Number of points of the grid {0, step, 2*step, ...} capped at 1."""
    if not 0.0 < step <= 0.25:
        raise ValueError(f"{name} must lie in (0, 0.25], got {step!r}")
    return int(math.floor(1.0 / step + 1e-9)) + 1


def _check_budget(calls: int, dim: int, levels: int, budget: int) -> None:
    """Raise unless `calls` searches of dim * L^(dim-1) * bit_length(L) evaluations
    fit the budget; a cost over it by a factor e or more is decided on logs, never formed."""
    probes = levels.bit_length()
    terms = (f"{calls} * " if calls > 1 else "") + f"{dim} * {levels}^{dim - 1} * bit_length({levels})"
    if math.log(calls * dim * probes) + (dim - 1) * math.log(levels) > math.log(max(budget, 1)) + 1:
        raise ValueError(f"budget exceeded: {terms} evaluations > {budget}")
    cost = calls * dim * levels ** (dim - 1) * probes
    if cost > budget:
        raise ValueError(f"budget exceeded: {terms} = {cost} evaluations > {budget}")


def _unit_grid(step: float) -> np.ndarray:
    """Grid {0, step, 2*step, ...} capped at 1, endpoint-exact when possible."""
    levels = _grid_levels(step)
    if abs((levels - 1) * step - 1.0) < 1e-9:
        return np.linspace(0.0, 1.0, levels)
    return np.arange(levels) * step


def exponent_grid_oracle(
    predicate: RegionPredicate,
    dim: int,
    step: float,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> float:
    """Staircase min of sum(1 - a_i) over grid points in the outage set.

    `predicate` receives a (k, dim) block of candidate order vectors and
    returns a boolean mask.  It must describe a down-set: a point stays in
    outage when any of its coordinates is lowered (every region of this
    module does).  For each of the L^(dim-1) grid prefixes of the first dim-1
    coordinates, the largest grid value of the last coordinate still in
    outage is binary-searched, bit_length(L) probes per prefix, all prefixes
    of a chunk probed in one predicate call per halving.  Since the sum grows
    with the last coordinate, the best of these staircase rows is the best
    grid point in outage.

    Returns +inf when no grid point satisfies the predicate ("no outage at
    this rate").  Work is bounded by `budget` predicate-coordinate
    evaluations, dim * L^(dim-1) * bit_length(L) with L grid levels per
    coordinate, checked before any work starts; an oversized request raises
    instead of crawling.  Prefixes are searched `_CHUNK` at a time; chunking
    is a memory measure only and does not change the result.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    levels = _grid_levels(step)
    _check_budget(1, dim, levels, budget)
    coords = _unit_grid(step)
    prefixes = levels ** (dim - 1)
    strides = [levels ** (dim - 2 - k) for k in range(dim - 1)]
    best_sum = -math.inf
    for start in range(0, prefixes, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, prefixes), dtype=np.int64)
        rows = np.empty((idx.shape[0], dim), dtype=np.float64)
        for k, stride in enumerate(strides):
            rows[:, k] = coords[(idx // stride) % levels]
        # last-coordinate levels <= lo are in outage, levels >= hi are not
        lo = np.full(idx.shape[0], -1, dtype=np.int64)
        hi = np.full(idx.shape[0], levels, dtype=np.int64)
        for _ in range(levels.bit_length()):
            live = np.flatnonzero(hi - lo > 1)
            mid = (lo[live] + hi[live]) // 2
            probe = rows[live]
            probe[:, -1] = coords[mid]
            inside = predicate(probe)
            lo[live] = np.where(inside, mid, lo[live])
            hi[live] = np.where(inside, hi[live], mid)
        found = lo >= 0
        if np.any(found):
            top = rows[found]
            top[:, -1] = coords[lo[found]]
            best_sum = max(best_sum, float(top.sum(axis=1).max()))
    if best_sum == -math.inf:
        return math.inf
    return dim - best_sum


def optimize_schedule_single(
    r: float,
    t_step: float,
    oracle_step: float = 0.005,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[float, float]:
    """Best listen fraction on the grid {0, t_step, ..., 1} by oracle exponent.

    Evaluates the grid oracle of the single-relay outage region at every t,
    all of them within `budget`, and returns (t_star, d_star).  Exponent ties
    (within 1e-9) are broken toward the t closest to 0.5, then toward the smaller t.
    """
    check_multiplexing_gain(r)
    _check_budget(_grid_levels(t_step, "t_step"), 3, _grid_levels(oracle_step), budget)
    t_grid = _unit_grid(t_step)
    exponents = [
        exponent_grid_oracle(single_relay_outage_region(r, float(t)), 3, oracle_step, budget)
        for t in t_grid
    ]
    d_star = max(exponents)
    tied = [float(t) for t, d in zip(t_grid, exponents) if d >= d_star - _TIE_TOL]
    t_star = min(tied, key=lambda t: (abs(t - 0.5), t))
    return t_star, d_star
