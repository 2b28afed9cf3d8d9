"""Diversity-multiplexing exponents: a closed form and a grid oracle.

The outage exponent d(r) is the infimum of sum(1 - a_i) over per-link
exponential orders a in [0, 1]^dim that put the channel in outage at
multiplexing gain r.  The one closed form is the m x 1 MISO curve
m*(1 - r): the single relay at listen fraction 1/2 and the two-path
parallel channel follow it with m = 2, and the two-hop N-relay network
under the uniform schedule with m = N+1.  A grid minimizer over each
outage region provides an independent check of it.

Every outage region here is a down-set: lowering any order keeps a point in
outage.  The minimizer relies on that three times.  Rounding every coordinate
of a feasible point down to the grid keeps it feasible, so the grid minimum
lands within dim*step of the true infimum.  Along the last coordinate the grid
points in outage form a prefix, so a staircase search binary-searches that
prefix's end for each grid prefix of the other coordinates instead of
evaluating every grid point.  And that end can only fall as a prefix rises,
so the search runs coarse to fine: it first searches the prefixes on a coarse
sub-grid, then bounds every cell of prefixes between two coarse corners by
the lower corner's end.  A cell whose bound cannot beat the best sum found is
skipped, and the others are searched only between their corners' ends.  The
bound is summed like the rows it bounds and float rounding is monotone, so
the result is the float of the plain staircase; no prefix is searched twice,
so the plain staircase's work remains the budget's worst case.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .cutset import check_listen_fraction, check_multiplexing_gain, single_relay_order_array

DEFAULT_ORACLE_BUDGET = 1_000_000_000

# grid prefixes (or cells of them) the oracle handles together; a memory bound only
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


def _digits(idx: np.ndarray, base: int, axes: int) -> list[np.ndarray]:
    """Per-axis base-`base` digits of flat indices, most significant first."""
    return [(idx // base ** (axes - 1 - a)) % base for a in range(axes)]


def _search(
    predicate: RegionPredicate, rows: np.ndarray, coords: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> float:
    """Best order sum of the rows' staircase tops, binary-searched between lo and hi.

    For each row, last-coordinate levels <= lo are known to be in outage and
    levels >= hi known not to be; each halving narrows lo and hi in place and
    probes every row whose gap is still open in one predicate call, so a row
    takes at most bit_length(L) probes.  On return lo holds each row's last
    level in outage, or -1; returns -inf when no row has one.
    """
    for _ in range(len(coords).bit_length()):
        live = np.flatnonzero(hi - lo > 1)
        if live.size == 0:
            break
        mid = (lo[live] + hi[live]) // 2
        probe = rows[live]
        probe[:, -1] = coords[mid]
        inside = predicate(probe)
        lo[live] = np.where(inside, mid, lo[live])
        hi[live] = np.where(inside, hi[live], mid)
    top = rows[lo >= 0]
    top[:, -1] = coords[lo[lo >= 0]]
    return float(top.sum(axis=1).max(initial=-math.inf))


def exponent_grid_oracle(
    predicate: RegionPredicate,
    dim: int,
    step: float,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> float:
    """Coarse-to-fine staircase min of sum(1 - a_i) over grid points in the outage set.

    `predicate` receives a (k, dim) block of candidate order vectors and
    returns a boolean mask.  It must describe a down-set: a point stays in
    outage when any of its coordinates is lowered (every region of this
    module does).  For a grid prefix p of the first dim-1 coordinates, let
    lo(p) be the largest grid level of the last coordinate still in outage;
    since the sum grows with the last coordinate, the best of the staircase
    rows (p, lo(p)) is the best grid point in outage.

    The search runs coarse to fine.  First lo is binary-searched on the
    coarse prefixes, whose levels are every k-th level and the top level L-1
    on each prefix axis, k = ceil(sqrt(L)).  Every other prefix lies in a
    cell between two coarse corners, its levels rounded down and rounded up
    to coarse levels, and the down-set gives lo(upper) <= lo(p) <= lo(lower).
    A cell whose bound, the sum of its highest prefix coordinates and
    coords[lo(lower)], is at most the best sum found so far is skipped, and
    so is each prefix whose own bound is; where lo(upper) = lo(lower), lo(p)
    needs no probe; otherwise it is binary-searched in that narrowed range.
    Bounds are summed like the rows they bound and float rounding is
    monotone, so no skipped row beats the best one: the result is the float
    the plain staircase and the exhaustive search return.

    Returns +inf when no grid point satisfies the predicate ("no outage at
    this rate").  Every prefix is searched at most once, with at most
    bit_length(L) probes, so dim * L^(dim-1) * bit_length(L) predicate-
    coordinate evaluations, with L grid levels per coordinate, bound the work;
    that is checked against `budget` before any work starts, and an oversized
    request raises instead of crawling.  Coarse prefixes, cells and fine
    prefixes are handled `_CHUNK` at a time; chunking is a memory measure
    only and does not change the result.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    levels = _grid_levels(step)
    _check_budget(1, dim, levels, budget)
    coords = _unit_grid(step)
    axes = dim - 1
    coarse = np.unique(np.append(np.arange(0, levels, math.isqrt(levels - 1) + 1), levels - 1))
    n_coarse = len(coarse)
    strides = [n_coarse ** (axes - 1 - a) for a in range(axes)]
    best_sum = -math.inf

    coarse_lo = np.empty(n_coarse**axes, dtype=np.int64)
    for start in range(0, len(coarse_lo), _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, len(coarse_lo)), dtype=np.int64)
        rows = np.empty((idx.shape[0], dim), dtype=np.float64)
        for a, digit in enumerate(_digits(idx, n_coarse, axes)):
            rows[:, a] = coords[coarse[digit]]
        lo = np.full(idx.shape[0], -1, dtype=np.int64)
        best_sum = max(best_sum, _search(predicate, rows, coords, lo, np.full_like(lo, levels)))
        coarse_lo[idx] = lo

    # a piece of an axis is one coarse level, or the levels strictly between two
    # neighbouring ones; pieces 0..n_coarse-1 are the coarse levels themselves
    between = np.diff(coarse) - 1
    gaps = np.flatnonzero(between)
    piece_first = np.concatenate([coarse, coarse[gaps] + 1])
    piece_size = np.concatenate([np.ones(n_coarse, dtype=np.int64), between[gaps]])
    piece_below = np.concatenate([np.arange(n_coarse), gaps])  # coarse index of the corner below
    piece_above = np.concatenate([np.arange(n_coarse), gaps + 1])
    n_pieces = len(piece_first)
    n_cells = n_pieces**axes
    for start in range(0, n_cells, _CHUNK):
        cell = np.arange(start, min(start + _CHUNK, n_cells), dtype=np.int64)
        digits = _digits(cell, n_pieces, axes)
        top = np.empty((cell.shape[0], dim), dtype=np.float64)
        fine = np.zeros(cell.shape[0], dtype=bool)
        below = np.zeros_like(cell)
        above = np.zeros_like(cell)
        for a, digit in enumerate(digits):
            top[:, a] = coords[piece_first[digit] + piece_size[digit] - 1]
            fine |= digit >= n_coarse
            below += piece_below[digit] * strides[a]
            above += piece_above[digit] * strides[a]
        # the most and the fewest outage levels any prefix of the cell can have
        lo_below = coarse_lo[below]
        lo_above = coarse_lo[above]
        top[:, -1] = coords[np.maximum(lo_below, 0)]
        keep = np.flatnonzero(fine & (lo_below >= 0) & (top.sum(axis=1) > best_sum))
        if keep.size == 0:
            continue
        digits = [digit[keep] for digit in digits]
        lo_below = lo_below[keep]
        lo_above = lo_above[keep]
        size = np.prod([piece_size[digit] for digit in digits], axis=0)
        ends = np.cumsum(size)
        for first in range(0, int(ends[-1]), _CHUNK):
            flat = np.arange(first, min(first + _CHUNK, int(ends[-1])), dtype=np.int64)
            owner = np.searchsorted(ends, flat, side="right")
            offset = flat - (ends[owner] - size[owner])
            rows = np.empty((flat.shape[0], dim), dtype=np.float64)
            for a in reversed(range(axes)):
                digit = digits[a][owner]
                span = piece_size[digit]
                rows[:, a] = coords[piece_first[digit] + offset % span]
                offset //= span
            lo = lo_above[owner]
            hi = lo_below[owner] + 1
            rows[:, -1] = coords[hi - 1]
            bound = rows.sum(axis=1)
            # where lo(p) is known its bound is its sum
            best_sum = max(best_sum, float(bound[hi - lo == 1].max(initial=-math.inf)))
            need = np.flatnonzero(bound > best_sum)
            best_sum = max(best_sum, _search(predicate, rows[need], coords, lo[need], hi[need]))
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
