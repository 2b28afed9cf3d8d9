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

One search solves a batch of regions: every row carries the index of its
region, the predicate evaluates the rows of all regions in one call, and each
row is pruned against its own region's best sum, so each region's exponent is
the float its one-region search returns.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .cutset import _single_relay_order, check_listen_fraction, check_multiplexing_gain, check_relay_count

DEFAULT_ORACLE_BUDGET = 1_000_000_000

# (grid prefix, region) pairs, or pairs of a cell and a region, the oracle
# handles together; a memory bound only
_CHUNK = 1 << 14

# predicate values within this of each other are treated as exact ties
_TIE_TOL = 1e-9

# predicate(alpha, which): rows of order vectors and the region of each row
RegionPredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]


def miso_dmt(m_antennas: int, r: float) -> float:
    """Diversity order m*(1-r) of the fully cooperative m x 1 channel."""
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    if m_antennas > sys.float_info.max:
        raise ValueError(f"m_antennas must be <= {sys.float_info.max!r}, got {m_antennas}")
    check_multiplexing_gain(r)
    return m_antennas * (1.0 - r)


def _per_region(values, check: Callable[[float], None]) -> np.ndarray:
    """A scalar or 1-D array of one value per region, each value checked."""
    array = np.asarray(values)
    if array.ndim > 1:
        raise ValueError(f"expected a scalar or a 1-D array, got shape {array.shape}")
    for value in array.reshape(-1).tolist():
        check(value)
    if array.size == 0:
        raise ValueError("expected at least one region")
    return array.astype(np.float64).reshape(-1)


def _shared(values: np.ndarray) -> float | np.ndarray:
    """The one value of a batch whose regions all share it, so a predicate
    needs no gather, else the array itself."""
    return float(values[0]) if (values == values[0]).all() else values


def _per_row(value: float | np.ndarray, which: np.ndarray) -> float | np.ndarray:
    """A `_shared` value for each row of regions `which`."""
    return value if isinstance(value, float) else value[which]


def _row_sums(alpha: np.ndarray) -> np.ndarray:
    """alpha.sum(axis=1) of C-ordered (k, dim) rows bit for bit, whatever alpha's
    layout: numpy adds fewer than 8 columns left to right, as these column
    adds do several times faster, and 8 or more pairwise."""
    if alpha.shape[1] >= 8:
        return np.ascontiguousarray(alpha).sum(axis=1)
    total = alpha[:, 0].copy()
    for a in range(1, alpha.shape[1]):
        total += alpha[:, a]
    return total


def single_relay_outage_region(r, t) -> RegionPredicate:
    """Vectorized single-relay outage predicate over (k, 3) arrays.

    r and t are scalars or 1-D arrays, one per region (a scalar or a
    one-entry array is shared by every region; two longer arrays must have
    the same length).  Columns are (a_sd, a_sr,
    a_rd); returns a boolean row mask, true where `single_relay_order_array`
    at the row's region's t is at most its r (the outage set is taken closed,
    so boundary points count as outage).
    """
    r, t = _per_region(r, check_multiplexing_gain), _per_region(t, check_listen_fraction)
    if min(r.size, t.size) > 1 and r.size != t.size:
        raise ValueError(f"r and t give {r.size} and {t.size} regions")
    r, t = _shared(r), _shared(t)

    def predicate(alpha: np.ndarray, which: np.ndarray) -> np.ndarray:
        order = _single_relay_order(alpha[:, 0], alpha[:, 1], alpha[:, 2], _per_row(t, which))
        return order <= _per_row(r, which)

    return predicate


def crossing_links_outage_region(n_relays: int, r) -> RegionPredicate:
    """Per-cut outage predicate over just the N+1 crossing-link orders.

    r is a scalar or a 1-D array of one rate per region.  Links not crossing
    the cut never enter the inequality and sit at order 1 in the optimum, so
    minimizing over these N+1 coordinates gives the same exponent as the
    full-dimensional search.
    """
    check_relay_count(n_relays)
    threshold = (n_relays + 1) * _shared(_per_region(r, check_multiplexing_gain))

    def predicate(alpha: np.ndarray, which: np.ndarray) -> np.ndarray:
        return _row_sums(alpha) <= _per_row(threshold, which)

    return predicate


def _grid_levels(step: float, name: str = "step") -> int:
    """Number of points of the grid {0, step, 2*step, ...} capped at 1."""
    if not 0.0 < step <= 0.25:
        raise ValueError(f"{name} must lie in (0, 0.25], got {step!r}")
    if math.isinf(1.0 / step):
        raise ValueError(f"{name} {step!r} has no finite level count: 1/{name} overflows")
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
    predicate: RegionPredicate,
    points: np.ndarray,
    which: np.ndarray,
    coords: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    best: np.ndarray,
) -> None:
    """Binary-search each point's last outage level between lo and hi, in place,
    and raise its region's best sum to its staircase top's (none where lo = -1).

    `points` holds one grid prefix per column, (dim, k), and the predicate
    sees its rows, points.T.  For each point, last-coordinate levels <= lo
    are known to be in outage and levels >= hi known not to be.  Each halving
    probes the midpoints of all points in one predicate call, with points[-1]
    overwritten in place, and narrows every point; a point whose gap is
    closed has its lo as midpoint, so it stays as it is, and an open one takes
    at most bit_length(L) probes.  On return lo holds each point's last level
    in outage, or -1.
    """
    while (hi - lo > 1).any():
        mid = (lo + hi) >> 1
        points[-1] = coords[mid]
        inside = predicate(points.T, which)
        np.putmask(lo, inside, mid)
        hi = np.where(inside, hi, mid)
    points[-1] = coords[lo]
    _raise_best(best, which, np.where(lo >= 0, _row_sums(points.T), -math.inf))


def _raise_best(best: np.ndarray, which: np.ndarray, sums: np.ndarray) -> None:
    """Raise each region's best sum to the largest of its points' sums; `which` is sorted."""
    if sums.size == 0:
        return
    starts = np.concatenate(([0], np.flatnonzero(which[1:] != which[:-1]) + 1))
    regions = which[starts]
    best[regions] = np.maximum(best[regions], np.maximum.reduceat(sums, starts))


def _staircase(
    predicate: RegionPredicate,
    dim: int,
    coords: np.ndarray,
    coarse: np.ndarray,
    best: np.ndarray,
    first: int,
    last: int,
) -> None:
    """Raise best[first:last] to the best staircase sums of regions first..last-1."""
    levels = len(coords)
    axes = dim - 1
    n_coarse = len(coarse)
    n_prefixes = n_coarse**axes
    strides = [n_coarse ** (axes - 1 - a) for a in range(axes)]
    n_regions = last - first

    # (region, coarse prefix) pairs, region-major, so `which` is sorted in every chunk
    coarse_lo = np.empty(n_regions * n_prefixes, dtype=np.int64)
    for start in range(0, len(coarse_lo), _CHUNK):
        pair = np.arange(start, min(start + _CHUNK, len(coarse_lo)), dtype=np.int64)
        which = first + pair // n_prefixes
        points = np.empty((dim, pair.shape[0]), dtype=np.float64)
        for a, digit in enumerate(_digits(pair % n_prefixes, n_coarse, axes)):
            points[a] = coords[coarse[digit]]
        lo = np.full(pair.shape[0], -1, dtype=np.int64)
        _search(predicate, points, which, coords, lo, np.full_like(lo, levels), best)
        coarse_lo[start : start + lo.size] = lo

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
    n_pairs = n_regions * n_cells
    for start in range(0, n_pairs, _CHUNK):
        pair = np.arange(start, min(start + _CHUNK, n_pairs), dtype=np.int64)
        region = pair // n_cells
        digits = _digits(pair % n_cells, n_pieces, axes)
        top = np.empty((dim, pair.shape[0]), dtype=np.float64)
        fine = np.zeros(pair.shape[0], dtype=bool)
        below = region * n_prefixes
        above = below.copy()
        for a, digit in enumerate(digits):
            top[a] = coords[piece_first[digit] + piece_size[digit] - 1]
            fine |= digit >= n_coarse
            below += piece_below[digit] * strides[a]
            above += piece_above[digit] * strides[a]
        # the most and the fewest outage levels any prefix of the cell can have
        lo_below = coarse_lo[below]
        lo_above = coarse_lo[above]
        top[-1] = coords[np.maximum(lo_below, 0)]
        keep = np.flatnonzero(fine & (lo_below >= 0) & (_row_sums(top.T) > best[first + region]))
        if keep.size == 0:
            continue
        kept = first + region[keep]
        digits = [digit[keep] for digit in digits]
        lo_below = lo_below[keep]
        lo_above = lo_above[keep]
        size = np.prod([piece_size[digit] for digit in digits], axis=0)
        ends = np.cumsum(size)
        for first_point in range(0, int(ends[-1]), _CHUNK):
            flat = np.arange(first_point, min(first_point + _CHUNK, int(ends[-1])), dtype=np.int64)
            owner = np.searchsorted(ends, flat, side="right")
            offset = flat - (ends[owner] - size[owner])
            points = np.empty((dim, flat.shape[0]), dtype=np.float64)
            for a in reversed(range(axes)):
                digit = digits[a][owner]
                offset, level = np.divmod(offset, piece_size[digit])
                points[a] = coords[piece_first[digit] + level]
            which = kept[owner]
            lo = lo_above[owner]
            hi = lo_below[owner] + 1
            points[-1] = coords[hi - 1]
            bound = _row_sums(points.T)
            # where lo(p) is known its bound is its sum
            _raise_best(best, which, np.where(hi - lo == 1, bound, -math.inf))
            need = np.flatnonzero(bound > best[which])
            points, which, lo = points.take(need, axis=1), which[need], lo[need]
            _search(predicate, points, which, coords, lo, hi[need], best)


def exponent_grid_oracle(
    predicate: RegionPredicate,
    dim: int,
    step: float,
    budget: int = DEFAULT_ORACLE_BUDGET,
    problems: int = 1,
) -> np.ndarray:
    """Coarse-to-fine staircase min of sum(1 - a_i) over grid points in the
    outage set, for each of `problems` regions at once.

    `predicate(alpha, which)` receives a (k, dim) block of candidate order
    vectors, a view that need not be C-contiguous, and the region of each
    row, an index below `problems`, and returns a boolean mask.  Each region
    must be a down-set: a point stays in outage when any of its coordinates
    is lowered (every region of this module is).  For a grid prefix p of the
    first dim-1 coordinates, let lo(p) be the largest grid level of the last
    coordinate still in outage; since the sum grows with the last coordinate,
    the best of the staircase rows (p, lo(p)) is the best grid point in
    outage.

    The search runs coarse to fine.  First lo is binary-searched on the
    coarse prefixes, whose levels are every k-th level and the top level L-1
    on each prefix axis, k = ceil(sqrt(L)).  Every other prefix lies in a
    cell between two coarse corners, its levels rounded down and rounded up
    to coarse levels, and the down-set gives lo(upper) <= lo(p) <= lo(lower).
    A cell whose bound, the sum of its highest prefix coordinates and
    coords[lo(lower)], is at most the best sum found so far for its region
    is skipped, and so is each prefix whose own bound is; where lo(upper) =
    lo(lower), lo(p) needs no probe; otherwise it is binary-searched in that
    narrowed range.  Bounds are summed like the rows they bound and float
    rounding is monotone, so no skipped row beats its region's best one: each
    result is the float the plain staircase and the exhaustive search return
    on that region alone.

    Returns a float64 array of one exponent per region, +inf where no grid
    point satisfies the predicate ("no outage at this rate").  Every prefix
    of a region is searched at most once, with at most bit_length(L) probes,
    so dim * L^(dim-1) * bit_length(L) predicate-coordinate evaluations, with
    L grid levels per coordinate, bound the work of each region; that is
    checked against `budget` before any work starts, and an oversized request
    raises instead of crawling.  (prefix, region) pairs, cells and fine
    prefixes are handled `_CHUNK` at a time, and regions in groups whose
    coarse prefixes fit one chunk; both are memory measures only and do not
    change the result.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if problems < 1:
        raise ValueError(f"problems must be >= 1, got {problems}")
    levels = _grid_levels(step)
    _check_budget(1, dim, levels, budget)
    coords = _unit_grid(step)
    coarse = np.unique(np.append(np.arange(0, levels, math.isqrt(levels - 1) + 1), levels - 1))
    best = np.full(problems, -math.inf)
    group = max(1, _CHUNK // len(coarse) ** (dim - 1))
    for first in range(0, problems, group):
        _staircase(predicate, dim, coords, coarse, best, first, min(first + group, problems))
    return dim - best


def optimize_schedule_single(
    r: float,
    t_step: float,
    oracle_step: float = 0.005,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[float, float]:
    """Best listen fraction on the grid {0, t_step, ..., 1} by oracle exponent.

    Evaluates the grid oracle of the single-relay outage region at every t,
    in one batched search priced as one search per t, all of them within
    `budget`, and returns (t_star, d_star).  Exponent ties
    (within 1e-9) are broken toward the t closest to 0.5, then toward the smaller t.
    """
    check_multiplexing_gain(r)
    _check_budget(_grid_levels(t_step, "t_step"), 3, _grid_levels(oracle_step), budget)
    t_grid = _unit_grid(t_step)
    region = single_relay_outage_region(r, t_grid)
    exponents = exponent_grid_oracle(region, 3, oracle_step, budget, len(t_grid)).tolist()
    d_star = max(exponents)
    tied = [float(t) for t, d in zip(t_grid, exponents) if d >= d_star - _TIE_TOL]
    t_star = min(tied, key=lambda t: (abs(t - 0.5), t))
    return t_star, d_star
