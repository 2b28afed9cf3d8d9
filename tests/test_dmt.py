"""Exponent curves, outage predicates, and the grid oracle.

The closed forms are checked against the exhaustive grid minimizer, and the
generalized listen-fraction exponent is checked against the piecewise
closed form derived from the outage set's case analysis:

    d(r; t) = 2 - r/u          for r <= u,     u = min(t, 1-t) in (0, 0.5]
    d(r; t) = (1-r) / (1-u)    for r >= u
    d(r; 0) = d(r; 1) = 1 - r

(the r <= u branch maximizes the order sum by spending everything on one
relay link at a dead direct link; the r >= u branch saturates both relay
links and pushes the direct link as high as outage allows).
"""

import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from hdrelay import dmt
from hdrelay.dmt import (
    crossing_links_outage_region,
    exponent_grid_oracle,
    miso_dmt,
    optimize_schedule_single,
    single_relay_outage_region,
)


def closed_form_single_relay(r: float, t: float) -> float:
    u = min(t, 1.0 - t)
    if u == 0.0:
        return 1.0 - r
    if r <= u:
        return 2.0 - r / u
    return (1.0 - r) / (1.0 - u)


class TestAnalyticCurves:
    def test_miso(self):
        assert miso_dmt(2, 0.0) == 2.0
        assert miso_dmt(5, 1.0) == 0.0
        assert miso_dmt(3, 0.5) == 1.5
        with pytest.raises(ValueError):
            miso_dmt(2, 1.2)
        with pytest.raises(ValueError):
            miso_dmt(0, 0.5)
        # an int past the float range: m * (1 - r) raised OverflowError
        with pytest.raises(ValueError, match="m_antennas must be <= "):
            miso_dmt(10**400, 0.5)
        assert miso_dmt(2**1023, 0.5) == 2.0**1022

    def test_parallel(self):
        # two links each carrying rate r are in outage when both are: the
        # 2 x 1 MISO curve, miso_dmt(2, r), as `curves --miso 2` prints it
        for r in (0.0, 0.25, 0.5, 1.0):
            both_fail = lambda alpha, which: alpha.max(axis=1) <= r
            d = exponent_grid_oracle(both_fail, 2, 0.05).item()
            assert d == pytest.approx(miso_dmt(2, r), abs=2 * 0.05 + 1e-12)
        assert miso_dmt(2, 0.25) == 1.5

    def test_single_relay(self):
        # the paper's single-relay result at t = 1/2 is the 2 x 1 MISO curve
        for r in (0.0, 0.3, 0.7, 1.0):
            d = exponent_grid_oracle(single_relay_outage_region(r, 0.5), 3, 0.025).item()
            assert d == pytest.approx(miso_dmt(2, r), abs=3 * 0.025)
        assert miso_dmt(2, 0.3) == pytest.approx(1.4)

    def test_two_hop(self):
        # N relays under the uniform schedule: the (N+1) x 1 MISO curve
        assert miso_dmt(1 + 1, 0.5) == 1.0
        assert miso_dmt(4 + 1, 1.0) == 0.0
        assert miso_dmt(2 + 1, 0.25) == 2.25
        for n in (1, 2, 3):
            d = exponent_grid_oracle(crossing_links_outage_region(n, 0.4), n + 1, 0.05).item()
            assert d == pytest.approx(miso_dmt(n + 1, 0.4), abs=(n + 1) * 0.05 + 1e-12)
        for n in (0, 13, 10**400):
            with pytest.raises(ValueError, match=r"n_relays must lie in \[1, 12\]"):
                crossing_links_outage_region(n, 0.5)


class TestPredicates:
    def test_single_relay_cases(self):
        assert ref.on_region(single_relay_outage_region(0.1, 0.5), [[0.0, 0.0, 0.0]])[0]
        assert ref.on_region(single_relay_outage_region(0.75, 0.5), [[0.5, 1.0, 1.0]])[0]
        assert not ref.on_region(single_relay_outage_region(0.9, 0.5), [[1.0, 1.0, 1.0]])[0]

    def test_single_relay_region_matches_scalar(self):
        rng = np.random.default_rng(15)
        alpha = rng.uniform(0, 1, size=(500, 3))
        for r, t in [(0.3, 0.5), (0.75, 0.25), (0.0, 0.9)]:
            mask = ref.on_region(single_relay_outage_region(r, t), alpha)
            for row, flag in zip(alpha, mask):
                assert (ref.highsnr_order(*row.tolist(), t) <= r) == bool(flag)

    def test_two_hop_cases(self):
        cols = ref.crossing_columns
        assert ref.on_region(crossing_links_outage_region(2, 0.2), np.zeros((1, 5))[:, cols(2, 0b01)])[0]
        assert ref.on_region(crossing_links_outage_region(2, 1.0), np.ones((1, 5))[:, cols(2, 0)])[0]
        row = np.array([[0.6, 0.0, 0.6]])
        assert not ref.on_region(crossing_links_outage_region(1, 0.5), row[:, cols(1, 0b1)])[0]

    def test_rates_outside_the_unit_interval_are_rejected(self):
        for r in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="multiplexing gain"):
                single_relay_outage_region(r, 0.3)
            with pytest.raises(ValueError, match="multiplexing gain"):
                crossing_links_outage_region(2, r)

    def test_two_hop_region_matches_scalar(self):
        rng = np.random.default_rng(16)
        n = 2
        alpha = rng.uniform(0, 1, size=(300, 2 * n + 1))
        for omega in range(1 << n):
            crossing = alpha[:, ref.crossing_columns(n, omega)]
            mask = ref.on_region(crossing_links_outage_region(n, 0.4), crossing)
            for row, flag in zip(alpha, mask):
                a_sd, a_sr, a_rd = ref.split_row(row, n)
                assert ref.two_hop_cut_outage(a_sd, a_sr, a_rd, 0.4, omega) == bool(flag)


class TestGridOracle:
    def test_always_true_predicate_gives_zero(self):
        d = exponent_grid_oracle(lambda a, which: np.ones(len(a), dtype=bool), 3, 0.25).item()
        assert d == 0.0

    def test_never_true_predicate_gives_sentinel(self):
        d = exponent_grid_oracle(lambda a, which: np.zeros(len(a), dtype=bool), 2, 0.25).item()
        assert math.isinf(d)

    def test_single_relay_half(self):
        d = exponent_grid_oracle(single_relay_outage_region(0.5, 0.5), 3, 0.005).item()
        assert d == pytest.approx(1.0, abs=0.015)

    def test_single_relay_quarter_listen(self):
        d = exponent_grid_oracle(single_relay_outage_region(0.75, 0.25), 3, 0.005).item()
        assert d == pytest.approx(1.0 / 3.0, abs=0.015)

    def test_matches_closed_form_across_t(self):
        for t in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
            for r in (0.0, 0.2, 0.5, 0.8, 1.0):
                d = exponent_grid_oracle(single_relay_outage_region(r, t), 3, 0.025).item()
                expected = closed_form_single_relay(r, t)
                assert d == pytest.approx(expected, abs=3 * 0.025), (r, t)

    def test_budget_exceeded(self):
        with pytest.raises(ValueError, match="budget"):
            exponent_grid_oracle(lambda a, which: np.ones(len(a), dtype=bool), 7, 0.05)

    def test_budget_counts_the_staircase_work(self):
        rows = []

        def counting(alpha, which):
            rows.append(alpha.shape[0])
            return single_relay_outage_region(0.5, 0.5)(alpha, which)

        cost = 3 * 21**2 * (21).bit_length()  # dim * L^(dim-1) * bit_length(L) at step 0.05
        for chunk in (1, 17, 1 << 16):
            rows.clear()
            with patch.object(dmt, "_CHUNK", chunk):
                d = exponent_grid_oracle(counting, 3, 0.05, budget=cost).item()
            assert d == ref.exhaustive_grid_oracle(single_relay_outage_region(0.5, 0.5), 3, 0.05)
            assert 0 < 3 * sum(rows) <= cost
        rows.clear()
        with pytest.raises(ValueError, match=r"3 \* 21\^2 \* bit_length\(21\) = 6615 evaluations > 6614"):
            exponent_grid_oracle(counting, 3, 0.05, budget=cost - 1)
        assert rows == []

    def test_coarse_cells_prune_most_of_the_staircase(self):
        region = single_relay_outage_region(0.5, 0.5)
        rows = []

        def counting(alpha, which):
            rows.append(alpha.shape[0])
            return region(alpha, which)

        assert exponent_grid_oracle(counting, 3, 0.005).item() == pytest.approx(1.0, abs=0.015)
        # the plain staircase probes 201^2 * bit_length(201) = 323,208 rows at this step
        assert 0 < sum(rows) <= 201**2 * (201).bit_length() // 8
        assert exponent_grid_oracle(region, 3, 0.05).item() == ref.exhaustive_grid_oracle(region, 3, 0.05)

    def test_budget_is_checked_before_the_grid_exists(self):
        def no_grid(step):
            raise AssertionError(f"grid of step {step} built")

        pred = lambda a, which: np.ones(len(a), dtype=bool)
        with patch.object(dmt, "_unit_grid", no_grid):
            # 3 * 10000001^2 * 24 evaluations; the grid alone would hold 1e7 points
            with pytest.raises(ValueError, match=r"budget exceeded: 3 \* 10000001\^2"):
                exponent_grid_oracle(pred, 3, 1e-7)
            # 21^5000 is decided on logarithms, never formed as an integer
            with pytest.raises(ValueError, match=r"5001 \* 21\^5000 \* bit_length\(21\) evaluations > 1000000000"):
                exponent_grid_oracle(pred, 5001, 0.05)

    def test_step_validation(self):
        pred = lambda a, which: np.ones(len(a), dtype=bool)
        with pytest.raises(ValueError):
            exponent_grid_oracle(pred, 3, 0.0)
        with pytest.raises(ValueError):
            exponent_grid_oracle(pred, 3, 0.3)
        # 1 / step overflows to inf below about 5.6e-309
        for step in (5e-324, 1e-310):
            with pytest.raises(ValueError, match="has no finite level count"):
                exponent_grid_oracle(pred, 3, step)

    def test_dim_validation(self):
        pred = lambda a, which: np.ones(len(a), dtype=bool)
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            exponent_grid_oracle(pred, 0, 0.05)

    def test_chunking_does_not_change_result(self):
        pred = single_relay_outage_region(0.6, 0.5)
        full = exponent_grid_oracle(pred, 3, 0.05).item()
        with patch.object(dmt, "_CHUNK", 17):
            chunked = exponent_grid_oracle(pred, 3, 0.05).item()
        assert full == chunked

    def test_two_hop_cut_exponents(self):
        for n in (1, 2):
            for r in (0.0, 0.3, 0.7, 1.0):
                target = miso_dmt(n + 1, r)
                crossing = crossing_links_outage_region(n, r)
                reduced = exponent_grid_oracle(crossing, n + 1, 0.05).item()
                assert reduced == pytest.approx(target, abs=(n + 1) * 0.05 + 1e-12)
                for omega in range(1 << n):
                    cols = ref.crossing_columns(n, omega)
                    full = exponent_grid_oracle(
                        lambda alpha, which: crossing(alpha[:, cols], which), 2 * n + 1, 0.05
                    ).item()
                    assert full == pytest.approx(reduced, abs=1e-9)


# rates and listen fractions, the edges 0 and 1 drawn often
edge_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def region_batches(draw):
    """(batch region, dim, step, one-region predicates) of 1-12 regions, drawn
    from a pool of up to four so that duplicate regions are common."""
    size = draw(st.integers(min_value=1, max_value=12))
    pool = draw(st.lists(st.tuples(edge_unit, edge_unit), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    r = [pool[k][0] for k in picks]
    t = [pool[k][1] for k in picks]
    n = draw(st.integers(min_value=0, max_value=3))  # 0: the single relay, else N crossing links
    if n == 0:
        # a scalar t (or r) is shared by the whole batch
        if draw(st.booleans()):
            t = t[0]
        elif draw(st.booleans()):
            r = r[0]
        rs, ts = np.broadcast_arrays(r, t)
        alone = [single_relay_outage_region(a, b) for a, b in zip(rs.tolist(), ts.tolist())]
        step = draw(st.sampled_from([0.25, 0.1, 0.07, 0.05]))
        return single_relay_outage_region(r, t), 3, step, alone
    alone = [crossing_links_outage_region(n, a) for a in r]
    step = draw(st.sampled_from([0.25, 0.1] if n == 3 else [0.25, 0.1, 0.07]))
    return crossing_links_outage_region(n, r), n + 1, step, alone


class TestBatchedOracle:
    # (prefix, region) pairs per chunk: a few (every region a group of its own),
    # a count that splits batches unevenly, the default
    @pytest.mark.parametrize("chunk", [3, 64, dmt._CHUNK])
    @given(batch=region_batches())
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_one_region_searches(self, chunk, batch):
        region, dim, step, alone = batch
        expected = [exponent_grid_oracle(one, dim, step).item() for one in alone]
        with patch.object(dmt, "_CHUNK", chunk):
            got = exponent_grid_oracle(region, dim, step, problems=len(alone))
        assert got.dtype == np.float64
        assert got.tolist() == expected

    @pytest.mark.parametrize("chunk", [3, 64, dmt._CHUNK])
    def test_regions_without_outage_give_inf_inside_a_batch(self, chunk):
        thresholds = np.array([0.5, -1.0, 1.2, -1.0, 0.0, 3.0])
        expected = [exponent_grid_oracle(lambda a, which: a.sum(axis=1) <= c, 3, 0.1).item() for c in thresholds]
        with patch.object(dmt, "_CHUNK", chunk):
            batch = lambda a, which: a.sum(axis=1) <= thresholds[which]
            got = exponent_grid_oracle(batch, 3, 0.1, problems=len(thresholds))
        assert got.tolist() == expected
        assert math.isinf(got[1]) and math.isinf(got[3]) and got[5] == 0.0

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_one_bad_value_anywhere_in_a_batch_is_named(self, position, bad):
        values = [0.2, 0.4, 0.6, 0.8, 0.3, 0.5, 0.7]
        values[position] = bad
        rate = re.escape(f"multiplexing gain r must lie in [0, 1], got {bad!r}")
        with pytest.raises(ValueError, match=rate):
            single_relay_outage_region(values, 0.5)
        with pytest.raises(ValueError, match=rate):
            single_relay_outage_region(np.array(values), np.full(7, 0.5))
        with pytest.raises(ValueError, match=rate):
            crossing_links_outage_region(2, values)
        with pytest.raises(ValueError, match=re.escape(f"listen fraction t must lie in [0, 1], got {bad!r}")):
            single_relay_outage_region(0.5, values)

    def test_batch_shapes_are_checked(self):
        with pytest.raises(ValueError, match="give 2 and 3 regions"):
            single_relay_outage_region([0.1, 0.2], [0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="give 3 and 2 regions"):
            single_relay_outage_region([0.3, 0.3, 0.3], [0.4, 0.5])  # a shared r still counts 3
        with pytest.raises(ValueError, match="1-D"):
            crossing_links_outage_region(2, [[0.1, 0.2]])
        with pytest.raises(ValueError, match="at least one region"):
            single_relay_outage_region([], 0.5)
        with pytest.raises(ValueError, match="problems must be >= 1"):
            exponent_grid_oracle(single_relay_outage_region(0.5, 0.5), 3, 0.1, problems=0)

    def test_budget_prices_one_region_of_a_batch(self):
        # 3 * 21^2 * bit_length(21) = 6615 evaluations per region at step 0.05
        region = single_relay_outage_region([0.2, 0.5, 0.8], 0.5)
        assert exponent_grid_oracle(region, 3, 0.05, budget=6615, problems=3).shape == (3,)
        with pytest.raises(ValueError, match=r"3 \* 21\^2 \* bit_length\(21\) = 6615 evaluations > 6614"):
            exponent_grid_oracle(region, 3, 0.05, budget=6614, problems=3)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_row_sums_are_numpy_row_sums_in_any_layout(dim, k, column_major, seed):
    # the oracle sums points stored one per column; its sums must be the ones
    # numpy's sum(axis=1) gives on C-ordered rows, pairwise from 8 columns on
    rng = np.random.default_rng(seed)
    rows = rng.random((k, dim)) * 10.0 ** rng.integers(-3, 4, size=(k, dim))
    alpha = np.ascontiguousarray(rows.T).T if column_major else rows
    np.testing.assert_array_equal(dmt._row_sums(alpha), rows.sum(axis=1))


class TestScheduleOptimization:
    def test_high_rate(self):
        t_star, d_star = optimize_schedule_single(0.75, 0.05, oracle_step=0.025)
        assert t_star == 0.5
        assert d_star == pytest.approx(0.5, abs=0.075)

    def test_low_rate(self):
        t_star, d_star = optimize_schedule_single(0.25, 0.05, oracle_step=0.025)
        assert t_star == 0.5
        assert d_star == pytest.approx(1.5, abs=0.075)

    def test_zero_rate_plateau_breaks_tie_to_half(self):
        t_star, d_star = optimize_schedule_single(0.0, 0.05, oracle_step=0.025)
        assert t_star == 0.5
        assert d_star == pytest.approx(2.0, abs=0.075)

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_schedule_single(1.5, 0.05)
        with pytest.raises(ValueError):
            optimize_schedule_single(0.5, 0.0)

    def test_budget_bounds_the_whole_t_sweep(self):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle called")

        def no_grid(step):
            raise AssertionError(f"grid of step {step} built")

        # 1,000,001 calls of 3 * 201^2 * bit_length(201) evaluations each
        with patch.object(dmt, "exponent_grid_oracle", no_oracle), patch.object(dmt, "_unit_grid", no_grid):
            with pytest.raises(ValueError, match=r"budget exceeded: 1000001 \* 3 \* 201\^2"):
                optimize_schedule_single(0.5, 1e-6)
            with pytest.raises(ValueError, match="budget exceeded"):
                optimize_schedule_single(0.5, 1e-9)

    @pytest.mark.parametrize("t_step, cost", [(0.05, 21 * 969_624), (0.01, 101 * 969_624)])
    def test_default_budget_fits_the_usual_t_steps(self, t_step, cost):
        # 969,624 = 3 * 201^2 * bit_length(201), one region at the default oracle step
        calls = []
        with patch.object(dmt, "exponent_grid_oracle", lambda *args: calls.append(args) or np.ones(args[4])):
            optimize_schedule_single(0.5, t_step)
            with pytest.raises(ValueError, match=f"= {cost} evaluations > {cost - 1}"):
                optimize_schedule_single(0.5, t_step, budget=cost - 1)
        # one batched search of one region per t, each priced at the whole budget
        assert [(args[3], args[4]) for args in calls] == [(dmt.DEFAULT_ORACLE_BUDGET, round(1 / t_step) + 1)]


class TestDmtCurve:
    def test_produced_curves_are_nonincreasing(self):
        r_grid = [k / 10 for k in range(11)]
        curves = [
            [miso_dmt(2, r) for r in r_grid],
            [miso_dmt(3 + 1, r) for r in r_grid],
            [exponent_grid_oracle(single_relay_outage_region(r, 0.5), 3, 0.05).item() for r in r_grid],
        ]
        for d in curves:
            assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))
