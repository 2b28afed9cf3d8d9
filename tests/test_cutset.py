"""Cut-set bound values against hand expansions and independent oracles."""

import math
from unittest.mock import patch

import numpy as np
import pytest

import reference_loops as ref
from hdrelay import cutset
from hdrelay.cutset import (
    SingleRelaySchedule,
    TwoHopSchedule,
    cut_average_array,
    cut_flow_array,
    link_capacities,
    link_capacity_bits,
    single_relay_bound_array,
    single_relay_order_array,
    two_hop_bound_array,
)
from hdrelay.dmt import crossing_links_outage_region


def _batch(g_sd, g_sr, g_rd):
    """One realization as a batch of one row: shapes (1,), (1, N), (1, N)."""
    return tuple(np.array([g], dtype=np.float64) for g in (g_sd, g_sr, g_rd))


def _flow(g_sd, g_sr, g_rd, snr, weights, omega_mask):
    caps = link_capacities(*_batch(g_sd, g_sr, g_rd), snr)
    return float(cut_flow_array(*caps, weights, omega_mask)[0])


def _min_cut(g_sd, g_sr, g_rd, snr, schedule):
    return float(two_hop_bound_array(*_batch(g_sd, g_sr, g_rd), snr, schedule)[0])


def _average(g_sd, g_sr, g_rd, snr, omega_mask):
    caps = link_capacities(*_batch(g_sd, g_sr, g_rd), snr)
    return float(cut_average_array(*caps, omega_mask)[0])


class TestSingleRelayBound:
    def test_all_links_dead(self):
        assert single_relay_bound_array(0.0, 0.0, 0.0, 5.0, 0.3) == 0.0

    def test_t_zero_reduces_to_direct_link(self):
        for g_sd, g_sr, g_rd, rho in [(1.0, 2.0, 3.0, 10.0), (0.2, 5.0, 0.1, 100.0)]:
            bound = single_relay_bound_array(g_sd, g_sr, g_rd, rho, 0.0)
            assert bound == pytest.approx(math.log2(1 + rho * g_sd), abs=1e-12)

    def test_unit_gains_half_listen(self):
        # broadcast cut 0.5*log2(3) + 0.5, cooperation cut 0.5*log2(5) + 0.5
        bound = single_relay_bound_array(1.0, 1.0, 1.0, 1.0, 0.5)
        assert bound == pytest.approx(0.5 * math.log2(3) + 0.5, abs=1e-12)
        assert bound == pytest.approx(1.2925, abs=5e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            single_relay_bound_array(1.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            single_relay_bound_array(1.0, 1.0, 1.0, 0.0, 0.5)

    def test_monotone_in_snr_and_gains(self):
        rng = np.random.default_rng(7)
        n = 10_000
        g_sd, g_sr, g_rd = (rng.exponential(size=n) for _ in range(3))
        t = 0.4
        base = single_relay_bound_array(g_sd, g_sr, g_rd, 10.0, t)
        assert np.all(single_relay_bound_array(g_sd, g_sr, g_rd, 30.0, t) >= base)
        for bumped in (
            single_relay_bound_array(g_sd + 0.5, g_sr, g_rd, 10.0, t),
            single_relay_bound_array(g_sd, g_sr + 0.5, g_rd, 10.0, t),
            single_relay_bound_array(g_sd, g_sr, g_rd + 0.5, 10.0, t),
        ):
            assert np.all(bumped >= base - 1e-12)

    def test_dominated_by_sum_of_full_cuts(self):
        rng = np.random.default_rng(8)
        n = 10_000
        g_sd, g_sr, g_rd = (rng.exponential(size=n) for _ in range(3))
        rho = 25.0
        bound = single_relay_bound_array(g_sd, g_sr, g_rd, rho, 0.7)
        envelope = link_capacity_bits((np.sqrt(g_rd) + np.sqrt(g_sd)) ** 2, rho) + link_capacity_bits(
            g_sr + g_sd, rho
        )
        assert np.all(bound <= envelope + 1e-12)

    def test_high_snr_order_consistency(self):
        # at rho = 1e8 the normalized bound and the order expression differ
        # only through power-sum vs max mismatches, under 2 bits total
        rng = np.random.default_rng(9)
        rho = 1e8
        scale = math.log2(rho)
        g = rng.uniform(0.1, 10.0, size=(1_000, 3))
        normalized = single_relay_bound_array(g[:, 0], g[:, 1], g[:, 2], rho, 0.5) / scale
        # finite-SNR exponential orders log(1 + g*snr) / log(snr)
        a = np.log1p(g * rho) / np.log(rho)
        order = single_relay_order_array(a[:, 0], a[:, 1], a[:, 2], 0.5)
        assert np.all(np.abs(normalized - order) < 0.05)


class TestHighSnrOrder:
    def test_saturated_direct_link(self):
        assert single_relay_order_array(1.0, 0.3, 0.9, 0.5) == 1.0

    def test_symmetric_half(self):
        assert single_relay_order_array(0.5, 1.0, 1.0, 0.5) == pytest.approx(0.75)

    def test_asymmetric_quarter(self):
        assert single_relay_order_array(0.5, 1.0, 0.7, 0.25) == pytest.approx(0.625)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            single_relay_order_array(0.5, 1.0, 1.0, -0.1)


class TestZChannelFlow:
    """The flow of one cut in one state: relay 0 sits with the source and
    transmits, relay 1 listens, so the Z-channel has rows (h_r0d, h_sd) and
    (0, h_sr1) and the kernel takes max{C_sd, C_r0d + C_sr1}."""

    STATE_2 = (0.0, 0.0, 1.0, 0.0)

    def _z_flow(self, g_sd, g_sr1, g_rd0, rho):
        g_sd, g_sr1, g_rd0 = (np.atleast_1d(g).astype(np.float64) for g in (g_sd, g_sr1, g_rd0))
        zero = np.zeros_like(g_sd)  # links that do not cross the cut in this state
        caps = link_capacities(g_sd, np.column_stack([zero, g_sr1]), np.column_stack([g_rd0, zero]), rho)
        return cut_flow_array(*caps, self.STATE_2, 0b01)

    def test_at_most_log_det_flow(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            g_sd, g_sr1, g_rd0 = rng.exponential(size=3)
            rho = float(rng.uniform(0.5, 1e4))
            h = np.array([[math.sqrt(g_rd0), math.sqrt(g_sd)], [0.0, math.sqrt(g_sr1)]])
            log_det = math.log2(np.linalg.det(np.eye(2) + rho * h @ h.T))
            hops = math.log2(1 + rho * g_rd0) + math.log2(1 + rho * g_sr1)
            flow = float(self._z_flow(g_sd, g_sr1, g_rd0, rho)[0])
            assert flow == pytest.approx(max(math.log2(1 + rho * g_sd), hops), rel=1e-12)
            assert flow <= log_det * (1 + 1e-12)

    def test_unit_gains(self):
        # the two hops give 2 bits, below the log-det flow log2(5)
        assert self._z_flow(1.0, 1.0, 1.0, 1.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_cases(self):
        assert self._z_flow(0.0, 0.0, 0.0, 7.0)[0] == 0.0
        assert self._z_flow(1.0, 0.0, 0.0, 3.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_dominates_both_branches(self):
        rng = np.random.default_rng(11)
        g_sd, g_sr, g_rd = (rng.exponential(size=5000) for _ in range(3))
        rho = 40.0
        flow = self._z_flow(g_sd, g_sr, g_rd, rho)
        assert np.all(flow >= link_capacity_bits(g_sd, rho) - 1e-12)
        hops = link_capacity_bits(g_sr, rho) + link_capacity_bits(g_rd, rho)
        assert np.all(flow >= hops - 1e-12)


class TestEnumeration:
    """A cut is its omega_mask: bit j set puts relay j with the source."""

    def test_cuts(self):
        row = np.array([[0.0, 0.0, 1.0]])  # a_sd, a_sr, a_rd
        crossing = crossing_links_outage_region(1, 0.25)
        # mask 0 is crossed by source->relay, mask 1 by relay->destination
        assert crossing(row[:, ref.crossing_columns(1, 0)])[0]
        assert not crossing(row[:, ref.crossing_columns(1, 1)])[0]


class TestSchedules:
    def test_single_relay_range(self):
        with pytest.raises(ValueError):
            SingleRelaySchedule(-0.01)
        with pytest.raises(ValueError):
            SingleRelaySchedule(1.01)

    def test_two_hop_validation(self):
        with pytest.raises(ValueError):
            TwoHopSchedule(1, (0.5, 0.4))  # sums to 0.9
        with pytest.raises(ValueError):
            TwoHopSchedule(1, (1.2, -0.2))
        with pytest.raises(ValueError):
            TwoHopSchedule(2, (0.5, 0.5))  # wrong length
        with pytest.raises(ValueError):
            TwoHopSchedule(1, (math.nan, math.nan))  # nan < 0 and |nan - 1| > tol are both false
        with pytest.raises(ValueError):
            TwoHopSchedule(1, (math.inf, 0.0))
        with pytest.raises(ValueError):
            TwoHopSchedule(1, (1e308, 1e308))  # finite, but math.fsum overflows on them

    def test_uniform(self):
        sched = TwoHopSchedule.uniform(3)
        assert len(sched.weights) == 8
        assert all(w == 0.125 for w in sched.weights)


class TestCutFlow:
    def test_single_relay_empty_omega(self):
        # relay listening: source->relay crosses; relay transmitting: only
        # the direct link crosses
        rho = 4.0
        sched = TwoHopSchedule.uniform(1)
        n_sd = math.log2(1 + rho * 0.7)
        n_sr = math.log2(1 + rho * 1.3)
        expected = 0.5 * max(n_sd, n_sr) + 0.5 * n_sd
        got = _flow(0.7, [1.3], [9.0], rho, sched.weights, 0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_all_gains_zero(self):
        sched = TwoHopSchedule.uniform(2)
        assert _flow(0.0, [0.0, 0.0], [0.0, 0.0], 3.0, sched.weights, 0b01) == 0.0

    def test_two_relays_full_omega_no_direct(self):
        # four states by hand: both transmit, one transmits, none transmit
        rho = 2.0
        sched = TwoHopSchedule.uniform(2)
        n_r1d = math.log2(1 + rho * 3.0)
        n_r2d = math.log2(1 + rho * 5.0)
        expected = 0.25 * (max(n_r1d, n_r2d) + n_r2d + n_r1d + 0.0)
        got = _flow(0.0, [1.0, 2.0], [3.0, 5.0], rho, sched.weights, 0b11)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_weighted_schedule_matches_manual_sum(self):
        rho = 6.0
        sched = TwoHopSchedule(1, (0.25, 0.75))
        n_sd = math.log2(1 + rho * 0.4)
        n_sr = math.log2(1 + rho * 1.0)
        n_rd = math.log2(1 + rho * 2.0)
        # cut {S}: state 0 (relay transmits) has no crossing relay links
        assert _flow(0.4, [1.0], [2.0], rho, sched.weights, 0) == pytest.approx(
            0.25 * n_sd + 0.75 * max(n_sd, n_sr), abs=1e-12
        )
        # cut {S,R}: relay->destination crosses only while it transmits
        assert _flow(0.4, [1.0], [2.0], rho, sched.weights, 1) == pytest.approx(
            0.25 * max(n_sd, n_rd) + 0.75 * n_sd, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _min_cut(1.0, [1.0], [1.0], 1.0, TwoHopSchedule.uniform(2))
        with pytest.raises(ValueError):
            _min_cut(1.0, [1.0, 1.0], [1.0, 1.0], 1.0, TwoHopSchedule.uniform(1))

    def test_cuts_outside_range_and_wrong_weight_counts_are_rejected(self):
        # such cuts once aliased other cuts (4 read as 0 and -1 as 3 at N=2)
        caps = link_capacities(*_batch(1.0, [2.0, 3.0], [4.0, 5.0]), 2.0)
        weights = TwoHopSchedule.uniform(2).weights
        for bad in (4, -1, np.array([0, 4]), np.array([3, -1])):
            with pytest.raises(ValueError, match="out of range for 2 relays"):
                cut_flow_array(*caps, weights, bad)
        for bad in (4, -1):
            with pytest.raises(ValueError, match="out of range for 2 relays"):
                cut_average_array(*caps, bad)
        for count in (2, 8):
            with pytest.raises(ValueError, match=r"need 2\^2 weights, got %d" % count):
                cut_flow_array(*caps, (1.0 / count,) * count, 0)

    def test_array_of_cuts_stacks_single_cuts(self):
        rng = np.random.default_rng(15)
        g = (rng.exponential(size=50), rng.exponential(size=(50, 3)), rng.exponential(size=(50, 3)))
        caps = link_capacities(*g, 9.0)
        weights = TwoHopSchedule(3, (0.0, 0.25, 0.0, 0.125, 0.125, 0.25, 0.25, 0.0)).weights
        cuts = np.array([5, 0, 7, 5])
        stacked = cut_flow_array(*caps, weights, cuts)
        assert stacked.shape == (4, 50)
        assert cut_flow_array(*caps, weights, 5).shape == (50,)
        singles = [cut_flow_array(*caps, weights, int(c)) for c in cuts]
        np.testing.assert_array_equal(stacked, np.stack(singles))


class TestMinCut:
    def test_single_relay_is_min_of_two_cuts(self):
        sched = TwoHopSchedule.uniform(1)
        values = [_flow(0.5, [2.0], [1.5], 8.0, sched.weights, omega) for omega in range(2)]
        assert _min_cut(0.5, [2.0], [1.5], 8.0, sched) == min(values)

    def test_min_does_not_exceed_any_cut(self):
        rng = np.random.default_rng(12)
        sched = TwoHopSchedule.uniform(3)
        for _ in range(50):
            g = (rng.exponential(), rng.exponential(size=3), rng.exponential(size=3))
            total = _min_cut(*g, 15.0, sched)
            for omega in range(1 << 3):
                assert total <= _flow(*g, 15.0, sched.weights, omega) + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            sched = TwoHopSchedule.uniform(n)
            g_sd = rng.exponential(size=40)
            g_sr = rng.exponential(size=(40, n))
            g_rd = rng.exponential(size=(40, n))
            vec = two_hop_bound_array(g_sd, g_sr, g_rd, 12.0, sched)
            for i in range(40):
                # same arithmetic in the same order as the loop reference
                assert vec[i] == ref.min_cut(g_sd[i], g_sr[i], g_rd[i], 12.0, sched.weights)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_block_size_leaves_the_bound_unchanged(self, n):
        rng = np.random.default_rng(16)
        g = (rng.exponential(size=70), rng.exponential(size=(70, n)), rng.exponential(size=(70, n)))
        snr = 10.0 ** rng.uniform(0.0, 3.0, size=70)
        sched = TwoHopSchedule.uniform(n)
        expected = two_hop_bound_array(*g, snr, sched)
        # one row per pass, and 3 rows per pass with a shorter last pass
        for block in (1, 3, (1 << n) - 1, 3 << n):
            with patch.object(cutset, "_BLOCK", block):
                np.testing.assert_array_equal(two_hop_bound_array(*g, snr, sched), expected)

    def test_tables_stay_within_block(self):
        sizes = []

        def recording(real):
            def call(*args):
                out = real(*args)
                sizes.append(out.size)
                return out

            return call

        rng = np.random.default_rng(17)
        with patch.object(cutset, "_subset_max", recording(cutset._subset_max)):
            n, rows = 10, 5000
            g = (rng.exponential(size=rows), rng.exponential(size=(rows, n)), rng.exponential(size=(rows, n)))
            cut_flow_array(*link_capacities(*g, 10.0), TwoHopSchedule.uniform(n).weights, 0b1011001101)
            # two tables per pass
            assert max(sizes) <= cutset._BLOCK and sum(sizes) == 2 * rows << n
            sizes.clear()
            # the two-hop bound's (2^N, rows) flows of all cuts are bounded too
            with patch.object(cutset, "cut_flow_array", recording(cutset.cut_flow_array)):
                n, rows = 8, 300
                g = (rng.exponential(size=rows), rng.exponential(size=(rows, n)), rng.exponential(size=(rows, n)))
                two_hop_bound_array(*g, 10.0, TwoHopSchedule.uniform(n))
            assert max(sizes) <= cutset._BLOCK and sum(sizes) == 3 * rows << n


class TestCutAverage:
    def test_single_relay_empty_omega(self):
        rho = 3.0
        expected = (math.log2(1 + rho * 0.5) + math.log2(1 + rho * 2.0)) / 2
        assert _average(0.5, [2.0], [9.9], rho, 0) == pytest.approx(expected, abs=1e-12)

    def test_all_zero(self):
        assert _average(0.0, [0.0, 0.0], [0.0, 0.0], 2.0, 0b10) == 0.0

    def test_two_relays_mixed_cut(self):
        rho = 5.0
        expected = (
            math.log2(1 + rho * 0.3) + math.log2(1 + rho * 4.0) + math.log2(1 + rho * 2.0)
        ) / 3
        assert _average(0.3, [1.0, 2.0], [4.0, 8.0], rho, 0b01) == pytest.approx(expected, abs=1e-12)

    def test_uniform_flow_dominates_average(self):
        rng = np.random.default_rng(14)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            g = (rng.exponential(), rng.exponential(size=n), rng.exponential(size=n))
            omega = int(rng.integers(0, 1 << n))
            rho = float(rng.uniform(0.5, 1e3))
            flow = _flow(*g, rho, TwoHopSchedule.uniform(n).weights, omega)
            assert flow >= _average(*g, rho, omega) - 1e-12
