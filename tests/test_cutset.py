"""Cut-set bound values against hand expansions and independent oracles."""

import math

import numpy as np
import pytest

import reference_loops as ref
from hdrelay.channel import ChannelRealization, ExponentVector, orders_from_realization
from hdrelay.cutset import (
    Cut,
    NetworkState,
    SingleRelaySchedule,
    TwoHopSchedule,
    cut_average_lower_bound,
    cut_flow_lower_bound,
    enumerate_cuts,
    enumerate_states,
    highsnr_cutset_order,
    link_capacity_bits,
    network_min_cut_lower_bound,
    single_relay_bound_array,
    single_relay_cutset_bits,
    two_hop_bound_array,
    z_channel_flow_bits,
)


def _real1(g_sd, g_sr, g_rd):
    return ChannelRealization(g_sd=g_sd, g_sr=(g_sr,), g_rd=(g_rd,))


class TestSingleRelayBound:
    def test_all_links_dead(self):
        assert single_relay_cutset_bits(_real1(0, 0, 0), 5.0, 0.3) == 0.0

    def test_t_zero_reduces_to_direct_link(self):
        for g_sd, g_sr, g_rd, rho in [(1.0, 2.0, 3.0, 10.0), (0.2, 5.0, 0.1, 100.0)]:
            bound = single_relay_cutset_bits(_real1(g_sd, g_sr, g_rd), rho, 0.0)
            assert bound == pytest.approx(math.log2(1 + rho * g_sd), abs=1e-12)

    def test_unit_gains_half_listen(self):
        # broadcast cut 0.5*log2(3) + 0.5, cooperation cut 0.5*log2(5) + 0.5
        bound = single_relay_cutset_bits(_real1(1, 1, 1), 1.0, 0.5)
        assert bound == pytest.approx(0.5 * math.log2(3) + 0.5, abs=1e-12)
        assert bound == pytest.approx(1.2925, abs=5e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            single_relay_cutset_bits(_real1(1, 1, 1), 1.0, 1.5)
        with pytest.raises(ValueError):
            single_relay_cutset_bits(_real1(1, 1, 1), 0.0, 0.5)
        with pytest.raises(ValueError):
            single_relay_cutset_bits(ChannelRealization(g_sd=1.0), 1.0, 0.5)

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
        for _ in range(1_000):
            g = rng.uniform(0.1, 10.0, size=3)
            real = _real1(*g)
            normalized = single_relay_cutset_bits(real, rho, 0.5) / scale
            order = highsnr_cutset_order(orders_from_realization(real, rho), 0.5)
            assert abs(normalized - order) < 0.05


class TestHighSnrOrder:
    def test_saturated_direct_link(self):
        assert highsnr_cutset_order(ExponentVector(1.0, (0.3,), (0.9,)), 0.5) == 1.0

    def test_symmetric_half(self):
        assert highsnr_cutset_order(ExponentVector(0.5, (1.0,), (1.0,)), 0.5) == pytest.approx(0.75)

    def test_asymmetric_quarter(self):
        ev = ExponentVector(0.5, (1.0,), (0.7,))
        assert highsnr_cutset_order(ev, 0.25) == pytest.approx(0.625)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            highsnr_cutset_order(ExponentVector(0.5, (1.0, 1.0), (1.0, 1.0)), 0.5)
        with pytest.raises(ValueError):
            highsnr_cutset_order(ExponentVector(0.5, (1.0,), (1.0,)), -0.1)


class TestZChannelFlow:
    def test_matches_log_det_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            g_sd, g_sr, g_rd = rng.exponential(size=3)
            rho = float(rng.uniform(0.5, 1e4))
            h = np.array([[math.sqrt(g_rd), math.sqrt(g_sd)], [0.0, math.sqrt(g_sr)]])
            oracle = math.log2(np.linalg.det(np.eye(2) + rho * h @ h.T))
            assert z_channel_flow_bits(g_sd, g_sr, g_rd, rho) == pytest.approx(oracle, rel=1e-9)

    def test_unit_gains(self):
        assert z_channel_flow_bits(1, 1, 1, 1) == pytest.approx(math.log2(5), abs=1e-12)

    def test_degenerate_cases(self):
        assert z_channel_flow_bits(0, 0, 0, 7.0) == 0.0
        assert z_channel_flow_bits(1, 0, 0, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_dominates_both_branches(self):
        rng = np.random.default_rng(11)
        g_sd, g_sr, g_rd = (rng.exponential(size=5000) for _ in range(3))
        rho = 40.0
        flow = z_channel_flow_bits(g_sd, g_sr, g_rd, rho)
        assert np.all(flow >= link_capacity_bits(g_sd, rho) - 1e-12)
        hops = link_capacity_bits(g_sr, rho) + link_capacity_bits(g_rd, rho)
        assert np.all(flow >= hops - 1e-12)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            z_channel_flow_bits(-1.0, 0.0, 0.0, 1.0)


class TestEnumeration:
    def test_states_single_relay(self):
        assert [s.listening_mask for s in enumerate_states(1)] == [0, 1]

    def test_states_two_relays(self):
        assert [s.listening_mask for s in enumerate_states(2)] == [0, 1, 2, 3]

    def test_states_three_relays(self):
        assert len(enumerate_states(3)) == 8

    def test_cuts(self):
        assert [c.omega_mask for c in enumerate_cuts(1)] == [0, 1]
        assert len(enumerate_cuts(2)) == 4
        assert len(enumerate_cuts(12)) == 4096

    def test_size_limits(self):
        for fn in (enumerate_states, enumerate_cuts):
            with pytest.raises(ValueError):
                fn(13)
            with pytest.raises(ValueError):
                fn(0)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            NetworkState(4, 2)
        with pytest.raises(ValueError):
            Cut(2, 1)


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

    def test_uniform(self):
        sched = TwoHopSchedule.uniform(3)
        assert len(sched.weights) == 8
        assert all(w == 0.125 for w in sched.weights)


class TestCutFlow:
    def test_single_relay_empty_omega(self):
        # relay listening: source->relay crosses; relay transmitting: only
        # the direct link crosses
        real = _real1(0.7, 1.3, 9.0)
        rho = 4.0
        sched = TwoHopSchedule.uniform(1)
        n_sd = math.log2(1 + rho * 0.7)
        n_sr = math.log2(1 + rho * 1.3)
        expected = 0.5 * max(n_sd, n_sr) + 0.5 * n_sd
        got = cut_flow_lower_bound(real, rho, sched, Cut(0, 1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_all_gains_zero(self):
        real = ChannelRealization(g_sd=0.0, g_sr=(0.0, 0.0), g_rd=(0.0, 0.0))
        sched = TwoHopSchedule.uniform(2)
        assert cut_flow_lower_bound(real, 3.0, sched, Cut(0b01, 2)) == 0.0

    def test_two_relays_full_omega_no_direct(self):
        # four states by hand: both transmit, one transmits, none transmit
        real = ChannelRealization(g_sd=0.0, g_sr=(1.0, 2.0), g_rd=(3.0, 5.0))
        rho = 2.0
        sched = TwoHopSchedule.uniform(2)
        n_r1d = math.log2(1 + rho * 3.0)
        n_r2d = math.log2(1 + rho * 5.0)
        expected = 0.25 * (max(n_r1d, n_r2d) + n_r2d + n_r1d + 0.0)
        got = cut_flow_lower_bound(real, rho, sched, Cut(0b11, 2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_weighted_schedule_matches_manual_sum(self):
        real = ChannelRealization(g_sd=0.4, g_sr=(1.0,), g_rd=(2.0,))
        rho = 6.0
        sched = TwoHopSchedule(1, (0.25, 0.75))
        n_sd = math.log2(1 + rho * 0.4)
        n_sr = math.log2(1 + rho * 1.0)
        n_rd = math.log2(1 + rho * 2.0)
        # cut {S}: state 0 (relay transmits) has no crossing relay links
        assert cut_flow_lower_bound(real, rho, sched, Cut(0, 1)) == pytest.approx(
            0.25 * n_sd + 0.75 * max(n_sd, n_sr), abs=1e-12
        )
        # cut {S,R}: relay->destination crosses only while it transmits
        assert cut_flow_lower_bound(real, rho, sched, Cut(1, 1)) == pytest.approx(
            0.25 * max(n_sd, n_rd) + 0.75 * n_sd, abs=1e-12
        )

    def test_dimension_mismatch(self):
        real = ChannelRealization(g_sd=1.0, g_sr=(1.0,), g_rd=(1.0,))
        with pytest.raises(ValueError):
            cut_flow_lower_bound(real, 1.0, TwoHopSchedule.uniform(2), Cut(0, 2))
        with pytest.raises(ValueError):
            cut_flow_lower_bound(real, 1.0, TwoHopSchedule.uniform(1), Cut(0, 2))


class TestMinCut:
    def test_single_relay_is_min_of_two_cuts(self):
        real = _real1(0.5, 2.0, 1.5)
        sched = TwoHopSchedule.uniform(1)
        cuts = enumerate_cuts(1)
        values = [cut_flow_lower_bound(real, 8.0, sched, c) for c in cuts]
        assert network_min_cut_lower_bound(real, 8.0, sched) == min(values)

    def test_min_does_not_exceed_any_cut(self):
        rng = np.random.default_rng(12)
        sched = TwoHopSchedule.uniform(3)
        for _ in range(50):
            real = ChannelRealization(
                g_sd=rng.exponential(),
                g_sr=tuple(rng.exponential(size=3)),
                g_rd=tuple(rng.exponential(size=3)),
            )
            total = network_min_cut_lower_bound(real, 15.0, sched)
            for cut in enumerate_cuts(3):
                assert total <= cut_flow_lower_bound(real, 15.0, sched, cut) + 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            sched = TwoHopSchedule.uniform(n)
            g_sd = rng.exponential(size=40)
            g_sr = rng.exponential(size=(40, n))
            g_rd = rng.exponential(size=(40, n))
            vec = two_hop_bound_array(g_sd, g_sr, g_rd, 12.0, sched)
            for i in range(40):
                real = ChannelRealization(
                    g_sd=float(g_sd[i]), g_sr=tuple(g_sr[i]), g_rd=tuple(g_rd[i])
                )
                # same arithmetic in the same order as the loop reference
                assert vec[i] == ref.min_cut(real, 12.0, sched)


class TestCutAverage:
    def test_single_relay_empty_omega(self):
        real = _real1(0.5, 2.0, 9.9)
        rho = 3.0
        expected = (math.log2(1 + rho * 0.5) + math.log2(1 + rho * 2.0)) / 2
        assert cut_average_lower_bound(real, rho, Cut(0, 1)) == pytest.approx(expected, abs=1e-12)

    def test_all_zero(self):
        real = ChannelRealization(g_sd=0.0, g_sr=(0.0, 0.0), g_rd=(0.0, 0.0))
        assert cut_average_lower_bound(real, 2.0, Cut(0b10, 2)) == 0.0

    def test_two_relays_mixed_cut(self):
        real = ChannelRealization(g_sd=0.3, g_sr=(1.0, 2.0), g_rd=(4.0, 8.0))
        rho = 5.0
        expected = (
            math.log2(1 + rho * 0.3) + math.log2(1 + rho * 4.0) + math.log2(1 + rho * 2.0)
        ) / 3
        assert cut_average_lower_bound(real, rho, Cut(0b01, 2)) == pytest.approx(expected, abs=1e-12)

    def test_uniform_flow_dominates_average(self):
        rng = np.random.default_rng(14)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            real = ChannelRealization(
                g_sd=rng.exponential(),
                g_sr=tuple(rng.exponential(size=n)),
                g_rd=tuple(rng.exponential(size=n)),
            )
            cut = Cut(int(rng.integers(0, 1 << n)), n)
            rho = float(rng.uniform(0.5, 1e3))
            flow = cut_flow_lower_bound(real, rho, TwoHopSchedule.uniform(n), cut)
            avg = cut_average_lower_bound(real, rho, cut)
            assert flow >= avg - 1e-12
