"""Inequality checks: worked margins, preconditions, and property tests."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrelay import cutset, lemmas
from hdrelay.cutset import TwoHopSchedule, cut_average_array, cut_flow_array, link_capacities
from hdrelay.lemmas import (
    MAX_CUT_RELAYS,
    MAX_SUBSET_LEN,
    SIGN_TOL,
    CheckKind,
    avg_lemma_margin_array,
    run_randomized_suite,
    tchebychef_margin_array,
)


def _tchebychef(a, b):
    """Product-mean margin of one pair of sequences: the kernel on a batch of one row."""
    return float(tchebychef_margin_array([a], [b])[0])


def _avg_lemma(a, s):
    """Subset-average margin of one instance: the kernel on a batch of one row."""
    return float(avg_lemma_margin_array([a], [s])[0])


def _margin(g_sd, g_sr, g_rd, snr, omega_mask):
    """Cut-avg margin of one realization, as `suite_margins` takes it: the uniform-schedule
    cut flow less the crossing-link average, each kernel on a batch of one row."""
    caps = link_capacities(np.array([g_sd]), np.array([g_sr]), np.array([g_rd]), snr)
    weights = TwoHopSchedule.uniform(len(g_sr)).weights
    return float(cut_flow_array(*caps, weights, omega_mask)[0] - cut_average_array(*caps, omega_mask)[0])

values = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestTchebychef:
    def test_constant_sequences(self):
        assert _tchebychef([3.0] * 5, [3.0] * 5) == pytest.approx(0.0, abs=1e-15)

    def test_worked_pair(self):
        assert _tchebychef([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.25, abs=1e-15)

    def test_anti_ordered_rejected(self):
        with pytest.raises(ValueError, match="similarly ordered"):
            _tchebychef([0.0, 1.0], [1.0, 0.0])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            _tchebychef([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            _tchebychef([], [])

    def test_ties_are_allowed(self):
        assert _tchebychef([1.0, 1.0, 2.0], [5.0, 0.0, 7.0]) >= -SIGN_TOL

    @given(st.lists(values, min_size=1, max_size=12), st.lists(values, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sorted_pairs_never_violate(self, a, b):
        n = min(len(a), len(b))
        margin = _tchebychef(sorted(a[:n]), sorted(b[:n]))
        assert margin >= -SIGN_TOL


class TestAvgLemma:
    def test_single_element_tight(self):
        assert _avg_lemma(0.0, [1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_all_equal_tight(self):
        assert _avg_lemma(1.0, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_enumerated_pair(self):
        # subsets {}, {1}, {2}, {1,2} -> f values 0, 0, 1, 1
        assert _avg_lemma(0.0, [0.0, 1.0]) == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
    @pytest.mark.parametrize("value", [2.5, 6.1, 10.0 / 3.0])
    def test_equality_for_constant_inputs(self, n, value):
        # 6.1 and 10/3 are not dyadic, so a 2^n-term sum of them rounds at every step
        assert abs(_avg_lemma(value, [value] * n)) <= 1e-13

    def test_scale_covariance(self):
        a, s = 1.3, [0.2, 4.0, 2.2]
        base = _avg_lemma(a, s)
        for lam in (0.5, 2.0, 37.0):
            scaled = _avg_lemma(lam * a, [lam * v for v in s])
            assert scaled == pytest.approx(lam * base, rel=1e-9)

    def test_size_limit(self):
        # the kernel is O(n log n) and takes any n; the suite keeps its max_len cap
        assert abs(_avg_lemma(1.0, [1.0] * (MAX_SUBSET_LEN + 1))) <= 1e-13
        with pytest.raises(ValueError, match=rf"max_len must lie in \[1, {MAX_SUBSET_LEN}\], got 17"):
            run_randomized_suite(CheckKind.AVG_LEMMA, 10, seed=1, max_len=MAX_SUBSET_LEN + 1)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="shape"):
            avg_lemma_margin_array([1.0, 2.0], [[1.0]])
        with pytest.raises(ValueError, match="shape"):
            avg_lemma_margin_array([[1.0]], [[1.0]])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            _avg_lemma(-1.0, [1.0])
        with pytest.raises(ValueError):
            _avg_lemma(1.0, [-0.5])

    @given(values, st.lists(values, min_size=1, max_size=MAX_SUBSET_LEN))
    @settings(max_examples=200, deadline=None)
    def test_never_violates(self, a, s):
        assert _avg_lemma(a, s) >= -SIGN_TOL


class TestCutAvgConsistency:
    def test_dead_network(self):
        assert _margin(0.0, [0.0], [0.0], 2.0, 0) == 0.0

    def test_single_relay_equality_case(self):
        assert _margin(0.0, [1.0], [0.0], 1.0, 0) == pytest.approx(0.0, abs=1e-15)

    def test_random_three_relay_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g = (rng.exponential(), rng.exponential(size=3), rng.exponential(size=3))
            omega = int(rng.integers(0, 8))
            assert _margin(*g, 50.0, omega) >= -SIGN_TOL

    def test_size_limit(self, monkeypatch):
        # the suite's max_relays check is the one relay cap, and it fires before any draw
        def no_draw(*args):
            raise AssertionError("instances drawn")

        monkeypatch.setattr(lemmas, "uniforms_for_streams", no_draw)
        with pytest.raises(ValueError, match=rf"max_relays must lie in \[1, {MAX_CUT_RELAYS}\], got 11"):
            run_randomized_suite(CheckKind.CUT_AVG, 10, seed=1, max_relays=MAX_CUT_RELAYS + 1)


class TestRandomizedSuites:
    @pytest.mark.parametrize("kind", list(CheckKind))
    def test_no_violations(self, kind):
        report = run_randomized_suite(kind, 1500, seed=7)
        assert report.violations == 0
        assert report.instances == 1500
        assert report.worst_margin >= -SIGN_TOL
        assert report.seed == 7
        assert report.kind == kind

    def test_deterministic(self):
        a = run_randomized_suite(CheckKind.AVG_LEMMA, 500, seed=3)
        b = run_randomized_suite(CheckKind.AVG_LEMMA, 500, seed=3)
        assert a == b

    def test_accepts_string_kind(self):
        report = run_randomized_suite("tchebychef", 10, seed=1)
        assert report.kind is CheckKind.TCHEBYCHEF

    def test_validation(self):
        with pytest.raises(ValueError):
            run_randomized_suite(CheckKind.CUT_AVG, 0, seed=1)
        # instance i is stream i, and the key word holds 2^64 streams
        with pytest.raises(ValueError, match=r"n_instances must lie in \[1, 2\^64\]"):
            run_randomized_suite(CheckKind.CUT_AVG, 2**64 + 1, seed=1)
        with pytest.raises(ValueError):
            run_randomized_suite(CheckKind.CUT_AVG, 10, seed=1, max_relays=11)
        with pytest.raises(ValueError):
            run_randomized_suite(CheckKind.AVG_LEMMA, 10, seed=1, max_len=17)

    def test_seed_must_fit_64_bits(self):
        # the key word holds the seed as is; reducing it mod 2**64 would alias seeds
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                run_randomized_suite(CheckKind.CUT_AVG, 10, seed=seed)
        assert run_randomized_suite(CheckKind.CUT_AVG, 10, seed=2**64 - 1).seed == 2**64 - 1


class TestBlocks:
    @pytest.mark.parametrize("kind", list(CheckKind))
    @pytest.mark.parametrize("block", [1, 17])
    def test_block_size_does_not_change_the_report(self, kind, block):
        expected = run_randomized_suite(kind, 300, seed=5, max_len=16, max_relays=4)
        # lemmas._BLOCK sizes the instance blocks, cutset._BLOCK the cut-avg table passes
        with patch.object(lemmas, "_BLOCK", block), patch.object(cutset, "_BLOCK", block):
            assert run_randomized_suite(kind, 300, seed=5, max_len=16, max_relays=4) == expected

    @pytest.mark.parametrize("kind", list(CheckKind))
    def test_draws_never_exceed_one_block(self, kind):
        expected = run_randomized_suite(kind, 2500, seed=2)
        sizes = []
        draw = lemmas.uniforms_for_streams

        def counting(seed, stream_indices, n):
            sizes.append(len(stream_indices))
            return draw(seed, stream_indices, n)

        with patch.object(lemmas, "_BLOCK", 1000), patch.object(lemmas, "uniforms_for_streams", counting):
            assert run_randomized_suite(kind, 2500, seed=2) == expected
        assert sizes == [1000, 1000, 500]

    def test_cut_avg_makes_one_kernel_call_per_relay_count_in_a_block(self):
        relays = []
        flow = lemmas.cut_flow_array

        def recording(n_sd, n_sr, *args):
            relays.append(n_sr.shape[1])
            return flow(n_sd, n_sr, *args)

        with patch.object(lemmas, "_BLOCK", 40), patch.object(lemmas, "cut_flow_array", recording):
            run_randomized_suite(CheckKind.CUT_AVG, 100, seed=4, max_relays=10)
        # row i's relay count is 1 + floor(10 u0) of stream i
        u0 = lemmas.uniforms_for_streams(4, np.arange(100, dtype=np.uint64), 1)[:, 0]
        sizes = (1 + (u0 * 10).astype(np.int64)).tolist()
        assert relays == [n for start in (0, 40, 80) for n in sorted(set(sizes[start : start + 40]))]
