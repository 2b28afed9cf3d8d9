"""Channel sampling distribution and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from hdrelay.channel import _exponentials, sample_gain_arrays


def _one(n_relays, seed, trial):
    """sample_gain_arrays on a slice of one trial, as plain floats."""
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, seed, trial, trial + 1)
    return float(g_sd[0]), g_sr[0].tolist(), g_rd[0].tolist()


def test_zero_relays_has_only_direct_link():
    g_sd, g_sr, g_rd = sample_gain_arrays(0, 1, 0, 1)
    assert g_sr.shape == g_rd.shape == (1, 0)
    assert g_sd[0] >= 0


def test_sampling_is_deterministic():
    a = _one(3, 42, 7)
    assert a == _one(3, 42, 7)
    assert a != _one(3, 42, 8)
    assert a != _one(3, 43, 7)


def test_batch_sampler_matches_scalar_sampler():
    # slices that start and stop inside a direct-gain block, and an empty one
    for first, last in [(3000, 3009), (3333, 3666), (3005, 3006), (3007, 3007)]:
        g_sd, g_sr, g_rd = sample_gain_arrays(2, 99, first, last)
        real = ref.campaign_gains(2, 99, range(first, last))
        for got, expected in zip((g_sd, g_sr, g_rd), real):
            np.testing.assert_array_equal(got, expected)
        for row, k in enumerate(range(first, min(last, first + 9))):
            assert _one(2, 99, k) == (g_sd[row], g_sr[row].tolist(), g_rd[row].tolist())
        # `keep` reads the slice's direct uniforms and picks whole trials by index: the rows it
        # selects, relay gains included, in the order it lists them (here descending uniform)
        seen = []

        def keep(u):
            seen.append(u.copy())
            rows = np.flatnonzero(u > 0.5)
            return rows[np.argsort(-u[rows], kind="stable")]

        kept = sample_gain_arrays(2, 99, first, last, keep)
        (u,) = seen
        np.testing.assert_array_equal(-np.log1p(-u), g_sd)
        rows = keep(u)
        assert (np.diff(u[rows]) <= 0).all()
        for got, full in zip(kept, (g_sd, g_sr, g_rd)):
            np.testing.assert_array_equal(got, full[rows])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2), st.data())
def test_slices_of_the_trial_range_are_its_trials_in_order(total, n_relays, data):
    """Cut the trial range at random points, so slices start and stop inside blocks of
    direct gains: under a `keep` of the trials whose gain is below a threshold, the
    slices' rows end to end are those of the whole range, and each is the reference
    gains of its trial."""
    edges = sorted({0, total, *data.draw(st.lists(st.integers(0, total), max_size=8))})

    def keep(u):
        # -log1p(-u) is the reference's g_sd bit for bit
        return np.flatnonzero(-np.log1p(-u) < 0.75)

    whole = sample_gain_arrays(n_relays, 5, 0, total, keep)
    pieces = [sample_gain_arrays(n_relays, 5, a, b, keep) for a, b in zip(edges, edges[1:])]
    for got, expected in zip(zip(*pieces), whole):
        np.testing.assert_array_equal(np.concatenate(got), expected)
    reference = ref.campaign_gains(n_relays, 5, range(total))
    for got, expected in zip(whole, reference):
        np.testing.assert_array_equal(got, expected[reference[0] < 0.75])


def test_sample_mean_is_unit():
    for g in sample_gain_arrays(1, 2024, 0, 1_000_000):
        assert abs(g.mean() - 1.0) <= 0.01


def test_empirical_cdf_is_unit_exponential():
    # Kolmogorov-Smirnov statistic against 1 - exp(-x), computed directly
    # from the sorted sample.
    g_sd, _, _ = sample_gain_arrays(0, 123, 0, 1_000_000)
    x = np.sort(g_sd)
    n = x.size
    cdf = 1.0 - np.exp(-x)
    ks = max(
        np.max(np.arange(1, n + 1) / n - cdf),
        np.max(cdf - np.arange(0, n) / n),
    )
    assert ks < 0.002


def test_gains_overwrite_the_uniforms_in_place():
    # the columns 3.. of a (T, 2N+4) block, as the cut-avg suite transforms them
    u = np.random.default_rng(4).random((1000, 8))
    u[0, 3] = 0.0
    before = u.copy()
    g = _exponentials(u[:, 3:])
    assert np.shares_memory(g, u)
    # bit for bit, so the zero uniform's gain is +0.0 as before
    assert g.tobytes() == (-np.log1p(-before[:, 3:])).tobytes()
    assert u[:, :3].tobytes() == before[:, :3].tobytes()


def test_negative_relay_count_rejected():
    with pytest.raises(ValueError):
        sample_gain_arrays(-1, 0, 1, 0, 1)


def test_slice_past_the_trial_range_rejected():
    # trial 2^62 would take relay stream 2^63 + 2^62, beyond the layout's room
    with pytest.raises(ValueError, match=r"<= 2\*\*62, got 4611686018427387903, 4611686018427387905"):
        sample_gain_arrays(1, 0, 2**62 - 1, 2**62 + 1)


def test_negative_first_rejected():
    with pytest.raises(ValueError, match="got -1, 4"):
        sample_gain_arrays(1, 0, -1, 4)


def test_last_before_first_rejected():
    with pytest.raises(ValueError, match="got 5, 4"):
        sample_gain_arrays(1, 0, 5, 4)


@pytest.mark.parametrize("first", [0, 3, 8, 2**62])
def test_empty_slice_is_valid(first):
    # on a block edge, inside a block and at the top of the trial range
    calls = []
    gains = sample_gain_arrays(2, 0, first, first, keep=lambda u: calls.append(u.size) or np.arange(u.size))
    assert [g.shape for g in gains] == [(0,), (0, 2), (0, 2)]
    assert calls == [0]


def test_numpy_int_slices_draw_the_python_int_slice():
    # the last trials of the range, whose relay streams reach 2**63 + 2**62 - 1: the bounds are
    # taken as Python ints, so the stream arithmetic neither wraps nor rounds
    first = 2**62 - 5
    expected = sample_gain_arrays(1, 3, first, first + 5)
    got = sample_gain_arrays(1, 3, np.uint64(first), np.int64(first + 5))
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
    np.testing.assert_array_equal(expected[0], ref.campaign_gains(1, 3, range(first, first + 5))[0])
