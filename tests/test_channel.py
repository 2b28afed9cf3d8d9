"""Channel sampling distribution and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from hdrelay.channel import _exponentials, sample_gain_arrays

TRIALS = 1000  # per SNR point, in the slices below


def _one(n_relays, seed, point, trial):
    """sample_gain_arrays on a slice of one trial, as plain floats."""
    first = point * TRIALS + trial
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, seed, TRIALS, first, first + 1)
    return float(g_sd[0]), g_sr[0].tolist(), g_rd[0].tolist()


def test_zero_relays_has_only_direct_link():
    g_sd, g_sr, g_rd = sample_gain_arrays(0, 1, 1, 0, 1)
    assert g_sr.shape == g_rd.shape == (1, 0)
    assert g_sd[0] >= 0


def test_sampling_is_deterministic():
    a = _one(3, 42, 0, 7)
    assert a == _one(3, 42, 0, 7)
    assert a != _one(3, 42, 0, 8)
    assert a != _one(3, 42, 1, 7)


def test_batch_sampler_matches_scalar_sampler():
    # slices of point 3 that start and stop inside a direct-gain block, and an empty one
    for start, stop in [(0, 9), (333, 666), (5, 6), (7, 7)]:
        first, last = 3 * TRIALS + start, 3 * TRIALS + stop
        g_sd, g_sr, g_rd = sample_gain_arrays(2, 99, TRIALS, first, last)
        real = ref.campaign_gains(2, 99, 3, range(start, stop))
        for got, expected in zip((g_sd, g_sr, g_rd), real):
            np.testing.assert_array_equal(got, expected)
        for row, k in enumerate(range(start, min(stop, start + 9))):
            assert _one(2, 99, 3, k) == (g_sd[row], g_sr[row].tolist(), g_rd[row].tolist())
        # `keep` reads the point's direct uniforms and drops whole trials: the rows it selects,
        # relay gains included, in trial order
        seen = []
        kept = sample_gain_arrays(
            2, 99, TRIALS, first, last, keep=lambda p, u: seen.append((p, u.copy())) or u > 0.5
        )
        ((point, u),) = seen
        assert point == 3
        np.testing.assert_array_equal(-np.log1p(-u), g_sd)
        for got, full in zip(kept, (g_sd, g_sr, g_rd)):
            np.testing.assert_array_equal(got, full[u > 0.5])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.integers(0, 2), st.data())
def test_slices_of_the_grid_are_its_trials_in_sequence_order(trials, n_points, n_relays, data):
    """Cut the flattened (point, trial) sequence at random points, so slices start and stop
    inside blocks of direct gains and inside or across SNR points: under a `keep` that depends
    on the point, the slices' rows end to end are those of the whole sequence, and each is the
    reference gains of its (point, trial)."""
    total = n_points * trials
    edges = sorted({0, total, *data.draw(st.lists(st.integers(0, total), max_size=8))})

    def keep(point, u):
        # -log1p(-u) is the reference's g_sd bit for bit
        return -np.log1p(-u) < 0.5 + 0.25 * point

    whole = sample_gain_arrays(n_relays, 5, trials, 0, total, keep)
    pieces = [sample_gain_arrays(n_relays, 5, trials, a, b, keep) for a, b in zip(edges, edges[1:])]
    for got, expected in zip(zip(*pieces), whole):
        np.testing.assert_array_equal(np.concatenate(got), expected)
    reference = [ref.campaign_gains(n_relays, 5, point, range(trials)) for point in range(n_points)]
    kept = [[g[g_sd < 0.5 + 0.25 * point] for g in (g_sd, g_sr, g_rd)]
            for point, (g_sd, g_sr, g_rd) in enumerate(reference)]
    for got, expected in zip(whole, zip(*kept)):
        np.testing.assert_array_equal(got, np.concatenate(expected))


def test_sample_mean_is_unit():
    for g in sample_gain_arrays(1, 2024, 1_000_000, 0, 1_000_000):
        assert abs(g.mean() - 1.0) <= 0.01


def test_empirical_cdf_is_unit_exponential():
    # Kolmogorov-Smirnov statistic against 1 - exp(-x), computed directly
    # from the sorted sample.
    g_sd, _, _ = sample_gain_arrays(0, 123, 1_000_000, 0, 1_000_000)
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


def test_trials_per_point_below_one_rejected():
    with pytest.raises(ValueError, match=r"need trials >= 1 and 0 <= first <= last, got 0, 0, 4"):
        sample_gain_arrays(1, 0, 0, 0, 4)


def test_negative_first_rejected():
    with pytest.raises(ValueError, match="got 4, -1, 4"):
        sample_gain_arrays(1, 0, 4, -1, 4)


def test_last_before_first_rejected():
    with pytest.raises(ValueError, match="got 4, 5, 4"):
        sample_gain_arrays(1, 0, 4, 5, 4)


@pytest.mark.parametrize("first", [0, 3, 8])
def test_empty_slice_is_valid(first):
    # inside a point and on a point boundary
    calls = []
    gains = sample_gain_arrays(2, 0, 4, first, first, keep=lambda p, u: calls.append(u.size) or u < 1)
    assert [g.shape for g in gains] == [(0,), (0, 2), (0, 2)]
    assert calls == [0]


def test_numpy_int_slices_draw_the_python_int_slice():
    # a slice of the last point, whose relay streams reach 2**64 - 2: its bounds are taken as
    # Python ints, so the stream arithmetic neither wraps nor rounds
    trials, first = 2**40 - 1, 2**23 * (2**40 - 1) - 6
    expected = sample_gain_arrays(1, 3, trials, first, first + 5)
    got = sample_gain_arrays(1, 3, np.uint64(trials), np.uint64(first), np.int64(first + 5))
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
