"""Channel sampling distribution and determinism."""

import numpy as np
import pytest

import reference_loops as ref
from hdrelay.channel import gains_from_uniforms, sample_gain_arrays


def _one(n_relays, seed, point, trial):
    """sample_gain_arrays on a range of one trial, as plain floats."""
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, seed, point, trial, trial + 1)
    return float(g_sd[0]), g_sr[0].tolist(), g_rd[0].tolist()


def test_zero_relays_has_only_direct_link():
    g_sd, g_sr, g_rd = sample_gain_arrays(0, 1, 0, 0, 1)
    assert g_sr.shape == g_rd.shape == (1, 0)
    assert g_sd[0] >= 0


def test_sampling_is_deterministic():
    a = _one(3, 42, 0, 7)
    assert a == _one(3, 42, 0, 7)
    assert a != _one(3, 42, 0, 8)
    assert a != _one(3, 42, 1, 7)


def test_batch_sampler_matches_scalar_sampler():
    # ranges that start and stop inside a direct-gain block, and an empty one
    for start, stop in [(0, 9), (333, 666), (5, 6), (7, 7)]:
        g_sd, g_sr, g_rd = sample_gain_arrays(2, 99, 3, start, stop)
        real = ref.campaign_gains(2, 99, 3, range(start, stop))
        for got, expected in zip((g_sd, g_sr, g_rd), real):
            np.testing.assert_array_equal(got, expected)
        for row, k in enumerate(range(start, min(stop, start + 9))):
            assert _one(2, 99, 3, k) == (g_sd[row], g_sr[row].tolist(), g_rd[row].tolist())
        # `keep` reads the direct uniforms and drops whole trials: the rows it selects,
        # relay gains included, in trial order
        seen = []
        kept = sample_gain_arrays(2, 99, 3, start, stop, keep=lambda u: seen.append(u.copy()) or u > 0.5)
        np.testing.assert_array_equal(-np.log1p(-seen[0]), g_sd)
        for got, full in zip(kept, (g_sd, g_sr, g_rd)):
            np.testing.assert_array_equal(got, full[seen[0] > 0.5])


def test_sample_mean_is_unit():
    for g in sample_gain_arrays(1, 2024, 0, 0, 1_000_000):
        assert abs(g.mean() - 1.0) <= 0.01


def test_empirical_cdf_is_unit_exponential():
    # Kolmogorov-Smirnov statistic against 1 - exp(-x), computed directly
    # from the sorted sample.
    g_sd, _, _ = sample_gain_arrays(0, 123, 0, 0, 1_000_000)
    x = np.sort(g_sd)
    n = x.size
    cdf = 1.0 - np.exp(-x)
    ks = max(
        np.max(np.arange(1, n + 1) / n - cdf),
        np.max(cdf - np.arange(0, n) / n),
    )
    assert ks < 0.002


def test_gains_overwrite_the_uniforms_in_place():
    u = np.random.default_rng(4).random((1000, 5))
    u[0, 0] = 0.0
    expected = -np.log1p(-u.copy())
    g_sd, g_sr, g_rd = gains_from_uniforms(u, 2)
    for g in (g_sd, g_sr, g_rd):
        assert np.shares_memory(g, u)
    # bit for bit, so the zero uniform's gain is +0.0 as before
    assert np.column_stack([g_sd, g_sr, g_rd]).tobytes() == expected.tobytes()


def test_negative_relay_count_rejected():
    with pytest.raises(ValueError):
        sample_gain_arrays(-1, 0, 0, 0, 1)
