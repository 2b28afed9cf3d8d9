"""Channel sampling distribution and determinism."""

import numpy as np
import pytest

import reference_loops as ref
from hdrelay.channel import gains_from_uniforms, sample_gain_arrays


def _one(n_relays, seed, index):
    """sample_gain_arrays on a batch of one stream index, as plain floats."""
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, seed, np.array([index], dtype=np.uint64))
    return float(g_sd[0]), g_sr[0].tolist(), g_rd[0].tolist()


def test_zero_relays_has_only_direct_link():
    g_sd, g_sr, g_rd = sample_gain_arrays(0, 1, np.array([0], dtype=np.uint64))
    assert g_sr.shape == g_rd.shape == (1, 0)
    assert g_sd[0] >= 0


def test_sampling_is_deterministic():
    a = _one(3, 42, 7)
    assert a == _one(3, 42, 7)
    assert a != _one(3, 42, 8)


def test_batch_sampler_matches_scalar_sampler():
    idx = np.array([0, 5, 1000], dtype=np.uint64)
    g_sd, g_sr, g_rd = sample_gain_arrays(2, 99, idx)
    for row, i in enumerate(idx):
        real = ref.realization_from_stream(2, 99, int(i))
        assert _one(2, 99, int(i)) == real
        assert real == (g_sd[row], g_sr[row].tolist(), g_rd[row].tolist())


def test_sample_mean_is_unit():
    g_sd, _, _ = sample_gain_arrays(0, 2024, np.arange(1_000_000, dtype=np.uint64))
    assert abs(g_sd.mean() - 1.0) <= 0.01


def test_empirical_cdf_is_unit_exponential():
    # Kolmogorov-Smirnov statistic against 1 - exp(-x), computed directly
    # from the sorted sample.
    g_sd, _, _ = sample_gain_arrays(0, 123, np.arange(1_000_000, dtype=np.uint64))
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
        sample_gain_arrays(-1, 0, np.array([0], dtype=np.uint64))
