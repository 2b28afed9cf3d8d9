"""Channel sampling distribution, determinism, and exponential orders."""

import math

import numpy as np
import pytest

import reference_loops as ref
from hdrelay.channel import (
    ChannelRealization,
    ExponentVector,
    exponential_order,
    orders_from_realization,
    sample_gain_arrays,
    sample_realization,
)
from hdrelay.rng import RandomStream


def test_zero_relays_has_only_direct_link():
    real = sample_realization(0, RandomStream(1, 0))
    assert real.n_relays == 0
    assert real.g_sr == () and real.g_rd == ()
    assert real.g_sd >= 0


def test_sampling_is_deterministic():
    a = sample_realization(3, RandomStream(42, 7))
    b = sample_realization(3, RandomStream(42, 7))
    assert a == b
    assert a != sample_realization(3, RandomStream(42, 8))


def test_batch_sampler_matches_scalar_sampler():
    idx = np.array([0, 5, 1000], dtype=np.uint64)
    g_sd, g_sr, g_rd = sample_gain_arrays(2, 99, idx)
    for row, i in enumerate(idx):
        real = ref.realization_from_stream(2, RandomStream(99, int(i)))
        assert sample_realization(2, RandomStream(99, int(i))) == real
        assert real.g_sd == g_sd[row]
        assert real.g_sr == tuple(g_sr[row])
        assert real.g_rd == tuple(g_rd[row])


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


def test_negative_relay_count_rejected():
    with pytest.raises(ValueError):
        sample_realization(-1, RandomStream(0, 0))


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(g_sd=-0.5)
    with pytest.raises(ValueError):
        ChannelRealization(g_sd=math.inf)
    with pytest.raises(ValueError):
        ChannelRealization(g_sd=1.0, g_sr=(1.0,), g_rd=())


def test_exponent_vector_validation():
    with pytest.raises(ValueError):
        ExponentVector(a_sd=-0.1)
    with pytest.raises(ValueError):
        ExponentVector(a_sd=0.5, a_sr=(0.2, 0.3), a_rd=(0.1,))
    # finite-SNR orders of strong links may exceed 1
    assert ExponentVector(a_sd=1.125).a_sd == 1.125


def test_exponential_order_examples():
    assert exponential_order(0.0, 100.0) == 0.0
    assert exponential_order(1.0, 1e6) == pytest.approx(math.log(1 + 1e6) / math.log(1e6), abs=1e-15)
    assert exponential_order(1e-4, 1e4) == pytest.approx(math.log(2) / math.log(1e4), abs=1e-15)


def test_exponential_order_domain():
    with pytest.raises(ValueError):
        exponential_order(1.0, 1.0)
    with pytest.raises(ValueError):
        exponential_order(1.0, 0.5)
    with pytest.raises(ValueError):
        exponential_order(-1.0, 10.0)


def test_exponential_order_monotone():
    gains = np.linspace(0.0, 5.0, 200)
    orders = exponential_order(gains, 1e3)
    assert np.all(np.diff(orders) >= 0)
    # nondecreasing in snr at fixed sub-unit gains (above 1 the order
    # approaches its limit from above instead)
    for g in (0.01, 0.1, 0.5, 0.9):
        assert exponential_order(g, 1e4) >= exponential_order(g, 1e2)


def test_orders_from_realization_clipping():
    real = ChannelRealization(g_sd=10.0, g_sr=(0.1,), g_rd=(2.0,))
    raw = orders_from_realization(real, 1e8)
    assert raw.a_sd > 1.0
    clipped = orders_from_realization(real, 1e8, clip=True)
    assert clipped.a_sd == 1.0
    assert clipped.a_sr[0] == pytest.approx(exponential_order(0.1, 1e8))
