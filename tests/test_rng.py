"""The counter-based generator must match the reference Philox cipher and
honor the (seed, stream_index) determinism contract."""

import numpy as np
import pytest

from hdrelay.channel import sample_gain_arrays
from hdrelay.rng import GENERATOR_NAME, philox4x64_block
from hdrelay.rng import uniforms_for_streams


def _stream(seed, index, n):
    """First n uniforms of stream (seed, index): the kernel on a batch of one index."""
    return uniforms_for_streams(seed, np.array([index], dtype=np.uint64), n)[0]


@pytest.mark.parametrize(
    "counter,key",
    [
        ((0, 0, 0, 0), (0, 0)),
        ((5, 0, 0, 0), (123, 456)),
        ((2**64 - 1, 0, 0, 0), (7, 8)),
        ((9, 1, 2, 3), (2**64 - 1, 2**64 - 1)),
    ],
)
def test_block_matches_numpy_philox(counter, key):
    # numpy's Philox increments the counter before producing its first
    # block, so its words for counter c are our words for counter c+1.
    bg = np.random.Philox(counter=np.array(counter, dtype=np.uint64), key=np.array(key, dtype=np.uint64))
    reference = bg.random_raw(8)
    c0 = (counter[0] + 1) % 2**64
    carry = 1 if counter[0] == 2**64 - 1 else 0
    first = philox4x64_block(
        (np.uint64(c0), np.uint64(counter[1] + carry), np.uint64(counter[2]), np.uint64(counter[3])),
        (np.uint64(key[0]), np.uint64(key[1])),
    )
    c0b = (counter[0] + 2) % 2**64
    carry_b = 1 if counter[0] >= 2**64 - 2 else 0
    second = philox4x64_block(
        (np.uint64(c0b), np.uint64(counter[1] + carry_b), np.uint64(counter[2]), np.uint64(counter[3])),
        (np.uint64(key[0]), np.uint64(key[1])),
    )
    assert [int(w) for w in first] == [int(v) for v in reference[:4]]
    assert [int(w) for w in second] == [int(v) for v in reference[4:]]


def test_block_is_vectorized_consistently():
    idx = np.arange(100, dtype=np.uint64)
    zero = np.zeros(100, dtype=np.uint64)
    batch = philox4x64_block((zero, zero, zero, zero), (np.full(100, 42, dtype=np.uint64), idx))
    for i in (0, 3, 99):
        single = philox4x64_block(
            (np.uint64(0), np.uint64(0), np.uint64(0), np.uint64(0)),
            (np.uint64(42), np.uint64(i)),
        )
        assert [int(w[i]) for w in batch] == [int(w) for w in single]


def test_stream_uniforms_deterministic_and_in_range():
    u1 = _stream(42, 7, 9)
    u2 = _stream(42, 7, 9)
    np.testing.assert_array_equal(u1, u2)
    assert np.all(u1 >= 0.0) and np.all(u1 < 1.0)
    # a prefix of the same stream is a prefix of the longer draw
    np.testing.assert_array_equal(_stream(42, 7, 4), u1[:4])


def test_streams_are_independent_of_batch_composition():
    alone = uniforms_for_streams(11, np.array([7], dtype=np.uint64), 5)[0]
    batched = uniforms_for_streams(11, np.array([5, 6, 7, 8], dtype=np.uint64), 5)[2]
    np.testing.assert_array_equal(alone, batched)


def test_distinct_streams_and_seeds_differ():
    a = _stream(1, 0, 8)
    b = _stream(1, 1, 8)
    c = _stream(2, 0, 8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeds_outside_64_bits_are_rejected_not_aliased():
    # reduced mod 2**64, -1 would replay seed 2**64 - 1 and 2**64 seed 0
    idx = np.array([1], dtype=np.uint64)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            uniforms_for_streams(seed, idx, 3)
        with pytest.raises(ValueError, match="seed must lie"):
            sample_gain_arrays(1, seed, idx)
    assert not np.array_equal(_stream(0, 1, 3), _stream(2**64 - 1, 1, 3))


def test_exponentials_match_inverse_cdf_of_uniforms():
    u = _stream(3, 4, 5)
    g_sd, g_sr, g_rd = sample_gain_arrays(2, 3, np.array([4], dtype=np.uint64))
    np.testing.assert_array_equal(np.concatenate([g_sd, g_sr[0], g_rd[0]]), -np.log1p(-u))


def test_generator_name_is_published():
    assert GENERATOR_NAME == "philox4x64-10"
