"""The counter-based generator must match the reference Philox cipher and
honor the (seed, stream_index) determinism contract."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdrelay import montecarlo
from hdrelay.channel import sample_gain_arrays
from hdrelay.rng import _M0, _M1, _ROWS, GENERATOR_NAME, _mulhilo, philox4x64_block
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


@pytest.mark.parametrize("m", [_M0, _M1], ids=["M0", "M1"])
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@settings(max_examples=200, deadline=None)
def test_mulhilo_matches_python_int_product(m, words):
    expected = [((a * int(m)) >> 64, (a * int(m)) % 2**64) for a in words]
    # the low word wraps by design, and uint64 scalars warn when they wrap
    with np.errstate(over="ignore"):
        scalars = [_mulhilo(np.uint64(a), m) for a in words]
        hi, lo = _mulhilo(np.array(words, dtype=np.uint64), m)
    assert [(int(h), int(w)) for h, w in scalars] == expected
    assert list(zip(hi.tolist(), lo.tolist())) == expected


@pytest.mark.parametrize("block", [0, 1, 2**64 - 1])
def test_block_with_scalar_counter_and_seed_equals_all_array_call(block):
    idx = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    ctr, zeros = np.full(idx.shape, block, dtype=np.uint64), np.zeros_like(idx)
    seed = np.full(idx.shape, 987654321, dtype=np.uint64)
    arrays = philox4x64_block((ctr, zeros, zeros, zeros), (seed, idx))
    zero = np.uint64(0)
    scalars = philox4x64_block((np.uint64(block), zero, zero, zero), (np.uint64(987654321), idx))
    for a, b in zip(arrays, scalars):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 13, 16])
def test_rows_on_pass_edges_equal_batch_of_one_draws(n):
    edges = [0, _ROWS - 1, _ROWS, 2 * _ROWS - 1, 2 * _ROWS, 2 * _ROWS + 4]
    idx = np.arange(2 * _ROWS + 5, dtype=np.uint64)
    idx[edges[1::2]] = np.array([2**64 - 1, 2**64 - 2, 2**64 - 3], dtype=np.uint64)
    batch = uniforms_for_streams(5, idx, n)
    for row in edges:
        np.testing.assert_array_equal(batch[row], _stream(5, int(idx[row]), n))


def test_uniforms_golden_digest():
    # three full passes and a partial one; the digest was taken from the
    # earlier all-array kernel, so it pins every output bit across the rewrite
    idx = np.arange(2**40, 2**40 + 3 * _ROWS + 7, dtype=np.uint64)
    digest = hashlib.sha256(uniforms_for_streams(987654321, idx, 13).tobytes()).hexdigest()
    assert digest == "6b9cafa98cb4bdf29f0cf73956a8f7cf44ac9f16bb06c7ab2401e7e4676f45fb"


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


def test_stream_indices_and_lengths_are_checked():
    with pytest.raises(ValueError, match="stream_indices must be one-dimensional"):
        uniforms_for_streams(1, np.zeros((2, 2), dtype=np.uint64), 3)
    with pytest.raises(ValueError, match="n must be >= 0"):
        uniforms_for_streams(1, np.array([1], dtype=np.uint64), -1)
    assert uniforms_for_streams(1, np.array([1, 2], dtype=np.uint64), 0).shape == (2, 0)


def test_seeds_outside_64_bits_are_rejected_not_aliased():
    # reduced mod 2**64, -1 would replay seed 2**64 - 1 and 2**64 seed 0
    idx = np.array([1], dtype=np.uint64)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            uniforms_for_streams(seed, idx, 3)
        with pytest.raises(ValueError, match="seed must lie"):
            sample_gain_arrays(1, seed, 0, 1)
    assert not np.array_equal(_stream(0, 1, 3), _stream(2**64 - 1, 1, 3))


def test_exponentials_match_inverse_cdf_of_uniforms():
    # trial 6: word 2 of direct stream 1, the first 4 words of relay stream 2**63 + 6
    u = np.concatenate([_stream(3, 1, 4)[2:3], _stream(3, 2**63 + 6, 4)])
    g_sd, g_sr, g_rd = sample_gain_arrays(2, 3, 6, 7)
    np.testing.assert_array_equal(np.concatenate([g_sd, g_sr[0], g_rd[0]]), -np.log1p(-u))


def _numpy_philox_uniforms(seed, stream, n):
    """First n uniforms of stream (seed, stream) from numpy's own Philox.  numpy
    adds 1 to its 256-bit counter before each block, so a counter of 2^256 - 1
    makes its first block the one at counter 0."""
    words = np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64), counter=np.full(4, 2**64 - 1, dtype=np.uint64)
    ).random_raw(n)
    return (words >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize(
    "seed, first, last",
    [
        (0, 0, 4),  # one whole direct block
        (29, 1333, 1338),  # starts at k % 4 = 1, ends past a block edge
        # the last trials of a chunk and the first of the next
        (2**64 - 1, 7 * montecarlo._CHUNK - 2, 7 * montecarlo._CHUNK + 3),
        # the top of the trial range: direct stream 2**60 - 1, relay streams up to 2**63 + 2**62 - 1
        (2**64 - 1, 2**62 - 6, 2**62),
    ],
)
def test_campaign_gains_are_numpy_philox_words(seed, first, last):
    n_relays = 3
    g_sd, g_sr, g_rd = sample_gain_arrays(n_relays, seed, first, last)
    for row, k in enumerate(range(first, last)):
        direct = _numpy_philox_uniforms(seed, k // 4, 4)[k % 4 : k % 4 + 1]
        relay = _numpy_philox_uniforms(seed, 2**63 + k, 2 * n_relays)
        expected = -np.log1p(-np.concatenate([direct, relay]))
        np.testing.assert_array_equal(np.concatenate([g_sd[row : row + 1], g_sr[row], g_rd[row]]), expected)
    assert g_sd.shape == (last - first,)


def test_generator_name_is_published():
    assert GENERATOR_NAME == "philox4x64-10"
