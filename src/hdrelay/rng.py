"""Counter-based random number generation with explicit substreams.

Every random quantity in this package is derived from a ``(seed,
stream_index)`` pair through the Philox4x64-10 block cipher: the 128-bit
key is ``(seed, stream_index)`` and the 256-bit counter enumerates blocks
within the stream.  Because a draw is a pure function of (seed, stream,
position), results are bit-identical regardless of execution order,
batching, or worker count, and distinct stream indices behave as
independent generators.

The block function is verified against ``numpy.random.Philox`` in the test
suite; it is reimplemented here only because numpy exposes Philox as a
sequential bit generator, while the Monte Carlo loops need the keyed block
function evaluated for millions of stream indices at once.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64-10"

# Philox4x64 round multipliers and Weyl key increments (Salmon et al. constants,
# identical to the ones in numpy's Philox implementation).
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)

_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_U64 = 1 << 64


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 bit product of `a` with constant `m`, as (hi, lo)."""
    a_lo = a & _MASK32
    a_hi = a >> _S32
    m_lo = m & _MASK32
    m_hi = m >> _S32
    hi_lo = a_hi * m_lo
    lo_hi = a_lo * m_hi
    cross = ((a_lo * m_lo) >> _S32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    hi = a_hi * m_hi + (hi_lo >> _S32) + (lo_hi >> _S32) + (cross >> _S32)
    return hi, a * m


def philox4x64_block(
    counter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    key: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply the Philox4x64-10 block function to uint64 counter/key words.

    All six inputs are uint64 arrays (or scalars) of a common broadcast
    shape; the return value is the four output words of the block.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0 = np.asarray(key[0], dtype=np.uint64)
    k1 = np.asarray(key[1], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(10):
            if i > 0:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(x0, _M0)
            hi1, lo1 = _mulhilo(x2, _M1)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def check_seed(seed: int) -> None:
    """A master seed must fit the 64-bit key word as is, so no two seeds alias."""
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")


def uniforms_for_streams(seed: int, stream_indices: np.ndarray, n: int) -> np.ndarray:
    """First `n` uniforms in [0, 1) of each stream, vectorized over streams.

    Returns an array of shape ``(len(stream_indices), n)``; row i is the
    first `n` uniforms of stream ``(seed, stream_indices[i])`` whatever the
    other indices of the batch, so a batch of one index yields one stream.
    The seed is the first key word as is; one outside [0, 2**64) is rejected.
    """
    check_seed(seed)
    idx = np.asarray(stream_indices, dtype=np.uint64)
    if idx.ndim != 1:
        raise ValueError("stream_indices must be one-dimensional")
    if n < 0:
        raise ValueError("n must be >= 0")
    k0 = np.full(idx.shape, np.uint64(seed), dtype=np.uint64)
    out = np.empty((idx.shape[0], n), dtype=np.float64)
    zero = np.zeros(idx.shape, dtype=np.uint64)
    for block in range((n + 3) // 4):
        ctr0 = np.full(idx.shape, np.uint64(block), dtype=np.uint64)
        words = philox4x64_block((ctr0, zero, zero, zero), (k0, idx))
        for j, w in enumerate(words):
            col = 4 * block + j
            if col >= n:
                break
            # top 53 bits of the word -> double in [0, 1)
            out[:, col] = (w >> _S11) * 2.0**-53
    return out

