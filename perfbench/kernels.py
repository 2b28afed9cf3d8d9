"""Kernel scaling table for the traced run: the two-hop min-cut kernel at
N = 1..8 relays on fixed gains, and the Philox uniform generator alone.

Operation counts and bytes moved are computed from array sizes, not
measured: they ignore caches and the temporaries numpy allocates.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hdrelay.cutset import TwoHopSchedule, two_hop_bound_array
from hdrelay.rng import uniforms_for_streams

MAX_KERNEL_RELAYS = 8
_PAIRS_PER_CALL = 1 << 24  # cut-state pairs per timed call, before clamping T
_MIN_TRIALS, _MAX_TRIALS = 1024, 1 << 16
_RNG_STREAMS, _RNG_WORDS = 1 << 18, 4
_REPS = 3


def kernel_trials(n_relays: int) -> int:
    """Trials per timed call: fewer at large N, where one trial costs 4^N pairs."""
    return min(_MAX_TRIALS, max(_MIN_TRIALS, _PAIRS_PER_CALL >> (2 * n_relays)))


def twohop_pairs_per_trial(n_relays: int) -> int:
    """Cut-state pairs the uniform-schedule kernel evaluates per trial: 2^N * 2^N."""
    return 4**n_relays


def twohop_bytes_per_trial(n_relays: int) -> int:
    """Computed float64 traffic per trial.

    Each (cut, state) pair reads the capacities of its active crossing
    links, the direct link, and reads and writes its accumulator; summed
    over the 4^N pairs the active links number N * 4^N / 2.
    """
    return 8 * (n_relays * 4**n_relays // 2 + 3 * 4**n_relays)


# Philox4x64-10 makes 4 words per block with 10 rounds of two 64x64->128-bit
# multiplies; each word is written as a float64 and each 4-word block reads
# one uint64 stream index.
RNG_MULTIPLIES_PER_WORD = 5
RNG_BYTES_PER_WORD = 8 + 8 // _RNG_WORDS


def _median_time(call, reps: int = _REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_table(seed: int) -> tuple[dict[str, float], list[dict[str, float]]]:
    """Per-layer metrics of the table, and its rows with their computed counts."""
    gen = np.random.default_rng(seed)
    snr = 10.0
    metrics: dict[str, float] = {}
    rows = []
    for n in range(1, MAX_KERNEL_RELAYS + 1):
        trials = kernel_trials(n)
        g = gen.exponential(size=(trials, 2 * n + 1))
        schedule = TwoHopSchedule.uniform(n)
        reps = _REPS if n < MAX_KERNEL_RELAYS else 1
        seconds = _median_time(
            lambda: two_hop_bound_array(g[:, 0], g[:, 1 : 1 + n], g[:, 1 + n :], snr, schedule), reps
        )
        us_per_trial = 1e6 * seconds / trials
        metrics[f"cutset.twohop_us_per_trial.N{n}"] = us_per_trial
        rows.append(
            {
                "relays": n,
                "trials": trials,
                "us_per_trial": us_per_trial,
                "pairs_per_trial_computed": twohop_pairs_per_trial(n),
                "bytes_per_trial_computed": twohop_bytes_per_trial(n),
            }
        )
    idx = np.arange(_RNG_STREAMS, dtype=np.uint64) + np.uint64(seed % (1 << 32))
    seconds = _median_time(lambda: uniforms_for_streams(seed, idx, _RNG_WORDS))
    words_per_s = _RNG_STREAMS * _RNG_WORDS / seconds
    metrics["rng.standalone_words_per_s"] = words_per_s
    rows.append(
        {
            "kernel": "philox4x64-10 uniforms",
            "words": _RNG_STREAMS * _RNG_WORDS,
            "words_per_s": words_per_s,
            "multiplies_per_word_computed": RNG_MULTIPLIES_PER_WORD,
            "bytes_per_word_computed": RNG_BYTES_PER_WORD,
        }
    )
    return metrics, rows
