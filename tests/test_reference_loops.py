"""Every array kernel, on a batch of one row or more, equals its loop reference exactly.

`reference_loops` recomputes each quantity for one row of plain floats by
explicit Python loops with the same arithmetic in the same order.  Equality
is required bit for bit (``==``), not within a tolerance; the subset
averages, a closed form in the kernels, are held to exactly rounded
enumerations within 1e-13 instead.  The staircase
grid oracle must likewise return the exhaustive grid search's float on
every down-set.
"""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from hdrelay import cutset, dmt, montecarlo
from hdrelay.cutset import (
    WEIGHT_SUM_TOL,
    SingleRelaySchedule,
    TwoHopSchedule,
    _min_cut_floor,
    _subset_max,
    cut_average_array,
    cut_flow_array,
    link_capacities,
    link_capacity_bits,
    single_relay_bound_array,
    single_relay_order_array,
    two_hop_bound_array,
)
from hdrelay.dmt import (
    crossing_links_outage_region,
    exponent_grid_oracle,
    single_relay_outage_region,
)
from hdrelay.lemmas import (
    CheckKind,
    avg_lemma_margin_array,
    run_randomized_suite,
    suite_margins,
)
from hdrelay.montecarlo import (
    _FLOOR_TOL,
    RunConfig,
    _count_outages,
    _counts_per_point,
    _direct_link_uniform,
    db_to_linear,
)
from hdrelay.rng import uniforms_for_streams

gains = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
weight_draws = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))


@st.composite
def two_hop_instances(draw, max_relays=4):
    """((g_sd, g_sr, g_rd), snr, non-uniform schedule with zeros allowed, omega_mask)."""
    n = draw(st.integers(min_value=1, max_value=max_relays))
    raw = draw(st.lists(weight_draws, min_size=1 << n, max_size=1 << n))
    if not any(raw):
        raw[draw(st.integers(min_value=0, max_value=(1 << n) - 1))] = 1.0
    total = math.fsum(raw)
    schedule = TwoHopSchedule(n, tuple(w / total for w in raw))
    g_sd = draw(gains)
    g_sr = draw(st.lists(gains, min_size=n, max_size=n))
    g_rd = draw(st.lists(gains, min_size=n, max_size=n))
    snr = draw(st.floats(min_value=0.01, max_value=1e4))
    omega_mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return (g_sd, g_sr, g_rd), snr, schedule, omega_mask


@given(two_hop_instances(), st.floats(min_value=0.0, max_value=10.0), st.floats(0.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_two_hop_wrappers_equal_loop_references(instance, rate_bits, gap_bits):
    (g_sd, g_sr, g_rd), snr, schedule, omega = instance
    batch = (np.array([g_sd]), np.array([g_sr]), np.array([g_rd]))
    caps = link_capacities(*batch, snr)
    flow = ref.cut_flow(g_sd, g_sr, g_rd, snr, schedule.weights, omega)
    assert cut_flow_array(*caps, schedule.weights, omega)[0] == flow
    min_cut = ref.min_cut(g_sd, g_sr, g_rd, snr, schedule.weights)
    assert two_hop_bound_array(*batch, snr, schedule)[0] == min_cut
    average = ref.cut_average(g_sd, g_sr, g_rd, snr, omega)
    assert cut_average_array(*caps, omega)[0] == average
    uniform = TwoHopSchedule.uniform(schedule.n_relays)
    margin = ref.cut_flow(g_sd, g_sr, g_rd, snr, uniform.weights, omega) - average
    assert cut_flow_array(*caps, uniform.weights, omega)[0] - cut_average_array(*caps, omega)[0] == margin
    (count,) = _counts_per_point(schedule, *batch, [1], [snr], [rate_bits], gap_bits)
    assert count == (min_cut - gap_bits < rate_bits)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("zeros", [False, True], ids=["uniform", "zeros"])
def test_multi_row_batches_equal_loop_references(n, zeros):
    rng = np.random.default_rng(100 + n)
    raw = rng.integers(0, 3, size=1 << n).astype(np.float64) if zeros else np.ones(1 << n)
    raw[rng.integers(1 << n)] += 1.0
    schedule = TwoHopSchedule(n, tuple(raw / raw.sum()))
    rows = max(3, 96 >> n)
    g_sd = rng.exponential(size=rows)
    g_sr = rng.exponential(size=(rows, n))
    g_rd = rng.exponential(size=(rows, n))
    # dead links and equal capacities on both hops
    g_sd[::4], g_sr[1::3, 0], g_rd[:, -1] = 0.0, 0.0, g_sr[:, 0]
    snr = 10.0 ** rng.uniform(-1.0, 4.0, size=rows)
    bound = two_hop_bound_array(g_sd, g_sr, g_rd, snr, schedule)
    cuts = rng.integers(0, 1 << n, size=3)
    flows = cut_flow_array(*link_capacities(g_sd, g_sr, g_rd, snr), schedule.weights, cuts[:, None])
    for i in range(rows):
        row = (g_sd[i], g_sr[i].tolist(), g_rd[i].tolist(), float(snr[i]))
        assert bound[i] == ref.min_cut(*row, schedule.weights)
        for omega, flow in zip(cuts.tolist(), flows[:, i]):
            assert flow == ref.cut_flow(*row, schedule.weights, omega)


def _floor_schedule(rng, n, weights):
    """Equal weights 2^-N; random weights with zeros and one state holding about
    half the time; equal weights whose sum falls short of 1 by
    0.9 * WEIGHT_SUM_TOL (the most a schedule may); near-uniform weights, drawn
    from [0.99, 1.01] and normalized, so within 2.1% of 2^-N; or Dirichlet
    weights, all positive and unequal."""
    if weights == "uniform":
        return TwoHopSchedule.uniform(n)
    if weights == "short":
        return TwoHopSchedule(n, ((1.0 - 0.9 * WEIGHT_SUM_TOL) / (1 << n),) * (1 << n))
    if weights == "near":
        raw = rng.uniform(0.99, 1.01, size=1 << n)
    elif weights == "dirichlet":
        raw = rng.dirichlet(np.full(1 << n, 4.0))
    else:
        raw = rng.integers(0, 3, size=1 << n).astype(np.float64)
        raw[rng.integers(1 << n)] += 1 << n
    return TwoHopSchedule(n, tuple(raw / raw.sum()))


def _floor_gains(rng, n, rows):
    """Exponential gains, with rows whose direct link is the whole flow (dead
    relays), strong direct links, dead single links and, at N=1, hops at least
    as strong as the direct link, where the cut-average lemma holds with equality."""
    g_sd = rng.exponential(size=rows)
    g_sr = rng.exponential(size=(rows, n))
    g_rd = rng.exponential(size=(rows, n))
    g_sr[0::4], g_rd[0::4] = 0.0, 0.0
    g_sd[1::4] *= 1e3
    g_sd[3::8], g_sr[3::5, 0] = 0.0, 0.0
    if n == 1:
        tight = g_sd[2::4, None]
        g_sr[2::4] = tight * rng.uniform(1.0, 2.0, size=tight.shape)
        g_rd[2::4] = tight * rng.uniform(1.0, 2.0, size=tight.shape)
    return g_sd, g_sr, g_rd


FLOOR_SNRS = (0.1, 1.0, 10.0, 1e3, 1e6, 1e20)
FLOOR_KINDS = ["uniform", "zeros", "short", "near", "dirichlet"]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("weights", FLOOR_KINDS)
def test_pruned_outage_equals_the_unpruned_min_cut(n, weights):
    """`_counts_per_point` clears rows by `_min_cut_floor` before the kernel; at
    every point the count must still be that of `two_hop_bound_array(...) - gap <
    rate_bits`, also at rates on the computed bound and one ulp either side of it.
    A floor can only clear a row wrongly if the row is in outage, so equal counts
    mean equal rows.  One call per (SNR, gap) takes one point per rate, so the
    kernel sees the rows of all of them at once, each at its own rate."""
    rng = np.random.default_rng(300 + n)
    schedule = _floor_schedule(rng, n, weights)
    g_sd, g_sr, g_rd = _floor_gains(rng, n, max(12, 512 >> n))
    for snr in FLOOR_SNRS:
        bound = two_hop_bound_array(g_sd, g_sr, g_rd, snr, schedule)
        for gap_bits in (0.0, 0.7):
            rates = [0.0, math.log2(snr)]  # r = 0 and r = 1
            for i in range(8):  # every kind of row `_floor_gains` makes
                edge = bound[i] - gap_bits
                rates += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            ends, snrs = [g_sd.size] * len(rates), [snr] * len(rates)
            counts = _counts_per_point(schedule, g_sd, g_sr, g_rd, ends, snrs, rates, gap_bits)
            expected = [np.count_nonzero(bound - gap_bits < rate_bits) for rate_bits in rates]
            assert counts.tolist() == expected


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("weights", FLOOR_KINDS)
def test_min_cut_floor_is_the_cut_average_lemma(n, weights):
    """For every schedule the floor is the left side of the subset-average lemma:
    max(n_sd, min(weights) * the sum over all subsets x of H(x) = max(n_sd, max of
    h = min(n_sr, n_rd) over x)), within 1e-13 relative of the subset loop and of
    the `_subset_max` table sum.  It is at least the lemma's right side, the
    cut-average floor, and never exceeds the computed min-cut by more than
    `_FLOOR_TOL` relative."""
    rng = np.random.default_rng(400 + n)
    schedule = _floor_schedule(rng, n, weights)
    gains = _floor_gains(rng, n, max(12, 512 >> n))
    least = min(schedule.weights)
    for snr in FLOOR_SNRS:
        caps = link_capacities(*gains, snr)
        floor = _min_cut_floor(*caps, schedule.weights)
        h = np.minimum(caps[1], caps[2])
        loop = [ref.subset_max_sum(a, row) for a, row in zip(caps[0].tolist(), h.tolist())]
        table = np.add.accumulate(np.maximum(_subset_max(h).T, caps[0][:, None]), axis=1)[:, -1]
        for total in (np.array(loop), table):
            expected = np.maximum(caps[0], least * total)
            np.testing.assert_allclose(floor, expected, rtol=1e-13, atol=0.0)
        lemma = np.min([cut_average_array(*caps, omega) for omega in range(1 << n)], axis=0)
        assert (floor >= np.maximum(caps[0], (1 << n) * least * lemma) * (1.0 - 1e-12)).all()
        bound = two_hop_bound_array(*gains, snr, schedule)
        assert (floor * (1.0 - _FLOOR_TOL) <= bound).all()
        if n == 1 and weights == "uniform":
            # one relay: the subset average is the min-cut on every row
            np.testing.assert_allclose(floor, bound, rtol=1e-13, atol=0.0)


@given(two_hop_instances(max_relays=5))
@settings(max_examples=300, deadline=None)
@example(((0.5, [0.0, 3.0], [2.0, 4.0]), 10.0, TwoHopSchedule(2, (0.1, 0.2, 0.3, 0.4)), 0))
@example(((1.0, [0.0] * 5, [0.0] * 5), 1e3, TwoHopSchedule.uniform(5), 0))
def test_min_cut_floor_never_exceeds_the_loop_min_cut(instance):
    """The floor, less `_FLOOR_TOL` relative as `_counts_per_point` reads it, is at
    most the loop reference's min-cut: weights with zeros, dead links, N = 1..5."""
    (g_sd, g_sr, g_rd), snr, schedule, _ = instance
    caps = link_capacities(np.array([g_sd]), np.array([g_sr]), np.array([g_rd]), snr)
    floor = _min_cut_floor(*caps, schedule.weights)[0]
    assert floor * (1.0 - _FLOOR_TOL) <= ref.min_cut(g_sd, g_sr, g_rd, snr, schedule.weights)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
def test_single_relay_bound_keeps_the_direct_link_certificate(t):
    """Both single-relay cuts are at least n_sd, less rounding within `_FLOOR_TOL`
    relative, so the staged draw may clear a trial on n_sd alone.  At t = 0.3,
    t*x + (1-t)*n_sd with x = n_sd rounds below n_sd, which is why the slack is
    relative and not zero."""
    rng = np.random.default_rng(7)
    g_sd = rng.exponential(size=4096)
    g_sd[0::8], g_sd[1::8] = 0.0, g_sd[1::8] * 1e-9
    zeros, g = np.zeros_like(g_sd), rng.exponential(size=g_sd.shape)
    below = False
    for g_sr, g_rd in [(zeros, zeros), (g, zeros), (zeros, g), (g, g[::-1])]:
        for snr in 10.0 ** (np.arange(-30.0, 201.0, 10.0) / 10.0):
            n_sd = link_capacity_bits(g_sd, snr)
            bound = single_relay_bound_array(g_sd, g_sr, g_rd, snr, t)
            assert (bound >= n_sd * (1.0 - _FLOOR_TOL)).all()
            below = below or bool((bound < n_sd).any())
    assert below or t != 0.3


@pytest.mark.parametrize(
    "kind, n",
    [(0.0, 1), (0.3, 1), (0.5, 1), (1.0, 1), ("short", 1), ("short", 3), ("zeros", 3)]
    + [(kind, n) for kind in ("near", "dirichlet") for n in range(1, 9)],
)
def test_direct_link_certificate_holds_at_rates_on_the_bound(kind, n, monkeypatch):
    """`_count_outages` clears a trial when n_sd * (1 - _FLOOR_TOL) - gap >= rate.
    Where the relays are dead, the bound lies an ulp (t = 0.3) or a weight-sum
    shortfall of 0.9 * WEIGHT_SUM_TOL ("short") below n_sd; at rates on each
    trial's computed bound and one ulp either side, the count must still be
    bound - gap < rate.  The sampler serves fixed gains through the same `keep`,
    which reads their uniforms -expm1(-g)."""
    rng = np.random.default_rng(600 + n)
    if isinstance(kind, float):
        schedule = SingleRelaySchedule(kind)
    else:
        schedule = _floor_schedule(rng, n, kind)
    gains = _floor_gains(rng, n, 16)

    def sampler(n_relays, seed, first, last, keep):
        rows = np.arange(first, last)
        kept = rows[keep(-np.expm1(-gains[0][rows]))]
        return tuple(g[kept] for g in gains)

    monkeypatch.setattr(montecarlo, "sample_gain_arrays", sampler)
    for snr in FLOOR_SNRS:
        bound = ref.campaign_bound(schedule, gains, snr)
        for gap_bits in (0.0, 0.7):
            cfg = RunConfig(schedule, 0.5, (0.0,), 16, 1, gap_bits)
            for i in range(16):
                edge = bound[i] - gap_bits
                for rate_bits in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    (count,) = _count_outages(cfg, [(0.0, snr, float(rate_bits))], i, i + 1)
                    assert count == (bound[i] - gap_bits < rate_bits)


def test_direct_uniform_test_keeps_every_trial_the_n_sd_test_keeps():
    """`_count_outages` keeps a trial when its direct uniform u < `_direct_link_uniform`.
    Over 2^17 uniforms per SNR point, the 64 smallest and 64 largest included (u = 0 and
    1 - 2^-53), at -30..200 dB, gaps 0 and 0.7, r = 0, 0.5, 1 and rates on the n_sd test's
    boundary and one ulp either side, it keeps every trial with
    n_sd * (1 - _FLOOR_TOL) - gap < rate.  Of the random uniforms it keeps at most one more,
    the one on the boundary; its slack reaches only the edges, within 1e-9 of 0 or of 1."""
    rng = np.random.default_rng(19)
    edges = np.concatenate([np.arange(64.0), 2.0**53 - np.arange(64.0, 0.0, -1.0)]) * 2.0**-53
    most_extra = 0
    for snr_db in np.arange(-30.0, 201.0, 10.0):
        snr = float(db_to_linear(snr_db))
        u = np.concatenate([edges, rng.integers(0, 1 << 53, size=1 << 17) * 2.0**-53])
        n_sd = link_capacity_bits(-np.log1p(-u), snr)
        for gap in (0.0, 0.7):
            rates = [r * math.log2(snr) for r in (0.0, 0.5, 1.0)]
            for i in [*range(0, 128, 9), *rng.integers(128, u.size, size=8)]:
                edge = n_sd[i] * (1.0 - _FLOOR_TOL) - gap
                rates += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
            for rate in rates:
                kept_before = n_sd * (1.0 - _FLOOR_TOL) - gap < rate
                kept = u < _direct_link_uniform(snr, float(rate), gap)
                assert not (kept_before & ~kept).any()
                most_extra = max(most_extra, np.count_nonzero((kept & ~kept_before)[edges.size :]))
    assert most_extra == 1


STAGED_SNR_DB = (-30.0, 0.0, 10.0, 30.0, 100.0, 200.0)
STAGED_SCHEDULES = [("single", t) for t in (0.0, 0.3, 0.5, 1.0)] + [
    (weights, n) for n in range(1, 9) for weights in ("uniform", "zeros")
]


@pytest.mark.parametrize("kind, param", STAGED_SCHEDULES, ids=[f"{k}-{p}" for k, p in STAGED_SCHEDULES])
def test_staged_draws_equal_drawing_and_bounding_every_trial(kind, param):
    """`_count_outages` draws relay gains only for the trials whose direct link
    cannot clear the rate at some SNR point.  Trial by trial, and over a range that
    starts inside a block of direct gains, its outage at every point must equal the
    reference that draws every trial's full gains and bounds them all at every
    point, at negative rates (below 0 dB) too."""
    seed, trials = 17, 150
    if kind == "single":
        schedule = SingleRelaySchedule(param)
    else:
        schedule = _floor_schedule(np.random.default_rng(500 + param), param, kind)
    mixed = False
    snrs = [float(db_to_linear(snr_db)) for snr_db in STAGED_SNR_DB]
    gains = ref.campaign_gains(schedule.n_relays, seed, range(trials))  # shared by every point
    bounds = [ref.campaign_bound(schedule, gains, snr) for snr in snrs]
    for gap_bits in (0.0, 0.7):
        cfg = RunConfig(schedule, 0.5, STAGED_SNR_DB, trials, seed, gap_bits)
        for r in (0.0, 0.5, 1.0):
            points = [(db, s, r * math.log2(s)) for db, s in zip(STAGED_SNR_DB, snrs)]
            expected = np.array([bound - gap_bits < rate for bound, (_, _, rate) in zip(bounds, points)])
            per_trial = np.array([_count_outages(cfg, points, k, k + 1) for k in range(6)])
            assert per_trial.T.tolist() == expected[:, :6].tolist()
            counts = _count_outages(cfg, points, 3, trials)
            assert counts.tolist() == np.count_nonzero(expected[:, 3:], axis=1).tolist()
            mixed = mixed or any(0 < c < trials - 3 for c in counts)
    assert mixed


@pytest.mark.parametrize("kind, param", [("single", 0.3), ("zeros", 3), ("uniform", 6)])
def test_a_task_counts_every_point_on_the_same_trials(kind, param):
    """One `_count_outages` task over a slice of the trial range, its ends falling both
    inside blocks of direct gains and on their edges, and one at the top of the range,
    gives each SNR point the reference count of the slice's trials at its own SNR and
    rate, on a grid whose direct-link thresholds fall and then rise (a gap of 0.7 bits
    at r = 0.5 makes the lowest SNR points keep fewer trials than the middle ones)."""
    seed, gap_bits = 17, 0.7
    if kind == "single":
        schedule = SingleRelaySchedule(param)
    else:
        schedule = _floor_schedule(np.random.default_rng(500 + param), param, kind)
    cfg = RunConfig(schedule, 0.5, STAGED_SNR_DB, 2**62, seed, gap_bits)
    points = []
    for snr_db in STAGED_SNR_DB:
        snr = float(db_to_linear(snr_db))
        points.append((snr_db, snr, 0.5 * math.log2(snr)))
    limits = [_direct_link_uniform(snr, rate, gap_bits) for _, snr, rate in points]
    assert limits[0] < max(limits) and limits[-1] < max(limits)
    for first, last in [(1, 148), (4, 145), (3, 11), (2**62 - 150, 2**62)]:
        gains = ref.campaign_gains(schedule.n_relays, seed, range(first, last))
        expected = [
            int(np.count_nonzero(ref.campaign_bound(schedule, gains, snr) - gap_bits < rate))
            for _, snr, rate in points
        ]
        assert _count_outages(cfg, points, first, last).tolist() == expected
        assert sum(expected) < len(points) * (last - first)
        assert sum(expected) > 0 or last - first < 10


orders = st.floats(min_value=0.0, max_value=1.0)


@given(orders, orders, orders, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_single_relay_order_equals_loop_reference(a_sd, a_sr, a_rd, t, r):
    order = ref.highsnr_order(a_sd, a_sr, a_rd, t)
    assert single_relay_order_array(np.array([a_sd]), np.array([a_sr]), np.array([a_rd]), t)[0] == order
    assert ref.on_region(single_relay_outage_region(r, t), [[a_sd, a_sr, a_rd]])[0] == (order <= r)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=200, deadline=None)
def test_two_hop_cut_predicate_equals_loop_reference(n, data):
    # values on a 1/8 grid make every partial sum exact, so the two
    # summation orders agree even on the boundary of the outage set
    grid = st.integers(min_value=0, max_value=8).map(lambda k: k / 8)
    a_sd = data.draw(grid)
    a_sr = data.draw(st.lists(grid, min_size=n, max_size=n))
    a_rd = data.draw(st.lists(grid, min_size=n, max_size=n))
    omega = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    r = data.draw(grid)
    row = np.array([[a_sd, *a_sr, *a_rd]])
    inside = ref.on_region(crossing_links_outage_region(n, r), row[:, ref.crossing_columns(n, omega)])[0]
    assert inside == ref.two_hop_cut_outage(a_sd, a_sr, a_rd, r, omega)


# kind, size (max_len, or max_relays for cut-avg), instances per seed
SUITES = [
    (CheckKind.TCHEBYCHEF, 1, 1500),
    (CheckKind.TCHEBYCHEF, 8, 1500),
    (CheckKind.TCHEBYCHEF, 16, 1500),
    (CheckKind.AVG_LEMMA, 1, 1500),
    (CheckKind.AVG_LEMMA, 8, 1500),
    (CheckKind.AVG_LEMMA, 16, 100),
    (CheckKind.CUT_AVG, 6, 1500),
    (CheckKind.CUT_AVG, 10, 200),
]


@pytest.mark.parametrize(
    "kind, size, instances", SUITES, ids=[f"{kind.value}-{size}" for kind, size, _ in SUITES]
)
def test_batched_suite_equals_per_instance_reference(kind, size, instances):
    instance, sizes = {
        CheckKind.TCHEBYCHEF: (ref.tchebychef_instance, {"max_len": size}),
        CheckKind.AVG_LEMMA: (ref.avg_lemma_instance, {"max_len": size}),
        CheckKind.CUT_AVG: (ref.cut_avg_instance, {"max_relays": size}),
    }[kind]
    draws = {CheckKind.TCHEBYCHEF: 1 + 2 * size, CheckKind.AVG_LEMMA: 2 + size}.get(kind, 4 + 2 * size)
    for seed in (1, 2, 3):
        u = uniforms_for_streams(seed, np.arange(instances, dtype=np.uint64), draws)
        expected = np.array([instance(row, size) for row in u])
        margins = suite_margins(kind, u, sizes.get("max_len", 8), sizes.get("max_relays", 6))
        if kind is CheckKind.AVG_LEMMA:
            # the closed form rounds n + 1 terms below 10, the reference sums all 2^n exactly;
            # the batch must still be the kernel on one row at a time, bit for bit
            np.testing.assert_allclose(margins, expected, rtol=0.0, atol=1e-13)
            rows = [ref.avg_lemma_row(row, size) for row in u]
            expected = np.array([avg_lemma_margin_array([a], [s])[0] for a, s in rows])
        np.testing.assert_array_equal(margins, expected)
        # small tables split each size group over several passes
        with patch.object(cutset, "_BLOCK", 1 << 8):
            margins = suite_margins(kind, u, sizes.get("max_len", 8), sizes.get("max_relays", 6))
        np.testing.assert_array_equal(margins, expected)
        report = run_randomized_suite(kind, instances, seed, **sizes)
        assert report.worst_margin == expected.min()
        assert report.violations == 0


# prefixes per chunk: one, a count that splits the grid unevenly, the default
chunks = st.sampled_from([1, 17, dmt._CHUNK])
unit = st.floats(min_value=0.0, max_value=1.0)
# 0.07 (L=15) and 0.03 (L=34) give grids that stop short of 1 and coarse
# levels, every ceil(sqrt(L))-th plus the top one, that do not divide L evenly
steps = [0.25, 0.1, 0.07, 0.05, 0.03]


@given(unit, unit, st.sampled_from(steps + [0.025]), chunks)
@settings(max_examples=60, deadline=None)
def test_staircase_oracle_equals_exhaustive_single_relay(r, t, step, chunk):
    region = single_relay_outage_region(r, t)
    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(region, 3, step).item() == ref.exhaustive_grid_oracle(region, 3, step)


@given(st.integers(min_value=1, max_value=3), unit, st.sampled_from(steps), chunks)
@settings(max_examples=40, deadline=None)
def test_staircase_oracle_equals_exhaustive_two_hop(n, r, step, chunk):
    if n == 3 and chunk == 1:
        step = max(step, 0.07)  # keeps the one-prefix-chunk runs short
    crossing = crossing_links_outage_region(n, r)
    expected = ref.exhaustive_grid_oracle(crossing, n + 1, step)
    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(crossing, n + 1, step).item() == expected
    if n <= 2:
        # the full 2N+1 coordinates cost L^(2N) prefixes, so N=2 keeps the coarse grid
        full_step = step if n == 1 else 0.25
        for omega in range(1 << n):
            cols = ref.crossing_columns(n, omega)

            def region(alpha, which):
                return crossing(alpha[:, cols], which)

            expected = ref.exhaustive_grid_oracle(region, 2 * n + 1, full_step)
            with patch.object(dmt, "_CHUNK", chunk):
                assert exponent_grid_oracle(region, 2 * n + 1, full_step).item() == expected


@st.composite
def box_unions(draw):
    """(dim, corners): the down-set of points below any of 0..4 random corners."""
    dim = draw(st.integers(min_value=1, max_value=4))
    # corners on and off the grid, and above 1 so a box can cover a whole axis
    value = st.one_of(st.integers(min_value=0, max_value=20).map(lambda k: k / 20), st.floats(0.0, 1.2))
    corners = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), max_size=4))
    return dim, np.array(corners, dtype=np.float64).reshape(len(corners), dim)


@given(box_unions(), st.sampled_from(steps), chunks)
@example((3, np.empty((0, 3))), 0.1, dmt._CHUNK)  # empty: no outage at all
@example((4, np.full((1, 4), 1.0)), 0.25, 17)  # full: the whole cube
# the optimum (0.98, 0.91, 0.14) sits on the top prefix level 14 of L=15 and on
# level 13, between the coarse levels 12 and 14
@example((3, np.array([[1.0, 0.93, 0.2], [0.5, 0.5, 0.5]])), 0.07, dmt._CHUNK)
@settings(max_examples=80, deadline=None)
def test_staircase_oracle_equals_exhaustive_on_box_unions(dim_corners, step, chunk):
    dim, corners = dim_corners
    if dim == 4:
        step = max(step, 0.1)  # keeps the one-prefix-chunk runs short

    def region(alpha, which):
        return np.any(np.all(alpha[:, None, :] <= corners[None, :, :], axis=2), axis=1)

    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(region, dim, step).item() == ref.exhaustive_grid_oracle(region, dim, step)
