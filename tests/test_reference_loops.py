"""Every array kernel, on a batch of one row or more, equals its loop reference exactly.

`reference_loops` recomputes each quantity for one row of plain floats by
explicit Python loops with the same arithmetic in the same order.  Equality
is required bit for bit (``==``), not within a tolerance.  The staircase
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
from hdrelay import dmt, montecarlo
from hdrelay.cutset import (
    WEIGHT_SUM_TOL,
    SingleRelaySchedule,
    TwoHopSchedule,
    _min_cut_floor,
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
    _cut_avg_margins,
    run_randomized_suite,
    suite_margins,
)
from hdrelay.montecarlo import _FLOOR_TOL, RunConfig, _count_outages, _outage_mask, db_to_linear
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
    assert _cut_avg_margins(*caps, omega)[0] == margin
    event = _outage_mask(schedule, *batch, snr, rate_bits, gap_bits)[0]
    assert event == (min_cut - gap_bits < rate_bits)


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
    flows = cut_flow_array(*link_capacities(g_sd, g_sr, g_rd, snr), schedule.weights, cuts)
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
    """`_outage_mask` clears rows by `_min_cut_floor` before the kernel; every
    row must still read `two_hop_bound_array(...) - gap < rate_bits`, also at
    rates on the computed bound and one ulp either side of it."""
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
            for rate_bits in rates:
                mask = _outage_mask(schedule, g_sd, g_sr, g_rd, snr, float(rate_bits), gap_bits)
                assert (mask == (bound - gap_bits < rate_bits)).all()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("weights", FLOOR_KINDS)
def test_min_cut_floor_is_the_cut_average_lemma(n, weights):
    """For every schedule the floor is max(n_sd, 2^N * min(weights) * the minimum
    over all cuts of `cut_average_array`) bit for bit; it never exceeds the
    computed min-cut by more than `_FLOOR_TOL` relative."""
    rng = np.random.default_rng(400 + n)
    schedule = _floor_schedule(rng, n, weights)
    gains = _floor_gains(rng, n, max(12, 512 >> n))
    for snr in FLOOR_SNRS:
        caps = link_capacities(*gains, snr)
        floor = _min_cut_floor(*caps, schedule.weights)
        lemma = np.min([cut_average_array(*caps, omega) for omega in range(1 << n)], axis=0)
        assert (floor == np.maximum(caps[0], (1 << n) * min(schedule.weights) * lemma)).all()
        bound = two_hop_bound_array(*gains, snr, schedule)
        assert (floor * (1.0 - _FLOOR_TOL) <= bound).all()
        if n == 1 and weights == "uniform":
            # the lemma is tight where both hops are at least the direct link
            assert (floor[2::4] == bound[2::4]).all()


@given(two_hop_instances(max_relays=5))
@settings(max_examples=300, deadline=None)
@example(((0.5, [0.0, 3.0], [2.0, 4.0]), 10.0, TwoHopSchedule(2, (0.1, 0.2, 0.3, 0.4)), 0))
@example(((1.0, [0.0] * 5, [0.0] * 5), 1e3, TwoHopSchedule.uniform(5), 0))
def test_min_cut_floor_never_exceeds_the_loop_min_cut(instance):
    """The floor, less `_FLOOR_TOL` relative as `_outage_mask` reads it, is at
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
    bound - gap < rate.  The sampler serves fixed gains through the same `keep`."""
    rng = np.random.default_rng(600 + n)
    if isinstance(kind, float):
        schedule = SingleRelaySchedule(kind)
    else:
        schedule = _floor_schedule(rng, n, kind)
    gains = _floor_gains(rng, n, 16)

    def sampler(n_relays, seed, point, start, stop, keep):
        kept = start + np.flatnonzero(keep(gains[0][start:stop]))
        return tuple(g[kept] for g in gains)

    monkeypatch.setattr(montecarlo, "sample_gain_arrays", sampler)
    for snr in FLOOR_SNRS:
        bound = ref.campaign_bound(schedule, gains, snr)
        for gap_bits in (0.0, 0.7):
            cfg = RunConfig(schedule, 0.5, (0.0,), 16, 1, gap_bits)
            for i in range(16):
                edge = bound[i] - gap_bits
                for rate_bits in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    count = _count_outages(cfg, 0, snr, float(rate_bits), i, i + 1)
                    assert count == (bound[i] - gap_bits < rate_bits)


STAGED_SNR_DB = (-30.0, 0.0, 10.0, 30.0, 100.0, 200.0)
STAGED_SCHEDULES = [("single", t) for t in (0.0, 0.3, 0.5, 1.0)] + [
    (weights, n) for n in range(1, 9) for weights in ("uniform", "zeros")
]


@pytest.mark.parametrize("kind, param", STAGED_SCHEDULES, ids=[f"{k}-{p}" for k, p in STAGED_SCHEDULES])
def test_staged_draws_equal_drawing_and_bounding_every_trial(kind, param):
    """`_count_outages` draws relay gains only for the trials whose direct link
    cannot clear the rate.  Trial by trial, and over a range that starts inside a
    block of direct gains, its outage must equal the reference that draws every
    trial's full gains and bounds them all, at negative rates (below 0 dB) too."""
    seed, trials = 17, 150
    if kind == "single":
        schedule = SingleRelaySchedule(param)
    else:
        schedule = _floor_schedule(np.random.default_rng(500 + param), param, kind)
    mixed = False
    for point, snr_db in enumerate(STAGED_SNR_DB):
        snr = float(db_to_linear(snr_db))
        gains = ref.campaign_gains(schedule.n_relays, seed, point, range(trials))
        bound = ref.campaign_bound(schedule, gains, snr)
        for gap_bits in (0.0, 0.7):
            cfg = RunConfig(schedule, 0.5, STAGED_SNR_DB, trials, seed, gap_bits)
            for r in (0.0, 0.5, 1.0):
                rate_bits = r * math.log2(snr)
                expected = bound - gap_bits < rate_bits
                per_trial = [_count_outages(cfg, point, snr, rate_bits, k, k + 1) for k in range(6)]
                assert per_trial == expected[:6].tolist()
                count = _count_outages(cfg, point, snr, rate_bits, 3, trials)
                assert count == np.count_nonzero(expected[3:])
                mixed = mixed or 0 < count < trials - 3
    assert mixed


orders = st.floats(min_value=0.0, max_value=1.0)


@given(orders, orders, orders, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_single_relay_order_equals_loop_reference(a_sd, a_sr, a_rd, t, r):
    order = ref.highsnr_order(a_sd, a_sr, a_rd, t)
    assert single_relay_order_array(np.array([a_sd]), np.array([a_sr]), np.array([a_rd]), t)[0] == order
    assert single_relay_outage_region(r, t)(np.array([[a_sd, a_sr, a_rd]]))[0] == (order <= r)


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
    inside = crossing_links_outage_region(n, r)(row[:, ref.crossing_columns(n, omega)])[0]
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
        np.testing.assert_array_equal(margins, expected)
        report = run_randomized_suite(kind, instances, seed, **sizes)
        assert report.worst_margin == expected.min()
        assert report.violations == 0


# prefixes per chunk: one, a count that splits the grid unevenly, the default
chunks = st.sampled_from([1, 17, dmt._CHUNK])
unit = st.floats(min_value=0.0, max_value=1.0)


@given(unit, unit, st.sampled_from([0.25, 0.1, 0.05, 0.025]), chunks)
@settings(max_examples=60, deadline=None)
def test_staircase_oracle_equals_exhaustive_single_relay(r, t, step, chunk):
    region = single_relay_outage_region(r, t)
    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(region, 3, step) == ref.exhaustive_grid_oracle(region, 3, step)


@given(st.integers(min_value=1, max_value=3), unit, st.sampled_from([0.25, 0.1]), chunks)
@settings(max_examples=40, deadline=None)
def test_staircase_oracle_equals_exhaustive_two_hop(n, r, step, chunk):
    crossing = crossing_links_outage_region(n, r)
    expected = ref.exhaustive_grid_oracle(crossing, n + 1, step)
    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(crossing, n + 1, step) == expected
    if n <= 2:
        # the full 2N+1 coordinates cost L^(2N) prefixes, so N=2 keeps the coarse grid
        full_step = step if n == 1 else 0.25
        for omega in range(1 << n):
            cols = ref.crossing_columns(n, omega)

            def region(alpha):
                return crossing(alpha[:, cols])

            expected = ref.exhaustive_grid_oracle(region, 2 * n + 1, full_step)
            with patch.object(dmt, "_CHUNK", chunk):
                assert exponent_grid_oracle(region, 2 * n + 1, full_step) == expected


@st.composite
def box_unions(draw):
    """(dim, corners): the down-set of points below any of 0..4 random corners."""
    dim = draw(st.integers(min_value=1, max_value=4))
    # corners on and off the grid, and above 1 so a box can cover a whole axis
    value = st.one_of(st.integers(min_value=0, max_value=20).map(lambda k: k / 20), st.floats(0.0, 1.2))
    corners = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), max_size=4))
    return dim, np.array(corners, dtype=np.float64).reshape(len(corners), dim)


@given(box_unions(), st.sampled_from([0.25, 0.1, 0.05]), chunks)
@example((3, np.empty((0, 3))), 0.1, dmt._CHUNK)  # empty: no outage at all
@example((4, np.full((1, 4), 1.0)), 0.25, 17)  # full: the whole cube
@settings(max_examples=80, deadline=None)
def test_staircase_oracle_equals_exhaustive_on_box_unions(dim_corners, step, chunk):
    dim, corners = dim_corners
    if dim == 4:
        step = max(step, 0.1)  # keeps the one-prefix-chunk runs short

    def region(alpha):
        return np.any(np.all(alpha[:, None, :] <= corners[None, :, :], axis=2), axis=1)

    with patch.object(dmt, "_CHUNK", chunk):
        assert exponent_grid_oracle(region, dim, step) == ref.exhaustive_grid_oracle(region, dim, step)
