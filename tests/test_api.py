"""The package's public names: array kernels, schedules, campaigns and checks.

Every formula is exported once, as an array kernel; a single realization is
a batch of one row, a cut is its integer `omega_mask`, and the closed-form
exponents are `miso_dmt(m, r)` and the single relay's
`single_relay_dmt(r, t)`. The batch-of-one wrappers and the dataclasses that existed only for
them (removed in 0.2.0), and the named aliases of `miso_dmt`, the
`DmtCurve` container and the `Cut` dataclass (removed in 0.3.0), and the
scalar lemma checks and per-instance suite helpers (removed in 0.4.0), and
the per-cut outage region over all 2N+1 link orders (removed after 0.4.0),
and the `OutageTable` pair of rows and metadata (removed after 0.7.0, the
campaign and the table reader now return the pair itself), and the per-row
gathers of the oracle regions and the unchecked copy of the single-relay
order (removed in 0.8.0, every region takes one t)
must not come back under their old names.
"""

import importlib

import hdrelay

PUBLIC = [
    "CheckKind",
    "GENERATOR_NAME",
    "OutageRow",
    "RunConfig",
    "Schedule",
    "SingleRelaySchedule",
    "TwoHopSchedule",
    "VerificationReport",
    "__version__",
    "avg_lemma_margin_array",
    "confidence_interval",
    "crossing_links_outage_region",
    "cut_average_array",
    "cut_flow_array",
    "db_to_linear",
    "estimate_diversity_slope",
    "estimate_outage",
    "exponent_grid_oracle",
    "link_capacities",
    "link_capacity_bits",
    "miso_dmt",
    "optimize_schedule_single",
    "run_randomized_suite",
    "sample_gain_arrays",
    "single_relay_bound_array",
    "single_relay_dmt",
    "single_relay_order_array",
    "single_relay_outage_region",
    "tchebychef_margin_array",
    "two_hop_bound_array",
]

# removed name -> the module that defined it
REMOVED = {
    "outage_event": "montecarlo",
    "single_relay_cutset_bits": "cutset",
    "highsnr_cutset_order": "cutset",
    "z_channel_flow_bits": "cutset",
    "cut_flow_lower_bound": "cutset",
    "network_min_cut_lower_bound": "cutset",
    "cut_average_lower_bound": "cutset",
    "NetworkState": "cutset",
    "enumerate_states": "cutset",
    "check_relay_dims": "cutset",
    "check_cut_avg_consistency": "lemmas",
    "single_relay_outage_predicate": "dmt",
    "two_hop_cut_outage_predicate": "dmt",
    "sample_realization": "channel",
    "exponential_order": "channel",
    "orders_from_realization": "channel",
    "ChannelRealization": "channel",
    "ExponentVector": "channel",
    "_check_gains": "channel",
    "RandomStream": "rng",
    "stream_uniforms": "rng",
    "_check_gap": "montecarlo",
    "Cut": "cutset",
    "enumerate_cuts": "cutset",
    "DmtCurve": "dmt",
    "parallel_channel_dmt": "dmt",
    "single_relay_exponent_analytic": "dmt",
    "two_hop_exponent_analytic": "dmt",
    "check_tchebychef": "lemmas",
    "check_avg_lemma": "lemmas",
    "_subset_maxima": "lemmas",
    "_tchebychef_instance": "lemmas",
    "_avg_lemma_instance": "lemmas",
    "cut_avg_suite_margins": "lemmas",
    "exponentials_for_streams": "rng",
    "unit_exponentials": "rng",
    "two_hop_cut_outage_region": "dmt",
    "gains_from_uniforms": "channel",
    "OutageTable": "montecarlo",
    "_shared": "dmt",
    "_per_row": "dmt",
    "_single_relay_order": "cutset",
}


def test_public_names_are_pinned():
    assert sorted(hdrelay.__all__) == PUBLIC


def test_public_names_resolve():
    assert [name for name in PUBLIC if getattr(hdrelay, name, None) is None] == []


def test_removed_names_stay_removed():
    present = [
        name
        for name, module in REMOVED.items()
        if hasattr(hdrelay, name) or hasattr(importlib.import_module(f"hdrelay.{module}"), name)
    ]
    assert present == []
