"""Half-duplex relay channel analysis: cut-set bounds, outage Monte Carlo,
and diversity-multiplexing exponents."""

from ._version import __version__
from .channel import sample_gain_arrays
from .cutset import (
    Schedule,
    SingleRelaySchedule,
    TwoHopSchedule,
    cut_average_array,
    cut_flow_array,
    link_capacities,
    link_capacity_bits,
    single_relay_bound_array,
    single_relay_order_array,
    two_hop_bound_array,
)
from .dmt import (
    crossing_links_outage_region,
    exponent_grid_oracle,
    miso_dmt,
    optimize_schedule_single,
    single_relay_outage_region,
)
from .lemmas import (
    CheckKind,
    VerificationReport,
    avg_lemma_margin_array,
    run_randomized_suite,
    tchebychef_margin_array,
)
from .montecarlo import (
    OutageRow,
    RunConfig,
    confidence_interval,
    db_to_linear,
    estimate_diversity_slope,
    estimate_outage,
)
from .rng import GENERATOR_NAME

__all__ = [
    "__version__",
    "GENERATOR_NAME",
    "sample_gain_arrays",
    "Schedule",
    "SingleRelaySchedule",
    "TwoHopSchedule",
    "cut_average_array",
    "cut_flow_array",
    "link_capacities",
    "link_capacity_bits",
    "single_relay_bound_array",
    "single_relay_order_array",
    "two_hop_bound_array",
    "crossing_links_outage_region",
    "exponent_grid_oracle",
    "miso_dmt",
    "optimize_schedule_single",
    "single_relay_outage_region",
    "CheckKind",
    "VerificationReport",
    "avg_lemma_margin_array",
    "tchebychef_margin_array",
    "run_randomized_suite",
    "OutageRow",
    "RunConfig",
    "confidence_interval",
    "db_to_linear",
    "estimate_diversity_slope",
    "estimate_outage",
]
