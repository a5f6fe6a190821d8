"""Exact cut/crusade combinatorics and budgeted-curing SIS simulation."""

from .bounds import (
    BoundInputs,
    BoundResult,
    PremiseCheck,
    WalkParams,
    bound_from_walk,
    exact_hitting_time,
    extinction_lower_bound,
    gambler_up_probability,
    large_cutwidth_premise,
    random_walk_lower_bound,
    slack_E,
)
from .crusade import (
    Crusade,
    CrusadeStepError,
    ResilienceTable,
    crusade_width,
    cutwidth,
    improvement_bags,
    monotone_context,
    monotone_table,
    optimal_crusade,
    oracle_resilience,
    oracle_resilience_table,
    resilience,
    resilience_table,
)
from .graph import (
    DisconnectedGraphError,
    GenerationError,
    Graph,
    GraphFormatError,
    NodeSet,
    NodeSetSequence,
    SizeCapError,
    cut,
    cut_after_toggle,
    cut_table,
    generate,
    parse_graph,
    write_graph,
)
from .simulation import (
    BandReport,
    CuringPolicy,
    EpidemicTrace,
    PolicyFault,
    SimEstimate,
    band_instrumentation,
    builtin_policy,
    estimate_extinction,
    exact_extinction_complete,
    simulate,
    validate_trace,
)

__version__ = "0.1.0"
