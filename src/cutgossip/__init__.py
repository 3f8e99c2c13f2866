"""Gossip averaging on graphs with one sparse cut: simulator and analysis."""

from .analysis import (
    AveragingTimeEstimate,
    Decomposition,
    EpochOperator,
    SweepTable,
    algA_scaling_sweep,
    convex_lower_bound_sweep,
    decompose,
    epoch_operator,
    epoch_operators,
    estimate_T_av,
    estimate_T_van,
    spectral_norm,
    worst_cut_x0,
)
from .engine import SimConfig, SimTrace, StateVector, next_event, simulate, step
from .graph import (
    PartitionedGraph,
    SideGraph,
    build_barbell,
    build_from_edge_list,
    from_text,
    load_graph,
    random_partitioned,
    save_graph,
    side_subgraph,
    to_text,
)
from .rules import (
    RuleCase,
    RuleDescriptor,
    compile_rule,
    compute_period,
    pair_update,
    parse_rule,
    resolve_gamma,
)
from .walks import (
    TailBoundParams,
    dominance_check,
    empirical_increments,
    simple_walk_tail,
    t0_bound,
)

__version__ = "0.1.0"
