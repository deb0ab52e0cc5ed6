"""Operating-regime analysis and simulation for large wireless ad hoc networks.

The package generates random networks under a distance-power-law fading
channel, evaluates cutset upper bounds on achievable throughput, computes
multihop / cooperative / hybrid scheme throughput, finds node-free
percolation cuts, and fits empirical scaling exponents against the
closed-form regime theory.
"""

__version__ = "0.1.0"

from .network import (
    ChannelMatrix,
    DegenerateInstanceError,
    NetworkInstance,
    PhysicalParams,
    beta_of,
    channel_matrix,
    generate_network,
    min_separation,
    separation_diagnostic,
    snr_long,
    snr_short,
)
from .regimes import (
    Regime,
    RegimePoint,
    Scheme,
    capacity_estimate,
    classify,
    phase_diagram,
)
from .cutset import (
    CutPartition,
    CutsetReport,
    PathologicalCutError,
    closed_form_snr_total_bound,
    dof_term_realized,
    evaluate_cutset,
    mc_cutset_logdet,
    partition_nodes,
    power_profile,
    select_cut_width,
    snr_total,
)
from .schemes import (
    CellGrid,
    OutOfRegimeError,
    RelayPlan,
    ThroughputEstimate,
    build_cell_grid,
    hc_throughput,
    hybrid_cell_size,
    hybrid_throughput,
    multihop_throughput,
    route_sd_lines,
    simulate_hybrid,
)
from .percolation import (
    CrossingStudy,
    CutPolyline,
    PercolationGrid,
    build_occupancy_grid,
    crossing_probability,
    exists_closed_lr_crossing,
    extract_cut,
    find_open_crossing,
    has_open_crossing,
)
from .harness import (
    ConfigError,
    Constants,
    ExperimentConfig,
    ExperimentError,
    FitResult,
    emit_phase_diagram,
    emit_sweep,
    fit_exponent,
    fit_full_and_tail,
    params_for_snr,
    run_scaling_experiment,
)
