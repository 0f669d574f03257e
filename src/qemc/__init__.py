"""Qubit-efficient variational MaxCut heuristic (QEMC) on a built-in
statevector simulator, with Goemans-Williamson, exhaustive-search and random
baselines plus an experiment harness for grid searches, convergence curves and
resource-scaling studies.
"""

__version__ = "0.1.0"

from . import errors
from .baselines import (
    Embedding,
    GwSolveResult,
    default_rank,
    gw,
    gw_round,
    gw_solve,
    random_star_cuts,
)
from .core import (
    EncodingConfig,
    OptimizerConfig,
    RunCounters,
    RunRecord,
    cost,
    cost_gradient_params,
    cost_gradient_wrt_probs,
    cut_ratio,
    decode,
    default_shots,
    rescaled_ratio,
    train,
)
from .graphs import (
    BLUE,
    WHITE,
    Graph,
    Partition,
    complete_bipartite_graph,
    complete_graph,
    cut_value,
    exhaustive_maxcut,
    generate_regular,
    parse_edge_list,
    random_star_partition,
    read_edge_list_file,
    write_edge_list,
    write_edge_list_file,
)
from .harness import (
    GridResult,
    GridSpec,
    QemcSettings,
    ResourceEstimate,
    ScalingRow,
    StudyResult,
    grid_search,
    multi_instance_study,
    resource_estimate,
    scaling_study,
    scan_blue_sizes,
)
from .simulator import (
    ANALYTIC,
    PARAMETER_SHIFT,
    AnsatzConfig,
    gate_count,
    num_qubits_for,
    probabilities,
    probability_jacobian,
    probability_vjp,
    random_parameters,
    run_circuit,
    sample_histogram,
)

__all__ = [
    "__version__",
    "errors",
    # graphs
    "Graph", "Partition", "WHITE", "BLUE", "generate_regular", "cut_value",
    "exhaustive_maxcut", "random_star_partition", "parse_edge_list",
    "write_edge_list", "read_edge_list_file", "write_edge_list_file",
    "complete_graph", "complete_bipartite_graph",
    # simulator
    "AnsatzConfig", "ANALYTIC", "PARAMETER_SHIFT", "num_qubits_for",
    "random_parameters", "gate_count", "run_circuit", "probabilities",
    "sample_histogram", "probability_jacobian", "probability_vjp",
    # core
    "EncodingConfig", "OptimizerConfig", "RunCounters", "RunRecord", "decode",
    "cost", "cost_gradient_wrt_probs", "cost_gradient_params", "train",
    "cut_ratio", "rescaled_ratio", "default_shots",
    # baselines
    "Embedding", "GwSolveResult", "default_rank", "gw_solve", "gw_round", "gw",
    "random_star_cuts",
    # harness
    "QemcSettings", "GridSpec", "GridResult", "ScalingRow", "StudyResult",
    "ResourceEstimate", "grid_search", "scan_blue_sizes", "scaling_study",
    "multi_instance_study", "resource_estimate",
]
