"""Multivariate Hawkes processes on node networks.

Event streams live on the nodes of an undirected topology; excitation
travels along a directed causal graph between event *types* and propagates
between *nodes* through powers of the normalized adjacency. The package
simulates such processes, fits their rate parameters by EM, and recovers
the causal graph by penalized greedy search.
"""

from .errors import (
    DegenerateModelError,
    HawkesNetError,
    InvalidInputError,
    SimulationExplosionError,
    UnderGenerationWarning,
    UnsupportedKernelError,
)
from .events import DiscreteDataset, discretize, event_table
from .features import FeatureCache, build_features
from .kernels import (
    DecayKernel,
    ExponentialKernel,
    GaussianKernel,
    UniformKernel,
    evaluate,
    temporal_summary_step,
)
from .likelihood import (
    CausalGraph,
    ThpParams,
    analytic_gradient,
    bic_penalty,
    bic_score,
    intensity,
    log_likelihood,
    per_type_log_likelihood,
)
from .em import EmConfig, FitResult, TypeFit, fit, fit_batch, fit_type
from .metrics import StructureReport, alpha_mae, structure_metrics
from .search import SearchResult, hill_climb, score_candidate
from .simulate import (
    BenchmarkData,
    SimConfig,
    draw_params,
    generate_benchmark,
    random_causal_graph,
    random_topology,
    simulate,
)
from .topology import TopologyGraph, build_topology, normalized_adjacency

__version__ = "0.1.0"

__all__ = [
    "BenchmarkData",
    "CausalGraph",
    "DecayKernel",
    "DegenerateModelError",
    "DiscreteDataset",
    "EmConfig",
    "ExponentialKernel",
    "FeatureCache",
    "FitResult",
    "GaussianKernel",
    "HawkesNetError",
    "InvalidInputError",
    "SearchResult",
    "SimConfig",
    "SimulationExplosionError",
    "StructureReport",
    "ThpParams",
    "TopologyGraph",
    "TypeFit",
    "UnderGenerationWarning",
    "UniformKernel",
    "UnsupportedKernelError",
    "alpha_mae",
    "analytic_gradient",
    "bic_penalty",
    "bic_score",
    "build_features",
    "build_topology",
    "discretize",
    "draw_params",
    "evaluate",
    "event_table",
    "fit",
    "fit_batch",
    "fit_type",
    "generate_benchmark",
    "hill_climb",
    "intensity",
    "log_likelihood",
    "normalized_adjacency",
    "per_type_log_likelihood",
    "random_causal_graph",
    "random_topology",
    "score_candidate",
    "simulate",
    "structure_metrics",
    "temporal_summary_step",
]
