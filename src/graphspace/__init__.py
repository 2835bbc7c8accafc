"""Quotient-space statistical analysis of graphs.

Graphs live in the quotient of adjacency matrices modulo node relabeling.
This package registers graphs across that quotient (spectral and
Frank-Wolfe matchers with a brute-force oracle), evaluates the induced
metric and geodesics, and builds statistics on top: Karcher means, PCA of
registered residuals, and a Gaussian generative model that samples back to
graph space.
"""

from .assignment import objective_value
from .documents import (
    ValidationError,
    document_to_graph,
    dumps_graph,
    graph_to_document,
    load_graph,
    pca_model_document,
    pca_model_from_document,
    save_graph,
)
from .generators import (
    LETTER_A_COORDS,
    LETTER_A_EDGES,
    binomial,
    full_heavy_tailed,
    generate,
    letter_like,
    trial_rng,
)
from .graphs import (
    Graph,
    Permutation,
    ambient_distance,
    from_laplacian,
    node_distance_matrix,
    pad_pair,
    pad_to_size,
    permute,
    to_laplacian,
)
from .matching import (
    MatchConfig,
    MatchResult,
    SolverTrace,
    geodesic,
    graph_distance,
)
from .pipelines import (
    RecoveryReport,
    bench_recovery,
    distance_csv,
    knn_classify,
    pairwise_distances,
    symmetric_distance,
    symmetric_match,
)
from .stats import (
    GaussianGraphModel,
    GraphMean,
    GraphPcaModel,
    Registration,
    components_for_variance,
    fit_gaussian,
    graph_pca,
    karcher_mean,
    reconstruct,
    sample_graphs,
    sample_scores,
    truncate_components,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianGraphModel",
    "Graph",
    "GraphMean",
    "GraphPcaModel",
    "LETTER_A_COORDS",
    "LETTER_A_EDGES",
    "MatchConfig",
    "MatchResult",
    "Permutation",
    "RecoveryReport",
    "Registration",
    "SolverTrace",
    "ValidationError",
    "ambient_distance",
    "bench_recovery",
    "binomial",
    "components_for_variance",
    "distance_csv",
    "document_to_graph",
    "dumps_graph",
    "fit_gaussian",
    "from_laplacian",
    "full_heavy_tailed",
    "generate",
    "geodesic",
    "graph_distance",
    "graph_pca",
    "graph_to_document",
    "karcher_mean",
    "knn_classify",
    "letter_like",
    "load_graph",
    "node_distance_matrix",
    "objective_value",
    "pad_pair",
    "pad_to_size",
    "pairwise_distances",
    "pca_model_document",
    "pca_model_from_document",
    "permute",
    "reconstruct",
    "sample_graphs",
    "sample_scores",
    "save_graph",
    "symmetric_distance",
    "symmetric_match",
    "to_laplacian",
    "trial_rng",
    "truncate_components",
]
