"""Deterministic simulator for gradient-clustered federated graph classification."""

from .clustering import (
    ClusterConfig,
    ClusterState,
    SplitEvent,
    bipartition_cluster,
    cluster_aggregate,
    cosine_matrix,
    split_check,
    stoer_wagner_mincut,
    to_cut_weights,
    weighted_mean,
)
from .dtwseries import dtw_distance, dtw_matrix, dtw_to_cut_weights, standardize_row
from .errors import (
    ArgumentError,
    ConfigurationError,
    CorruptDatasetError,
    DivergenceError,
    GcflSimError,
    IngestionError,
    UndefinedEmbeddingError,
)
from .fed import (
    ALGORITHMS,
    ClientState,
    RoundReport,
    RunConfig,
    RunResult,
    Variant,
    evaluate_client,
    local_train,
    run_federation,
)
from .gnn import (
    AdamState,
    GinModel,
    adam_step,
    cross_entropy,
    gin_forward,
    gin_loss_and_grad,
    init_adam,
    init_gin,
    one_hot_degrees,
)
from .graphs import (
    Dataset,
    GraphBatch,
    binomial_gnp,
    erdos_renyi_gnm,
    load_tu_dataset,
    one_graph,
)
from .harness import (
    ExperimentConfig,
    MetricsSummary,
    build_multi_dataset_group,
    calibrate_epsilons,
    cluster_heterogeneity_report,
    compute_metrics,
    partition_one_dataset,
    run_experiment,
    synthetic_two_group_clients,
)
from .hetero import (
    GraphEmbeddings,
    GraphPool,
    HeterogeneityReport,
    awe_distribution,
    dataset_pools,
    enumerate_anonymous_walks,
    feature_sim_histogram,
    js_distance,
    js_divergence,
    pairwise_heterogeneity,
)
from .properties import (
    PropertyReport,
    graph_properties,
    property_significance,
)

__version__ = "0.1.0"
