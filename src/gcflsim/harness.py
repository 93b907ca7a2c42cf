"""Experiment driver: data partitioning, metric summaries, cluster
heterogeneity reports and CSV emission.

Every client keeps its dataset's own feature width; the model takes the
widest, and a narrower client reads the first rows of its first weight matrix.

All outputs are plain CSV so external tools can plot convergence curves and
per-cluster heterogeneity. Runs are deterministic: a repeated invocation with
the same configuration and seed produces byte-identical files.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .clustering import ClusterConfig
from .errors import ArgumentError, ConfigurationError, CorruptDatasetError, IngestionError
from .fed import ALGORITHMS, ClientState, RunConfig, RunResult, RunSettings, run_federation
from .gnn import one_hot_degrees
from .graphs import Dataset, GraphBatch, binomial_gnp, load_tu_dataset
from .hetero import (GraphEmbeddings, GraphPool, HeterogeneityReport, HeteroSettings,
                     pairwise_heterogeneity)
from .outputs import check_writable, write_csv

logger = logging.getLogger(__name__)

_PARTITION_TAG = 3001
_SPLIT_TAG = 3003
_SYNTH_TAG = 3007

MOLECULE_DATASETS = ["MUTAG", "BZR", "COX2", "DHFR", "PTC_MR", "AIDS", "NCI1"]
PROTEIN_DATASETS = ["ENZYMES", "DD", "PROTEINS"]
SOCIAL_DATASETS = ["COLLAB", "IMDB-BINARY", "IMDB-MULTI"]

DATASET_GROUPS = {
    "molecules": MOLECULE_DATASETS,
    "biochem": MOLECULE_DATASETS + PROTEIN_DATASETS,
    "mix": MOLECULE_DATASETS + PROTEIN_DATASETS + SOCIAL_DATASETS,
}

DEGREE_FEATURE_DATASETS = set(SOCIAL_DATASETS)


# ---------------------------------------------------------------------------
# Client construction
# ---------------------------------------------------------------------------


def _split_train_test(graphs: GraphBatch, order: np.ndarray,
                      test_fraction: float) -> tuple[GraphBatch, GraphBatch]:
    """The graphs ``order`` of ``graphs`` as a training union and, last, a test union."""
    n_test = math.ceil(test_fraction * len(order))
    if n_test >= len(order):
        raise ConfigurationError(
            f"test_fraction {test_fraction} leaves no training graphs of {len(order)}")
    return graphs.take(order[:-n_test]), graphs.take(order[-n_test:])


def partition_one_dataset(
    dataset: Dataset,
    num_clients: int,
    per_client: int,
    test_fraction: float = 0.1,
    overlap: bool = False,
    seed: int = 0,
    label_skew: bool = False,
) -> list[ClientState]:
    """Distribute one dataset over clients, holding out a per-client test set.

    Non-overlap mode shuffles once and hands out contiguous disjoint slices
    (leftover graphs are dropped and logged); overlap mode samples each
    client's graphs independently, distinct within a client but shared across
    clients. ``label_skew`` orders graphs by label before slicing so clients
    receive label-concentrated shards (non-overlap only).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError("test_fraction must be in (0, 1)")
    if num_clients < 1 or per_client < 2:
        raise ConfigurationError("need num_clients >= 1 and per_client >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([_PARTITION_TAG, seed]))
    if overlap:
        if label_skew:
            raise ConfigurationError("label_skew is only supported without overlap")
        if per_client > len(dataset):
            raise ConfigurationError("per_client exceeds dataset size")
        chunks = [rng.choice(len(dataset), size=per_client, replace=False)
                  for _ in range(num_clients)]
    else:
        need = num_clients * per_client
        if need > len(dataset):
            raise ConfigurationError(
                f"{dataset.name}: {need} graphs requested but only {len(dataset)} available"
            )
        perm = rng.permutation(len(dataset))
        if label_skew:
            perm = perm[np.argsort(dataset.graphs.labels[perm], kind="stable")]
        dropped = len(dataset) - need
        if dropped:
            logger.info("%s: dropping %d leftover graphs", dataset.name, dropped)
        chunks = [perm[i * per_client:(i + 1) * per_client] for i in range(num_clients)]
    return [ClientState(i, *_split_train_test(dataset.graphs, chunk, test_fraction))
            for i, chunk in enumerate(chunks)]


def client_from_dataset(
    dataset: Dataset, client_id: int, test_fraction: float = 0.1, seed: int = 0
) -> ClientState:
    """One client owning a whole dataset with a seeded held-out test split."""
    rng = np.random.default_rng(np.random.SeedSequence([_SPLIT_TAG, seed, client_id]))
    return ClientState(client_id, *_split_train_test(
        dataset.graphs, rng.permutation(len(dataset)), test_fraction))


def _degree_width(dataset: Dataset, feature_mode: str) -> Optional[int]:
    """The one-hot degree encoding's top degree for a set that federates on degree
    features (the social sets, and any in ``onehot_degree`` mode): its largest, at least 1.
    None for a set that keeps its own features."""
    if dataset.name in DEGREE_FEATURE_DATASETS or feature_mode == "onehot_degree":
        return max(1, int(dataset.graphs.degrees.max()))
    return None


def with_degree_features(graphs: GraphBatch, max_degree: int) -> GraphBatch:
    """``graphs`` with one-hot degree node features, ``max_degree + 1`` wide."""
    return replace(graphs, features=one_hot_degrees(graphs.degrees, max_degree))


def _federation_clients(dataset: Dataset, feature_mode: str,
                        clients: list[ClientState]) -> list[ClientState]:
    """``clients`` cut from ``dataset``, each union given the set's degree features if it
    takes them. They are written per client union, at the set's width: the set's own
    encoding is never held beside the clients' copies of it."""
    max_degree = _degree_width(dataset, feature_mode)
    if max_degree is not None:
        for c in clients:
            c.train_graphs = with_degree_features(c.train_graphs, max_degree)
            c.test_graphs = with_degree_features(c.test_graphs, max_degree)
    return clients


def load_dataset(data_root: str | Path, name: str) -> Dataset:
    """The TU loader's dataset, with its own features.

    A missing dataset is a ``ConfigurationError``; a corrupt one a ``CorruptDatasetError``.
    """
    try:
        return load_tu_dataset(data_root, name)
    except CorruptDatasetError:
        raise
    except IngestionError as exc:
        raise ConfigurationError(f"dataset {name} not available: {exc}") from exc


def load_dataset_for_federation(data_root: str | Path, name: str) -> Dataset:
    """``load_dataset`` with the node features the set federates on in ``original`` mode
    (see ``_degree_width``)."""
    ds = load_dataset(data_root, name)
    max_degree = _degree_width(ds, "original")
    return ds if max_degree is None else Dataset(name, with_degree_features(ds.graphs, max_degree))


def build_multi_dataset_group(
    group: str, data_root: str | Path, test_fraction: float = 0.1, seed: int = 0,
    feature_mode: str = "original",
) -> list[ClientState]:
    """One client per dataset of a named group, in the group's fixed order."""
    if group not in DATASET_GROUPS:
        raise ConfigurationError(f"unknown group {group!r}; pick from {sorted(DATASET_GROUPS)}")
    clients = []
    for i, name in enumerate(DATASET_GROUPS[group]):
        ds = load_dataset(data_root, name)
        clients += _federation_clients(ds, feature_mode,
                                       [client_from_dataset(ds, i, test_fraction, seed)])
    return clients


def synthetic_two_group_clients(
    clients_per_group: int = 4,
    graphs_per_client: int = 40,
    nodes: int = 30,
    p_a: float = 0.1,
    p_b: float = 0.5,
    test_fraction: float = 0.25,
    noise: float = 0.05,
    seed: int = 0,
) -> tuple[list[ClientState], tuple[set[int], set[int]]]:
    """Two planted client groups with divergent structure and features.

    Group A holds sparse binomial random graphs, group B dense ones. Each
    graph's class (balanced 0/1) is planted into group-disjoint one-hot node
    feature columns plus noise, so the classification rule lives in different
    feature subspaces per group. Returns the clients and the ground-truth
    client-id partition.
    """
    clients = []
    cid = 0
    groups: tuple[set[int], set[int]] = (set(), set())
    labels = np.arange(graphs_per_client) % 2
    for group_index, p in enumerate((p_a, p_b)):
        for _ in range(clients_per_group):
            ss = np.random.SeedSequence([_SYNTH_TAG, seed, cid])
            rng = np.random.default_rng(ss)
            edges, features = [], []
            for j, label in enumerate(labels.tolist()):
                edges.append(binomial_gnp(nodes, p, int(rng.integers(2**32))) + j * nodes)
                feats = noise * rng.standard_normal((nodes, 4))
                feats[:, 2 * group_index + label] += 1.0
                features.append(feats)
            graphs = GraphBatch.from_edges(np.concatenate(edges), np.concatenate(features),
                                           np.full(len(labels), nodes), labels)
            clients.append(ClientState(cid, *_split_train_test(
                graphs, np.arange(len(labels)), test_fraction)))
            groups[group_index].add(cid)
            cid += 1
    return clients, groups


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricsSummary:
    average: float
    min_gain: float
    improved: int
    total: int

    @property
    def improved_ratio(self) -> float:
        return self.improved / self.total


def compute_metrics(
    accuracies: dict[int, float], selftrain_accuracies: dict[int, float]
) -> MetricsSummary:
    """Average accuracy, minimum gain over self-train, strict-improvement ratio."""
    if set(accuracies) != set(selftrain_accuracies):
        raise ArgumentError("client sets differ between algorithm and self-train results")
    if not accuracies:
        raise ArgumentError("no clients")
    gains = {cid: accuracies[cid] - selftrain_accuracies[cid] for cid in accuracies}
    improved = sum(1 for g in gains.values() if g > 0)
    return MetricsSummary(
        average=float(np.mean(list(accuracies.values()))),
        min_gain=float(min(gains.values())),
        improved=improved,
        total=len(accuracies),
    )


def cluster_heterogeneity_report(
    embeddings: GraphEmbeddings, clusters) -> list[tuple[str, int, HeterogeneityReport]]:
    """Average pairwise heterogeneity among member graphs, per cluster.

    ``embeddings`` holds each client's training then test unions under its
    client id. One row per pool: its cluster id, its member count and its
    ``pairwise_heterogeneity`` report. The first row ("all") pools every
    client of the store and serves as the pre-clustering baseline the
    per-cluster values are compared against. Each graph is embedded once per
    store, so every row, and every report on the store, reads the same
    embedding of a graph.
    """
    if not clusters:
        raise ArgumentError("no clusters to report on")
    pools = [("all", GraphPool("all", list(embeddings.sets)))] + [
        (str(k.id), GraphPool(f"cluster_{k.id}", k.members))
        for k in sorted(clusters, key=lambda k: k.id)]
    return [(cluster_id, len(pool.tags),
             pairwise_heterogeneity(embeddings, pool, pool))
            for cluster_id, pool in pools]


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


@dataclass(kw_only=True)
class ExperimentConfig(RunSettings, HeteroSettings):
    """The keys of a config file: the ``RunSettings``, the ``HeteroSettings`` and the
    experiment's own."""

    setting: str = "oneDS"  # oneDS | multiDS | synthetic
    data_root: str = "data"
    dataset: str = "MUTAG"
    group: str = "molecules"
    num_clients: int = 4
    per_client_graphs: Optional[int] = None  # None: the setting's own, see build_clients
    test_fraction: Optional[float] = None
    overlap: bool = False
    label_skew: bool = False
    feature_mode: str = "original"  # original | onehot_degree
    algorithms: list[str] = field(default_factory=lambda: ["selftrain", "fedavg"])
    rounds: int = 50
    seeds: list[int] = field(default_factory=lambda: [0])
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    min_split_size: int = 3
    warmup_rounds: int = 0
    hetero_report: bool = True
    out_dir: str = "results"

    def __post_init__(self):
        try:
            RunSettings.__post_init__(self)
            HeteroSettings.__post_init__(self)
        except ArgumentError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.setting not in ("oneDS", "multiDS", "synthetic"):
            raise ConfigurationError(f"unknown setting {self.setting!r}")
        if self.feature_mode not in ("original", "onehot_degree"):
            raise ConfigurationError(f"unknown feature_mode {self.feature_mode!r}")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError("test_fraction must be in (0, 1)")
        if self.per_client_graphs is not None and self.per_client_graphs < 2:
            raise ConfigurationError(
                f"per_client_graphs must be >= 2, got {self.per_client_graphs}")
        for key in ("num_clients", "rounds", "min_split_size"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.warmup_rounds < 0:
            raise ConfigurationError(f"warmup_rounds must be >= 0, got {self.warmup_rounds}")
        if self.setting == "synthetic" and self.num_clients % 2:
            raise ConfigurationError(f"synthetic num_clients must be even, got {self.num_clients}")
        if not self.seeds or not self.algorithms:
            raise ConfigurationError("seeds and algorithms must each name at least one value")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, got {self.seeds}")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigurationError(f"algorithms: unknown {unknown}; pick from {list(ALGORITHMS)}")
        for key in ("seeds", "algorithms"):  # a repeat would write every row of it twice
            values = getattr(self, key)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigurationError(f"{key}: {repeated} named more than once")
        for key in ("eps1", "eps2"):
            value = getattr(self, key)
            if value is not None and not value > 0:  # also rejects nan
                raise ConfigurationError(f"{key} must be > 0, got {value}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        return cls(**_parse_config_text(text, cls))

    def with_overrides(self, pairs: list[str]) -> "ExperimentConfig":
        return replace(self, **_parse_config_text("\n".join(pairs), type(self), last_wins=True))


def _parse_config_text(text: str, cls, last_wins: bool = False) -> dict:
    """The values of ``text``'s lines; a key set again is an error unless ``last_wins``."""
    spec = {f.name: f for f in fields(cls)}
    out, set_on = {}, {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {line_no}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in spec:
            raise ConfigurationError(f"config line {line_no}: unknown key {key!r}")
        if key in set_on and not last_wins:
            raise ConfigurationError(
                f"config line {line_no}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = line_no
        out[key] = _parse_value(key, value, spec[key].type)
    return out


def _parse_value(key: str, value: str, annotation: str):
    try:
        if key in ("algorithms",):
            return [v.strip() for v in value.split(",") if v.strip()]
        if key in ("seeds",):
            return [int(v) for v in value.split(",") if v.strip()]
        if annotation.startswith("Optional") and value.lower() in ("", "none"):
            return None
        if "bool" in annotation:
            low = value.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ConfigurationError(f"{key}: expected a boolean, got {value!r}")
        if "int" in annotation:
            return int(value)
        if "float" in annotation:
            return float(value)
    except ValueError as exc:
        raise ConfigurationError(f"{key}: cannot parse {value!r}") from exc
    return value


# ---------------------------------------------------------------------------
# Experiment execution and CSV emission
# ---------------------------------------------------------------------------


def build_clients(config: ExperimentConfig, seed: int) -> list[ClientState]:
    """Fresh clients for one seed according to the configured setting.

    An unset ``per_client_graphs`` or ``test_fraction`` takes the setting's
    own: 40 graphs and 0.25 in the synthetic setting, 100 and 0.1 otherwise.
    """
    synthetic = config.setting == "synthetic"
    per_client = config.per_client_graphs or (40 if synthetic else 100)  # set ones are >= 2
    test_fraction = config.test_fraction or (0.25 if synthetic else 0.1)  # and in (0, 1)
    if synthetic:
        return synthetic_two_group_clients(config.num_clients // 2, per_client,
                                           test_fraction=test_fraction, seed=seed)[0]
    if config.setting == "oneDS":
        ds = load_dataset(config.data_root, config.dataset)
        return _federation_clients(ds, config.feature_mode, partition_one_dataset(
            ds, config.num_clients, per_client, test_fraction,
            config.overlap, seed, config.label_skew,
        ))
    return build_multi_dataset_group(config.group, config.data_root, test_fraction, seed,
                                     config.feature_mode)


def make_run_config(config: ExperimentConfig, seed: int) -> RunConfig:
    """The run settings of one seed, with split criteria when eps1 and eps2 are both set."""
    criteria = None if config.eps1 is None or config.eps2 is None else ClusterConfig(
        config.eps1, config.eps2, config.min_split_size, config.warmup_rounds)
    return RunConfig(seed=seed, criteria=criteria,
                     **{f.name: getattr(config, f.name) for f in fields(RunSettings)})


def run_experiment(config: ExperimentConfig) -> list[tuple[str, int, MetricsSummary]]:
    """Run every configured (algorithm, seed) pair and emit the CSV outputs.

    The self-train baseline is always run (and run first) because gain and
    improvement metrics are defined against it. All algorithms of a seed run
    in one ``run_federation`` call, gcfl and gcflplus with the configured split
    criteria. With ``hetero_report`` on, every clustered algorithm's report of a
    seed reads one embedding store of its clients' graphs. An ``out_dir`` that
    cannot be made or written stops the run before any seed. Returns each
    (algorithm, seed)'s metrics, in the order of ``summary.csv``.
    """
    clustered = [a for a in config.algorithms if a in ("gcfl", "gcflplus")]
    if clustered and (config.eps1 is None or config.eps2 is None):
        raise ConfigurationError(f"{clustered[0]} requires eps1 and eps2 (try `calibrate`)")
    check_writable(config.out_dir, directory=True)
    algorithms = ["selftrain"] + [a for a in config.algorithms if a != "selftrain"]

    rounds_rows, cluster_rows, split_rows, hetero_rows, window_rows = [], [], [], [], []
    summaries = []

    for seed in config.seeds:
        clients = build_clients(config, seed)
        results = run_federation(clients, algorithms, config.rounds,
                                 make_run_config(config, seed))
        selftrain_acc = results[0].final_accuracy
        embeddings = None
        if config.hetero_report and clustered:
            embeddings = GraphEmbeddings({c.id: [c.train_graphs, c.test_graphs] for c in clients},
                                         config, seed)
        for algorithm, result in zip(algorithms, results):
            _collect_rows(result, seed, rounds_rows, cluster_rows, split_rows, window_rows)
            summaries.append((algorithm, seed, compute_metrics(result.final_accuracy,
                                                               selftrain_acc)))
            if embeddings is not None and algorithm in clustered:
                for cluster_id, n_clients, rep in cluster_heterogeneity_report(
                        embeddings, result.final_clusters):
                    hetero_rows.append([algorithm, seed, cluster_id, n_clients, rep.structure_mean,
                                        rep.structure_std, rep.feature_mean, rep.feature_std])

    out = Path(config.out_dir)  # made by the first write, once every seed has run
    write_csv(out / "rounds.csv",
              ["algorithm", "seed", "round", "client_id", "cluster_id",
               "train_loss", "test_loss", "test_acc", "grad_norm"], rounds_rows)
    write_csv(out / "clusters.csv",
              ["algorithm", "seed", "round", "cluster_id", "client_ids"], cluster_rows)
    write_csv(out / "splits.csv",
              ["algorithm", "seed", "round", "parent", "child_a", "child_b",
               "members_a", "members_b", "delta_mean", "delta_max", "cut_value"], split_rows)
    write_csv(out / "summary.csv",
              ["algorithm", "seed", "average_accuracy", "min_gain",
               "improved", "total", "improved_ratio"],
              [[algorithm, seed, m.average, m.min_gain, m.improved, m.total, m.improved_ratio]
               for algorithm, seed, m in summaries])
    write_csv(out / "hetero.csv",
              ["algorithm", "seed", "cluster_id", "n_clients", "structure_mean",
               "structure_std", "feature_mean", "feature_std"], hetero_rows)
    write_csv(out / "windows.csv",
              ["algorithm", "seed", "round", "parent", "client_id", "norms"], window_rows)
    logger.info("wrote results to %s", out)
    return summaries


def _collect_rows(result: RunResult, seed: int, rounds_rows, cluster_rows, split_rows,
                  window_rows) -> None:
    algo = result.algorithm
    for report in result.reports:
        for e in report.entries:
            rounds_rows.append([algo, seed, report.round_index, e.client_id, e.cluster_id,
                                e.train_loss, e.test_loss, e.test_acc, e.grad_norm])
    for round_index, cluster_id, members in result.assignments:
        cluster_rows.append([algo, seed, round_index, cluster_id,
                             ";".join(str(m) for m in members)])
    for ev in result.split_events:
        split_rows.append([
            algo, seed, ev.round_index, ev.parent, ev.children[0], ev.children[1],
            ";".join(str(m) for m in ev.members[0]), ";".join(str(m) for m in ev.members[1]),
            ev.delta_mean, ev.delta_max, ev.cut_value,
        ])
        for cid, norms in (ev.windows or {}).items():  # in member order
            window_rows.append([algo, seed, ev.round_index, ev.parent, cid,
                                ";".join(repr(x) for x in norms)])


# ---------------------------------------------------------------------------
# Epsilon selection
# ---------------------------------------------------------------------------


MEAN_MARGIN = 1.5  # eps1 sits this far above the probe's last mean-update norm
MAX_MARGIN = 0.6  # and eps2 this far below its largest client update norm


def auto_epsilons(clients: list[ClientState], run_config: RunConfig,
                  probe_rounds: int) -> tuple[float, float, float, float]:
    """(eps1, eps2, delta_mean, delta_max) from a FedAvg probe of ``probe_rounds`` rounds.

    eps1 is set above the probe's final mean-update norm so the stop criterion
    can fire; eps2 below its final largest client update norm so heterogeneous
    members keep the split criterion alive. The probe reads no test label.
    """
    cluster = run_federation(clients, ["fedavg"], probe_rounds, run_config)[0].final_clusters[0]
    delta_mean, delta_max = float(cluster.delta_mean), float(cluster.delta_max)
    return (MEAN_MARGIN * max(delta_mean, 1e-12), MAX_MARGIN * max(delta_max, 1e-12),
            delta_mean, delta_max)
