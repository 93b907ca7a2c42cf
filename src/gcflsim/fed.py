"""Round-based federated training over graph-classification clients.

One process plays every role: per round the coordinator broadcasts each
cluster's model, clients train locally and return parameter deltas, clusters
aggregate size-weighted, and (for the clustered algorithms) split when the
criteria fire. Everything is deterministic given the run seed: client RNGs
derive from (run seed, client seed) and no other randomness exists.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .clustering import (
    ClusterConfig,
    ClusterState,
    SplitEvent,
    bipartition_cluster,
    cluster_aggregate,
    cosine_matrix,
    split_check,
    to_cut_weights,
)
from .dtwseries import NormWindow, dtw_matrix, dtw_to_cut_weights, push_norms
from .errors import ArgumentError, DivergenceError
from .gnn import (
    AdamState,
    GinModel,
    adam_step,
    cross_entropy,
    gin_forward,
    gin_loss_and_grad,
    init_adam,
    init_gin,
)
from .graphs import Graph, GraphBatch

logger = logging.getLogger(__name__)

ALGORITHMS = ("selftrain", "fedavg", "fedprox", "gcfl", "gcflplus")
# the algorithms that run alike until the first split (fedprox joins them when
# ``_prox_is_zero``); see ``run_federation``
PREFIX_ALGORITHMS = ("fedavg", "gcfl", "gcflplus")

_INIT_SEED_TAG = 1009
_CLIENT_SEED_TAG = 2003


@dataclass
class ClientState:
    """A client's local split plus the state that outlives a round.

    ``run_federation`` builds the two unions once per call and sets the Adam
    state and RNG for each algorithm, from a copy of the branch round's when
    the algorithm branches off an earlier one. A client owns no model: each
    round writes its cluster's model into the call's one GIN.
    """

    id: int
    train_graphs: list[Graph]
    test_graphs: list[Graph]
    seed: int = 0
    optimizer: Optional[AdamState] = None
    rng: Optional[np.random.Generator] = None
    train_stack: Optional[GraphBatch] = None  # union of train_graphs; batches are cut from it
    test_batch: Optional[GraphBatch] = None  # union of test_graphs, evaluated every round

    @property
    def data_size(self) -> int:
        return len(self.train_graphs)


@dataclass
class RunConfig:
    seed: int = 0
    epochs: int = 1
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 5e-4
    hidden: int = 64
    num_layers: int = 3
    prox_mu: float = 0.01
    cluster: Optional[ClusterConfig] = None
    window_length: int = 10
    standardize: bool = False


@dataclass
class ClientRound:
    client_id: int
    cluster_id: int
    train_loss: float
    test_loss: float
    test_acc: float
    grad_norm: float


@dataclass
class RoundReport:
    round_index: int
    entries: list[ClientRound]


@dataclass
class WindowDump:
    round_index: int
    parent: int
    rows: dict[int, list[float]]


@dataclass
class RunResult:
    algorithm: str
    reports: list[RoundReport]
    split_events: list[SplitEvent]
    assignments: list[tuple[int, int, tuple[int, ...]]]  # (round, cluster, members)
    final_clusters: list[ClusterState]
    final_accuracy: dict[int, float]
    window_dumps: list[WindowDump] = field(default_factory=list)


def local_train(
    client: ClientState,
    model: GinModel,
    start_params: np.ndarray,
    epochs: int,
    batch_size: int = 128,
    prox: Optional[tuple[float, np.ndarray]] = None,
) -> tuple[np.ndarray, float]:
    """Train ``model`` locally from ``start_params``; return (delta, mean batch loss).

    Runs ``epochs`` passes of mini-batch Adam with a seeded shuffle, each batch
    gathered from ``client.train_stack``. When ``prox=(mu, anchor)`` is given,
    each batch objective gains (mu/2)*||theta - anchor||^2. The delta is final
    minus start parameters; the loss is nan when no batch ran (``epochs=0``).
    """
    if epochs < 0:
        raise ArgumentError("epochs must be >= 0")
    opt, stack = client.optimizer, client.train_stack
    start = np.array(start_params, dtype=np.float64)
    model.vector[:] = start
    losses = []
    for _ in range(epochs):
        order = client.rng.permutation(len(stack))
        for lo in range(0, len(order), batch_size):
            batch = stack.take(order[lo:lo + batch_size])
            loss, grad = gin_loss_and_grad(model, batch, batch.labels)
            if prox is not None and prox[0] != 0.0:
                mu, anchor = prox
                diff = model.vector - anchor
                loss += 0.5 * mu * float(diff @ diff)
                grad = grad + mu * diff
            losses.append(loss)
            model.vector[:] = adam_step(opt, model.vector, grad)
    return model.vector - start, float(np.mean(losses)) if losses else float("nan")


def evaluate_client(client: ClientState, model: GinModel,
                    params: np.ndarray) -> tuple[float, float]:
    """Mean test cross-entropy and accuracy of ``params``, written into ``model``."""
    model.vector[:] = params
    labels = client.test_batch.labels
    logits, _ = gin_forward(model, client.test_batch)
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return float(np.mean(cross_entropy(logits, labels))), correct / len(labels)


def infer_dims(clients: list[ClientState]) -> tuple[int, int]:
    """Shared (input_dim, output_dim) over all client graphs."""
    graphs = [g for c in clients for g in c.train_graphs + c.test_graphs]
    dims, max_label = {g.feat_dim for g in graphs}, max([0] + [g.label for g in graphs])
    if len(dims) != 1:
        raise ArgumentError(f"clients disagree on feature dim: {sorted(dims)}; unify first")
    return dims.pop(), max(2, max_label + 1)


def _prox_is_zero(clients: list[ClientState], config: RunConfig) -> bool:
    """Whether FedProx's proximal term is zero at every local step, so fedprox is fedavg.

    The term's gradient mu * (theta - anchor) vanishes at the anchor, where
    each round's first step starts; so it is zero when mu is, or when no
    client takes more than one step per round. Adding a zero gradient can
    change only the sign of a zero entry, which no output shows.
    """
    return config.prox_mu == 0 or (config.epochs <= 1 and all(
        len(c.train_graphs) <= config.batch_size for c in clients))


def _fires(cluster: ClusterState, criteria: ClusterConfig, t: int) -> bool:
    """Whether ``cluster`` splits at the end of round ``t`` under ``criteria``."""
    return len(cluster.members) >= 2 and split_check(
        cluster.delta_mean, cluster.delta_max, len(cluster.members), criteria, t)


@dataclass
class _RunState:
    """What a run carries from one round to the next, clients' Adam states and RNGs aside."""

    clusters: list[ClusterState]
    next_cluster_id: int
    window: NormWindow
    deltas: dict[int, np.ndarray] = field(default_factory=dict)  # the last round's updates
    reports: list[RoundReport] = field(default_factory=list)
    assignments: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)
    split_events: list[SplitEvent] = field(default_factory=list)
    window_dumps: list[WindowDump] = field(default_factory=list)
    final_accuracy: dict[int, float] = field(default_factory=dict)

    def copy(self) -> "_RunState":
        """A copy that shares only what a run rebinds and never writes: the arrays."""
        return _RunState(
            [replace(k, members=list(k.members)) for k in self.clusters], self.next_cluster_id,
            NormWindow(self.window.length, {cid: list(b) for cid, b in self.window.buffers.items()}),
            dict(self.deltas), list(self.reports), list(self.assignments),
            list(self.split_events), list(self.window_dumps), dict(self.final_accuracy))


def run_federation(
    clients: list[ClientState],
    algorithms: list[str],
    rounds: int,
    config: RunConfig,
) -> dict[str, RunResult]:
    """Run each of ``algorithms`` on the same clients: one ``RunResult`` per name, in order.

    Per round: broadcast each cluster's model, train all members locally,
    record the update norms, aggregate per cluster, evaluate every client on
    its held-out split, then (gcfl/gcflplus) check the split criteria and
    bipartition clusters whose criteria fire; both children inherit the
    freshly aggregated parent model and start the next round from it.

    Until its first split gcfl (and gcflplus) is fedavg: one cluster of all
    clients, the same local steps and the same aggregation. So is fedprox
    while its proximal term is zero at every step (``_prox_is_zero``). So
    when two or more of these run, the first of them keeps its state at the
    branch round: the first round whose ``config.cluster`` criteria fire on a
    cluster of at least two members, before any split, when gcfl or gcflplus
    is among them, else the last round. The later ones start from a copy of
    that state at the branch round's split check, so each returns what it
    returns alone, bit for bit. selftrain, and fedprox when a client takes
    several steps per round with ``prox_mu`` above 0, run from scratch.
    """
    if not algorithms:
        raise ArgumentError("need at least one algorithm")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ArgumentError(f"unknown algorithm {algorithm!r}")
        if algorithm in ("gcfl", "gcflplus") and config.cluster is None:
            raise ArgumentError(f"{algorithm} requires a ClusterConfig")
    if len(set(algorithms)) != len(algorithms):
        raise ArgumentError(f"algorithms named more than once: {list(algorithms)}")
    if rounds < 1:
        raise ArgumentError(f"rounds must be >= 1, got {rounds}")
    if not clients:
        raise ArgumentError("need at least one client")

    clients = sorted(clients, key=lambda c: c.id)
    by_id = {c.id: c for c in clients}
    if len(by_id) != len(clients):
        raise ArgumentError("client ids must be unique")
    for c in clients:
        if not c.train_graphs or not c.test_graphs:
            raise ArgumentError(f"client {c.id} needs at least one training and one test graph")
    input_dim, output_dim = infer_dims(clients)

    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_SEED_TAG]))
    model = init_gin(input_dim, output_dim, config.hidden, config.num_layers, init_rng)
    init_flat = model.vector.copy()  # the model itself is every client's working copy

    for c in clients:
        c.train_stack = GraphBatch(c.train_graphs)
        c.test_batch = GraphBatch(c.test_graphs)

    shared = [a for a in algorithms if a in PREFIX_ALGORITHMS
              or a == "fedprox" and _prox_is_zero(clients, config)]
    criteria = config.cluster if {"gcfl", "gcflplus"} & set(shared) else None
    branch = None  # (round, run state, each client's Adam state and RNG) of shared[0]
    results = {}
    for algorithm in algorithms:
        records = len(shared) > 1 and algorithm == shared[0]
        if algorithm in shared[1:]:
            start, saved, states = branch
            run = saved.copy()
            for c in clients:
                optimizer, rng = states[c.id]
                c.optimizer, c.rng = replace(optimizer), copy.deepcopy(rng)
        else:
            start = -1
            for c in clients:
                c.optimizer = init_adam(init_flat.size, config.lr, config.weight_decay)
                c.rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, _CLIENT_SEED_TAG, c.seed])
                )
            if algorithm == "selftrain":
                clusters = [ClusterState(i, [c.id], init_flat.copy())
                            for i, c in enumerate(clients)]
            else:
                clusters = [ClusterState(0, [c.id for c in clients], init_flat.copy())]
            run = _RunState(clusters, len(clusters), NormWindow(config.window_length))

        for t in range(max(start, 0), rounds):
            if t != start:
                _train_round(t, run, by_id, model, algorithm, config)
            if records and (t == rounds - 1 or criteria is not None
                            and any(_fires(k, criteria, t) for k in run.clusters)):
                branch = (t, run.copy(),
                          {c.id: (replace(c.optimizer), copy.deepcopy(c.rng)) for c in clients})
                records = False
            if algorithm in ("gcfl", "gcflplus"):
                _split_round(t, run, algorithm, config)

        run.clusters.sort(key=lambda k: k.id)
        results[algorithm] = RunResult(algorithm, run.reports, run.split_events, run.assignments,
                                       run.clusters, run.final_accuracy, run.window_dumps)
    return results


def _train_round(t: int, run: _RunState, by_id: dict[int, ClientState], model: GinModel,
                 algorithm: str, config: RunConfig) -> None:
    """Local training, aggregation and evaluation of every cluster for round ``t``."""
    run.clusters.sort(key=lambda k: k.id)
    for cluster in run.clusters:
        run.assignments.append((t, cluster.id, tuple(cluster.members)))

    run.deltas = {}
    norms: dict[int, float] = {}
    train_loss: dict[int, float] = {}
    for cluster in run.clusters:
        anchor = cluster.model.copy()
        prox = (config.prox_mu, anchor) if algorithm == "fedprox" else None
        for cid in cluster.members:
            delta, train_loss[cid] = local_train(
                by_id[cid], model, cluster.model, config.epochs, config.batch_size, prox
            )
            # a finite delta whose norm overflows has diverged as well
            with np.errstate(over="ignore"):
                norms[cid] = float(np.linalg.norm(delta))
            if not np.isfinite(norms[cid]):
                raise DivergenceError(
                    f"round {t}: client {cid} sent an update of non-finite norm")
            if config.epochs and not np.isfinite(train_loss[cid]):  # nan when no batch ran
                raise DivergenceError(f"round {t}: client {cid} reported a non-finite train loss")
            run.deltas[cid] = delta

    push_norms(run.window, norms)

    for cluster in run.clusters:
        cluster_aggregate(cluster, [run.deltas[cid] for cid in cluster.members],
                          [by_id[cid].data_size for cid in cluster.members])

    entries = []
    for cluster in run.clusters:
        for cid in cluster.members:
            test_loss, test_acc = evaluate_client(by_id[cid], model, cluster.model)
            entries.append(ClientRound(cid, cluster.id, train_loss[cid],
                                       test_loss, test_acc, norms[cid]))
            run.final_accuracy[cid] = test_acc
    entries.sort(key=lambda e: e.client_id)
    run.reports.append(RoundReport(t, entries))


def _split_round(t: int, run: _RunState, algorithm: str, config: RunConfig) -> None:
    """Bipartition every cluster whose split criteria fire at the end of round ``t``."""
    survivors: list[ClusterState] = []
    for cluster in run.clusters:
        if not _fires(cluster, config.cluster, t):
            survivors.append(cluster)
            continue
        if algorithm == "gcfl":
            weights = to_cut_weights(cosine_matrix(
                [run.deltas[cid] for cid in cluster.members]))
        else:
            weights = dtw_to_cut_weights(
                dtw_matrix(run.window, cluster.members, config.standardize)
            )
            run.window_dumps.append(WindowDump(
                t, cluster.id,
                {cid: list(run.window.row(cid)) for cid in cluster.members},
            ))
        child_a, child_b, cut_value = bipartition_cluster(
            cluster, weights, (run.next_cluster_id, run.next_cluster_id + 1)
        )
        run.next_cluster_id += 2
        run.split_events.append(SplitEvent(
            t, cluster.id, (child_a.id, child_b.id),
            (tuple(child_a.members), tuple(child_b.members)),
            cluster.delta_mean, cluster.delta_max, cut_value,
        ))
        logger.info("round %d: cluster %d split into %s | %s (cut %.3g)",
                    t, cluster.id, child_a.members, child_b.members, cut_value)
        survivors.extend([child_a, child_b])
    run.clusters = survivors
