"""Round-based federated training over graph-classification clients.

One process plays every role: per round the coordinator broadcasts each
cluster's model, clients train locally and return parameter deltas, clusters
aggregate size-weighted, and (for the clustered algorithms) split when the
criteria fire. Everything is deterministic given the run seed: client RNGs
derive from (run seed, client id) and no other randomness exists.
"""

from __future__ import annotations

import copy
import logging
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .clustering import (
    ClusterState,
    SplitEvent,
    bipartition_cluster,
    cluster_aggregate,
    cosine_matrix,
    split_check,
    to_cut_weights,
)
from .dtwseries import dtw_matrix, dtw_to_cut_weights
from .errors import ArgumentError, DivergenceError
from .gnn import (
    AdamState,
    GinModel,
    adam_step,
    cross_entropy,
    gin_forward,
    gin_loss_and_grad,
    init_gin,
)
from .graphs import GraphBatch

logger = logging.getLogger(__name__)

ALGORITHMS = ("selftrain", "fedavg", "fedprox", "gcfl", "gcflplus")

_INIT_SEED_TAG = 1009
_CLIENT_SEED_TAG = 2003


@dataclass
class ClientState:
    """A client's local split: the union its batches are cut from, and the one it is tested on.

    Its Adam state and shuffle RNG live in each group's ``_RunState``, as forked
    groups train it from different states; its model is written into the call's one GIN.
    """

    id: int
    train_graphs: GraphBatch
    test_graphs: GraphBatch

    @property
    def data_size(self) -> int:
        return len(self.train_graphs)


@dataclass(kw_only=True)
class RunSettings:
    """The settings every client of a run trains and splits under: declared and range-checked once.

    gcfl and gcflplus split a cluster when its mean-update norm is below ``eps1``,
    some member's update norm is above ``eps2``, it has at least ``min_split_size``
    members and the round is past ``warmup_rounds`` (Sattler et al.'s CFL test);
    they need both thresholds, and every other algorithm reads none of the four.
    """

    epochs: int = 1
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 5e-4
    hidden: int = 64
    num_layers: int = 3
    prox_mu: float = 0.01
    window: int = 10  # gcflplus's norm window: the last ``window`` reports, never [-0:]
    standardize: bool = False
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    min_split_size: int = 3
    warmup_rounds: int = 0

    def __post_init__(self):
        for key in ("batch_size", "hidden", "num_layers", "window", "min_split_size"):
            if getattr(self, key) < 1:
                raise ArgumentError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("epochs", "warmup_rounds", "lr", "weight_decay", "prox_mu"):
            value = getattr(self, key)
            if value < 0:  # a nan lr passes here and stops as divergence
                raise ArgumentError(f"{key} must be >= 0, got {value}")
            if value == np.inf:  # inf times a zero moment or parameter is nan
                raise ArgumentError(f"{key} must be finite, got {value}")
        for key in ("eps1", "eps2"):
            value = getattr(self, key)
            if value is not None and not value > 0:  # also rejects nan
                raise ArgumentError(f"{key} must be > 0, got {value}")


def check_algorithms(algorithms: list[str]) -> None:
    """The one rule for a list of algorithm names: at least one, each known, none repeated."""
    if not algorithms:
        raise ArgumentError("algorithms must name at least one algorithm")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ArgumentError(f"algorithms: unknown {unknown}; pick from {list(ALGORITHMS)}")
    repeated = sorted({a for a in algorithms if algorithms.count(a) > 1})
    if repeated:
        raise ArgumentError(f"algorithms: {repeated} named more than once")


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
class RunResult:
    """An algorithm's run as stored once: its round reports, split events and final clusters."""

    algorithm: str
    reports: list[RoundReport]
    split_events: list[SplitEvent]
    final_clusters: list[ClusterState]

    @property
    def assignments(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """Each round's (round, cluster, members): clusters in id order, members in client order."""
        assignments = []
        for report in self.reports:
            clusters: dict[int, list[int]] = {}
            for e in report.entries:  # in client-id order
                clusters.setdefault(e.cluster_id, []).append(e.client_id)
            assignments += [(report.round_index, k, tuple(clusters[k])) for k in sorted(clusters)]
        return assignments

    @property
    def final_accuracy(self) -> dict[int, float]:
        """Each client's test accuracy after the last round."""
        return {e.client_id: e.test_acc for e in self.reports[-1].entries}


def local_train(
    client: ClientState,
    model: GinModel,
    start_params: np.ndarray,
    optimizer: AdamState,
    rng: np.random.Generator,
    settings: RunSettings,
    prox_mu: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Train ``model`` locally from ``start_params``; return (delta, mean batch loss).

    Runs ``settings.epochs`` passes of Adam steps on batches of
    ``settings.batch_size``, each pass shuffled by ``rng``, each batch cut from
    ``client.train_graphs``. With ``prox_mu``, each batch objective gains
    FedProx's proximal term (prox_mu/2)*||theta - start_params||^2, and then
    weight decay's gradient ``settings.weight_decay * theta`` over the parameters
    the batch reads. W1[0]'s rows past a narrow client's width are read by no
    batch, so their gradient, Adam moments and delta stay +0.0. The delta is
    final minus start parameters; the loss is nan when no batch ran (``epochs=0``).
    """
    graphs = client.train_graphs
    start = np.array(start_params, dtype=np.float64)
    model.vector[:] = start
    decay = None  # at weight_decay 0 nothing is added, so no zero's sign moves
    if settings.weight_decay:  # each parameter's rate: 0 on the rows no batch reads
        decay = replace(model, vector=np.full(model.vector.size, settings.weight_decay))
        decay.w1[0][graphs.feat_dim:] = 0.0
    losses = []
    for _ in range(settings.epochs):
        order = rng.permutation(len(graphs))
        for lo in range(0, len(order), settings.batch_size):
            batch = graphs.take(order[lo:lo + settings.batch_size])
            loss, grad = gin_loss_and_grad(model, batch)
            if prox_mu:
                diff = model.vector - start
                loss += 0.5 * prox_mu * float(diff @ diff)
                grad = grad + prox_mu * diff
            if decay is not None:
                grad = grad + decay.vector * model.vector
            losses.append(loss)
            model.vector[:] = adam_step(optimizer, model.vector, grad, settings.lr)
    return model.vector - start, float(np.mean(losses)) if losses else float("nan")


def evaluate_client(client: ClientState, model: GinModel,
                    params: np.ndarray) -> tuple[float, float]:
    """Mean test cross-entropy and accuracy of ``params``, written into ``model``."""
    model.vector[:] = params
    labels = client.test_graphs.labels
    logits, _ = gin_forward(model, client.test_graphs)
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return float(np.mean(cross_entropy(logits, labels))), correct / len(labels)


def infer_dims(clients: list[ClientState]) -> tuple[int, int]:
    """Shared (input_dim, output_dim) over all client graphs: the widest feature width and
    the largest class count. A narrower client reads the first rows of layer 0's W1."""
    unions = [u for c in clients for u in (c.train_graphs, c.test_graphs)]
    return (max(u.feat_dim for u in unions),
            max(2, 1 + max(int(u.labels.max()) for u in unions)))


def _prox_is_zero(clients: list[ClientState], settings: RunSettings) -> bool:
    """Whether FedProx's proximal term is zero at every local step: its effective mu is 0.

    The term's gradient mu * (theta - anchor) vanishes at the anchor, where
    each round's first step starts; so it is zero when mu is, or when no
    client takes more than one step per round. Adding a zero gradient can
    change only the sign of a zero entry, which no output shows.
    """
    return settings.prox_mu == 0 or (settings.epochs <= 1 and all(
        len(c.train_graphs) <= settings.batch_size for c in clients))


@dataclass
class _RunState:
    """What a group of algorithms carries from one round to the next."""

    clusters: list[ClusterState]  # in id order, as children take the next ids
    prox_mu: float  # the group's effective proximal mu
    optimizers: dict[int, AdamState]  # each client's Adam state and shuffle RNG
    rngs: dict[int, np.random.Generator]
    reports: list[RoundReport] = field(default_factory=list)

    def own_records(self) -> "_RunState":
        """A copy with its own clusters and reports, sharing the rest."""
        return replace(self, clusters=[replace(k, members=list(k.members)) for k in self.clusters],
                       reports=list(self.reports))

    def copy(self) -> "_RunState":
        """A copy that shares only what a run rebinds and never writes: the arrays."""
        return replace(
            self.own_records(),
            optimizers={cid: replace(o) for cid, o in self.optimizers.items()},
            rngs={cid: copy.deepcopy(r) for cid, r in self.rngs.items()})


def run_federation(
    clients: list[ClientState],
    algorithms: list[str],
    rounds: int,
    settings: RunSettings,
    seed: int,
) -> list[RunResult]:
    """Run each of ``algorithms`` on the same clients: one ``RunResult`` per algorithm, in order.

    Per round: broadcast each cluster's model, train all members locally,
    record the update norms, aggregate per cluster, evaluate every client on
    its held-out split, then (gcfl/gcflplus) bipartition the clusters whose
    split criteria fire (``split_check`` on ``settings``); both children
    inherit the freshly aggregated parent model and start the next round from
    it. The other algorithms ignore the split settings. ``seed`` keys the
    initial model and every client's shuffle RNG.

    The algorithms run in groups of algorithms in the same state, and a group
    computes each round once. They start in one group per initial layout
    (selftrain's singleton clusters, or one cluster of all clients) and
    effective proximal mu (fedprox's unless ``_prox_is_zero``, else 0). A
    group forks where its algorithms' split decisions differ: whether a cluster
    splits, or into which ordered halves. So each algorithm returns what it
    returns alone, bit for bit. Groups run depth-first: one group runs all its
    remaining rounds while its forks wait in a queue, each with its next round,
    and the queue empties before the next starting group is built. So a
    finished group's Adam states and RNGs are freed before another starts.
    """
    check_algorithms(algorithms)
    for algorithm in algorithms:
        if algorithm in ("gcfl", "gcflplus") and (settings.eps1 is None or settings.eps2 is None):
            raise ArgumentError(f"{algorithm} needs eps1 and eps2")
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

    init_rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_SEED_TAG]))
    model = init_gin(input_dim, output_dim, settings.hidden, settings.num_layers, init_rng)
    init_flat = model.vector.copy()  # the model itself is every client's working copy

    starts: dict[tuple, list[int]] = {}  # (initial layout, effective mu) -> algorithm indices
    fedprox_mu = 0.0 if _prox_is_zero(clients, settings) else settings.prox_mu
    for i, algorithm in enumerate(algorithms):
        layout = tuple((cid,) for cid in by_id) if algorithm == "selftrain" else (tuple(by_id),)
        starts.setdefault((layout, fedprox_mu if algorithm == "fedprox" else 0.0), []).append(i)
    # the starting groups, each built only when it starts, with its first round
    starting = ((0, _RunState(
        [ClusterState(k, list(m), init_flat.copy()) for k, m in enumerate(layout)], mu,
        {c.id: AdamState(np.zeros(init_flat.size), np.zeros(init_flat.size)) for c in clients},
        {c.id: np.random.default_rng(
            np.random.SeedSequence([seed, _CLIENT_SEED_TAG, c.id])) for c in clients}),
        members) for (layout, mu), members in starts.items())
    forks = deque()  # forked groups, each with its next round

    # each algorithm's own records; the rest of its result is read off its last group's state
    results = [RunResult(algorithm, [], [], []) for algorithm in algorithms]
    while group := forks.popleft() if forks else next(starting, None):
        start, run, members = group
        for t in range(start, rounds):
            (run, members), *split_off = _split_round(
                t, run, _train_round(t, run, by_id, model, settings), members, algorithms,
                results, settings)
            forks.extend((t + 1, *fork) for fork in split_off)
        for n, i in enumerate(members):
            if n:  # so that no two results share a list
                run = run.own_records()
            results[i] = replace(results[i], reports=run.reports, final_clusters=run.clusters)
        del group, run  # frees the group's Adam states and RNGs before the next group starts
    return results


def _train_round(t: int, run: _RunState, by_id: dict[int, ClientState], model: GinModel,
                 settings: RunSettings) -> dict[int, np.ndarray]:
    """Local training, aggregation and evaluation of every cluster for round ``t``: the updates."""
    deltas: dict[int, np.ndarray] = {}
    norms: dict[int, float] = {}
    train_loss: dict[int, float] = {}
    for cluster in run.clusters:
        for cid in cluster.members:
            optimizer = run.optimizers[cid]
            delta, train_loss[cid] = local_train(by_id[cid], model, cluster.model, optimizer,
                                                 run.rngs[cid], settings, run.prox_mu)
            # a finite delta whose norm overflows has diverged as well
            with np.errstate(over="ignore"):
                norms[cid] = float(np.linalg.norm(delta))
            if not np.isfinite(norms[cid]):
                raise DivergenceError(f"round {t}: client {cid} sent an update of non-finite norm")
            if settings.epochs and not np.isfinite(train_loss[cid]):  # nan when no batch ran
                raise DivergenceError(f"round {t}: client {cid} reported a non-finite train loss")
            if not np.isfinite(optimizer.v.max()):  # such coordinates would take no more steps
                raise DivergenceError(f"round {t}: client {cid}'s Adam second moment overflowed")
            deltas[cid] = delta

    for cluster in run.clusters:
        cluster_aggregate(cluster, [deltas[cid] for cid in cluster.members],
                          [by_id[cid].data_size for cid in cluster.members])

    entries = []
    for cluster in run.clusters:
        for cid in cluster.members:
            test_loss, test_acc = evaluate_client(by_id[cid], model, cluster.model)
            entries.append(ClientRound(cid, cluster.id, train_loss[cid],
                                       test_loss, test_acc, norms[cid]))
    entries.sort(key=lambda e: e.client_id)
    run.reports.append(RoundReport(t, entries))
    return deltas


def _split_round(t: int, run: _RunState, deltas: dict[int, np.ndarray], members: list[int],
                 algorithms: list[str], results: list[RunResult],
                 settings: RunSettings) -> list[tuple[_RunState, list[int]]]:
    """Split ``run``, the group ``members``, after round ``t``'s ``deltas``: a state per decision.

    An algorithm's decision lists, for each cluster whose criteria fire, the
    ordered member halves of its cut. Each cut is computed once per splitter
    (gcfl's cosine or gcflplus's DTW) and cluster, and each algorithm records
    its own split events. The children of a decision's n-th split take ids
    m + 2n and m + 2n + 1, m one past the largest live id. The first
    decision continues ``run``; each later one continues a copy of it.
    """
    cuts = {}  # (algorithm, cluster id) -> (halves, cut value, windows)
    decisions: dict[tuple, list[int]] = {}  # decision -> the algorithms that take it
    next_id = max(k.id for k in run.clusters) + 1
    for i in members:
        algorithm = algorithms[i]
        decision = []
        for cluster in run.clusters:
            n = len(cluster.members)
            if algorithm not in ("gcfl", "gcflplus") or n < 2 or not split_check(
                    cluster.delta_mean, cluster.delta_max, n, settings, t):
                continue
            if (algorithm, cluster.id) not in cuts:
                cuts[algorithm, cluster.id] = _cut(run, deltas, cluster, algorithm, settings)
            halves, cut_value, windows = cuts[algorithm, cluster.id]
            logger.info("round %d: %s: cluster %d split into %s | %s (cut %.3g)",
                        t, algorithm, cluster.id, *halves, cut_value)
            child = next_id + 2 * len(decision)
            results[i].split_events.append(SplitEvent(
                t, cluster.id, (child, child + 1), halves, cluster.delta_mean, cluster.delta_max,
                cut_value, windows))
            decision.append((cluster.id, halves))
        decisions.setdefault(tuple(decision), []).append(i)

    states = [run] + [run.copy() for _ in range(len(decisions) - 1)]
    for state, decision in zip(states, decisions):
        clusters = {k.id: k for k in state.clusters}
        for n, (parent, halves) in enumerate(decision):
            k = clusters.pop(parent)
            for child, side in enumerate(halves, next_id + 2 * n):
                clusters[child] = ClusterState(child, list(side), k.model, k.delta_mean,
                                               k.delta_max)
        state.clusters = list(clusters.values())
    return list(zip(states, decisions.values()))


def _cut(run: _RunState, deltas: dict[int, np.ndarray], cluster: ClusterState, algorithm: str,
         settings: RunSettings) -> tuple[tuple, float, Optional[dict[int, list[float]]]]:
    """The ordered member halves and value of ``cluster``'s cut, and gcflplus's windows.

    gcflplus's window of each member is its update norms of the last
    ``settings.window`` rounds, read off the group's reports; gcfl has none.
    """
    windows = None
    if algorithm == "gcfl":
        weights = to_cut_weights(cosine_matrix([deltas[cid] for cid in cluster.members]))
    else:
        recent = [{e.client_id: e.grad_norm for e in report.entries}
                  for report in run.reports[-settings.window:]]
        windows = {cid: [norms[cid] for norms in recent] for cid in cluster.members}
        weights = dtw_to_cut_weights(dtw_matrix(windows, cluster.members, settings.standardize))
    return (*bipartition_cluster(cluster, weights), windows)
