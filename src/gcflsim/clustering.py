"""Gradient-driven cluster management: split criteria, cosine similarity,
Stoer-Wagner global minimum cut, and cluster-wise aggregation.

A cluster splits when the size-weighted mean update norm has shrunk below
eps1 while some member still transmits an update larger than eps2; the
bipartition severs the least-similar members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

WEIGHT_FLOOR = 1e-6


@dataclass
class ClusterConfig:
    eps1: float
    eps2: float
    min_split_size: int = 3
    warmup_rounds: int = 0

    def __post_init__(self):
        if not (self.eps1 > 0 and self.eps2 > 0):  # also rejects nan
            raise ArgumentError("eps1 and eps2 must be positive")
        if self.min_split_size < 1 or self.warmup_rounds < 0:
            raise ArgumentError(f"need min_split_size >= 1 and warmup_rounds >= 0, got "
                                f"{self.min_split_size} and {self.warmup_rounds}")


@dataclass
class ClusterState:
    id: int
    members: list[int]  # client ids, kept sorted
    model: np.ndarray  # shared flat parameter vector
    delta_mean: float = 0.0
    delta_max: float = 0.0

    def __post_init__(self):
        if not self.members:
            raise ArgumentError("a cluster needs at least one member")
        self.members = sorted(self.members)


def weighted_mean(deltas: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Mean of the member updates, each weighted by its share of the total size."""
    if not deltas or len(deltas) != len(sizes):
        raise ArgumentError("need one update and one size per member")
    weights = np.asarray(sizes, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ArgumentError("total size must be positive")
    weights = weights / total
    return sum(w * d for w, d in zip(weights, deltas))


def split_check(
    delta_mean: float,
    delta_max: float,
    num_members: int,
    config: ClusterConfig,
    round_index: int,
) -> bool:
    """Evaluate the two split criteria on one cluster's update statistics.

    ``delta_mean`` and ``delta_max`` are the ones ``cluster_aggregate``
    recorded. A split additionally requires at least ``min_split_size``
    members and ``round_index >= warmup_rounds``.
    """
    return (
        delta_mean < config.eps1
        and delta_max > config.eps2
        and num_members >= config.min_split_size
        and round_index >= config.warmup_rounds
    )


def cosine_matrix(deltas: list[np.ndarray]) -> np.ndarray:
    """Pairwise cosine similarity of flat update vectors.

    Zero vectors produce all-zero rows/columns (including the diagonal).
    """
    if len(deltas) < 2:
        raise ArgumentError("need at least two vectors")
    mat = np.stack(deltas)
    norms = np.linalg.norm(mat, axis=1)
    if not np.any(norms > 0):
        raise ArgumentError("all update vectors are zero")
    safe = np.where(norms > 0, norms, 1.0)
    unit = mat / safe[:, None]
    alpha = unit @ unit.T
    alpha[norms == 0, :] = 0.0
    alpha[:, norms == 0] = 0.0
    np.fill_diagonal(alpha, np.where(norms > 0, 1.0, 0.0))
    return np.clip(alpha, -1.0, 1.0)


def to_cut_weights(alpha: np.ndarray) -> np.ndarray:
    """Clamp similarities to nonnegative cut weights with a small floor.

    The floor keeps the similarity graph connected so the minimum cut remains
    meaningful when some cosines are negative.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ArgumentError("similarity matrix must be square")
    if np.max(np.abs(alpha - alpha.T)) > 1e-9 or np.max(np.abs(alpha)) > 1.0 + 1e-9:
        raise ArgumentError("similarity matrix must be symmetric with entries in [-1, 1]")
    w = np.maximum(alpha, 0.0) + WEIGHT_FLOOR
    np.fill_diagonal(w, 0.0)
    return w


def stoer_wagner_mincut(weights: np.ndarray) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Global minimum cut of a weighted undirected graph.

    Ties inside the maximum-adjacency search break toward the smallest vertex
    index and an earlier equal-value phase cut is kept, so the result is
    deterministic. The returned partition lists the side containing vertex 0
    first, both sides sorted.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n or n < 2:
        raise ArgumentError("need a square matrix over >= 2 vertices")
    if np.max(np.abs(w - w.T)) > 1e-12:
        raise ArgumentError("weight matrix must be symmetric")
    if np.any(np.diag(w) != 0):
        raise ArgumentError("diagonal must be zero")
    if w.min() < 0:
        raise ArgumentError("weights must be nonnegative")

    work = w.copy()
    merged = [[i] for i in range(n)]
    active = list(range(n))
    best_value = np.inf
    best_side: list[int] | None = None

    while len(active) > 1:
        start = active[0]
        in_set = {start}
        conn = {v: work[start, v] for v in active if v != start}
        order = [start]
        while conn:
            # most tightly connected next vertex; ties -> smallest index
            nxt = min(conn, key=lambda v: (-conn[v], v))
            cut_of_phase = conn.pop(nxt)
            order.append(nxt)
            in_set.add(nxt)
            for v in conn:
                conn[v] += work[nxt, v]
        t = order[-1]
        s = order[-2]
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = sorted(merged[t])
        # merge t into s
        for v in active:
            if v not in (s, t):
                work[s, v] += work[t, v]
                work[v, s] = work[s, v]
        merged[s] = merged[s] + merged[t]
        active.remove(t)

    side = set(best_side)
    other = sorted(set(range(n)) - side)
    a, b = (best_side, other) if 0 in side else (other, best_side)
    return (tuple(a), tuple(b)), float(best_value)


@dataclass
class SplitEvent:
    round_index: int
    parent: int
    children: tuple[int, int]
    members: tuple[tuple[int, ...], tuple[int, ...]]
    delta_mean: float
    delta_max: float
    cut_value: float
    windows: dict[int, list[float]] | None  # gcflplus: each member's norms the cut used


def bipartition_cluster(cluster: ClusterState, weights: np.ndarray) -> tuple[tuple, float]:
    """The ordered member halves and value of the minimum cut of ``weights``.

    Row/column i of the matrix corresponds to the i-th member in sorted id
    order; the first half holds that first member.
    """
    if len(cluster.members) < 2:
        raise ArgumentError("cannot bipartition a singleton cluster")
    if weights.shape != (len(cluster.members), len(cluster.members)):
        raise ArgumentError("weight matrix does not match member count")
    sides, cut_value = stoer_wagner_mincut(weights)
    return tuple(tuple(cluster.members[i] for i in side) for side in sides), cut_value


def cluster_aggregate(cluster: ClusterState, deltas: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Advance the cluster model by the size-weighted mean member update.

    Also records the split statistics: ``delta_mean``, the norm of that mean
    update, and ``delta_max``, the largest member update norm.
    """
    mean = weighted_mean(deltas, sizes)
    cluster.model = cluster.model + mean
    cluster.delta_mean = float(np.linalg.norm(mean))
    cluster.delta_max = float(max(np.linalg.norm(d) for d in deltas))
    return cluster.model
