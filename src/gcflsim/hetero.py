"""Structure and feature heterogeneity measures between graph collections.

Structure is compared through anonymous-walk distributions (Jensen-Shannon
distance, base-2 logs); features through histograms of cosine similarity
between linked-node feature vectors (Jensen-Shannon divergence).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ArgumentError, UndefinedEmbeddingError
from .graphs import Dataset, Graph, decode_pair_index

logger = logging.getLogger(__name__)

MAX_WALK_LENGTH = 8
WALK_BUDGET = 200_000  # exact enumeration up to this many walks, else AWE_SAMPLES sampled ones
AWE_SAMPLES = 10_000
_PAIR_SEED_TAG = 90911
_WALK_SEED_TAG = 90913


def enumerate_anonymous_walks(length: int) -> list[tuple[int, ...]]:
    """All canonical anonymous walk patterns with ``length`` edges.

    A pattern is a symbol sequence starting at 0 where every first occurrence
    of a symbol is one greater than the running maximum and consecutive
    symbols differ (walks never stay in place on a simple graph).
    """
    if not 1 <= length <= MAX_WALK_LENGTH:
        raise ArgumentError(f"walk length must be in [1, {MAX_WALK_LENGTH}], got {length}")
    patterns: list[list[int]] = [[0]]
    for _ in range(length):
        grown = []
        for pat in patterns:
            top = max(pat)
            for sym in range(top + 2):
                if sym != pat[-1]:
                    grown.append(pat + [sym])
        patterns = grown
    return [tuple(p) for p in patterns]


@lru_cache(maxsize=None)
def _pattern_codes(length: int) -> np.ndarray:
    """Base-(length+1) codes of the patterns; ascending, as the list is lexicographic."""
    return _encode(np.array(enumerate_anonymous_walks(length), dtype=np.int64))


def _encode(symbols: np.ndarray) -> np.ndarray:
    return symbols @ symbols.shape[1] ** np.arange(symbols.shape[1] - 1, -1, -1)


def _pattern_index(walks: np.ndarray) -> np.ndarray:
    """Index into ``enumerate_anonymous_walks`` of each row of node ids."""
    first = np.argmax(walks[:, :, None] == walks[:, None, :], axis=2)
    is_new = first == np.arange(walks.shape[1])
    symbols = np.take_along_axis(np.cumsum(is_new, axis=1) - 1, first, axis=1)
    return np.searchsorted(_pattern_codes(walks.shape[1] - 1), _encode(symbols))


def exact_walk_count(graph: Graph, length: int) -> int:
    """Number of distinct node walks of ``length`` edges (enumeration cost)."""
    w = np.ones(graph.num_nodes)
    a = graph.adjacency
    for _ in range(length):
        w = a @ w
    return int(round(w.sum()))


@dataclass
class AweDistribution:
    """Probability over anonymous walk patterns of one fixed length."""

    walk_length: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if abs(self.probs.sum() - 1.0) > 1e-9 or self.probs.min() < 0:
            raise ArgumentError("pattern probabilities must be a distribution")


def awe_distribution(
    graph: Graph,
    length: int,
    mode: str = "exact",
    samples: int = AWE_SAMPLES,
    seed: int = 0,
) -> AweDistribution:
    """Anonymous-walk pattern distribution of a simple random walk.

    Walks start uniformly over non-isolated nodes and step uniformly over
    neighbors. ``exact`` enumerates every walk with its probability;
    ``sampled`` estimates frequencies from seeded random walks.
    """
    num_patterns = len(_pattern_codes(length))
    if graph.num_edges == 0:
        raise UndefinedEmbeddingError("anonymous walks are undefined on an edgeless graph")
    deg = graph.degrees
    starts = np.flatnonzero(deg > 0)
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices

    if mode == "exact":
        # Walks of one start in the order a DFS popping the highest neighbour
        # first reaches them, so the sums below add in that order.
        probs = np.zeros(num_patterns)
        for s in starts:
            walks = np.array([[s]], dtype=np.int64)
            p = np.array([1.0 / len(starts)])
            for _ in range(length):
                ends = walks[:, -1]
                d = deg[ends]
                # CSR position of each child, counted back from its end node's row end
                pos = np.repeat(indptr[ends + 1] + np.cumsum(d) - d, d) - np.arange(d.sum()) - 1
                walks = np.column_stack([np.repeat(walks, d, axis=0), indices[pos]])
                p = np.repeat(p / d, d)
            np.add.at(probs, _pattern_index(walks), p)
    elif mode == "sampled":
        if samples < 1:
            raise ArgumentError("samples must be >= 1")
        rng = np.random.default_rng(seed)
        cur = starts[rng.integers(len(starts), size=samples)]
        walks = np.empty((samples, length + 1), dtype=np.int64)
        walks[:, 0] = cur
        for t in range(1, length + 1):
            r = rng.integers(0, deg[cur])
            cur = indices[indptr[cur] + r]
            walks[:, t] = cur
        probs = np.bincount(_pattern_index(walks), minlength=num_patterns) / samples
    else:
        raise ArgumentError(f"unknown mode {mode!r}")
    return AweDistribution(length, probs)


def awe_distribution_auto(graph: Graph, length: int, seed: int = 0) -> AweDistribution:
    """Exact enumeration within ``WALK_BUDGET`` walks, seeded sampling otherwise."""
    if exact_walk_count(graph, length) <= WALK_BUDGET:
        return awe_distribution(graph, length, mode="exact")
    return awe_distribution(graph, length, mode="sampled", samples=AWE_SAMPLES, seed=seed)


# ---------------------------------------------------------------------------
# Jensen-Shannon measures (base-2 logs, so both live in [0, 1])
# ---------------------------------------------------------------------------


def js_divergence(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ArgumentError(f"length mismatch: {p.shape} vs {q.shape}")
    for vec in (p, q):
        if abs(vec.sum() - 1.0) > 1e-6 or vec.min() < -1e-12:
            raise ArgumentError("inputs must be probability vectors")
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    return min(1.0, max(0.0, 0.5 * kl(p) + 0.5 * kl(q)))


def js_distance(p, q) -> float:
    return float(np.sqrt(js_divergence(p, q)))


@dataclass
class FeatureSimHistogram:
    """Normalized histogram of linked-node cosine similarities on [-1, 1]."""

    bins: int
    edges: np.ndarray
    mass: np.ndarray


def feature_sim_histogram(graph: Graph, bins: int = 20) -> FeatureSimHistogram:
    """Histogram of per-edge endpoint feature cosine similarity.

    Zero feature vectors are assigned similarity 0 instead of NaN.
    """
    if bins < 1:
        raise ArgumentError("bins must be >= 1")
    if graph.num_edges == 0:
        raise UndefinedEmbeddingError("similarity histogram is undefined on an edgeless graph")
    x = graph.features
    a = x[graph.edges[:, 0]]
    b = x[graph.edges[:, 1]]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    sims = np.zeros(len(denom))
    ok = denom > 0
    sims[ok] = np.sum(a[ok] * b[ok], axis=1) / denom[ok]
    sims = np.clip(sims, -1.0, 1.0)
    counts, edges = np.histogram(sims, bins=bins, range=(-1.0, 1.0))
    return FeatureSimHistogram(bins, edges, counts / counts.sum())


@dataclass
class HeterogeneityReport:
    set_a: str
    set_b: str
    structure_mean: float
    structure_std: float
    feature_mean: float
    feature_std: float


def pairwise_heterogeneity(
    set_a: Dataset,
    set_b: Dataset,
    awe_length: int = 4,
    bins: int = 20,
    pair_budget: int = 2000,
    seed: int = 0,
) -> HeterogeneityReport:
    """Mean and spread of pairwise structure/feature divergence across sets.

    Uses every cross-set pair when the count fits the budget, otherwise a
    seeded uniform sample of distinct pairs. Passing one Dataset object as
    both sets compares it against itself over unordered distinct pairs.
    Edgeless graphs are skipped; more than 50% skipped in either set is an
    error, and so is a pair budget below 1.
    """
    if pair_budget < 1:
        raise ArgumentError(f"pair budget must be >= 1, got {pair_budget}")
    same = set_a is set_b
    idx_a = _valid_indices(set_a)
    idx_b = idx_a if same else _valid_indices(set_b)

    if same and len(idx_a) == 1:
        return HeterogeneityReport(set_a.name, set_b.name, 0.0, 0.0, 0.0, 0.0)

    rng = np.random.default_rng(np.random.SeedSequence([_PAIR_SEED_TAG, seed]))
    if same:
        total = len(idx_a) * (len(idx_a) - 1) // 2
        codes = _sample_codes(rng, total, pair_budget)
        rows, cols = decode_pair_index(codes, len(idx_a))
        pairs = [(idx_a[i], idx_a[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    else:
        total = len(idx_a) * len(idx_b)
        codes = _sample_codes(rng, total, pair_budget)
        pairs = [(idx_a[int(c) // len(idx_b)], idx_b[int(c) % len(idx_b)]) for c in codes]

    awe_a: dict[int, AweDistribution] = {}
    awe_b: dict[int, AweDistribution] = {} if not same else awe_a
    hist_a: dict[int, np.ndarray] = {}
    hist_b: dict[int, np.ndarray] = {} if not same else hist_a

    def awe_of(ds, cache, tag, i):
        if i not in cache:
            ss = np.random.SeedSequence([_WALK_SEED_TAG, seed, tag, i])
            cache[i] = awe_distribution_auto(ds.graphs[i], awe_length, int(ss.generate_state(1)[0]))
        return cache[i]

    def hist_of(ds, cache, i):
        if i not in cache:
            cache[i] = feature_sim_histogram(ds.graphs[i], bins).mass
        return cache[i]

    structure = np.empty(len(pairs))
    feature = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        structure[k] = js_distance(
            awe_of(set_a, awe_a, 0, i).probs, awe_of(set_b, awe_b, 0 if same else 1, j).probs
        )
        feature[k] = js_divergence(hist_of(set_a, hist_a, i), hist_of(set_b, hist_b, j))
    return HeterogeneityReport(
        set_a.name,
        set_b.name,
        float(structure.mean()),
        float(structure.std()),
        float(feature.mean()),
        float(feature.std()),
    )


def _valid_indices(ds: Dataset) -> list[int]:
    valid = [i for i, g in enumerate(ds.graphs) if g.num_edges > 0]
    skipped = len(ds.graphs) - len(valid)
    if 2 * skipped > len(ds.graphs):
        raise UndefinedEmbeddingError(f"{ds.name}: more than half of the graphs have no edges")
    if skipped:
        logger.warning("%s: skipping %d edgeless graphs", ds.name, skipped)
    return valid


def _sample_codes(rng: np.random.Generator, total: int, want: int) -> np.ndarray:
    """Distinct integers from range(total): all of them, or a uniform sample."""
    if total <= want:
        return np.arange(total, dtype=np.int64)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < want:
        for c in rng.integers(total, size=want):
            c = int(c)
            if c not in seen:
                seen.add(c)
                out.append(c)
                if len(out) == want:
                    break
    return np.array(out, dtype=np.int64)


def write_heterogeneity_csv(path: str | Path, reports: list[HeterogeneityReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setA", "setB", "structure_mean", "structure_std",
                         "feature_mean", "feature_std"])
        for r in reports:
            writer.writerow([r.set_a, r.set_b, repr(r.structure_mean), repr(r.structure_std),
                             repr(r.feature_mean), repr(r.feature_std)])
