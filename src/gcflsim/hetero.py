"""Structure and feature heterogeneity measures between graph collections.

Structure is compared through anonymous-walk distributions (Jensen-Shannon
distance, base-2 logs); features through histograms of cosine similarity
between linked-node feature vectors (Jensen-Shannon divergence).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, UndefinedEmbeddingError
from .graphs import Dataset, GraphBatch, decode_pair_index
from .outputs import write_csv

logger = logging.getLogger(__name__)

MAX_WALK_LENGTH = 8
WALK_BUDGET = 200_000  # exact enumeration up to this many walks, else AWE_SAMPLES sampled ones
AWE_SAMPLES = 10_000
EXACT_CHUNK_WALKS = 16_384  # most walks one exact-mode frontier holds, unless one start has more
_PAIR_SEED_TAG = 90911
_WALK_SEED_TAG = 90913


def enumerate_anonymous_walks(length: int) -> list[tuple[int, ...]]:
    """All canonical anonymous walk patterns with ``length`` edges.

    A pattern is a symbol sequence starting at 0 where every first occurrence
    of a symbol is one greater than the running maximum and consecutive
    symbols differ (walks never stay in place on a simple graph).
    """
    return list(_walk_automaton(length)[1])


@lru_cache(maxsize=None)
def _walk_automaton(length: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Transitions between the anonymous prefixes of walks of ``length`` edges, and the patterns.

    The states are the prefixes, grown level by level from ``(0,)``; the last
    level, which has no row in ``step``, is the patterns, so state
    ``len(step) + j`` is pattern j. ``step[k, i]`` is the state a walk in state
    k enters when its next node repeats its node at position i, and
    ``step[k, length]`` the state it enters on a new node; -1 marks a move no
    walk makes.
    """
    if not 1 <= length <= MAX_WALK_LENGTH:
        raise ArgumentError(f"walk length must be in [1, {MAX_WALK_LENGTH}], got {length}")
    rows, level = [], [(0,)]
    for _ in range(length):
        grown, first = [], len(rows) + len(level)  # the id of the next level's first state
        for pat in level:
            top = max(pat)
            child = {}  # the state of each next symbol
            for sym in range(top + 2):
                if sym != pat[-1]:
                    child[sym] = first + len(grown)
                    grown.append(pat + (sym,))
            rows.append([child.get(sym, -1) for sym in pat] + [-1] * (length - len(pat))
                        + [child[top + 1]])
        level = grown
    return np.array(rows, dtype=np.intp), tuple(level)


def _advance(step: np.ndarray, states: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Each walk's state after the step to its last node column, from its earlier ones."""
    new = cols[-1]
    move = np.full(len(new), step.shape[1] - 1)
    for i, col in enumerate(cols[:-2]):  # never the node just left: walks do not stay in place
        move[col == new] = i
    return step[states, move]


def _walks_per_node(graph: GraphBatch, length: int) -> np.ndarray:
    """``A^length 1``: the number of walks of ``length`` edges from each node."""
    w = np.ones(graph.num_nodes)
    a = graph.adjacency
    for _ in range(length):
        w = a @ w
    return w


def _start_chunks(walk_counts: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` runs of starts with at most ``EXACT_CHUNK_WALKS`` walks each.

    A start whose own count exceeds the cap gets a chunk to itself.
    """
    ends = np.cumsum(walk_counts)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, base + EXACT_CHUNK_WALKS, side="right")))
        yield lo, hi
        lo = hi


def _owners(graph: GraphBatch, what: str) -> np.ndarray:
    """The graph of each node of a union, checked to leave no graph without an edge."""
    if (graph.edge_counts == 0).any():
        raise UndefinedEmbeddingError(f"{what} is undefined on an edgeless graph")
    return np.repeat(np.arange(len(graph)), graph.sizes)


def awe_distribution(
    graph: GraphBatch,
    length: int,
    mode: str = "exact",
    samples: int = AWE_SAMPLES,
    seeds: Sequence[int] = (),
) -> np.ndarray:
    """Anonymous-walk pattern distribution of a simple random walk on each graph of a union.

    One row per graph, one column per pattern of ``enumerate_anonymous_walks``.
    Walks start uniformly over the graph's non-isolated nodes and step
    uniformly over neighbors. ``exact`` enumerates every walk with its
    probability; ``sampled`` estimates frequencies from ``samples`` random
    walks per graph, graph g's drawn from ``default_rng(seeds[g])``.
    """
    step, patterns = _walk_automaton(length)
    owner = _owners(graph, "anonymous walks")
    deg = graph.degrees
    starts = np.flatnonzero(deg > 0)
    count = np.bincount(owner[starts], minlength=len(graph))  # starts per graph
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    probs = np.zeros((len(graph), len(patterns)))

    if mode == "exact":
        # Walks of each start in the order a DFS popping the highest neighbour
        # first reaches them, starts in ascending order. ``np.add.at`` adds in
        # that order, so each row sums its walks in it whatever the chunk size.
        for lo, hi in _start_chunks(_walks_per_node(graph, length)[starts]):
            cols, state = [starts[lo:hi]], np.zeros(hi - lo, dtype=np.intp)
            p = 1.0 / count[owner[cols[0]]]
            for _ in range(length):
                ends = cols[-1]
                d = deg[ends]
                # CSR position of each child, counted back from its end node's row end
                pos = np.repeat(indptr[ends + 1] + np.cumsum(d) - d, d) - np.arange(d.sum()) - 1
                cols = [np.repeat(col, d) for col in cols] + [indices[pos]]
                state = _advance(step, np.repeat(state, d), cols)
                p = np.repeat(p / d, d)
            np.add.at(probs.reshape(-1), owner[cols[0]] * len(patterns) + state - len(step), p)
    elif mode == "sampled":
        if samples < 1 or len(seeds) != len(graph):
            raise ArgumentError(f"need samples >= 1 and one seed per graph, got {samples} "
                                f"and {len(seeds)} seeds for {len(graph)} graphs")
        for row, seed, own in zip(probs, seeds, np.split(starts, np.cumsum(count)[:-1])):
            rng = np.random.default_rng(seed)
            cols = [own[rng.integers(len(own), size=samples)]]
            state = np.zeros(samples, dtype=np.intp)
            for _ in range(length):
                cur = cols[-1]
                cols.append(indices[indptr[cur] + rng.integers(0, deg[cur])])
                state = _advance(step, state, cols)
            row[:] = np.bincount(state - len(step), minlength=len(patterns)) / samples
    else:
        raise ArgumentError(f"unknown mode {mode!r}")
    return probs


# ---------------------------------------------------------------------------
# Jensen-Shannon measures (base-2 logs, so both live in [0, 1])
# ---------------------------------------------------------------------------


def js_divergence(p, q):
    """Jensen-Shannon divergence along the last axis, clipped to [0, 1]: one value per row."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ArgumentError(f"length mismatch: {p.shape} vs {q.shape}")
    for vec in (p, q):
        if np.any(np.abs(vec.sum(axis=-1) - 1.0) > 1e-6) or vec.min() < -1e-12:
            raise ArgumentError("inputs must be probability vectors")
    m = 0.5 * (p + q)

    def kl(a):
        return np.sum(a * np.log2(np.divide(a, m, out=np.ones_like(a), where=a > 0)), axis=-1)

    return np.clip(0.5 * kl(p) + 0.5 * kl(q), 0.0, 1.0)


def js_distance(p, q):
    """Square root of ``js_divergence``: a metric on each row pair."""
    return np.sqrt(js_divergence(p, q))


def feature_sim_histogram(graph: GraphBatch, bins: int = 20) -> np.ndarray:
    """Each graph's normalized histogram of per-edge endpoint feature cosine similarity on [-1, 1].

    One row per graph of the union. Zero feature vectors are assigned
    similarity 0 instead of NaN. Each node's row is first scaled by a power of
    two that brings its largest magnitude into [0.5, 1): exact, so the cosines
    keep their bits, and no finite row's norm overflows or underflows to 0.
    """
    if bins < 1:
        raise ArgumentError("bins must be >= 1")
    owner = _owners(graph, "similarity histogram")
    x = graph.features
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, initial=0.0))[1][:, None])
    edges = graph.edges
    a, b = x[edges[:, 0]], x[edges[:, 1]]
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    sims = np.zeros(len(denom))
    ok = denom > 0
    sims[ok] = np.sum(a[ok] * b[ok], axis=1) / denom[ok]
    sims = np.clip(sims, -1.0, 1.0)
    # the bin np.histogram gives each cosine: the last edge at or below it, the last bin closed
    slot = np.searchsorted(np.linspace(-1.0, 1.0, bins + 1), sims, side="right") - 1
    counts = np.bincount(owner[edges[:, 0]] * bins + np.minimum(slot, bins - 1),
                         minlength=len(graph) * bins).reshape(len(graph), bins)
    return counts / counts.sum(axis=1, keepdims=True)


class GraphPool(NamedTuple):
    """A named list of a store's tags, every graph of each: one side of a pairwise comparison."""

    name: str
    tags: list[int]


class GraphEmbeddings:
    """Each graph's walk-pattern probabilities and similarity histogram, computed on first use.

    Graphs are known by a stable key of two ints, ``(tag, pos)``: graph ``pos``
    of the unions ``sets[tag]``, counted through them in order. A call embeds
    the graphs it misses in one pass per union they sit in, over the union of
    just them, cut with one ``take``. A sampled graph's walk seed comes from
    its key, so every pool that holds it reads one estimate. A ``GraphPool``
    names tags, and ``keys`` expands them; no caller spells a key.
    """

    def __init__(self, sets: dict[int, list[GraphBatch]], awe_length: int = 4, bins: int = 20,
                 seed: int = 0):
        self.sets, self.awe_length, self.bins, self.seed = sets, awe_length, bins, seed
        self.edge_counts = {tag: np.concatenate([u.edge_counts for u in unions]).tolist()
                            for tag, unions in sets.items()}
        self._rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def keys(self, pool: GraphPool) -> list[tuple[int, int]]:
        """The keys of every graph of ``pool``'s tags, in tag order, then position order."""
        return [(tag, pos) for tag in sorted(pool.tags)
                for pos in range(len(self.edge_counts[tag]))]

    def rows(self, keys: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        """The stacked walk-pattern probabilities and similarity histograms of ``keys``."""
        missing: dict[int, dict[int, None]] = {}  # positions per tag, in first-seen order
        for tag, pos in keys:
            if (tag, pos) not in self._rows:
                missing.setdefault(tag, {})[pos] = None
        for tag, positions in missing.items():
            positions, first = np.array(list(positions)), 0
            for union in self.sets[tag]:
                mine = positions[(positions >= first) & (positions < first + len(union))]
                if len(mine):
                    self._embed(tag, mine, union.take(mine - first))
                first += len(union)
        awe_rows, hist_rows = zip(*(self._rows[key] for key in keys))
        return np.stack(awe_rows), np.stack(hist_rows)

    def _embed(self, tag: int, positions: np.ndarray, cut: GraphBatch) -> None:
        """Embed the graphs ``(tag, pos)`` of ``positions``, which ``cut`` holds in that order."""
        length = self.awe_length
        exact = np.add.reduceat(_walks_per_node(cut, length), cut.starts) <= WALK_BUDGET
        sampled = np.flatnonzero(~exact)
        seeds = [int(np.random.SeedSequence([_WALK_SEED_TAG, self.seed, tag, pos])
                     .generate_state(1)[0]) for pos in positions[sampled].tolist()]
        awe = np.empty((len(cut), len(_walk_automaton(length)[1])))
        for mode, part, part_seeds in (("exact", np.flatnonzero(exact), ()),
                                       ("sampled", sampled, seeds)):
            if len(part):
                awe[part] = awe_distribution(cut.take(part), length, mode, AWE_SAMPLES, part_seeds)
        keys = [(tag, pos) for pos in positions.tolist()]
        self._rows.update(zip(keys, zip(awe, feature_sim_histogram(cut, self.bins))))


def dataset_pools(set_a: Dataset, set_b: Dataset, awe_length: int = 4, bins: int = 20,
                  seed: int = 0) -> tuple[GraphEmbeddings, GraphPool, GraphPool]:
    """One embedding store over two datasets, and a pool of each.

    Set A has tag 0 and set B tag 1; one Dataset object passed as both sets
    is one pool, compared against itself.
    """
    sets = [set_a] if set_b is set_a else [set_a, set_b]
    pools = [GraphPool(ds.name, [tag]) for tag, ds in enumerate(sets)]
    return (GraphEmbeddings({tag: [ds.graphs] for tag, ds in enumerate(sets)}, awe_length, bins,
                            seed), pools[0], pools[-1])


@dataclass
class HeterogeneityReport:
    set_a: str
    set_b: str
    structure_mean: float
    structure_std: float
    feature_mean: float
    feature_std: float


def pairwise_heterogeneity(embeddings: GraphEmbeddings, pool_a: GraphPool, pool_b: GraphPool,
                           pair_budget: int = 2000) -> HeterogeneityReport:
    """Mean and spread of pairwise structure/feature divergence across two pools.

    Uses every cross-pool pair when the count fits the budget, otherwise a
    uniform sample of distinct pairs seeded by the store's seed. Two pools of
    the same keys are one set, compared against itself over unordered distinct
    pairs. Edgeless graphs are skipped; more than 50% skipped in either pool is
    an error, and so is a pair budget below 1.
    """
    if pair_budget < 1:
        raise ArgumentError(f"pair budget must be >= 1, got {pair_budget}")
    keys_a, keys_b = embeddings.keys(pool_a), embeddings.keys(pool_b)
    same = keys_a == keys_b
    keys_a = _valid_keys(embeddings, pool_a.name, keys_a)
    keys_b = keys_a if same else _valid_keys(embeddings, pool_b.name, keys_b)
    if same and len(keys_a) == 1:
        return HeterogeneityReport(pool_a.name, pool_b.name, 0.0, 0.0, 0.0, 0.0)
    rows, cols = _sample_pairs(len(keys_a), len(keys_b), same, pair_budget, embeddings.seed)
    awe_a, hist_a = embeddings.rows([keys_a[i] for i in rows.tolist()])
    awe_b, hist_b = embeddings.rows([keys_b[j] for j in cols.tolist()])
    structure = js_distance(awe_a, awe_b)
    feature = js_divergence(hist_a, hist_b)
    return HeterogeneityReport(pool_a.name, pool_b.name, float(structure.mean()),
                               float(structure.std()), float(feature.mean()), float(feature.std()))


def _valid_keys(embeddings: GraphEmbeddings, name: str,
                keys: list[tuple[int, int]]) -> list[tuple[int, int]]:
    valid = [key for key in keys if embeddings.edge_counts[key[0]][key[1]] > 0]
    skipped = len(keys) - len(valid)
    if 2 * skipped > len(keys):
        raise UndefinedEmbeddingError(f"{name}: more than half of the graphs have no edges")
    if skipped:
        logger.warning("%s: skipping %d edgeless graphs", name, skipped)
    return valid


def _sample_pairs(len_a: int, len_b: int, same: bool, pair_budget: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (row, column) positions: all pairs, or a seeded sample of ``pair_budget``.

    With ``same``, unordered pairs of one set of ``len_a``, each row below its column.
    """
    total = len_a * (len_a - 1) // 2 if same else len_a * len_b
    rng = np.random.default_rng(np.random.SeedSequence([_PAIR_SEED_TAG, seed]))
    codes = rng.choice(total, min(total, pair_budget), replace=False)
    return decode_pair_index(codes, len_a) if same else divmod(codes, len_b)


def write_heterogeneity_csv(path: str | Path, reports: list[HeterogeneityReport]) -> None:
    write_csv(path, ["setA", "setB", "structure_mean", "structure_std",
                     "feature_mean", "feature_std"],
              [[r.set_a, r.set_b, repr(r.structure_mean), repr(r.structure_std),
                repr(r.feature_mean), repr(r.feature_std)] for r in reports])
