"""Graph property statistics and their significance against G(n,m) nulls.

Four properties are tracked: Pearson kurtosis of the degree distribution,
average shortest-path length over connected pairs, largest connected
component percentage, and average local clustering coefficient.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import stdtr

from .errors import ArgumentError
from .graphs import Dataset, GraphBatch, _cut_blocks, _offsets, erdos_renyi_gnm
from .outputs import write_csv

logger = logging.getLogger(__name__)

PROPERTY_NAMES = (
    "degree_kurtosis",
    "avg_shortest_path",
    "largest_component_pct",
    "clustering_coefficient",
)

# nodes of a run of graphs times its source columns: the bits of each frontier
# array of the breadth-first traversal and of the clustering bitsets, which bound
# their memory (512 KiB each)
FRONTIER_BITS = 1 << 22


def _pearson_kurtosis(values: np.ndarray) -> np.ndarray:
    """Fourth central moment over squared variance (normal reference = 3) along
    the last axis; ``nan`` where the variance is zero."""
    values = np.asarray(values, dtype=np.float64)
    center = values - values.mean(axis=-1, keepdims=True)
    m2 = np.mean(center**2, axis=-1)
    m4 = np.mean(center**4, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m2 < 1e-15, np.nan, m4 / m2**2)


def _per_graph(union: GraphBatch, node_values: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each graph's node values, one matrix row per graph, in node order.

    Graphs of one size share one ``(graphs, size)`` matrix: a row reduction over
    it adds each graph's values exactly as a reduction over that graph alone does."""
    out = np.empty(len(union))
    for size in np.unique(union.sizes).tolist():
        which = np.flatnonzero(union.sizes == size)
        out[which] = reduce(node_values[union.starts[which, None] + np.arange(size)])
    return out


def _runs(union: GraphBatch):
    """Runs ``(lo, hi, first, run_a)`` of consecutive whole graphs: graphs ``lo`` to
    ``hi - 1`` of the union, whose nodes start at row ``first``, and the run's block
    of the adjacency, cut by ``_cut_blocks`` (or the union's own, uncopied, when the
    run is the whole union: nothing writes to it). A run's nodes times its widest
    graph's nodes stay within ``FRONTIER_BITS``; a graph over it alone is a run of
    its own."""
    lo = nodes = widest = 0
    bounds = []
    for g, size in enumerate(union.sizes.tolist()):
        if nodes and (nodes + size) * max(widest, size) > FRONTIER_BITS:
            bounds.append((lo, g))
            lo, nodes, widest = g, 0, 0
        nodes += size
        widest = max(widest, size)
    bounds.append((lo, len(union)))
    for lo, hi in bounds:
        yield lo, hi, int(union.starts[lo]), (
            union.adjacency if hi - lo == len(union) else
            _cut_blocks(union.adjacency, union.sizes, union.starts, np.arange(lo, hi))[1])


def _neighbour_passes(a) -> tuple[list[np.ndarray], np.ndarray]:
    """The neighbour lists by rank of the CSR ``a``, for ``_or_of_neighbours``.

    Pass j lists the j-th neighbour of each row that has one, in the order of
    the rows sorted by falling degree: the rows of a pass are a prefix of that
    order. Also returns that order.
    """
    degree = np.diff(a.indptr)
    order = np.argsort(-degree, kind="stable")
    having = len(order) - np.searchsorted(degree[order[::-1]], np.arange(degree.max(initial=0)),
                                          "right")  # rows of degree > j
    return [a.indices[a.indptr[order[:n]] + j] for j, n in enumerate(having.tolist())], order


def _or_of_neighbours(frontier: np.ndarray, passes: list[np.ndarray], order: np.ndarray):
    """Each row's OR of its neighbours' rows of ``frontier``: one gather per pass."""
    reached = np.zeros_like(frontier)
    for neighbours in passes:
        reached[:len(neighbours)] |= frontier[neighbours]
    out = np.empty_like(reached)
    out[order] = reached
    return out


def _source_blocks(union: GraphBatch):
    """The runs of ``union`` (see ``_runs``) and their source columns, block by block.

    The sources of a run go in blocks of ``FRONTIER_BITS // run nodes``
    columns, at least one: column c holds source node ``j0 + c`` of every graph
    of the run that has one. (A run of several graphs fits in one block; only a
    graph over the budget alone takes its sources in several.) Yields
    ``(lo, hi, first, run_a, passes, frontier)`` per block: the run as ``_runs``
    gives it, its ``_neighbour_passes`` and the block's one-bit-per-source
    frontier, a row of 64-bit words per node of the run whose bit c is set on
    the node that is the source of column c.
    """
    for lo, hi, first, run_a in _runs(union):
        sizes = union.sizes[lo:hi]
        nodes, widest = int(sizes.sum()), int(sizes.max())
        columns = max(1, min(widest, FRONTIER_BITS // nodes))
        passes = _neighbour_passes(run_a)
        for j0 in range(0, widest, columns):
            width = min(columns, widest - j0)
            graph, column = np.nonzero(j0 + np.arange(width) < sizes[:, None])
            frontier = np.zeros((nodes, -(-width // 64)), dtype=np.uint64)
            frontier[union.starts[lo + graph] - first + j0 + column, column // 64] = \
                np.uint64(1) << (column % 64).astype(np.uint64)
            yield lo, hi, first, run_a, passes, frontier


def graph_properties(union: GraphBatch) -> dict[str, np.ndarray]:
    """Each property of ``PROPERTY_NAMES`` for each graph of ``union``, keyed by name.

    The last three come from one breadth-first search from every node at once,
    started from each block of ``_source_blocks``. A node's frontier is a row of
    64-bit words whose bit c is set when the node lies at the current distance
    from the source in column c of its own graph; a step ORs each node's
    neighbours' rows and keeps the bits not yet seen. A graph whose step reaches
    nothing is done and is cut out of the block (``_cut_blocks``), so a
    long-diameter graph steps alone. Each (source, node) pair of a connected
    graph is found once, at their distance:

    - Shortest path: step k adds k per pair it finds. The mean over the
      connected ordered pairs (each unordered pair from both ends) is the mean
      over the unordered ones; ``nan`` where no pair is connected.
    - Largest component: a node's component is itself and every other source
      that reaches it, so its rows' popcounts, summed over the steps and
      blocks, count the rest of its component.
    - Clustering: no node neighbours itself, so step 1 reaches exactly each
      node's neighbours among the block's sources, ``nb``. The popcount of
      ``nb[v] & nb[u]`` counts the common neighbours of v and u there, and its
      sum over v's neighbours u (pass by pass, so each array is the size of a
      frontier) and over the blocks is twice the number of triangles through
      v. Degree<2 nodes contribute 0.

    Every count is an integer, summed exactly.
    """
    k = union.degrees
    total = np.zeros(len(union), dtype=np.int64)  # distances over connected ordered pairs
    reach = np.ones(len(k), dtype=np.int64)  # the nodes of each node's component found so far
    links = np.zeros(len(k), dtype=np.int64)  # twice the triangles through each node
    for lo, hi, first, a, (passes, order), seen in _source_blocks(union):
        graphs, nodes = np.arange(lo, hi), np.arange(first, first + len(seen))
        starts = _offsets(union.sizes[graphs])
        frontier = _or_of_neighbours(seen, passes, order)
        mine, common = frontier[order], np.zeros(len(order), dtype=np.int64)
        for neighbours in passes:
            common[:len(neighbours)] += np.bitwise_count(
                mine[:len(neighbours)] & frontier[neighbours]).sum(axis=1, dtype=np.int64)
        links[nodes[order]] += common
        del mine  # a frontier's size, which the search does not need
        for step in itertools.count(1):
            frontier |= seen  # frontier & ~seen, in place: the bits not yet seen
            frontier ^= seen
            seen |= frontier
            counts = np.bitwise_count(frontier).sum(axis=1, dtype=np.int64)
            reach[nodes] += counts
            found = np.add.reduceat(counts, starts)
            total[graphs] += step * found
            live = found > 0
            if not live.all():  # the graphs that are done leave
                if not live.any():
                    break
                rows, a = _cut_blocks(a, union.sizes[graphs], starts, np.flatnonzero(live))
                frontier, seen, nodes = frontier[rows], seen[rows], nodes[rows]
                graphs = graphs[live]
                starts, (passes, order) = _offsets(union.sizes[graphs]), _neighbour_passes(a)
            frontier = _or_of_neighbours(frontier, passes, order)

    pairs = np.add.reduceat(reach, union.starts) - union.sizes  # connected ordered pairs
    with np.errstate(divide="ignore", invalid="ignore"):
        path = np.where(pairs > 0, total / pairs, np.nan)
    coeff = np.zeros(len(k))
    ok = k >= 2
    coeff[ok] = links[ok] / (k[ok] * (k[ok] - 1))
    return {
        "degree_kurtosis": _per_graph(union, k, _pearson_kurtosis),
        "avg_shortest_path": path,
        "largest_component_pct": 100.0 * np.maximum.reduceat(reach, union.starts) / union.sizes,
        # a running sum in node order per graph, not numpy's pairwise one
        "clustering_coefficient": _per_graph(
            union, coeff, lambda rows: np.add.accumulate(rows, axis=1)[:, -1]) / union.sizes,
    }


@dataclass
class PropertyStat:
    real: float
    random: float
    p_value: Optional[float]  # None when not computed: undefined for too many graphs


@dataclass
class PropertyReport:
    dataset: str
    rows: dict[str, PropertyStat]

    def write_csv(self, path: str | Path) -> None:
        rows = []
        for prop in PROPERTY_NAMES:
            stat = self.rows[prop]
            rows.append([prop, stat.real, stat.random,
                         "not_computed" if stat.p_value is None else stat.p_value])
        write_csv(path, ["property", "real", "random", "p_value"], rows)


def welch_p_value(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided Welch t-test p-value with degenerate-variance guards.

    The arithmetic is SciPy's ``ttest_ind(a, b, equal_var=False)``, step for
    step, ending in ``scipy.special.stdtr``: the p-value keeps its bits, and
    SciPy's slow-to-import statistics package stays unloaded.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ArgumentError("need at least two observations per sample")
    if a.var(ddof=1) < 1e-300 and b.var(ddof=1) < 1e-300:
        return 1.0 if abs(a.mean() - b.mean()) < 1e-300 else 0.0
    n1, n2 = np.float64(len(a)), np.float64(len(b))
    m1, m2 = np.mean(a), np.mean(b)
    # constant samples are legitimate here (e.g. every cycle graph has
    # clustering coefficient 0), and extreme ones may overflow: both give nan
    # or inf, never a warning
    with np.errstate(all="ignore"):
        vn1 = np.mean((a - m1) ** 2) * (n1 / (n1 - 1)) / n1
        vn2 = np.mean((b - m2) ** 2) * (n2 / (n2 - 1)) / n2
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        if np.isnan(df):  # only when both variances are zero; any df then serves
            df = np.float64(1.0)
        t = np.divide(m1 - m2, np.sqrt(vn1 + vn2))
        p = float(2 * stdtr(df, -np.abs(t)))
    return 1.0 if np.isnan(p) else p


def property_significance(dataset: Dataset, seed: int) -> PropertyReport:
    """Compare per-graph property samples against G(n,m)-matched random graphs.

    One random graph with the same node and edge counts is generated per real
    graph. The dataset is one union and the random graphs form another
    (``_gnm_nulls``); ``graph_properties`` computes every property once per
    union, one value per graph. Per-property p-values come from a two-sample Welch
    t-test on the per-graph values; a property undefined (``nan``) on half the
    graphs or more in either population is flagged as not computed. The
    kurtosis row reports the pooled dataset-level statistic, matching its
    headline definition; all other rows report means of the per-graph values.

    The null seed of each random graph depends only on (seed, n, m, k) where
    k counts repeats of the same (n, m) shape, so the report is invariant to
    graph order within the dataset.
    """
    real, random = dataset.graphs, _gnm_nulls(dataset.graphs, seed)

    rows: dict[str, PropertyStat] = {}
    real_props, rand_props = graph_properties(real), graph_properties(random)
    for prop in PROPERTY_NAMES:
        real_vals, rand_vals = real_props[prop], rand_props[prop]
        real_vals, rand_vals = real_vals[~np.isnan(real_vals)], rand_vals[~np.isnan(rand_vals)]
        frac_real = len(real_vals) / len(real)
        frac_rand = len(rand_vals) / len(random)
        computed = frac_real > 0.5 and frac_rand > 0.5 and len(real_vals) > 1 and len(rand_vals) > 1
        p = welch_p_value(real_vals, rand_vals) if computed else None
        if prop == "degree_kurtosis":
            real_stat, rand_stat = (float(_pearson_kurtosis(u.degrees)) for u in (real, random))
            if np.isnan(real_stat) or np.isnan(rand_stat):
                real_stat, rand_stat, p = float("nan"), float("nan"), None
        else:
            real_stat = float(real_vals.mean()) if len(real_vals) else float("nan")
            rand_stat = float(rand_vals.mean()) if len(rand_vals) else float("nan")
        if p is None:
            logger.warning("%s: %s undefined for too many graphs (real %.0f%%, random %.0f%%)",
                           dataset.name, prop, 100 * frac_real, 100 * frac_rand)
        rows[prop] = PropertyStat(real_stat, rand_stat, p)
    return PropertyReport(dataset.name, rows)


def _gnm_nulls(union: GraphBatch, seed: int) -> GraphBatch:
    """One G(n, m) graph of each graph's node and edge counts, as one union in graph order.

    Graph k of a shape (n, m), counted in graph order, draws its edges with
    the seed of (seed, n, m, k). The nulls' features are one constant column.
    """
    shape_counts: Counter[tuple[int, int]] = Counter()
    edges = []
    for n, m, start in zip(union.sizes.tolist(), union.edge_counts.tolist(),
                           union.starts.tolist()):
        ss = np.random.SeedSequence([seed, n, m, shape_counts[n, m]])
        shape_counts[n, m] += 1
        edges.append(erdos_renyi_gnm(n, m, int(ss.generate_state(1)[0])) + start)
    return GraphBatch.from_edges(np.concatenate(edges), np.ones((union.num_nodes, 1)),
                                 union.sizes, np.zeros(len(union), dtype=np.int64))
