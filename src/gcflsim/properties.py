"""Graph property statistics and their significance against G(n,m) nulls.

Four properties are tracked: Pearson kurtosis of the degree distribution,
average shortest-path length over connected pairs, largest connected
component percentage, and average local clustering coefficient.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.special import stdtr

from .errors import ArgumentError, UndefinedStatisticError
from .graphs import Dataset, Graph, GraphBatch, erdos_renyi_gnm

logger = logging.getLogger(__name__)

PROPERTY_NAMES = (
    "degree_kurtosis",
    "avg_shortest_path",
    "largest_component_pct",
    "clustering_coefficient",
)

PATH_BLOCK = 256  # nodes per csgraph.shortest_path call
PRODUCT_ROWS = 1024  # union rows per sparse (A @ A) * A product, which bounds its memory


def _pearson_kurtosis(values: np.ndarray) -> np.ndarray:
    """Fourth central moment over squared variance (normal reference = 3) along
    the last axis; ``nan`` where the variance is zero."""
    values = np.asarray(values, dtype=np.float64)
    center = values - values.mean(axis=-1, keepdims=True)
    m2 = np.mean(center**2, axis=-1)
    m4 = np.mean(center**4, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m2 < 1e-15, np.nan, m4 / m2**2)


def degree_kurtosis(dataset: Dataset) -> float:
    """Pearson kurtosis of the degree sequence pooled over all graphs."""
    kurtosis = float(_pearson_kurtosis(np.concatenate([g.degrees for g in dataset.graphs])))
    if np.isnan(kurtosis):
        raise UndefinedStatisticError("degree sequence has zero variance")
    return kurtosis


def _degrees(union: GraphBatch) -> np.ndarray:
    return np.diff(union.adjacency.indptr).astype(np.int64)


def _per_graph(union: GraphBatch, node_values: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each graph's node values, one matrix row per graph, in node order.

    Graphs of one size share one ``(graphs, size)`` matrix: a row reduction over
    it adds each graph's values exactly as a reduction over that graph alone does."""
    out = np.empty(len(union))
    for size in np.unique(union.sizes).tolist():
        which = np.flatnonzero(union.sizes == size)
        out[which] = reduce(node_values[union.starts[which, None] + np.arange(size)])
    return out


def _node_runs(sizes: np.ndarray, limit: int):
    """Node ranges ``(first, last)`` of consecutive whole graphs, at most ``limit``
    nodes each; a larger graph is a range of its own."""
    first = filled = 0
    for size in sizes.tolist():
        if filled + size > limit and filled:
            yield first, first + filled
            first, filled = first + filled, 0
        filled += size
    yield first, first + filled


def avg_shortest_path(union: GraphBatch) -> np.ndarray:
    """Each graph's mean BFS distance over its connected unordered node pairs.

    Disconnected pairs are excluded; ``nan`` where no pair is connected.
    Consecutive graphs of at most ``PATH_BLOCK`` nodes share one
    ``csgraph.shortest_path`` call, which leaves the pairs across graphs
    unreachable; a larger graph runs its sources in blocks of ``PATH_BLOCK``,
    so memory stays O(PATH_BLOCK * nodes of one graph).
    """
    from scipy.sparse import csgraph  # here, as it loads scipy.linalg, which only analysis needs

    node_total = np.zeros(len(union.features))
    node_pairs = np.zeros(len(union.features), dtype=np.int64)
    for first, last in _node_runs(union.sizes, PATH_BLOCK):
        block = union.adjacency[first:last, first:last]
        for start in range(0, last - first, PATH_BLOCK):
            sources = np.arange(start, min(start + PATH_BLOCK, last - first))
            # the adjacency is symmetric, so directed search gives undirected distances
            dist = csgraph.shortest_path(block, unweighted=True, indices=sources)
            dist[np.isinf(dist)] = 0.0  # unreachable pairs count as 0, like a node and itself
            node_total[first + sources] = dist.sum(axis=1)
            node_pairs[first + sources] = np.count_nonzero(dist, axis=1)
    # distances are integers, so these sums are exact in any order
    total = np.add.reduceat(node_total, union.starts)
    pairs = np.add.reduceat(node_pairs, union.starts)
    # every unordered pair was counted from both endpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pairs > 0, total / pairs, np.nan)


def largest_component_fraction(union: GraphBatch) -> np.ndarray:
    """Each graph's largest connected component as a percentage of its nodes."""
    from scipy.sparse import csgraph  # here, as it loads scipy.linalg, which only analysis needs

    # the adjacency is symmetric, so its strong components are its components,
    # and scipy finds those without building the transpose
    _, labels = csgraph.connected_components(union.adjacency, connection="strong")
    largest = np.maximum.reduceat(np.bincount(labels)[labels], union.starts)
    return 100.0 * largest / union.sizes


def avg_clustering_coefficient(union: GraphBatch) -> np.ndarray:
    """Each graph's mean local clustering coefficient; degree<2 nodes contribute 0."""
    a = union.adjacency
    k = _degrees(union)
    # row v of (A @ A) * A sums the common neighbors of v and each neighbor:
    # twice the number of triangles through v
    links = np.concatenate([(a[s:s + PRODUCT_ROWS] @ a).multiply(a[s:s + PRODUCT_ROWS]).sum(axis=1)
                            for s in range(0, len(k), PRODUCT_ROWS)])
    coeff = np.zeros(len(k))
    ok = k >= 2
    coeff[ok] = links[ok] / (k[ok] * (k[ok] - 1))
    # a running sum in node order per graph, not numpy's pairwise one
    return _per_graph(union, coeff, lambda rows: np.add.accumulate(rows, axis=1)[:, -1]) \
        / union.sizes


@dataclass
class PropertyStat:
    real: float
    random: float
    p_value: Optional[float]  # None when undefined for too many graphs
    computed: bool = True


@dataclass
class PropertyReport:
    dataset: str
    rows: dict[str, PropertyStat]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["property", "real", "random", "p_value"])
            for prop in PROPERTY_NAMES:
                stat = self.rows[prop]
                writer.writerow([
                    prop,
                    _fmt(stat.real),
                    _fmt(stat.random),
                    _fmt(stat.p_value) if stat.computed else "not_computed",
                ])


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


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


def property_significance(
    dataset: Dataset,
    seed: int,
    null_factory: Callable[[Graph, int], Graph] | None = None,
) -> PropertyReport:
    """Compare per-graph property samples against G(n,m)-matched random graphs.

    One random graph with the same node and edge counts is generated per real
    graph. The real graphs form one disjoint union and the random graphs
    another, and each property is computed once per union, one value per
    graph. Per-property p-values come from a two-sample Welch t-test on the
    per-graph values; a property undefined (``nan``) on half the graphs or
    more in either population is flagged as not computed. The kurtosis row
    reports the pooled dataset-level statistic, matching its headline
    definition; all other rows report means of the per-graph values.

    The null seed of each random graph depends only on (seed, n, m, k) where
    k counts repeats of the same (n, m) shape, so the report is invariant to
    graph order within the dataset.
    """
    if null_factory is None:
        null_factory = _matched_gnm_factory(seed)

    shape_counts: Counter[tuple[int, int]] = Counter()
    random_graphs = []
    for g in dataset.graphs:
        key = (g.num_nodes, g.num_edges)
        random_graphs.append(null_factory(g, shape_counts[key]))
        shape_counts[key] += 1
    real, random = GraphBatch(dataset.graphs), GraphBatch(random_graphs)

    rows: dict[str, PropertyStat] = {}
    for prop, fn in zip(PROPERTY_NAMES, (lambda u: _per_graph(u, _degrees(u), _pearson_kurtosis),
                                         avg_shortest_path, largest_component_fraction,
                                         avg_clustering_coefficient)):
        real_vals, rand_vals = fn(real), fn(random)
        real_vals, rand_vals = real_vals[~np.isnan(real_vals)], rand_vals[~np.isnan(rand_vals)]
        frac_real = len(real_vals) / len(real)
        frac_rand = len(rand_vals) / len(random)
        computed = frac_real > 0.5 and frac_rand > 0.5 and len(real_vals) > 1 and len(rand_vals) > 1
        p = welch_p_value(real_vals, rand_vals) if computed else None
        if prop == "degree_kurtosis":
            real_stat, rand_stat = (float(_pearson_kurtosis(_degrees(u))) for u in (real, random))
            if np.isnan(real_stat) or np.isnan(rand_stat):
                real_stat, rand_stat, computed, p = float("nan"), float("nan"), False, None
        else:
            real_stat = float(real_vals.mean()) if len(real_vals) else float("nan")
            rand_stat = float(rand_vals.mean()) if len(rand_vals) else float("nan")
        if not computed:
            logger.warning("%s: %s undefined for too many graphs (real %.0f%%, random %.0f%%)",
                           dataset.name, prop, 100 * frac_real, 100 * frac_rand)
        rows[prop] = PropertyStat(real_stat, rand_stat, p, computed)
    return PropertyReport(dataset.name, rows)


def _matched_gnm_factory(seed: int) -> Callable[[Graph, int], Graph]:
    def make(graph: Graph, repeat: int) -> Graph:
        ss = np.random.SeedSequence([seed, graph.num_nodes, graph.num_edges, repeat])
        return erdos_renyi_gnm(graph.num_nodes, graph.num_edges, int(ss.generate_state(1)[0]))

    return make
