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
from scipy.sparse import csgraph
from scipy.special import stdtr

from .errors import ArgumentError, UndefinedStatisticError
from .graphs import Dataset, Graph, erdos_renyi_gnm

logger = logging.getLogger(__name__)

PROPERTY_NAMES = (
    "degree_kurtosis",
    "avg_shortest_path",
    "largest_component_pct",
    "clustering_coefficient",
)

PATH_SOURCE_BLOCK = 256  # shortest-path source nodes per csgraph call


def _pearson_kurtosis(values: np.ndarray) -> float:
    """Fourth central moment over squared variance (normal reference = 3)."""
    values = np.asarray(values, dtype=np.float64)
    center = values - values.mean()
    m2 = np.mean(center**2)
    if m2 < 1e-15:
        raise UndefinedStatisticError("degree sequence has zero variance")
    m4 = np.mean(center**4)
    return float(m4 / m2**2)


def degree_kurtosis(dataset: Dataset) -> float:
    """Pearson kurtosis of the degree sequence pooled over all graphs."""
    pooled = np.concatenate([g.degrees for g in dataset.graphs])
    return _pearson_kurtosis(pooled)


def avg_shortest_path(graph: Graph) -> float:
    """Mean BFS distance over connected unordered node pairs.

    Disconnected pairs are excluded; raises when no pair is connected.
    Sources run in blocks of ``PATH_SOURCE_BLOCK``, so memory stays
    O(block * num_nodes).
    """
    if graph.num_nodes < 2:
        raise UndefinedStatisticError("need at least two nodes")
    total = 0
    pairs = 0
    for start in range(0, graph.num_nodes, PATH_SOURCE_BLOCK):
        sources = np.arange(start, min(start + PATH_SOURCE_BLOCK, graph.num_nodes))
        # the adjacency is symmetric, so directed search gives undirected distances
        dist = csgraph.shortest_path(graph.adjacency, unweighted=True, indices=sources)
        reachable = np.isfinite(dist) & (dist > 0)
        total += int(dist[reachable].sum())
        pairs += int(reachable.sum())
    if pairs == 0:
        raise UndefinedStatisticError("no connected node pair")
    # every unordered pair was counted from both endpoints
    return total / pairs


def largest_component_fraction(graph: Graph) -> float:
    """Size of the largest connected component as a percentage of nodes."""
    # the adjacency is symmetric, so its strong components are its components,
    # and scipy finds those without building the transpose
    _, labels = csgraph.connected_components(graph.adjacency, connection="strong")
    return 100.0 * int(np.bincount(labels).max()) / graph.num_nodes


def avg_clustering_coefficient(graph: Graph) -> float:
    """Mean local clustering coefficient; degree<2 nodes contribute 0."""
    a = graph.adjacency
    k = graph.degrees
    # row v of (A @ A) * A sums the common neighbors of v and each neighbor:
    # twice the number of triangles through v
    links = (a @ a).multiply(a).sum(axis=1)
    coeff = np.zeros(graph.num_nodes)
    ok = k >= 2
    coeff[ok] = links[ok] / (k[ok] * (k[ok] - 1))
    # a running sum in node order, not numpy's pairwise one
    return float(np.add.accumulate(coeff)[-1]) / graph.num_nodes


def _per_graph_kurtosis(graph: Graph) -> Optional[float]:
    try:
        return _pearson_kurtosis(graph.degrees)
    except UndefinedStatisticError:
        return None


def _per_graph_path(graph: Graph) -> Optional[float]:
    try:
        return avg_shortest_path(graph)
    except UndefinedStatisticError:
        return None


_PER_GRAPH: dict[str, Callable[[Graph], Optional[float]]] = {
    "degree_kurtosis": _per_graph_kurtosis,
    "avg_shortest_path": _per_graph_path,
    "largest_component_pct": largest_component_fraction,
    "clustering_coefficient": avg_clustering_coefficient,
}


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
    graph. Per-property p-values come from a two-sample Welch t-test on the
    per-graph values; a property observed on at most 50% of graphs in either
    population is flagged as not computed. The kurtosis row reports the pooled
    dataset-level statistic, matching its headline definition; all other rows
    report means of the per-graph values.

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

    rows: dict[str, PropertyStat] = {}
    for prop in PROPERTY_NAMES:
        fn = _PER_GRAPH[prop]
        real_vals = np.array([v for v in (fn(g) for g in dataset.graphs) if v is not None])
        rand_vals = np.array([v for v in (fn(g) for g in random_graphs) if v is not None])
        frac_real = len(real_vals) / len(dataset.graphs)
        frac_rand = len(rand_vals) / len(random_graphs)
        computed = frac_real > 0.5 and frac_rand > 0.5 and len(real_vals) > 1 and len(rand_vals) > 1
        p = welch_p_value(real_vals, rand_vals) if computed else None
        if prop == "degree_kurtosis":
            try:
                real_stat = degree_kurtosis(dataset)
                rand_stat = _pearson_kurtosis(np.concatenate([g.degrees for g in random_graphs]))
            except UndefinedStatisticError:
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
