import warnings
from collections import deque
from itertools import combinations
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse, special, stats
from scipy.sparse import csgraph

from gcflsim import properties
from gcflsim.errors import ArgumentError
from gcflsim.graphs import Dataset, _offsets
from gcflsim.properties import (
    FRONTIER_BITS,
    PROPERTY_NAMES,
    graph_properties,
    property_significance,
    welch_p_value,
)

from conftest import (HYPOTHESIS, complete_graph, edge_set, make_graph, random_graph,
                      small_graphs, union)


def one(prop, graph):
    """Property ``prop`` of ``graph`` alone: its one-graph union's only value."""
    return float(graph_properties(graph)[prop][0])


def pooled_kurtosis(graphs):
    """The kurtosis row of the property report of ``graphs``: the statistic of their pooled
    degree sequence, ``nan`` where it has zero variance. The graphs are their own nulls, so
    a regular random graph cannot blank the row."""
    with mock.patch.object(properties, "_gnm_nulls", lambda graphs, seed: graphs):
        report = property_significance(Dataset("d", union(graphs)), seed=0)
    return report.rows["degree_kurtosis"].real


# --- the per-graph functions the union function replaced, as references ---


class UndefinedStatisticError(Exception):
    """A reference statistic is undefined for its input (the union function gives nan)."""


REFERENCE_SOURCE_BLOCK = 256  # shortest-path source nodes per csgraph call


def ref_shortest_path(graph):
    """Mean BFS distance over connected unordered node pairs, in source blocks."""
    if graph.num_nodes < 2:
        raise UndefinedStatisticError("need at least two nodes")
    total = 0
    pairs = 0
    for start in range(0, graph.num_nodes, REFERENCE_SOURCE_BLOCK):
        sources = np.arange(start, min(start + REFERENCE_SOURCE_BLOCK, graph.num_nodes))
        dist = csgraph.shortest_path(graph.adjacency, unweighted=True, indices=sources)
        reachable = np.isfinite(dist) & (dist > 0)
        total += int(dist[reachable].sum())
        pairs += int(reachable.sum())
    if pairs == 0:
        raise UndefinedStatisticError("no connected node pair")
    return total / pairs


def ref_largest_component(graph):
    _, labels = csgraph.connected_components(graph.adjacency, connection="strong")
    return 100.0 * int(np.bincount(labels).max()) / graph.num_nodes


def ref_clustering(graph):
    a = graph.adjacency
    k = graph.degrees
    links = (a @ a).multiply(a).sum(axis=1)
    coeff = np.zeros(graph.num_nodes)
    ok = k >= 2
    coeff[ok] = links[ok] / (k[ok] * (k[ok] - 1))
    return float(np.add.accumulate(coeff)[-1]) / graph.num_nodes


def ref_kurtosis(graph):
    values = np.asarray(graph.degrees, dtype=np.float64)
    center = values - values.mean()
    m2 = np.mean(center**2)
    if m2 < 1e-15:
        raise UndefinedStatisticError("degree sequence has zero variance")
    m4 = np.mean(center**4)
    return float(m4 / m2**2)


def nan_if_undefined(fn, graph):
    try:
        return fn(graph)
    except UndefinedStatisticError:
        return float("nan")


REFERENCES = {
    "degree_kurtosis": ref_kurtosis,
    "avg_shortest_path": ref_shortest_path,
    "largest_component_pct": ref_largest_component,
    "clustering_coefficient": ref_clustering,
}


def assert_union_matches_oracles(graphs):
    """Each union value equals the brute-force value of its graph alone."""
    props = graph_properties(union(graphs))
    for g, path, lcc, cc in zip(graphs, props["avg_shortest_path"],
                                props["largest_component_pct"], props["clustering_coefficient"]):
        assert cc == pytest.approx(brute_clustering(g), abs=1e-12)
        assert lcc == pytest.approx(brute_largest_component(g), abs=1e-12)
        ref = brute_shortest_path(g)
        assert np.isnan(path) if ref is None else path == pytest.approx(ref, abs=1e-12)


# frontier budgets of one source column per block, of a few columns, and the default
BUDGETS = (1, 48, FRONTIER_BITS)


@pytest.fixture(params=BUDGETS)
def budget(request, monkeypatch):
    monkeypatch.setattr(properties, "FRONTIER_BITS", request.param)
    return request.param


def bits(x):
    """``x``'s exact bits, with every nan alike."""
    return "nan" if np.isnan(x) else float(x).hex()


def assert_union_matches_references(graphs):
    props = graph_properties(union(graphs))
    assert list(props) == list(PROPERTY_NAMES)
    for prop, ref_fn in REFERENCES.items():
        values = props[prop]
        assert values.shape == (len(graphs),)
        assert [bits(v) for v in values] == [bits(nan_if_undefined(ref_fn, g)) for g in graphs], \
            prop


# --- independent brute-force references -----------------------------------


def brute_shortest_path(graph):
    n = graph.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in graph.edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):  # Floyd-Warshall
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    vals = [dist[i, j] for i, j in combinations(range(n), 2) if np.isfinite(dist[i, j])]
    return float(np.mean(vals)) if vals else None


def brute_clustering(graph):
    es = edge_set(graph)
    total = 0.0
    for v in range(graph.num_nodes):
        nbrs = [u for u in range(graph.num_nodes)
                if (min(u, v), max(u, v)) in es and u != v]
        if len(nbrs) < 2:
            continue
        tri = sum(1 for a, b in combinations(nbrs, 2) if (min(a, b), max(a, b)) in es)
        total += tri / (len(nbrs) * (len(nbrs) - 1) / 2)
    return total / graph.num_nodes


def brute_largest_component(graph):
    es = edge_set(graph)
    seen, best = set(), 0
    for s in range(graph.num_nodes):
        if s in seen:
            continue
        comp, queue = {s}, deque([s])
        while queue:
            u = queue.popleft()
            for v in range(graph.num_nodes):
                if v not in comp and (min(u, v), max(u, v)) in es:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        best = max(best, len(comp))
    return 100.0 * best / graph.num_nodes


def brute_kurtosis(values):
    values = np.asarray(values, dtype=float)
    mu = values.mean()
    m2 = np.mean((values - mu) ** 2)
    m4 = np.mean((values - mu) ** 4)
    return m4 / m2**2


def welch_oracle(a, b):
    """Welch statistic plus t CDF via the regularized incomplete beta."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
    x = df / (df + t**2)
    return float(special.betainc(df / 2, 0.5, x))  # two-sided


def scipy_welch(a, b):
    """``scipy.stats.ttest_ind``'s Welch p-value, with a ``nan`` mapped to 1.0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # constant samples
        p = float(stats.ttest_ind(a, b, equal_var=False).pvalue)
    return 1.0 if np.isnan(p) else p


@st.composite
def welch_samples(draw):
    """Two samples of 2-60 values: floats, small integers, floats far from zero,
    or one constant sample against a varying one.

    Every value is 0 or at least 1e-3 in magnitude, so a variance below the
    degenerate guard's 1e-300 is exactly 0, where the guard and scipy agree.
    """
    kind = draw(st.sampled_from(["float", "integer", "offset", "constant"]))
    sizes = st.integers(2, 60)
    if kind == "integer":
        values = st.integers(-5, 5).map(float)
    else:
        values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
    a = np.array(draw(st.lists(values, min_size=2, max_size=60)))
    b = np.array(draw(st.lists(values, min_size=2, max_size=60)))
    if kind == "offset":
        shift = draw(st.sampled_from([3e9, -3e9, 1e6]))
        a, b = a + shift, b + shift
    elif kind == "constant":
        a = np.full(draw(sizes), draw(values))
    return a, b


# --- unit behavior ----------------------------------------------------------


class TestDegreeKurtosis:
    def test_star_matches_moment_formula(self):
        star = make_graph(10, [(0, i) for i in range(1, 10)])
        degrees = [9] + [1] * 9
        assert pooled_kurtosis([star]) == pytest.approx(brute_kurtosis(degrees), abs=1e-12)

    def test_cycle_zero_variance_is_nan(self):
        cycle = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert np.isnan(pooled_kurtosis([cycle]))

    def test_pooled_over_graphs(self):
        g1 = make_graph(3, [(0, 1)])
        g2 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        pooled = [1, 1, 0, 2, 2, 2]
        assert pooled_kurtosis([g1, g2]) == pytest.approx(brute_kurtosis(pooled), abs=1e-12)


class TestAvgShortestPath:
    def test_path3(self, path3):
        assert one("avg_shortest_path", path3) == pytest.approx(4.0 / 3.0)

    def test_complete_graphs_are_one(self):
        for n in range(2, 9):
            assert one("avg_shortest_path", complete_graph(n)) == 1.0

    def test_disconnected_pairs_excluded(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert one("avg_shortest_path", g) == 1.0

    def test_edgeless_is_nan(self):
        assert np.isnan(one("avg_shortest_path", make_graph(3, [])))

    def test_path_longer_than_one_column_block(self, budget):
        # mean distance over the pairs of a path on n nodes is (n + 1) / 3; under the
        # small budgets the path's sources come in several column blocks
        n = 13 if budget < FRONTIER_BITS else 300
        g = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        assert one("avg_shortest_path", g) == (n + 1) / 3


class TestClusteringAndComponents:
    def test_triangle_is_one(self, triangle):
        assert one("clustering_coefficient", triangle) == 1.0

    def test_star_is_zero(self, star5):
        assert one("clustering_coefficient", star5) == 0.0

    def test_complete_graphs(self):
        for n in range(3, 8):
            assert one("clustering_coefficient", complete_graph(n)) == 1.0

    def test_connected_fraction(self, triangle):
        assert one("largest_component_pct", triangle) == 100.0

    def test_two_components(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        assert one("largest_component_pct", g) == 75.0


def test_properties_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_graph(rng, n=int(rng.integers(3, 13)))
        assert one("clustering_coefficient", g) == pytest.approx(brute_clustering(g), abs=1e-12)
        assert one("largest_component_pct", g) == pytest.approx(
            brute_largest_component(g), abs=1e-12)
        ref = brute_shortest_path(g)
        if ref is not None:
            assert one("avg_shortest_path", g) == pytest.approx(ref, abs=1e-12)
        degrees = g.degrees
        if np.var(degrees) > 0:
            assert pooled_kurtosis([g]) == pytest.approx(brute_kurtosis(degrees), abs=1e-12)


@HYPOTHESIS
@given(small_graphs())
def test_properties_match_brute_force_on_generated_graphs(g):
    assert one("clustering_coefficient", g) == pytest.approx(brute_clustering(g), abs=1e-12)
    assert one("largest_component_pct", g) == pytest.approx(
        brute_largest_component(g), abs=1e-12)
    ref = brute_shortest_path(g)
    if ref is None:
        assert np.isnan(one("avg_shortest_path", g))
    else:
        assert one("avg_shortest_path", g) == pytest.approx(ref, abs=1e-12)


class TestUnion:
    """One value per graph of a union, bit-equal to the per-graph references."""

    @HYPOTHESIS
    @given(st.lists(small_graphs(), min_size=1, max_size=8), st.integers(3, 6),
           st.integers(0, 8), st.sampled_from([1, 2, 7, 40]))
    def test_union_values_match_references_and_oracles(self, graphs, k, where, tiny):
        # a complete graph: every source is done after one step, and every pair of
        # neighbours closes a triangle
        graphs = graphs[:where] + [complete_graph(k)] + graphs[where:]
        for budget in (tiny, FRONTIER_BITS):
            with mock.patch.object(properties, "FRONTIER_BITS", budget):
                assert_union_matches_references(graphs)
                assert_union_matches_oracles(graphs)

    def test_single_node_and_edgeless_graphs(self):
        graphs = [make_graph(1, []), make_graph(3, []), make_graph(2, [(0, 1)]), make_graph(1, [])]
        assert_union_matches_references(graphs)
        props = graph_properties(union(graphs))
        assert np.isnan(props["avg_shortest_path"]).tolist() == [True, True, False, True]
        assert props["largest_component_pct"].tolist() == [100.0, 100.0 / 3, 100.0, 100.0]
        assert props["clustering_coefficient"].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_graphs_straddling_the_frontier_budget(self, budget):
        rng = np.random.default_rng(4)
        # under a budget of 48 bits, runs close exactly at it (3 graphs of 4 nodes),
        # just past it and on a one-node graph; under 1 every graph is a run of its own
        sizes = [4, 4, 4, 3, 5, 2, 7, 6, 6, 3]
        graphs = [random_graph(rng, n=n, p=0.5) for n in sizes]
        graphs = graphs[:-1] + [make_graph(1, [], feat_dim=3)] + graphs[-1:]
        assert_union_matches_references(graphs)
        assert_union_matches_oracles(graphs)

    def test_graph_larger_than_the_frontier_budget(self, budget):
        rng = np.random.default_rng(5)
        # 11 and 22 nodes exceed a budget of 48 alone: 4 and 2 source columns per
        # block. The two paths of 11 nodes are one graph, whose component sizes are
        # summed across its 11 column blocks
        n = 11
        edges = [(i, i + 1) for i in range(n - 1)]
        path = make_graph(n, edges, feat_dim=3)
        two_paths = make_graph(2 * n, edges + [(u + n, v + n) for u, v in edges], feat_dim=3)
        graphs = [random_graph(rng, n=5), path, random_graph(rng, n=2 * n, p=3.0 / n),
                  make_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)], feat_dim=3),
                  two_paths, random_graph(rng, n=5)]
        assert_union_matches_references(graphs)
        assert_union_matches_oracles(graphs)
        props = graph_properties(union(graphs))
        assert props["avg_shortest_path"][[1, 4]].tolist() == [(n + 1) / 3] * 2
        assert props["largest_component_pct"][[1, 4]].tolist() == [100.0, 50.0]

    @pytest.mark.parametrize("columns", [100, 150])
    def test_frontier_rows_of_several_words(self, columns, monkeypatch):
        rng = np.random.default_rng(6)
        n = 150
        path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        graphs = [random_graph(rng, n=70, p=0.05, feat_dim=1), path,
                  random_graph(rng, n=9, feat_dim=1), random_graph(rng, n=130, p=0.03, feat_dim=1)]
        # column blocks of 100 (two words, the second partly used) or 150 sources
        monkeypatch.setattr(properties, "FRONTIER_BITS", columns * sum(g.num_nodes for g in graphs))
        assert_union_matches_references(graphs)
        assert_union_matches_oracles(graphs)
        assert graph_properties(union(graphs))["avg_shortest_path"][1] == (n + 1) / 3

    @pytest.mark.parametrize("budget", [1, 100 * 140, FRONTIER_BITS])
    def test_clustering_of_dense_graphs_across_words_and_blocks(self, budget, monkeypatch):
        rng = np.random.default_rng(8)
        # at p = 0.3 each node has dozens of neighbours, so common neighbours lie
        # in every word of a source block; under 100 * 140 bits the 140-node graph
        # takes its sources in blocks of 100 (two words) and 40, and the 110- and
        # 9-node graphs share one run of 110 columns; under 1 every block is one
        # column wide
        graphs = [random_graph(rng, n=n, p=0.3, feat_dim=1) for n in (140, 110, 9)]
        monkeypatch.setattr(properties, "FRONTIER_BITS", budget)
        values = graph_properties(union(graphs))["clustering_coefficient"]
        assert [bits(v) for v in values] == [bits(ref_clustering(g)) for g in graphs]
        assert values.tolist() == pytest.approx([brute_clustering(g) for g in graphs], abs=1e-12)
        assert min(values[:2]) > 0.2

    @pytest.mark.parametrize("bits", [10 * 30, FRONTIER_BITS])
    def test_done_graphs_leave_the_traversal(self, bits, monkeypatch):
        n = 30
        path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        # no two sets of these graphs have as many nodes (3, 4, 30, 2 and 8), so the
        # rows a step ORs name the graphs that step
        graphs = [complete_graph(3), complete_graph(4), path, make_graph(2, [(0, 1)]),
                  make_graph(8, [])]
        sizes = np.array([g.num_nodes for g in graphs])
        monkeypatch.setattr(properties, "FRONTIER_BITS", bits)
        steps = []  # per step, each row's bits: its sources at step 1, then the last step's finds
        or_of_neighbours = properties._or_of_neighbours

        def recording(frontier, passes, order):
            steps.append(np.bitwise_count(frontier).sum(axis=1, dtype=np.int64))
            return or_of_neighbours(frontier, passes, order)

        monkeypatch.setattr(properties, "_or_of_neighbours", recording)
        graph_properties(union(graphs))
        if bits == FRONTIER_BITS:
            # one run: each graph steps until a step reaches nothing, and only the
            # path (diameter n - 1) goes on
            stepping = [[0, 1, 2, 3, 4], [0, 1, 2, 3]] + [[2]] * (n - 2)
        else:
            # runs [0, 1], [2] and [3, 4]; the path alone takes sources 0-9, 10-19 and
            # 20-29 in three blocks, which step 30, 20 and 30 times
            stepping = [[0, 1]] * 2 + [[2]] * (30 + 20 + 30) + [[3, 4], [3]]
        assert [len(rows) for rows in steps] == [sizes[g].sum() for g in stepping]
        # every ordered pair of a connected graph is found once; a graph's last step
        # finds none, so its bits are its sources and the pairs
        found = np.zeros(len(graphs), dtype=np.int64)
        for rows, g in zip(steps, stepping):
            found[g] += np.add.reduceat(rows, _offsets(sizes[g]))
        assert (found - sizes).tolist() == [6, 12, n * (n - 1), 2, 0]

    def test_union_adjacency_read_through_its_arrays_alone(self, budget, monkeypatch):
        # the properties read a union's CSR through indptr and indices, and cut
        # runs and finished graphs with graphs._cut_blocks, never by scipy indexing
        rng = np.random.default_rng(9)
        graphs = [complete_graph(3), make_graph(12, [(i, i + 1) for i in range(11)]),
                  random_graph(rng, n=9, feat_dim=1), make_graph(2, [])]
        graphs = union(graphs)
        want = {prop: [bits(v) for v in values]
                for prop, values in graph_properties(graphs).items()}
        a = graphs.adjacency
        graphs.adjacency = SimpleNamespace(indptr=a.indptr, indices=a.indices, data=a.data)

        def no_indexing(*args):
            raise AssertionError("scipy indexing")

        monkeypatch.setattr(sparse.csr_array, "__getitem__", no_indexing)
        assert {prop: [bits(v) for v in values]
                for prop, values in graph_properties(graphs).items()} == want


class TestWelch:
    def test_clearly_separated_samples(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 100)
        b = rng.normal(5.0, 1.0, 100)
        assert welch_p_value(a, b) < 1e-6

    def test_matches_incomplete_beta_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(0, 1, int(rng.integers(5, 40)))
            b = rng.normal(rng.uniform(-1, 1), 1.3, int(rng.integers(5, 40)))
            assert welch_p_value(a, b) == pytest.approx(welch_oracle(a, b), rel=1e-10)

    def test_identical_constant_samples(self):
        assert welch_p_value([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 1.0

    @pytest.mark.parametrize("a, b", [([1.0], [1.0, 2.0]), ([1.0, 2.0], [])])
    def test_fewer_than_two_observations_rejected(self, a, b):
        with pytest.raises(ArgumentError, match="^need at least two observations per sample$"):
            welch_p_value(a, b)

    @HYPOTHESIS
    @given(welch_samples())
    def test_bit_equal_to_scipy_ttest(self, samples):
        a, b = samples
        assert welch_p_value(a, b).hex() == scipy_welch(a, b).hex()


class TestPropertySignificance:
    @staticmethod
    def _dataset(rng, count=12):
        return Dataset("rand", union(random_graph(rng, n=8) for _ in range(count)))

    def test_identity_null_gives_p_one(self, monkeypatch):
        ds = self._dataset(np.random.default_rng(3))
        monkeypatch.setattr(properties, "_gnm_nulls", lambda graphs, seed: graphs)
        report = property_significance(ds, seed=0)
        for prop, stat in report.rows.items():
            if stat.p_value is not None:
                assert stat.p_value == pytest.approx(1.0)
                assert stat.real == pytest.approx(stat.random)

    def test_invariant_to_graph_order(self):
        rng = np.random.default_rng(9)
        graphs = [random_graph(rng, n=7) for _ in range(10)]
        fwd = property_significance(Dataset("a", union(graphs)), seed=4)
        rev = property_significance(Dataset("a", union(graphs[::-1])), seed=4)
        for prop in fwd.rows:
            assert fwd.rows[prop].real == pytest.approx(rev.rows[prop].real, abs=1e-12)
            assert fwd.rows[prop].random == pytest.approx(rev.rows[prop].random, abs=1e-12)
            if fwd.rows[prop].p_value is not None:
                assert fwd.rows[prop].p_value == pytest.approx(rev.rows[prop].p_value, abs=1e-12)

    def test_csv_rows(self, tmp_path):
        ds = self._dataset(np.random.default_rng(2))
        report = property_significance(ds, seed=1)
        out = tmp_path / "props.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "property,real,random,p_value"
        assert len(lines) == 5

    def test_mostly_undefined_property_flagged_not_computed(self, tmp_path):
        # cycles have constant degree, so kurtosis is undefined per graph
        # and for the pooled sequence
        cycles = [make_graph(n, [(i, (i + 1) % n) for i in range(n)])
                  for n in (4, 5, 6, 7)]
        report = property_significance(Dataset("cycles", union(cycles)), seed=0)
        stat = report.rows["degree_kurtosis"]
        assert stat.p_value is None
        out = tmp_path / "props.csv"
        report.write_csv(out)
        assert "not_computed" in out.read_text()


class TestPaperValues:
    """Published reference statistics; these need the real TU files on disk."""

    def test_enzymes_clustering_coefficient(self):
        from conftest import require_dataset
        ds = require_dataset("ENZYMES")
        mean_cc = np.mean(graph_properties(ds.graphs)["clustering_coefficient"])
        assert abs(mean_cc - 0.4516) <= 0.01

    def test_ptc_mr_average_shortest_path(self):
        from conftest import require_dataset
        ds = require_dataset("PTC_MR")
        paths = graph_properties(ds.graphs)["avg_shortest_path"]
        assert abs(np.nanmean(paths) - 3.36) <= 0.05
