import time

import numpy as np
import pytest
from hypothesis import given

from gcflsim.errors import ArgumentError, CorruptDatasetError, IngestionError
from gcflsim.graphs import (
    Dataset,
    Graph,
    binomial_gnp,
    decode_pair_index,
    erdos_renyi_gnm,
    load_tu_dataset,
)

from conftest import HYPOTHESIS, edge_set, make_graph, max_edges, small_graphs, write_tu_fixture


class TestGraphInvariants:
    def test_edges_canonicalized(self):
        g = make_graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ArgumentError):
            make_graph(3, [(0, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ArgumentError):
            make_graph(3, [(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ArgumentError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ArgumentError):
            Graph(3, np.array([[0, 1]]), np.ones((2, 1)), 0)

    def test_degrees_and_neighbors(self, star5):
        assert star5.degrees.tolist() == [5, 1, 1, 1, 1, 1]
        a = star5.adjacency
        assert a.indices[a.indptr[0]:a.indptr[1]].tolist() == [1, 2, 3, 4, 5]
        assert a.sum() == 10  # both directions

    @HYPOTHESIS
    @given(small_graphs())
    def test_adjacency_is_symmetric_sorted_csr(self, g):
        a = g.adjacency
        assert a.format == "csr" and a.shape == (g.num_nodes, g.num_nodes)
        assert a.dtype == np.float64 and np.all(a.data == 1.0)
        assert (a != a.T).nnz == 0
        assert np.all(a.diagonal() == 0)
        assert np.array_equal(np.diff(a.indptr), g.degrees)
        for v in range(g.num_nodes):
            row = a.indices[a.indptr[v]:a.indptr[v + 1]].tolist()
            assert row == sorted({u for e in edge_set(g) if v in e for u in e if u != v})


class TestDataset:
    def test_rejects_mixed_feature_dims(self):
        g1 = make_graph(2, [(0, 1)], feat_dim=2)
        g2 = make_graph(2, [(0, 1)], feat_dim=3)
        with pytest.raises(ArgumentError):
            Dataset("bad", [g1, g2])

    def test_num_classes_from_labels(self):
        graphs = [make_graph(2, [(0, 1)], label=l) for l in (0, 2, 1)]
        assert Dataset("d", graphs).num_classes == 3


class TestErdosRenyiGnm:
    def test_full_budget_gives_complete_graph(self):
        g = erdos_renyi_gnm(4, 6, seed=123)
        assert edge_set(g) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_zero_edges(self):
        assert erdos_renyi_gnm(5, 0, seed=1).num_edges == 0

    def test_deterministic_under_seed(self):
        a = erdos_renyi_gnm(10, 15, seed=7)
        b = erdos_renyi_gnm(10, 15, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_exact_edge_count_many(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(0, max_edges(n) + 1))
            g = erdos_renyi_gnm(n, m, int(rng.integers(2**31)))
            assert g.num_edges == m
            assert g.features.shape == (n, 1)

    def test_rejects_overfull(self):
        with pytest.raises(ArgumentError):
            erdos_renyi_gnm(4, 7, seed=0)

    def test_uniformity_smoke(self):
        # over many draws each of the 3 possible edges of a 3-node, 1-edge
        # graph should appear about equally often
        counts = {}
        for s in range(900):
            e = tuple(erdos_renyi_gnm(3, 1, s).edges[0])
            counts[e] = counts.get(e, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        assert all(200 < c < 400 for c in counts.values())

    @pytest.mark.parametrize("n, m", [(633, 199_000), (700, 230_000)])
    def test_large_vertex_sets(self, n, m):
        start = time.perf_counter()
        g = erdos_renyi_gnm(n, m, seed=5)
        elapsed = time.perf_counter() - start
        assert g.num_edges == m
        codes = g.edges[:, 0] * n + g.edges[:, 1]
        assert np.all(g.edges[:, 0] < g.edges[:, 1]) and np.all(np.diff(codes) > 0)
        assert np.array_equal(g.edges, erdos_renyi_gnm(n, m, seed=5).edges)
        assert elapsed < 1.0

    def test_binomial_gnp_matches_density(self):
        sizes = [binomial_gnp(30, 0.5, s).num_edges for s in range(30)]
        assert 150 < np.mean(sizes) < 280  # 435 * 0.5 = 217.5


def test_decode_pair_index_matches_enumeration():
    for n in range(2, 61):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rows, cols = decode_pair_index(np.arange(len(pairs)), n)
        assert list(zip(rows.tolist(), cols.tolist())) == pairs


class TestTuLoader:
    def test_roundtrip_fixture(self, tmp_path):
        root = write_tu_fixture(tmp_path, "TINY")
        ds = load_tu_dataset(root, "TINY")
        assert len(ds) == 3
        assert [g.num_nodes for g in ds.graphs] == [3, 3, 3]
        assert [g.num_edges for g in ds.graphs] == [3, 3, 2]
        # labels {-1, 1} remapped to 0-based contiguous
        assert [g.label for g in ds.graphs] == [1, 0, 1]
        # node labels {0,1,2} one-hot encoded
        assert ds.feat_dim == 3
        assert ds.graphs[0].features[0].tolist() == [1.0, 0.0, 0.0]

    def test_attributes_with_labels_appended(self, tmp_path):
        attrs = np.arange(18, dtype=float).reshape(9, 2)
        root = write_tu_fixture(tmp_path, "ATTR", node_attributes=attrs)
        ds = load_tu_dataset(root, "ATTR")
        assert ds.feat_dim == 5  # 2 attributes + 3 one-hot label columns
        assert ds.graphs[0].features[0, :2].tolist() == [0.0, 1.0]

    def test_constant_fallback_without_label_or_attr(self, tmp_path):
        root = write_tu_fixture(tmp_path, "BARE", omit=("node_labels",))
        ds = load_tu_dataset(root, "BARE")
        assert ds.feat_dim == 1
        assert np.all(ds.graphs[0].features == 1.0)

    def test_missing_mandatory_file_names_it(self, tmp_path):
        root = write_tu_fixture(tmp_path, "BROKEN", omit=("graph_labels",))
        with pytest.raises(IngestionError, match="BROKEN_graph_labels.txt"):
            load_tu_dataset(root, "BROKEN")

    def test_empty_directory_is_ingestion_error(self, tmp_path):
        with pytest.raises(IngestionError):
            load_tu_dataset(tmp_path, "NOPE")

    def test_out_of_range_node_is_corrupt(self, tmp_path):
        root = write_tu_fixture(tmp_path, "OOR")
        adj = root / "OOR" / "OOR_A.txt"
        adj.write_text(adj.read_text() + "1, 99\n")
        with pytest.raises(CorruptDatasetError):
            load_tu_dataset(root, "OOR")

    def test_cross_graph_edge_is_corrupt(self, tmp_path):
        root = write_tu_fixture(tmp_path, "XG")
        adj = root / "XG" / "XG_A.txt"
        adj.write_text(adj.read_text() + "1, 4\n")
        with pytest.raises(CorruptDatasetError):
            load_tu_dataset(root, "XG")

    def test_loaded_graphs_satisfy_invariants(self, tmp_path):
        root = write_tu_fixture(tmp_path, "INV")
        for g in load_tu_dataset(root, "INV").graphs:
            assert g.edges[:, 0].min() >= 0 and g.edges.max() < g.num_nodes
            lo, hi = g.edges[:, 0], g.edges[:, 1]
            assert np.all(lo < hi)
            assert len({tuple(e) for e in g.edges.tolist()}) == g.num_edges


class TestPublishedDatasetStatistics:
    """Size statistics of the real benchmark datasets (skipped without data)."""

    def test_mutag(self):
        from conftest import require_dataset
        ds = require_dataset("MUTAG")
        assert len(ds) == 188
        assert np.mean([g.num_nodes for g in ds.graphs]) == pytest.approx(17.93, abs=0.01)

    def test_ptc_mr(self):
        from conftest import require_dataset
        ds = require_dataset("PTC_MR")
        assert len(ds) == 344
        assert np.mean([g.num_nodes for g in ds.graphs]) == pytest.approx(14.29, abs=0.01)
