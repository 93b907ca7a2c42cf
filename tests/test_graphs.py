import random
import re
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim.errors import ArgumentError, CorruptDatasetError, IngestionError
from gcflsim.graphs import (
    Dataset,
    _read_rows,
    binomial_gnp,
    decode_pair_index,
    erdos_renyi_gnm,
    load_tu_dataset,
)

from conftest import (
    HYPOTHESIS,
    assert_same_union,
    edge_set,
    make_graph,
    max_edges,
    one_graph,
    random_graph,
    small_graphs,
    union,
    write_tu_fixture,
)
from test_perfbench import write_tu_inputs


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

    @pytest.mark.parametrize("shape", [(2, 1), (4, 1), (3, 0), (3,)])
    def test_rejects_wrong_feature_shape(self, shape):
        with pytest.raises(ArgumentError):
            one_graph(3, np.array([[0, 1]]), np.ones(shape), 1)

    def test_rejects_no_nodes(self):
        with pytest.raises(ArgumentError):
            one_graph(0, [], np.ones((0, 1)))

    def test_features_stored_as_float64(self):
        g = one_graph(3, [(0, 1)], np.ones((3, 2), dtype=np.int64), 1)
        assert g.features.dtype == np.float64 and g.feat_dim == 2 and g.label == 1

    def test_other_features_keep_structure_and_label(self, star5):
        g = replace(star5, features=np.arange(12.0).reshape(6, 2))
        assert g.adjacency is star5.adjacency and g.label == star5.label
        assert g.feat_dim == 2 and star5.feat_dim == 1
        assert np.array_equal(g.degrees, star5.degrees) and np.array_equal(g.starts, [0])

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


    @HYPOTHESIS
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_edge_order_and_direction_do_not_matter(self, g, rnd):
        # canonical input keeps its order without a sort; any other order is sorted
        shuffled = [tuple(e)[::rnd.choice((1, -1))] for e in g.edges.tolist()]
        rnd.shuffle(shuffled)
        again = make_graph(g.num_nodes, shuffled)
        assert again.edges.dtype == g.edges.dtype and again.edges.flags.c_contiguous
        assert np.array_equal(again.edges, g.edges)
        assert np.array_equal(make_graph(g.num_nodes, g.edges).edges, g.edges)
        if len(shuffled):
            with pytest.raises(ArgumentError):
                make_graph(g.num_nodes, shuffled + [shuffled[0][::-1]])

    @HYPOTHESIS
    @given(small_graphs(), st.randoms(use_true_random=False), st.booleans(), st.booleans(),
           st.sampled_from([None, "duplicate", "self-loop", "out-of-range", "negative"]))
    def test_construction_equals_normalising_first(self, g, rnd, shuffle, reverse, fault):
        n, pairs = g.num_nodes, [tuple(e) for e in g.edges.tolist()]
        if reverse:
            pairs = [p[::rnd.choice((1, -1))] for p in pairs]
        if shuffle:
            rnd.shuffle(pairs)
        bad = {None: None,
               "duplicate": pairs and rnd.choice(pairs)[::rnd.choice((1, -1))],
               "self-loop": (rnd.randrange(n),) * 2,
               "out-of-range": (rnd.randrange(n), n + rnd.randrange(3)),
               "negative": (rnd.choice((-1, -n, -2**62)), rnd.randrange(n))}[fault]
        if bad:
            pairs.insert(rnd.randint(0, len(pairs)), bad[::rnd.choice((1, -1))])
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        try:
            want = normalised_edges(n, pairs)
        except ArgumentError as exc:
            with pytest.raises(ArgumentError, match=f"^{re.escape(str(exc))}$"):
                make_graph(n, edges)
            return
        got = one_graph(n, edges, np.ones((n, 1)))
        # the oracle: normalise first, then construct from the canonical list
        oracle = make_graph(n, np.array(want, dtype=np.int64).reshape(-1, 2))
        assert got.edges.dtype == np.int64 and got.edges.flags.c_contiguous
        assert got.edges.tolist() == oracle.edges.tolist() == [list(p) for p in want]
        # the graph owns its edges, canonical input included
        edges += 1
        assert got.edges.tolist() == [list(p) for p in want]


def normalised_edges(num_nodes, pairs):
    """Each pair as (min, max), sorted; the constructor's errors, checked in its order."""
    ends = [x for p in pairs for x in p]
    if ends and (min(ends) < 0 or max(ends) >= num_nodes):
        raise ArgumentError("edge endpoint out of range")
    if any(u == v for u, v in pairs):
        raise ArgumentError("self-loops are not allowed")
    keys = sorted((min(p), max(p)) for p in pairs)
    if len(set(keys)) < len(keys):
        raise ArgumentError("duplicate undirected edges are not allowed")
    return keys


class TestGraphBatch:
    @HYPOTHESIS
    @given(st.lists(small_graphs(), min_size=1, max_size=6))
    def test_union_blocks_are_the_graphs_adjacencies(self, graphs):
        graphs = [make_graph(g.num_nodes, g.edges, label=i % 3) for i, g in enumerate(graphs)]
        u = union(graphs)
        assert np.array_equal(u.sizes, [g.num_nodes for g in graphs])
        for g, start in zip(graphs, u.starts):
            block = u.adjacency[start:start + g.num_nodes, start:start + g.num_nodes]
            assert (block != g.adjacency).nnz == 0
        assert u.adjacency.nnz == sum(g.adjacency.nnz for g in graphs)
        assert u.edge_counts.tolist() == [g.num_edges for g in graphs]
        assert (u.num_nodes, u.num_edges) == (sum(g.num_nodes for g in graphs),
                                              sum(g.num_edges for g in graphs))
        # indexing or iterating the union gives back each graph, array for array
        assert len(list(u)) == len(graphs)
        for i, (g, view) in enumerate(zip(graphs, u, strict=True)):
            assert_same_union(view, g)
            assert_same_union(u[i], g)
            for a, b in ((view.edges, g.edges), (view.degrees, g.degrees)):
                assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
            assert (view.num_nodes, view.num_edges, view.feat_dim, view.label) == \
                (g.num_nodes, g.num_edges, g.feat_dim, g.label)

    def test_label_needs_one_graph(self, triangle, path3):
        with pytest.raises(ArgumentError):
            union([triangle, path3]).label


class TestDataset:
    def test_rejects_negative_labels(self):
        with pytest.raises(ArgumentError):
            Dataset("bad", union([make_graph(2, [(0, 1)]), make_graph(2, [], label=-1)]))

    def test_size_width_and_labels(self):
        graphs = [make_graph(2, [(0, 1)], label=l) for l in (0, 2, 1)]
        ds = Dataset("d", union(graphs))
        assert len(ds) == 3 and ds.feat_dim == 1 and ds.graphs.labels.tolist() == [0, 2, 1]


class TestErdosRenyiGnm:
    def test_full_budget_gives_complete_graph(self):
        edges = erdos_renyi_gnm(4, 6, seed=123)
        assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_zero_edges(self):
        assert erdos_renyi_gnm(5, 0, seed=1).shape == (0, 2)

    def test_deterministic_under_seed(self):
        a = erdos_renyi_gnm(10, 15, seed=7)
        b = erdos_renyi_gnm(10, 15, seed=7)
        assert np.array_equal(a, b)

    def test_exact_edge_count_many(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(0, max_edges(n) + 1))
            edges = erdos_renyi_gnm(n, m, int(rng.integers(2**31)))
            assert edges.shape == (m, 2) and edges.dtype == np.int64

    def test_rejects_overfull(self):
        with pytest.raises(ArgumentError):
            erdos_renyi_gnm(4, 7, seed=0)

    def test_uniformity_smoke(self):
        # over many draws each of the 3 possible edges of a 3-node, 1-edge
        # graph should appear about equally often
        counts = {}
        for s in range(900):
            e = tuple(erdos_renyi_gnm(3, 1, s)[0].tolist())
            counts[e] = counts.get(e, 0) + 1
        assert set(counts) == {(0, 1), (0, 2), (1, 2)}
        assert all(200 < c < 400 for c in counts.values())

    @pytest.mark.parametrize("n, m", [(633, 199_000), (700, 230_000)])
    def test_large_vertex_sets(self, n, m):
        start = time.perf_counter()
        edges = erdos_renyi_gnm(n, m, seed=5)
        elapsed = time.perf_counter() - start
        assert len(edges) == m
        codes = edges[:, 0] * n + edges[:, 1]
        assert np.all(edges[:, 0] < edges[:, 1]) and np.all(np.diff(codes) > 0)
        assert np.array_equal(edges, erdos_renyi_gnm(n, m, seed=5))
        assert elapsed < 1.0

    def test_binomial_gnp_matches_density(self):
        sizes = [len(binomial_gnp(30, 0.5, s)) for s in range(30)]
        assert 150 < np.mean(sizes) < 280  # 435 * 0.5 = 217.5


def test_decode_pair_index_matches_enumeration():
    for n in range(2, 61):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rows, cols = decode_pair_index(np.arange(len(pairs)), n)
        assert list(zip(rows.tolist(), cols.tolist())) == pairs


def sqrt_decode_pair_index(k, n):
    """The floating-point decoder that the integer search replaced (the reference):
    the floored smaller root of first(u) = k, corrected by one integer step each way."""
    k = np.asarray(k, dtype=np.int64)

    def first(u):
        return u * (2 * n - u - 1) // 2

    b = 2 * n - 1
    u = np.floor((b - np.sqrt(float(b) * b - 8.0 * k)) / 2).astype(np.int64)
    u -= first(u) > k
    u += first(u + 1) <= k
    return u, k - first(u) + u + 1


@HYPOTHESIS
@given(st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, max_edges(n)))),
       st.integers(0, 2**63 - 1))
def test_gnm_equals_construction_from_the_reference_decoder(n_m, seed):
    n, m = n_m
    chosen = np.random.default_rng(seed).choice(max_edges(n), size=m, replace=False)
    rows, cols = sqrt_decode_pair_index(chosen, n)
    # the oracle: normalise first, then construct from the canonical list
    pairs = normalised_edges(n, list(zip(rows.tolist(), cols.tolist())))
    want = one_graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.ones((n, 1)), 0).edges
    got = erdos_renyi_gnm(n, m, seed)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 80, 501, 2501, 65_537, 10**6])
def test_decode_pair_index_at_row_boundaries(n):
    # every row of the small sets; the first and last rows and a sample of the others
    # of the large ones
    rows = np.arange(n - 1) if n <= 2501 else np.unique(np.concatenate(
        ([0, 1, n - 3, n - 2], np.random.default_rng(n).integers(n - 1, size=2000))))
    first = np.array([u * (2 * n - u - 1) // 2 for u in rows.tolist()])  # in Python integers
    u, v = decode_pair_index(first, n)
    assert u.tolist() == rows.tolist() and v.tolist() == (rows + 1).tolist()
    u, v = decode_pair_index(first[1:] - 1, n)  # the last pair of the row before
    assert u.tolist() == (rows[1:] - 1).tolist() and v.tolist() == [n - 1] * (len(rows) - 1)
    k = np.concatenate((first, first[1:] - 1, [max_edges(n) - 1]))
    u, v = decode_pair_index(k, n)
    assert (u[-1], v[-1]) == (n - 2, n - 1)
    assert all(np.array_equal(a, b) for a, b in zip((u, v), sqrt_decode_pair_index(k, n)))


@pytest.mark.parametrize("n", [0, 1])
def test_random_graph_helper_needs_room_for_an_edge(n):
    # it draws until the graph has an edge, which fewer than 2 nodes never have
    with pytest.raises(ValueError, match="at least 2 nodes"):
        random_graph(np.random.default_rng(0), n=n)
    assert edge_set(random_graph(np.random.default_rng(0), n=2)) == {(0, 1)}


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


def reference_load_tu_dataset(root_path, name):
    """The line-by-line TU loader that the array reader replaced (the reference)."""
    root = Path(root_path)
    base = root / name if (root / name / f"{name}_A.txt").exists() else root

    def required(suffix):
        p = base / f"{name}_{suffix}"
        if not p.exists():
            raise IngestionError(f"missing required file: {p}")
        return p

    adj_path = required("A.txt")
    indicator_path = required("graph_indicator.txt")
    labels_path = required("graph_labels.txt")

    graph_of_node = _reference_read_int_column(indicator_path)
    num_nodes_total = len(graph_of_node)
    if num_nodes_total == 0:
        raise CorruptDatasetError(f"{indicator_path} is empty")

    raw_labels = _reference_read_int_column(labels_path)
    num_graphs = max(graph_of_node)
    if min(graph_of_node) < 1:
        raise CorruptDatasetError(f"{indicator_path}: graph ids must be 1-based")
    if len(raw_labels) != num_graphs:
        raise CorruptDatasetError(
            f"{labels_path}: {len(raw_labels)} labels for {num_graphs} graphs"
        )

    label_map = {lab: i for i, lab in enumerate(sorted(set(raw_labels)))}
    labels = [label_map[lab] for lab in raw_labels]

    local_index = np.zeros(num_nodes_total, dtype=np.int64)
    node_counts = np.zeros(num_graphs, dtype=np.int64)
    for nid, gid in enumerate(graph_of_node):
        local_index[nid] = node_counts[gid - 1]
        node_counts[gid - 1] += 1
    if np.any(node_counts == 0):
        raise CorruptDatasetError(f"{indicator_path}: some graphs have no nodes")

    edge_sets = [set() for _ in range(num_graphs)]
    with open(adj_path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                a_str, b_str = line.split(",")
                a, b = int(a_str), int(b_str)
            except ValueError as exc:
                raise CorruptDatasetError(f"{adj_path}:{line_no}: bad edge line {line!r}") from exc
            if not (1 <= a <= num_nodes_total and 1 <= b <= num_nodes_total):
                raise CorruptDatasetError(f"{adj_path}:{line_no}: node index out of range")
            ga, gb = graph_of_node[a - 1], graph_of_node[b - 1]
            if ga != gb:
                raise CorruptDatasetError(f"{adj_path}:{line_no}: edge crosses graphs {ga} and {gb}")
            if a == b:
                continue
            u, v = int(local_index[a - 1]), int(local_index[b - 1])
            edge_sets[ga - 1].add((min(u, v), max(u, v)))

    features = _reference_node_features(base, name, num_nodes_total)

    graphs = []
    by_graph = np.argsort(np.asarray(graph_of_node), kind="stable")
    node_rows = np.split(by_graph, np.cumsum(node_counts)[:-1])
    for gi in range(num_graphs):
        edges = np.array(sorted(edge_sets[gi]), dtype=np.int64).reshape(-1, 2)
        graphs.append(one_graph(int(node_counts[gi]), edges, features[node_rows[gi]], labels[gi]))
    return Dataset(name, union(graphs))


def _reference_node_features(base, name, num_nodes):
    attr_path = base / f"{name}_node_attributes.txt"
    label_path = base / f"{name}_node_labels.txt"
    parts = []
    if attr_path.exists():
        attrs = _reference_read_float_matrix(attr_path)
        if len(attrs) != num_nodes:
            raise CorruptDatasetError(f"{attr_path}: {len(attrs)} rows for {num_nodes} nodes")
        parts.append(attrs)
    if label_path.exists():
        node_labels = _reference_read_int_column(label_path)
        if len(node_labels) != num_nodes:
            raise CorruptDatasetError(f"{label_path}: {len(node_labels)} rows for {num_nodes} nodes")
        values = sorted(set(node_labels))
        index = {v: i for i, v in enumerate(values)}
        onehot = np.zeros((num_nodes, len(values)), dtype=np.float64)
        onehot[np.arange(num_nodes), [index[v] for v in node_labels]] = 1.0
        parts.append(onehot)
    if not parts:
        return np.ones((num_nodes, 1), dtype=np.float64)
    return np.concatenate(parts, axis=1)


def _reference_read_int_column(path):
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(float(line.split(",")[0])))
            except ValueError as exc:
                raise CorruptDatasetError(f"{path}:{line_no}: bad integer {line!r}") from exc
    return out


def _reference_read_float_matrix(path):
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise CorruptDatasetError(f"{path}:{line_no}: bad float row {line!r}") from exc
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise CorruptDatasetError(f"{path}: ragged attribute rows")
    return np.asarray(rows, dtype=np.float64)


def assert_same_dataset(got, want):
    """Same unions, byte for byte: CSR, features, node counts and labels with dtypes."""
    assert got.name == want.name and len(got) == len(want)
    assert got.feat_dim == want.feat_dim
    assert_same_union(got.graphs, want.graphs)


@st.composite
def tu_datasets(draw):
    """Graphs with raw labels and optional raw node labels, and a seeded shuffle."""
    graphs = draw(st.lists(small_graphs(max_nodes=7), min_size=1, max_size=5))
    labels = draw(st.lists(st.integers(-2, 3), min_size=len(graphs), max_size=len(graphs)))
    node_labels = None
    if draw(st.booleans()):
        total = sum(g.num_nodes for g in graphs)
        node_labels = draw(st.lists(st.integers(0, 4), min_size=total, max_size=total))
    return graphs, labels, node_labels, draw(st.randoms(use_true_random=False))


def write_shuffled_tu(base, name, graphs, labels, node_labels, rnd):
    """Write graphs in the TU layout the way messy published files look.

    Each graph keeps its node order, but the graphs' nodes are interleaved in
    the indicator file. Every edge is listed in both directions and the edge
    lines are shuffled, with one duplicated edge line, one self-loop line and
    blank and whitespace-only lines mixed in. Returns the path's parent.
    """
    base.mkdir(parents=True, exist_ok=True)
    slots = [gi for gi, g in enumerate(graphs) for _ in range(g.num_nodes)]
    rnd.shuffle(slots)
    nodes = []  # (graph, local node) at each 1-based global id
    for gi in slots:
        nodes.append((gi, sum(1 for owner, _ in nodes if owner == gi)))
    global_id = {node: pos for pos, node in enumerate(nodes, 1)}
    lines = [f"{global_id[gi, u]}, {global_id[gi, v]}"
             for gi, g in enumerate(graphs) for a, b in g.edges.tolist()
             for u, v in ((a, b), (b, a))]
    if lines:
        lines.append(rnd.choice(lines))
    lines += [f"{global_id[0, 0]},{global_id[0, 0]}", "", "   ", "\t"]
    rnd.shuffle(lines)

    def write(suffix, rows):
        (base / f"{name}_{suffix}.txt").write_text("\n".join(rows + ["", "  "]) + "\n")

    write("A", lines)
    write("graph_indicator", [str(gi + 1) for gi in slots])
    write("graph_labels", [f"{lab}.0" if k % 2 else str(lab) for k, lab in enumerate(labels)])
    if node_labels is not None:
        offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
        write("node_labels", [str(node_labels[offsets[gi] + k]) for gi, k in nodes])
    return base.parent


class TestTuLoaderAgainstReference:
    @HYPOTHESIS
    @given(tu_datasets())
    def test_shuffled_roundtrip(self, drawn):
        graphs, labels, node_labels, rnd = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = write_shuffled_tu(Path(tmp) / "RT", "RT", graphs, labels, node_labels, rnd)
            ds = load_tu_dataset(root, "RT")
            assert [edge_set(g) for g in ds.graphs] == [edge_set(g) for g in graphs]
            assert [g.num_nodes for g in ds.graphs] == [g.num_nodes for g in graphs]
            assert_same_dataset(ds, reference_load_tu_dataset(root, "RT"))

    @pytest.mark.parametrize("text", [b"", b"\n\n", b" \n\t\n", b"\r\n  \r\n"])
    def test_edgeless_set_loads_without_warning(self, tmp_path, text):
        graphs = [make_graph(n, []) for n in (1, 3, 2)]
        root = write_shuffled_tu(tmp_path / "EMPTY", "EMPTY", graphs, [0, 1, 0], None,
                                 random.Random(0))
        (root / "EMPTY" / "EMPTY_A.txt").write_bytes(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _read_rows(root / "EMPTY" / "EMPTY_A.txt", np.int64)
        assert rows.shape == (0, 1) and rows.dtype == np.int64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_tu_dataset(root, "EMPTY")
        assert [g.num_edges for g in ds.graphs] == [0, 0, 0]
        assert_same_dataset(ds, reference_load_tu_dataset(root, "EMPTY"))

    @pytest.mark.parametrize("attrs", [None, np.arange(18, dtype=float).reshape(9, 2) / 7])
    def test_fixture(self, tmp_path, attrs):
        root = write_tu_fixture(tmp_path, "FIX", node_attributes=attrs)
        assert_same_dataset(load_tu_dataset(root, "FIX"), reference_load_tu_dataset(root, "FIX"))

    @pytest.mark.parametrize("suffix, text", [
        ("graph_indicator", ""),
        ("graph_indicator", "0\n1\n1\n2\n2\n2\n3\n3\n3\n"),
        ("graph_indicator", "1\n1\n1\n3\n3\n3\n4\n4\n4\n"),
        ("graph_indicator", "1\n1\n1\n2\n2\n2\n3\n3\nnan\n"),
        ("graph_labels", "1\n-1\n"),
        ("graph_labels", "1\n-1\none\n"),
        ("A", "1, 2\n2, x\n"),
        ("A", "1, 2, 3\n"),
        ("A", "1.0, 2\n"),
        ("A", "1, 2\n1, 99\n"),
        ("A", "0, 1\n"),
        ("A", "1, 4\n"),
        ("node_labels", "0\n1\n"),
        ("node_attributes", "1.0, 2.0\n" * 8),
        ("node_attributes", "1.0, 2.0\n" * 8 + "1.0\n"),
        ("node_attributes", ""),
    ])
    def test_corrupt_files_raise_corrupt_dataset_error(self, tmp_path, suffix, text):
        root = write_tu_fixture(tmp_path, "BAD")
        (root / "BAD" / f"BAD_{suffix}.txt").write_text(text)
        for loader in (load_tu_dataset, reference_load_tu_dataset):
            with pytest.raises(CorruptDatasetError):
                loader(root, "BAD")

    @pytest.mark.parametrize("layout", ["crlf", "whitespace line", "no final newline"])
    def test_line_layouts_read_as_plain_lines(self, tmp_path, layout):
        plain = load_tu_dataset(write_tu_fixture(tmp_path / "plain", "FIX"), "FIX")
        root = write_tu_fixture(tmp_path / "edited", "FIX")
        for path in (root / "FIX").iterdir():  # the edge list and every id and label file
            lines = path.read_text().splitlines()
            text = {"crlf": "\r\n".join(lines) + "\r\n",
                    "whitespace line": "\n".join(lines[:2] + [" \t "] + lines[2:]) + "\n",
                    "no final newline": "\n".join(lines)}[layout]
            path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_dataset(load_tu_dataset(root, "FIX"), plain)

    @pytest.mark.parametrize("suffix, text", [
        ("A", "1, 2\n2, x\n"),
        ("A", "1, 2\n  \n2; 3\n"),
        ("graph_indicator", "1\n1\n1\n2\n\t\n2\n2\n3\n3\n3x\n"),
        ("node_attributes", "1.0, 2.0\n" * 8 + "1.0, a\n"),
        ("node_attributes", "1.0, 2.0\n" * 8 + "nan, 2.0\n"),
        ("node_attributes", "1.0, 2.0\n" * 4 + "1.0, inf\n" + "1.0, 2.0\n" * 4),
        ("node_attributes", "1.0, 2.0\n" * 8 + "-inf, 2.0\n"),
    ])
    def test_malformed_line_names_its_file(self, tmp_path, suffix, text):
        root = write_tu_fixture(tmp_path, "BAD")
        (root / "BAD" / f"BAD_{suffix}.txt").write_text(text)
        with pytest.raises(CorruptDatasetError, match=f"BAD_{suffix}.txt"):
            load_tu_dataset(root, "BAD")

    def test_benchmark_sets(self, tmp_path):
        write_tu_inputs(tmp_path, 1)
        for name in ("MOL-SYNTH", "IMDB-BINARY"):
            ds = load_tu_dataset(tmp_path, name)
            assert_same_dataset(ds, reference_load_tu_dataset(tmp_path, name))
            # the union of the same graphs, each built through the validating constructor
            assert_same_union(ds.graphs, union(one_graph(g.num_nodes, g.edges, g.features, g.label)
                                               for g in ds.graphs))


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
