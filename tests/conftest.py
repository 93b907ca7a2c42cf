"""Shared fixtures: canonical small graphs, a synthetic TU-format tree, and
gating on the optional real TU benchmark datasets."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gcflsim.errors import ArgumentError
from gcflsim.graphs import Dataset, GraphBatch, _is_canonical, load_tu_dataset
from gcflsim.hetero import GraphEmbeddings

DATA_ENV = "GCFL_DATA_ROOT"


def data_root() -> Path:
    return Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parent.parent / "data"))


def require_dataset(name: str) -> Dataset:
    """Load a real TU dataset or skip the test when it is not on disk."""
    root = data_root()
    marker = root / name / f"{name}_A.txt"
    flat = root / f"{name}_A.txt"
    if not marker.exists() and not flat.exists():
        pytest.skip(
            f"TU dataset {name} not found under {root} "
            f"(set ${DATA_ENV} to a directory holding the published TU files)"
        )
    return load_tu_dataset(root, name)


def client_embeddings(clients, awe_length=4, seed=0):
    """The store a seed's heterogeneity reports read: each client's training then test
    unions under its id, 20 bins."""
    return GraphEmbeddings({c.id: [c.train_graphs, c.test_graphs] for c in clients},
                           awe_length, 20, seed)


def _canonical_edges(edges, num_nodes):
    """Each edge of ``edges`` as ``(u, v)`` with ``u < v``, sorted by ``(u, v)``.

    Raises ``ArgumentError`` on an endpoint out of range, a self-loop or an
    edge listed twice in either direction.
    """
    if edges.min() < 0 or edges.max() >= num_nodes:
        raise ArgumentError("edge endpoint out of range")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if np.any(lo == hi):
        raise ArgumentError("self-loops are not allowed")
    key = np.sort(lo * num_nodes + hi)
    if np.any(key[1:] == key[:-1]):
        raise ArgumentError("duplicate undirected edges are not allowed")
    lo, hi = np.divmod(key, num_nodes)
    return np.stack([lo, hi], axis=1)


def _node_features(features, num_nodes):
    """``features`` as float64, checked to hold one row per node and at least one column."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise ArgumentError(f"features must have {num_nodes} rows, got shape {features.shape}")
    if features.shape[1] < 1:
        raise ArgumentError("feat_dim must be >= 1")
    return features


def one_graph(num_nodes, edges, features, label=0):
    """The one-graph union of ``num_nodes`` nodes, undirected ``edges``, ``features`` and
    ``label``: the validating constructor the tests build their graphs with.

    Edges may come in any order and either direction; the graph gets its own
    copy. Raises ``ArgumentError`` on no nodes, an endpoint out of range, a
    self-loop, an edge listed twice, or features that are not one row per node
    and at least one column.
    """
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if num_nodes < 1:
        raise ArgumentError("graph must have at least one node")
    features = _node_features(features, num_nodes)
    if not _is_canonical(edges, num_nodes):
        edges = _canonical_edges(edges, num_nodes)
    return GraphBatch.from_edges(edges, features, np.array([num_nodes]),
                                 np.array([label], dtype=np.int64))


def make_graph(num_nodes, edges, feat_dim=1, label=0, features=None):
    if features is None:
        features = np.ones((num_nodes, feat_dim))
    return one_graph(num_nodes, np.array(edges, dtype=np.int64).reshape(-1, 2), features, label)


def with_features(graph, features):
    """The one-graph union ``graph`` with other node features, built by the validating
    constructor."""
    return one_graph(graph.num_nodes, graph.edges, features, graph.label)


def union(graphs):
    """The union of ``graphs`` (unions themselves), in order: their edges and features
    stacked through the validating constructor, then sized and labelled per graph."""
    graphs = list(graphs)
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    whole = one_graph(int(offsets[-1]),
                      np.concatenate([g.edges + o for g, o in zip(graphs, offsets)]),
                      np.concatenate([g.features for g in graphs]))
    return replace(whole, sizes=np.concatenate([g.sizes for g in graphs]),
                   labels=np.concatenate([g.labels for g in graphs]))


def labelled(graphs, labels):
    """The union of ``graphs`` carrying ``labels`` in place of their own."""
    return replace(union(graphs), labels=np.asarray(labels, dtype=np.int64))


def assert_same_union(got, want):
    """The same graphs, arrays equal in dtype, shape and bytes: CSR, features, sizes, labels."""
    a, b = got.adjacency, want.adjacency
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data),
                 (got.features, want.features), (got.sizes, want.sizes),
                 (got.labels, want.labels), (got.starts, want.starts)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.shape == b.shape and a.has_sorted_indices and b.has_sorted_indices


def edge_set(graph):
    return {(int(u), int(v)) for u, v in graph.edges}


def complete_graph(n):
    """K_n with a constant feature column."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(n, edges)


def max_edges(n):
    return n * (n - 1) // 2


# property-based tests run the same examples on every run and keep no state
HYPOTHESIS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def small_graphs(draw, max_nodes=10):
    """Any simple graph on 1..max_nodes nodes: each possible edge in or out."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, k in zip(pairs, keep) if k])


@pytest.fixture
def triangle():
    return make_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star5():
    return make_graph(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def single_edge():
    return make_graph(2, [(0, 1)])


def random_graph(rng, n=None, p=0.4, feat_dim=3):
    """Random simple graph with at least one edge and random features."""
    n = int(rng.integers(3, 10)) if n is None else n
    if n < 2:
        raise ValueError(f"a graph with an edge needs at least 2 nodes, got {n}")
    while True:
        mask = np.triu(rng.uniform(size=(n, n)) < p, 1)
        edges = np.argwhere(mask)
        if len(edges):
            break
    return one_graph(n, edges, rng.standard_normal((n, feat_dim)), int(rng.integers(2)))


TU_FIXTURE = {
    # two triangles and one path, labels {-1, 1}, node labels {0, 1, 2}
    "A": [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1),
          (4, 5), (5, 4), (5, 6), (6, 5), (4, 6), (6, 4),
          (7, 8), (8, 7), (8, 9), (9, 8)],
    "graph_indicator": [1, 1, 1, 2, 2, 2, 3, 3, 3],
    "graph_labels": [1, -1, 1],
    "node_labels": [0, 1, 2, 0, 0, 1, 2, 2, 1],
}


def write_tu_fixture(root: Path, name: str, node_attributes=None, omit=()):
    """Write a tiny dataset in the public TU text layout."""
    base = root / name
    base.mkdir(parents=True, exist_ok=True)
    if "A" not in omit:
        (base / f"{name}_A.txt").write_text(
            "\n".join(f"{u}, {v}" for u, v in TU_FIXTURE["A"]) + "\n")
    if "graph_indicator" not in omit:
        (base / f"{name}_graph_indicator.txt").write_text(
            "\n".join(str(g) for g in TU_FIXTURE["graph_indicator"]) + "\n")
    if "graph_labels" not in omit:
        (base / f"{name}_graph_labels.txt").write_text(
            "\n".join(str(l) for l in TU_FIXTURE["graph_labels"]) + "\n")
    if "node_labels" not in omit:
        (base / f"{name}_node_labels.txt").write_text(
            "\n".join(str(l) for l in TU_FIXTURE["node_labels"]) + "\n")
    if node_attributes is not None:
        (base / f"{name}_node_attributes.txt").write_text(
            "\n".join(", ".join(f"{x:.6f}" for x in row) for row in node_attributes) + "\n")
    return base.parent
