"""Shared fixtures: canonical small graphs, a synthetic TU-format tree, and
gating on the optional real TU benchmark datasets."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gcflsim.graphs import Dataset, Graph, load_tu_dataset

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


def make_graph(num_nodes, edges, feat_dim=1, label=0, features=None):
    if features is None:
        features = np.ones((num_nodes, feat_dim))
    return Graph(num_nodes, np.array(edges, dtype=np.int64).reshape(-1, 2), features, label)


def assert_same_fields(got, want):
    """The same instance attributes, arrays equal in dtype, shape and bytes."""
    assert set(vars(got)) == set(vars(want)) == {"num_nodes", "edges", "features", "label"}
    assert type(got.num_nodes) is type(want.num_nodes) and got.num_nodes == want.num_nodes
    assert type(got.label) is type(want.label) and got.label == want.label
    for a, b in ((got.edges, want.edges), (got.features, want.features)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    return Graph(n, edges, rng.standard_normal((n, feat_dim)), int(rng.integers(2)))


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
