"""The graph container, TU-format ingestion and G(n,m) random nulls.

Graphs are simple and undirected. Every graph set, from one graph to a whole
dataset, is one ``GraphBatch``: the disjoint union of its graphs, whose
symmetric CSR adjacency holds every edge in both directions and whose dense
float64 feature matrix holds one row per node.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ArgumentError, CorruptDatasetError, IngestionError

logger = logging.getLogger(__name__)


def _is_canonical(edges: np.ndarray, num_nodes: int) -> bool:
    """Whether ``edges`` can be stored as they are: ``0 <= u < v < num_nodes`` and the keys
    ``u * num_nodes + v`` strictly increasing, which also proves the edges distinct."""
    if not len(edges):
        return True
    u, v = edges[:, 0], edges[:, 1]
    key = u * num_nodes + v
    return bool(u.min() >= 0 and v.max() < num_nodes and (u < v).all()
                and (key[1:] > key[:-1]).all())


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of a run of consecutive blocks of the given lengths starts."""
    return np.concatenate(([0], np.cumsum(counts)[:-1]))


@dataclass(eq=False)
class GraphBatch:
    """The disjoint union of graphs: the one container of a graph set, one graph or many.

    ``features`` stacks the node features in graph order, ``adjacency`` is one
    block-diagonal CSR array whose rows list their neighbours in increasing
    order, graph g owns the node rows ``starts[g]:starts[g] + sizes[g]`` and
    ``labels`` holds one class per graph. The GIN runs a batch as one pass over
    it and ``properties`` computes each property once per union. ``take`` cuts
    a sub-union out of it with index arrays; indexing or iterating it yields
    one-graph unions, cut the same way. Nothing writes to a union's arrays, so
    unions may share them.
    """

    features: np.ndarray  # (nodes, feat_dim) float64
    adjacency: sparse.csr_array
    sizes: np.ndarray  # nodes per graph
    labels: np.ndarray  # int64 class per graph
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.starts = _offsets(self.sizes)

    @classmethod
    def from_edges(cls, edges: np.ndarray, features: np.ndarray, sizes: np.ndarray,
                   labels: np.ndarray) -> "GraphBatch":
        """The union of graphs of ``sizes`` nodes whose undirected edges, in union rows, are
        ``edges``, each listed once (in any order) between distinct nodes. Every union is
        built here or cut from one built here."""
        n = len(features)
        # both directions of each edge as row-major keys: sorted, they are the CSR entries
        keys = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
        keys.sort()
        indptr = np.concatenate(([0], np.cumsum(np.bincount(edges.ravel(), minlength=n))))
        adjacency = sparse.csr_array(
            (np.ones(len(keys)), np.remainder(keys, n, out=keys), indptr), shape=(n, n))
        return cls(features, adjacency, sizes, labels)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, g: int) -> "GraphBatch":
        return self.take([g])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def num_nodes(self) -> int:
        return len(self.features)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.indptr[-1]) // 2

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Neighbours per node: the row lengths of ``adjacency``."""
        return np.diff(self.adjacency.indptr)

    @property
    def edge_counts(self) -> np.ndarray:
        """Edges per graph."""
        indptr = self.adjacency.indptr
        return (indptr[self.starts + self.sizes] - indptr[self.starts]) // 2

    @property
    def edges(self) -> np.ndarray:
        """Each edge once as a row ``(u, v)``, ``u < v``, sorted: the CSR's upper triangle."""
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        rows = np.repeat(np.arange(self.num_nodes), np.diff(indptr))
        upper = indices > rows
        return np.stack([rows[upper], indices[upper]], axis=1)

    @property
    def label(self) -> int:
        """The class of a one-graph union."""
        if len(self) != 1:
            raise ArgumentError(f"a union of {len(self)} graphs has no single label")
        return int(self.labels[0])

    def take(self, idx) -> "GraphBatch":
        """The graphs ``idx``, in that order and repeats kept, as the union of exactly those graphs.

        The CSR arrays equal those a union built from the same graphs' edges
        would hold (see ``_cut_blocks``).
        """
        idx = np.asarray(idx, dtype=np.intp)
        if not len(idx):
            raise ArgumentError("batch must be nonempty")
        nodes, adjacency = _cut_blocks(self.adjacency, self.sizes, self.starts, idx)
        return GraphBatch(self.features[nodes], adjacency, self.sizes[idx], self.labels[idx])


@dataclass(eq=False)
class Dataset:
    """A named graph set: one union whose graphs share one feature space and label set."""

    name: str
    graphs: GraphBatch

    def __post_init__(self):
        if not len(self.graphs):
            raise ArgumentError(f"dataset {self.name!r} is empty")
        if self.graphs.labels.min() < 0:
            raise ArgumentError("labels must be non-negative")

    @property
    def feat_dim(self) -> int:
        return self.graphs.feat_dim

    def __len__(self) -> int:
        return len(self.graphs)


def _cut_blocks(adjacency: sparse.csr_array, sizes: np.ndarray, starts: np.ndarray,
                idx: np.ndarray) -> tuple[np.ndarray, sparse.csr_array]:
    """Diagonal blocks ``idx`` of a block-diagonal CSR, in that order, as one such CSR.

    Block g holds the rows and columns ``starts[g]:starts[g] + sizes[g]``. Its
    rows' entries are one contiguous run of the arrays, so gathering whole
    blocks and shifting them keeps every row's neighbours in increasing order:
    no sort. Returns the old row of each new row, and the cut CSR. This is the
    one way a union is cut into whole graphs: ``GraphBatch.take`` (and so every
    one-graph view) and the property traversal all cut through here.
    """
    indptr = adjacency.indptr
    sizes, starts = sizes[idx], starts[idx]
    first = indptr[starts]  # each block's first entry
    entries = indptr[starts + sizes] - first
    node_shift = _offsets(sizes) - starts  # new minus old row, per block
    entry_shift = _offsets(entries) - first  # new minus old entry position, per block
    nodes = np.arange(int(sizes.sum())) - np.repeat(node_shift, sizes)
    nnz = int(entries.sum())
    new_indptr = np.append(indptr[nodes] + np.repeat(entry_shift, sizes), nnz)
    positions = np.arange(nnz) - np.repeat(entry_shift, entries)
    indices = adjacency.indices[positions] + np.repeat(node_shift, entries)
    return nodes, sparse.csr_array((adjacency.data[positions], indices, new_indptr),
                                   shape=(len(nodes), len(nodes)))


def erdos_renyi_gnm(n: int, m: int, seed: int) -> np.ndarray:
    """The edges of a uniform G(n, m) random graph: exactly m distinct undirected ones.

    Deterministic under ``seed``; canonical, as ``GraphBatch.edges`` gives them.
    """
    if n < 1:
        raise ArgumentError("n must be >= 1")
    max_m = n * (n - 1) // 2
    if m < 0 or m > max_m:
        raise ArgumentError(f"m={m} outside [0, {max_m}] for n={n}")
    rng = np.random.default_rng(seed)
    # numpy's choice without replacement stays O(m) in memory on any n
    chosen = np.sort(rng.choice(max_m, size=m, replace=False))
    edges = np.empty((m, 2), dtype=np.int64)
    edges[:, 0], edges[:, 1] = decode_pair_index(chosen, n)
    if not _is_canonical(edges, n):  # distinct sorted indices decode to canonical edges
        raise RuntimeError(f"G({n}, {m}) drew edges out of order")
    return edges


def decode_pair_index(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode flat indices k into the k-th pairs (u, v) of {(u, v): u < v < n}.

    Pairs are numbered in lexicographic order, so row u starts at
    first(u) = u * (2n - u - 1) / 2; the row of k is the last row start at or
    below k, found by a binary search over the n - 1 row starts in exact
    integer arithmetic.
    """
    k = np.asarray(k, dtype=np.int64)
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    first = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(first, k, side="right") - 1
    return u, k - first[u] + u + 1


def binomial_gnp(n: int, p: float, seed: int) -> np.ndarray:
    """The edges of a G(n, p)-distributed graph, realized as G(n, m) with binomial m."""
    if not 0.0 <= p <= 1.0:
        raise ArgumentError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(n * (n - 1) // 2, p))
    sub = int(rng.integers(2**32))
    return erdos_renyi_gnm(n, m, sub)


# ---------------------------------------------------------------------------
# TU text format ingestion
# ---------------------------------------------------------------------------


def load_tu_dataset(root_path: str | Path, name: str) -> Dataset:
    """Load a dataset in the public TU text layout from ``root_path``.

    Expects ``<name>_A.txt``, ``<name>_graph_indicator.txt`` and
    ``<name>_graph_labels.txt`` inside ``root_path`` (or ``root_path/<name>``),
    plus optional ``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``.
    Node ids in the files are 1-based and edges are listed in both directions.
    """
    root = Path(root_path)
    base = root / name if (root / name / f"{name}_A.txt").exists() else root

    def required(suffix: str) -> Path:
        p = base / f"{name}_{suffix}"
        if not p.exists():
            raise IngestionError(f"missing required file: {p}")
        return p

    adj_path = required("A.txt")
    indicator_path = required("graph_indicator.txt")
    labels_path = required("graph_labels.txt")

    graph_of_node = _read_labels(indicator_path) - 1
    num_nodes_total = len(graph_of_node)
    if num_nodes_total == 0:
        raise CorruptDatasetError(f"{indicator_path} is empty")
    if graph_of_node.min() < 0:
        raise CorruptDatasetError(f"{indicator_path}: graph ids must be 1-based")
    num_graphs = int(graph_of_node.max()) + 1
    raw_labels = _read_labels(labels_path)
    if len(raw_labels) != num_graphs:
        raise CorruptDatasetError(
            f"{labels_path}: {len(raw_labels)} labels for {num_graphs} graphs"
        )
    # 0-based contiguous class indices in sorted raw-label order
    classes, labels = np.unique(raw_labels, return_inverse=True)

    # nodes grouped by graph in file order: a node's row is its position in that
    # order, and its local index its rank within its graph
    node_counts = np.bincount(graph_of_node, minlength=num_graphs)
    if np.any(node_counts == 0):
        raise CorruptDatasetError(f"{indicator_path}: some graphs have no nodes")
    by_graph = np.argsort(graph_of_node, kind="stable")
    row = np.empty(num_nodes_total, dtype=np.int64)
    row[by_graph] = np.arange(num_nodes_total)

    pairs = _read_rows(adj_path, np.int64)
    if len(pairs) and pairs.shape[1] != 2:
        raise CorruptDatasetError(f"{adj_path}: edge lines must hold two node ids")
    pairs = np.sort(pairs.reshape(-1, 2), axis=1) - 1
    if len(pairs) and (pairs[:, 0].min() < 0 or pairs[:, 1].max() >= num_nodes_total):
        raise CorruptDatasetError(f"{adj_path}: node index out of range")
    # both directions of an edge share one key; a sorted key equal to the one
    # before it is a repeat
    keys = np.sort(pairs[:, 0] * num_nodes_total + pairs[:, 1])
    del pairs  # not kept alive while the union is built
    lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], num_nodes_total)
    crossing = np.flatnonzero(graph_of_node[lo] != graph_of_node[hi])
    if len(crossing):
        ga, gb = graph_of_node[[lo[crossing[0]], hi[crossing[0]]]] + 1
        raise CorruptDatasetError(f"{adj_path}: edge crosses graphs {ga} and {gb}")
    kept = lo != hi  # self-loops are dropped
    edges = np.stack([row[lo[kept]], row[hi[kept]]], axis=1)  # from_edges takes any order
    union = GraphBatch.from_edges(
        edges, _read_features(base, name, num_nodes_total)[by_graph], node_counts, labels)
    logger.info("loaded %s: %d graphs, feat_dim=%d, %d classes",
                name, num_graphs, union.feat_dim, len(classes))
    return Dataset(name, union)


def _read_features(base: Path, name: str, num_nodes: int) -> np.ndarray:
    """Attributes when present, one-hot node labels appended; constant fallback."""
    attr_path = base / f"{name}_node_attributes.txt"
    label_path = base / f"{name}_node_labels.txt"
    parts = []
    if attr_path.exists():
        attrs = _read_rows(attr_path)
        if len(attrs) != num_nodes:
            raise CorruptDatasetError(f"{attr_path}: {len(attrs)} rows for {num_nodes} nodes")
        if not np.isfinite(attrs).all():  # a nan would drop out of every histogram unseen
            raise CorruptDatasetError(f"{attr_path}: attributes must be finite numbers")
        parts.append(attrs)
    if label_path.exists():
        node_labels = _read_labels(label_path)
        if len(node_labels) != num_nodes:
            raise CorruptDatasetError(f"{label_path}: {len(node_labels)} rows for {num_nodes} nodes")
        values, index = np.unique(node_labels, return_inverse=True)
        onehot = np.zeros((num_nodes, len(values)), dtype=np.float64)
        onehot[np.arange(num_nodes), index] = 1.0
        parts.append(onehot)
    if not parts:
        return np.ones((num_nodes, 1), dtype=np.float64)
    return np.concatenate(parts, axis=1)


def _read_rows(path: Path, dtype=np.float64) -> np.ndarray:
    """The rows of a comma-separated TU file, whose blank and whitespace-only lines hold none.

    ``np.loadtxt``'s C reader parses the file and skips its empty lines. Only a
    file that it rejects or finds without data is read again, its non-blank
    lines streamed into ``np.loadtxt``: that pass drops whitespace-only lines,
    gives an empty array without a warning, and names the file in the error of
    a line that is malformed. A file that cannot be opened, such as a
    directory in its place, is corrupt too.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        pass
    except OSError as exc:
        raise CorruptDatasetError(f"{path}: {exc}") from exc
    with open(path) as fh:
        lines = filter(str.strip, fh)
        try:  # a line that does not decode raises UnicodeDecodeError, a ValueError
            first = next(lines, None)
            if first is None:  # loadtxt warns on empty input
                return np.empty((0, 1), dtype=dtype)
            return np.loadtxt(itertools.chain([first], lines), dtype=dtype, delimiter=",",
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise CorruptDatasetError(f"{path}: {exc}") from exc


def _read_labels(path: Path) -> np.ndarray:
    """First column of a TU id or label file as int64; ``1.0`` reads as ``int(float(x))`` does."""
    column = _read_rows(path)[:, 0]
    if not np.all(np.abs(column) < 2.0**63):  # also false for nan
        raise CorruptDatasetError(f"{path}: value is not a 64-bit integer")
    return column.astype(np.int64)
