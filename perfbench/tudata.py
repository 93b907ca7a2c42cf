"""Seeded generator of TU-format graph datasets shaped like two published sets.

``MOL-SYNTH`` follows MUTAG's summary: 188 connected graphs of ~17.9 nodes and
~19.8 edges, 7 node labels, 2 classes (125/63). The graphs are trees with a
few ring-closing edges and at most four bonds per atom.

``IMDB-BINARY`` follows the summary of the set of that name: 1000 graphs of
~19.8 nodes and ~96.5 edges, no node labels, 2 balanced classes. Each graph
starts as a regular circulant graph of degree 9 or 10 (every node linked to
its nearest neighbours on a ring), is rewired by degree-preserving edge swaps
(few for class 0, which keeps many triangles; many for class 1) and loses a
few random edges, so that degrees differ within a graph. At these sizes a
regular graph has at most 200 000 walks of length 4, the program's budget for
exact anonymous-walk enumeration, and removing edges only lowers the count, so
every graph of the set takes the exact path. The set carries the published
name because ``harness.DEGREE_FEATURE_DATASETS`` gives exactly the social set
names one-hot degree features; under any other name its node features would
be one constant column and every feature histogram the same.

The same seed writes byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MOLECULE_SET = "MOL-SYNTH"
SOCIAL_SET = "IMDB-BINARY"

MOL_GRAPHS = 188
MOL_POSITIVE = 125
MOL_ATOM_PROBS = (0.72, 0.07, 0.15, 0.01, 0.01, 0.03, 0.01)  # C N O F I Cl Br
SOCIAL_GRAPHS = 300
SOCIAL_SIZES = (18, 19, 20, 22, 24)
SOCIAL_SIZE_PROBS = (0.2, 0.25, 0.35, 0.1, 0.1)

_MOL_TAG = 5101
_SOCIAL_TAG = 5103


def _molecule(rng: np.random.Generator) -> tuple[int, set[tuple[int, int]]]:
    n = 10 + int(rng.binomial(18, 0.44))
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        open_atoms = [u for u in range(v) if degree[u] < 3]
        u = open_atoms[int(rng.integers(len(open_atoms)))]
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    rings = 1 + int(rng.binomial(3, 0.63))
    for _ in range(50 * rings):
        if rings == 0:
            break
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) in edges or degree[u] >= 4 or degree[v] >= 4:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
        rings -= 1
    return n, edges


def _social(rng: np.random.Generator, label: int) -> tuple[int, set[tuple[int, int]]]:
    n = int(rng.choice(SOCIAL_SIZES, p=SOCIAL_SIZE_PROBS))
    d = 10 if n <= 20 else 9  # n * d**4 <= 200_000
    ring = [(v, (v + k) % n) for v in range(n) for k in range(1, d // 2 + 1)]
    if d % 2:
        ring += [(v, v + n // 2) for v in range(n // 2)]
    edges = [(min(u, v), max(u, v)) for u, v in ring]
    present = set(edges)
    swaps = len(edges) * (2 if label else 0) + n // 2
    for (i, j), flip in zip(rng.integers(len(edges), size=(swaps, 2)), rng.integers(2, size=swaps)):
        (a, b), (c, e) = edges[i], edges[j]
        if flip:
            c, e = e, c
        new_i, new_j = (min(a, e), max(a, e)), (min(c, b), max(c, b))
        if i == j or a == e or c == b or new_i in present or new_j in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {new_i, new_j}
        edges[i], edges[j] = new_i, new_j
    for k in sorted(rng.choice(len(edges), size=int(rng.integers(4)), replace=False))[::-1]:
        present.discard(edges.pop(int(k)))
    return n, present


def generate(seed: int) -> dict:
    """Both datasets as {name: (node counts, edge sets, graph labels, node labels)}."""
    rng = np.random.default_rng(np.random.SeedSequence([_MOL_TAG, seed]))
    mol_labels = [1] * MOL_POSITIVE + [-1] * (MOL_GRAPHS - MOL_POSITIVE)
    mol_labels = [mol_labels[int(k)] for k in rng.permutation(MOL_GRAPHS)]
    mols = [_molecule(rng) for _ in range(MOL_GRAPHS)]
    probs = np.array(MOL_ATOM_PROBS) / sum(MOL_ATOM_PROBS)
    atoms = [rng.choice(len(probs), size=n, p=probs) for n, _ in mols]
    for k in range(len(probs)):  # every atom type occurs, so the one-hot width is fixed
        atoms[k][0] = k

    rng = np.random.default_rng(np.random.SeedSequence([_SOCIAL_TAG, seed]))
    social_labels = [k % 2 for k in range(SOCIAL_GRAPHS)]
    social = [_social(rng, label) for label in social_labels]
    return {
        MOLECULE_SET: ([n for n, _ in mols], [e for _, e in mols], mol_labels, atoms),
        SOCIAL_SET: ([n for n, _ in social], [e for _, e in social], social_labels, None),
    }


def write_tu(root: Path, name: str, nodes, edge_sets, labels, node_labels) -> None:
    """Write one dataset in the public TU text layout under ``root/name``."""
    base = root / name
    base.mkdir(parents=True, exist_ok=True)
    adjacency, indicator = [], []
    offset = 0
    for gi, (n, edges) in enumerate(zip(nodes, edge_sets), 1):
        indicator.extend([str(gi)] * n)
        for u, v in sorted(edges):
            adjacency.append(f"{offset + u + 1}, {offset + v + 1}")
            adjacency.append(f"{offset + v + 1}, {offset + u + 1}")
        offset += n
    (base / f"{name}_A.txt").write_text("\n".join(adjacency) + "\n")
    (base / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (base / f"{name}_graph_labels.txt").write_text("\n".join(map(str, labels)) + "\n")
    if node_labels is not None:
        (base / f"{name}_node_labels.txt").write_text(
            "\n".join(str(int(a)) for row in node_labels for a in row) + "\n")


def write_and_verify(root: Path, seed: int) -> dict:
    """Write both sets, read them back through the program's loader and check them.

    Returns per-set summary statistics. Raises ``ValueError`` when the loader
    disagrees with what was written.
    """
    from gcflsim.graphs import load_tu_dataset

    summary = {}
    for name, (nodes, edge_sets, labels, node_labels) in generate(seed).items():
        write_tu(root, name, nodes, edge_sets, labels, node_labels)
        ds = load_tu_dataset(root, name)
        got = (len(ds), sum(g.num_nodes for g in ds.graphs), sum(g.num_edges for g in ds.graphs),
               len({g.label for g in ds.graphs}), ds.feat_dim)
        want = (len(nodes), sum(nodes), sum(len(e) for e in edge_sets), 2,
                len(MOL_ATOM_PROBS) if node_labels is not None else 1)
        if got != want:
            raise ValueError(f"{name}: loader read (graphs, nodes, edges, classes, feat_dim) "
                             f"{got}, generator wrote {want}")
        summary[name] = {"graphs": got[0], "avg_nodes": got[1] / got[0],
                         "avg_edges": got[2] / got[0]}
    return summary
