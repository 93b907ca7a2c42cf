"""Simple graph convolution: softmax(S^K X Theta) over the self-looped,
symmetrically normalized adjacency S, trained by full-batch gradient descent.

The model of criterion 9 and ``test_sgc.py``: the empirical checks that
trained weights move monotonically with structure and feature perturbations
of the underlying graph. Nothing in the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gcflsim.errors import ArgumentError
from gcflsim.gnn import softmax
from gcflsim.graphs import GraphBatch

THETA_INIT_SCALE = 0.01


@dataclass
class SgcModel:
    hops: int
    theta: np.ndarray  # (feat_dim, num_classes)


def normalized_adjacency(graph: GraphBatch) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with degrees taken after adding self-loops."""
    a = graph.adjacency.toarray() + np.eye(graph.num_nodes)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def propagated_features(graph: GraphBatch, hops: int) -> np.ndarray:
    """S^hops @ X; hops = 0 returns the raw features."""
    if hops < 0:
        raise ArgumentError("hops must be >= 0")
    x = graph.features.copy()
    if hops == 0:
        return x
    s = normalized_adjacency(graph)
    for _ in range(hops):
        x = s @ x
    return x


def sgc_train(
    graph: GraphBatch,
    node_labels: np.ndarray,
    hops: int,
    steps: int = 300,
    lr: float = 0.5,
    seed: int = 0,
) -> tuple[SgcModel, np.ndarray]:
    """Fit Theta by full-batch gradient descent on node cross-entropy.

    Theta is initialized uniform in +/- THETA_INIT_SCALE under ``seed``, so
    identical inputs and seed reproduce identical weights. Returns the model
    and the per-step loss trajectory (loss before each update).
    """
    labels = np.asarray(node_labels, dtype=np.int64)
    if len(labels) != graph.num_nodes:
        raise ArgumentError("one label per node required")
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        num_classes = 2
    feats = propagated_features(graph, hops)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-THETA_INIT_SCALE, THETA_INIT_SCALE, size=(graph.feat_dim, num_classes))
    onehot = np.zeros((len(labels), num_classes))
    onehot[np.arange(len(labels)), labels] = 1.0
    losses = np.empty(steps)
    n = len(labels)
    for t in range(steps):
        p = softmax(feats @ theta)
        losses[t] = float(-np.mean(np.log(p[np.arange(n), labels] + 1e-300)))
        theta = theta - lr * feats.T @ (p - onehot) / n
    return SgcModel(hops, theta), losses
