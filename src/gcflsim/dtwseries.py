"""DTW distances between per-client sequences of recent gradient norms.

GCFL+ clusters on the dynamic-time-warping distance between recent gradient
norm sequences instead of the last update's direction, which smooths over
round-to-round fluctuation.
"""

from __future__ import annotations

import logging

import numpy as np

from .clustering import WEIGHT_FLOOR
from .errors import ArgumentError

logger = logging.getLogger(__name__)


def standardize_row(seq: np.ndarray) -> np.ndarray:
    """Divide by the population standard deviation; constant rows pass through.

    A constant sequence would divide by ~0, so it is returned unchanged with
    a logged warning instead.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if len(seq) < 2:
        raise ArgumentError("need at least two values to standardize")
    std = float(seq.std())
    if std < 1e-12:
        logger.warning("standardize_row: near-constant sequence left unchanged")
        return seq.copy()
    return seq / std


def dtw_distance(a, b) -> float:
    """Classic dynamic time warping with |a_i - b_j| pointwise cost.

    Full dynamic program, boundary anchored, moves (i+1,j), (i,j+1), (i+1,j+1).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ArgumentError("sequences must be nonempty")
    n, m = len(a), len(b)
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = abs(a[i - 1] - b[j - 1])
            acc[i, j] = cost + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[n, m])


def dtw_matrix(norms: dict[int, list[float]], members: list[int],
               standardize: bool = False) -> np.ndarray:
    """Symmetric pairwise DTW distances over the members' sequences in ``norms``.

    Sequences of different lengths are compared as-is over their available history.
    """
    rows = []
    for client_id in members:
        row = np.asarray(norms.get(client_id, ()), dtype=np.float64)
        if row.size == 0:
            raise ArgumentError(f"client {client_id} has no recorded gradient norms")
        if standardize and row.size >= 2:
            row = standardize_row(row)
        rows.append(row)
    n = len(members)
    beta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            beta[i, j] = beta[j, i] = dtw_distance(rows[i], rows[j])
    return beta


def dtw_to_cut_weights(beta: np.ndarray) -> np.ndarray:
    """Complement distances against their maximum to get cut weights.

    The most DTW-dissimilar pairs receive the smallest weights, so the
    minimum cut severs them; a small floor keeps the graph connected.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
        raise ArgumentError("distance matrix must be square")
    if np.max(np.abs(beta - beta.T)) > 1e-9 or beta.min() < 0 or np.any(np.diag(beta) != 0):
        raise ArgumentError("distance matrix must be symmetric, nonnegative, zero-diagonal")
    w = beta.max() - beta + WEIGHT_FLOOR
    np.fill_diagonal(w, 0.0)
    return w

