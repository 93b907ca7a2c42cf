"""Graph isomorphism network with hand-written backpropagation, plus Adam.

Everything runs in 64-bit floats. Per layer the update is
``h' = MLP((1 + eps) * h + sum of neighbor h)`` with a two-linear MLP and one
inner ReLU; the readout is sum pooling followed by a linear classifier.
All parameters live in one flat vector in a fixed order (per layer: eps, W1,
b1, W2, b2; then classifier W, b), which is the unit of federation transport.
A batch of graphs runs as one disjoint union (``GraphBatch``), in training and
evaluation alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from .errors import ArgumentError, ConfigurationError
from .graphs import GraphBatch


class _Views(NamedTuple):
    """Named views into one flat parameter-layout vector; per-layer entries are lists."""

    eps: list[np.ndarray]
    w1: list[np.ndarray]
    b1: list[np.ndarray]
    w2: list[np.ndarray]
    b2: list[np.ndarray]
    wc: np.ndarray
    bc: np.ndarray


def _param_count(input_dim: int, output_dim: int, hidden: int, num_layers: int) -> int:
    """The vector length in closed form: ``num_layers`` times eps, b1, b2 and W2, each
    layer's W1, then the classifier's W and b. No per-layer list is built, so a size
    too large to allocate is known before anything is."""
    layers, h = num_layers, hidden
    return (layers * (1 + 2 * h + h * h) + h * (input_dim + (layers - 1) * h)
            + h * output_dim + output_dim)


@lru_cache(maxsize=None)
def _param_layout(input_dim: int, output_dim: int, hidden: int,
                  num_layers: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Each parameter's ``(start, stop, shape)`` in the vector, in layout order."""
    shapes = []
    for l in range(num_layers):
        d = input_dim if l == 0 else hidden
        shapes += [(), (d, hidden), (hidden,), (hidden, hidden), (hidden,)]
    shapes += [(hidden, output_dim), (output_dim,)]
    ends = np.cumsum([math.prod(s) for s in shapes]).tolist()
    return tuple(zip([0] + ends[:-1], ends, shapes))


def _views(vector: np.ndarray, parts) -> _Views:
    views = [vector[start:stop].reshape(shape) for start, stop, shape in parts]
    layers = views[:-2]
    return _Views(*(layers[i::5] for i in range(5)), *views[-2:])


@dataclass
class GinModel:
    """GIN dimensions plus the flat parameter vector.

    ``eps``, ``w1``, ``b1``, ``w2`` and ``b2`` (one entry per layer) and
    ``wc``, ``bc`` are views into ``vector``: write parameters in place, never
    rebind them. Without a vector the model starts at all zeros.
    """

    input_dim: int
    output_dim: int
    hidden: int = 64
    num_layers: int = 3
    vector: np.ndarray | None = None

    def __post_init__(self):
        size = _param_count(self.input_dim, self.output_dim, self.hidden, self.num_layers)
        if self.vector is None:
            try:
                self.vector = np.zeros(size)
            except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
                raise ConfigurationError(
                    f"a GIN of {size} parameters (hidden {self.hidden}, {self.num_layers} layers)"
                    f" cannot be allocated: {exc}") from exc
        self.vector = np.ascontiguousarray(self.vector, dtype=np.float64)
        if self.vector.shape != (size,):
            raise ArgumentError(f"expected {size} parameters, got {self.vector.shape}")
        views = _views(self.vector, self._layout())  # built only once the vector exists
        self.eps, self.w1, self.b1, self.w2, self.b2, self.wc, self.bc = views

    def _layout(self):
        return _param_layout(self.input_dim, self.output_dim, self.hidden, self.num_layers)


def init_gin(
    input_dim: int,
    output_dim: int,
    hidden: int = 64,
    num_layers: int = 3,
    rng: np.random.Generator | None = None,
) -> GinModel:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights and biases, eps = 0.

    Drawn in layout order. A weight's fan-in is its first dimension, and a
    bias shares the fan-in of the weight before it.
    """
    rng = rng or np.random.default_rng(0)
    model = GinModel(input_dim, output_dim, hidden, num_layers)
    for start, stop, shape in model._layout():
        if not shape:  # eps, which starts at 0
            continue
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
        model.vector[start:stop] = rng.uniform(-bound, bound, size=stop - start)
    return model


# One process-wide, single-threaded workspace of grow-only buffers for the
# batched pass's node rows: allocated per batch, they went back to the OS and
# were faulted in again each call; one workspace per model costs more memory.
_WORKSPACE: dict[tuple[str, int], np.ndarray] = {}


def _scratch(role: str, rows: int, cols: int) -> np.ndarray:
    """A ``(rows, cols)`` view of the workspace buffer for ``role``, grown if too small."""
    buf = _WORKSPACE.get((role, cols))
    if buf is None or len(buf) < rows:
        buf = _WORKSPACE[role, cols] = np.empty((rows, cols))
    return buf[:rows]


class ForwardCache(NamedTuple):
    """What backpropagation needs from one batched forward pass.

    Layer 0's input is ``batch.features`` itself; every other node-row array
    is a view into the shared workspace, valid until the next ``gin_forward``
    call in the process, and backpropagation overwrites those with gradients.
    It never writes layer 0's input, so a batch can be kept and run again.
    """

    batch: GraphBatch
    layers: list[tuple[np.ndarray, ...]]  # per layer: input h, s, relu(s W1 + b1)
    nodes: np.ndarray  # last layer's node states
    pooled: np.ndarray  # (graphs, hidden) sum-pooled node states


def gin_forward(model: GinModel, batch: GraphBatch) -> tuple[np.ndarray, ForwardCache]:
    """Class logits, one row per graph (a fresh array), and the cache for backpropagation.

    The batch runs as one disjoint union: one sparse block-diagonal adjacency,
    and sum pooling over each graph's node rows. A batch narrower than the
    model, d columns wide, reads the first d rows of layer 0's W1: the product
    a zero-padded batch would give.
    """
    if batch.features.shape[1] > model.input_dim:
        raise ArgumentError(
            f"feature dim {batch.features.shape[1]} > model input dim {model.input_dim}")
    n = len(batch.features)
    h = batch.features
    layers = []
    for l in range(model.num_layers):
        d = h.shape[1]  # the batch's own width at layer 0, hidden after it
        # s = A h + (1 + eps) h, bit for bit: floating-point addition commutes
        s = np.multiply(h, 1.0 + model.eps[l], out=_scratch(f"s{l}", n, d))
        s += batch.adjacency @ h
        r = np.matmul(s, model.w1[l][:d], out=_scratch(f"r{l}", n, model.hidden))
        r += model.b1[l]
        np.maximum(r, 0.0, out=r)
        layers.append((h, s, r))
        h = np.matmul(r, model.w2[l], out=_scratch(f"h{l}", n, model.hidden))
        h += model.b2[l]
    pooled = np.add.reduceat(h, batch.starts, axis=0)
    return pooled @ model.wc + model.bc, ForwardCache(batch, layers, h, pooled)


def cross_entropy(logits: np.ndarray, labels) -> np.ndarray:
    """Negative log-softmax at ``labels`` along the last axis, stabilized by max subtraction.

    One logit row and one label give a scalar; a (graphs, classes) matrix and
    one label per row give one loss per row.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= logits.shape[-1])):
        raise ArgumentError(f"label out of range for {logits.shape[-1]} classes")
    z = logits - logits.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, labels[..., None], axis=-1)[..., 0]
    return np.log(np.exp(z).sum(axis=-1)) - picked


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def gin_loss_and_grad(model: GinModel, graphs: GraphBatch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch's own labels and its gradient in the model's layout."""
    logits, cache = gin_forward(model, graphs)
    labels = graphs.labels
    loss = float(cross_entropy(logits, labels).mean())

    d_logits = softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1.0
    d_logits /= len(labels)
    grad_vector = np.zeros(model.vector.size)
    grad = _views(grad_vector, model._layout())
    grad.wc[...] = cache.pooled.T @ d_logits
    grad.bc[...] = d_logits.sum(axis=0)
    # Each gradient goes into the buffer of a forward array that is spent by then.
    d_h = cache.nodes
    d_h[...] = np.repeat(d_logits @ model.wc.T, cache.batch.sizes, axis=0)  # sum pooling fans out
    for l in reversed(range(model.num_layers)):
        h, s, r = cache.layers[l]
        d = h.shape[1]
        grad.w2[l][...] = r.T @ d_h
        grad.b2[l][...] = d_h.sum(axis=0)
        active = r > 0.0  # exactly where z = s W1 + b1 > 0
        d_z = np.matmul(d_h, model.w2[l].T, out=r)
        d_z *= active
        grad.w1[l][:d] = s.T @ d_z  # rows past a narrow batch's width keep a zero gradient
        grad.b1[l][...] = d_z.sum(axis=0)
        d_s = np.matmul(d_z, model.w1[l][:d].T, out=s)
        grad.eps[l][...] = np.vdot(d_s, h)
        if l:  # the input features need no gradient
            d_h = np.multiply(d_s, 1.0 + model.eps[l], out=h)
            d_h += cache.batch.adjacency @ d_s
    return loss, grad_vector


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults, shared by every client


@dataclass
class AdamState:
    """One client's Adam moments and step count; the hyperparameters are the run's."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float,
              weight_decay: float) -> np.ndarray:
    """One bias-corrected Adam update of step size ``lr``; weight decay folds into the gradient."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ArgumentError("parameter, gradient and moment lengths must match")
    g = grad + weight_decay * params if weight_decay else grad
    state.step += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = state.m / (1.0 - BETA1**state.step)
    v_hat = state.v / (1.0 - BETA2**state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + EPSILON)


# ---------------------------------------------------------------------------
# Feature synthesis
# ---------------------------------------------------------------------------


def one_hot_degrees(degrees: np.ndarray, max_degree: int) -> np.ndarray:
    """One float64 row of width max_degree+1 per node, 1 in the column of its degree.

    Degrees above ``max_degree`` are clamped into the top bucket.
    """
    if max_degree < 1:
        raise ArgumentError("max_degree must be >= 1")
    feats = np.zeros((len(degrees), max_degree + 1), dtype=np.float64)
    feats[np.arange(len(degrees)), np.minimum(degrees, max_degree)] = 1.0
    return feats
