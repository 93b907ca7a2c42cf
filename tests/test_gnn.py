from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import gnn
from gcflsim.errors import ArgumentError
from gcflsim.gnn import (
    AdamState,
    GinModel,
    adam_step,
    cross_entropy,
    gin_forward,
    gin_loss_and_grad,
    init_gin,
    one_hot_degrees,
    softmax,
)
from gcflsim.graphs import erdos_renyi_gnm

from conftest import (HYPOTHESIS, assert_same_union, labelled, make_graph, one_graph,
                      random_graph, small_graphs, union)


def small_model(rng, input_dim=3, output_dim=2, hidden=5, layers=2):
    return init_gin(input_dim, output_dim, hidden, layers, rng)


def perm_graph(graph, perm):
    edges = np.stack([perm[graph.edges[:, 0]], perm[graph.edges[:, 1]]], axis=1)
    return one_graph(graph.num_nodes, edges, graph.features[np.argsort(perm)], graph.label)


def logits_of(model, graph):
    return gin_forward(model, graph)[0][0]


def predict(model, graph):
    return int(np.argmax(logits_of(model, graph)))


def batch_loss(model, graphs, labels):
    """Mean cross-entropy of the batch from the forward pass alone."""
    logits, _ = gin_forward(model, union(graphs))
    return float(np.mean(cross_entropy(logits, labels)))


def gin_backward(model, graphs, labels):
    return gin_loss_and_grad(model, labelled(graphs, labels))[1]


def reference_loss_and_grad(model, graphs, labels):
    """Per-graph forward and backward over dense adjacency matrices.

    The reference for the batched pass: each graph runs alone and its
    gradient accumulates into one zero vector through the model's layout.
    """
    grad = GinModel(model.input_dim, model.output_dim, model.hidden, model.num_layers)
    total_loss = 0.0
    inv_b = 1.0 / len(graphs)
    for graph, label in zip(graphs, labels):
        a = graph.adjacency.toarray()
        cache = []
        h = graph.features
        for l in range(model.num_layers):
            s = (1.0 + model.eps[l]) * h + a @ h
            z = s @ model.w1[l] + model.b1[l]
            r = np.maximum(z, 0.0)
            cache.append((h, s, z, r))
            h = r @ model.w2[l] + model.b2[l]
        pooled = h.sum(axis=0)
        logits = pooled @ model.wc + model.bc
        total_loss += cross_entropy(logits, label)

        d_logits = softmax(logits)
        d_logits[label] -= 1.0
        d_logits *= inv_b
        grad.wc[...] += np.outer(pooled, d_logits)
        grad.bc[...] += d_logits
        d_h = np.broadcast_to(model.wc @ d_logits, h.shape).copy()
        for l in reversed(range(model.num_layers)):
            h_in, s, z, r = cache[l]
            grad.w2[l][...] += r.T @ d_h
            grad.b2[l][...] += d_h.sum(axis=0)
            d_z = (d_h @ model.w2[l].T) * (z > 0.0)
            grad.w1[l][...] += s.T @ d_z
            grad.b1[l][...] += d_z.sum(axis=0)
            d_s = d_z @ model.w1[l].T
            grad.eps[l][...] += np.sum(d_s * h_in)
            d_h = (1.0 + model.eps[l]) * d_s + a @ d_s
    return total_loss * inv_b, grad.vector


class TestForward:
    def test_zero_model_gives_zero_logits_and_log_c_loss(self):
        model = GinModel(3, 4, hidden=5, num_layers=2)
        g = random_graph(np.random.default_rng(0), n=5)
        logits = logits_of(model, g)
        assert np.all(logits == 0.0)
        assert cross_entropy(logits, 1) == pytest.approx(np.log(4))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = random_graph(rng, n=7)
            model = small_model(rng)
            p = rng.permutation(7)
            a = logits_of(model, g)
            b = logits_of(model, perm_graph(g, p))
            assert np.allclose(a, b, atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        # independent forward pass written entirely with explicit dense matrices
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=5)
        model = small_model(rng)
        a = np.zeros((5, 5))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        h = g.features.copy()
        for l in range(model.num_layers):
            agg = ((1.0 + model.eps[l]) * np.eye(5) + a) @ h
            h = np.maximum(agg @ model.w1[l] + model.b1[l], 0.0) @ model.w2[l] + model.b2[l]
        expected = np.ones(5) @ h @ model.wc + model.bc
        assert np.allclose(logits_of(model, g), expected, atol=1e-12)

    def test_narrow_batch_equals_zero_padded_batch(self):
        # a batch 3 columns wide reads the first 3 rows of layer 0's W1 of an 8-wide model
        rng = np.random.default_rng(3)
        model = small_model(rng, input_dim=8, layers=3)
        model.eps[0][...] = 0.3
        graphs = [random_graph(rng, feat_dim=3) for _ in range(6)]
        graphs = union(graphs)
        padded = replace(graphs, features=np.hstack([graphs.features,
                                                     np.zeros((graphs.num_nodes, 5))]))
        assert gin_forward(model, graphs)[0].tobytes() == gin_forward(model, padded)[0].tobytes()

        _, grad = gin_loss_and_grad(model, graphs)
        _, want = gin_loss_and_grad(model, padded)
        assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)
        past_width = gnn._views(grad, model._layout()).w1[0][3:]
        assert np.all(past_width == 0.0) and not np.signbit(past_width).any()

        with pytest.raises(ArgumentError):
            gin_forward(small_model(rng, input_dim=2), graphs)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(np.zeros(7), 3) == pytest.approx(np.log(7))

    def test_extreme_logits_do_not_overflow(self):
        assert cross_entropy(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(cross_entropy(np.array([1000.0, 0.0]), 1))

    def test_matches_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.uniform(-30, 30, size=5)
            label = int(rng.integers(5))
            exact = -mpmath.log(
                mpmath.exp(mpmath.mpf(logits[label]))
                / mpmath.fsum(mpmath.exp(mpmath.mpf(x)) for x in logits))
            assert cross_entropy(logits, label) == pytest.approx(float(exact), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            cross_entropy(np.zeros(3), 3)


def finite_difference(model, graphs, labels, step=1e-5):
    theta = model.vector.copy()
    grad = np.empty_like(theta)
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += step
        down[k] -= step
        model.vector[:] = up
        high = batch_loss(model, graphs, labels)
        model.vector[:] = down
        low = batch_loss(model, graphs, labels)
        grad[k] = (high - low) / (2 * step)
    model.vector[:] = theta
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4, floor=1e-8):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= np.maximum(floor, rel * scale))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            graphs = [random_graph(rng, n=5) for _ in range(2)]
            labels = [int(rng.integers(2)) for _ in graphs]
            model = small_model(rng)
            grad = gin_backward(model, graphs, labels)
            assert_grad_close(grad, finite_difference(model, graphs, labels))

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(7)
        graphs = [random_graph(rng, n=4) for _ in range(3)]
        labels = [0, 1, 0]
        model = small_model(rng)
        once = gin_backward(model, graphs, labels)
        twice = gin_backward(model, graphs * 2, labels * 2)
        assert np.allclose(once, twice, atol=1e-12)

    def test_node_permutation_same_gradient(self):
        rng = np.random.default_rng(8)
        graphs = [random_graph(rng, n=6) for _ in range(2)]
        labels = [1, 0]
        model = small_model(rng)
        base = gin_backward(model, graphs, labels)
        p = rng.permutation(6)
        permuted = gin_backward(model, [perm_graph(g, p) for g in graphs], labels)
        assert np.allclose(base, permuted, atol=1e-10)

    def test_gradient_length_matches_param_count(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        grad = gin_backward(model, [random_graph(rng, n=4)], [1])
        assert grad.shape == (model.vector.size,)

    def test_batched_pass_matches_per_graph_reference(self):
        rng = np.random.default_rng(15)
        graphs = [
            make_graph(1, [], features=rng.standard_normal((1, 3))),
            make_graph(4, [], features=rng.standard_normal((4, 3))),
            *(random_graph(rng, n=n) for n in (2, 5, 9, 17)),
            one_graph(600, erdos_renyi_gnm(600, 900, seed=3), rng.standard_normal((600, 3))),
        ]
        labels = [int(rng.integers(3)) for _ in graphs]
        model = small_model(rng, output_dim=3, layers=3)
        loss, grad = gin_loss_and_grad(model, labelled(graphs, labels))
        ref_loss, ref_grad = reference_loss_and_grad(model, graphs, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


class TestWorkspace:
    """The batched pass reuses one shared set of scratch buffers across calls."""

    def test_reused_buffers_give_identical_results(self):
        rng = np.random.default_rng(16)
        model = small_model(rng, layers=3)
        batch_a = labelled((random_graph(rng, n=5) for _ in range(3)), [0, 1, 1])
        batch_b = labelled((random_graph(rng, n=9) for _ in range(4)), [1, 0, 0, 1])
        other = small_model(rng, input_dim=4, hidden=7)
        loss, grad = gin_loss_and_grad(model, batch_a)
        gin_loss_and_grad(model, batch_b)
        gin_loss_and_grad(other, labelled((random_graph(rng, n=6, feat_dim=4) for _ in range(2)),
                                          [0, 1]))
        gin_forward(model, batch_b.take([0, 1]))
        again_loss, again_grad = gin_loss_and_grad(model, batch_a)
        assert again_loss == loss
        assert np.array_equal(again_grad, grad)

    def test_logits_outlive_later_calls(self):
        rng = np.random.default_rng(17)
        model = small_model(rng)
        graphs = union(random_graph(rng, n=8) for _ in range(4))
        logits, _ = gin_forward(model, graphs)
        kept = logits.copy()
        others = labelled((random_graph(rng, n=6) for _ in range(3)), [0, 1, 0])
        gin_forward(model, others)
        gin_loss_and_grad(model, others)
        assert np.array_equal(logits, kept)


class TestGraphBatch:
    @HYPOTHESIS
    @given(st.lists(small_graphs(max_nodes=7), min_size=1, max_size=6), st.data())
    def test_take_equals_union_of_the_taken_graphs(self, drawn, data):
        # a single-node and an edgeless graph are always in the pool
        pool = drawn + [make_graph(1, []), make_graph(4, [])]
        rng = np.random.default_rng(len(pool))
        graphs = [one_graph(g.num_nodes, g.edges, rng.standard_normal((g.num_nodes, 3)), i % 2)
                  for i, g in enumerate(pool)]
        order = data.draw(st.permutations(range(len(graphs))))
        idx = order[:data.draw(st.integers(1, len(graphs)))]
        idx += data.draw(st.lists(st.sampled_from(idx), max_size=2))  # a graph may repeat
        stack = union(graphs)
        kept = stack.features.copy()
        got, want = stack.take(idx), union(graphs[i] for i in idx)
        assert len(got) == len(idx)
        assert_same_union(got, want)
        model = small_model(np.random.default_rng(0))
        loss, grad = gin_loss_and_grad(model, got)
        ref_loss, ref_grad = gin_loss_and_grad(model, want)
        assert loss == ref_loss and np.array_equal(grad, ref_grad)
        # backpropagation leaves a batch's features as they were
        gin_loss_and_grad(model, stack)
        assert np.array_equal(stack.features, kept)

    def test_empty_batch_rejected(self):
        with pytest.raises(ArgumentError):
            make_graph(2, [(0, 1)]).take([])


class TestParameterLayout:
    def test_flatten_roundtrip_identity(self):
        # the named parameters are views that tile the vector in layout order
        rng = np.random.default_rng(10)
        flat = small_model(rng, input_dim=4, hidden=6, layers=3).vector.copy()
        other = GinModel(4, 2, hidden=6, num_layers=3, vector=flat)
        parts = [other.eps, other.w1, other.b1, other.w2, other.b2]
        tiles = [np.ravel(p[l]) for l in range(3) for p in parts] + [other.wc.ravel(), other.bc]
        assert np.array_equal(np.concatenate(tiles), flat)
        other.w2[1][2, 3] = 7.5
        assert other.vector is flat and 7.5 in flat

    def test_gradient_views_tile_the_vector_in_model_order(self):
        # gin_loss_and_grad writes its gradient through these views of one
        # zeroed vector, so they must lay it out as the model's own views do
        model = small_model(np.random.default_rng(11), input_dim=4, hidden=6, layers=3)
        size, parts = model.vector.size, model._layout()
        grad = np.zeros(size)

        def in_order(v):
            return [p[l] for l in range(3) for p in v[:5]] + [v[5], v[6]]

        views = gnn._views(grad, parts)
        model_views = in_order((model.eps, model.w1, model.b1, model.w2, model.b2,
                                model.wc, model.bc))
        offset = 0
        for view, model_view in zip(in_order(views), model_views, strict=True):
            assert view.shape == model_view.shape
            assert np.shares_memory(view, grad)
            start = (view.ctypes.data - grad.ctypes.data) // grad.itemsize
            model_start = (model_view.ctypes.data - model.vector.ctypes.data) // grad.itemsize
            assert start == model_start == offset
            offset += view.size
        assert offset == size == model.vector.size

    def test_param_count_formula(self):
        model = GinModel(3, 2, hidden=5, num_layers=2)
        assert model.vector.size == (1 + 15 + 5 + 25 + 5) + (1 + 25 + 5 + 25 + 5) + 12
        with pytest.raises(ArgumentError):
            GinModel(3, 2, hidden=5, num_layers=2, vector=np.zeros(model.vector.size - 1))
        # the closed form the model allocates by is where the per-layer layout ends
        for dims in [(3, 2, 5, 2), (1, 4, 1, 1), (7, 3, 2, 5)]:
            assert gnn._param_count(*dims) == gnn._param_layout(*dims)[-1][1]


class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = AdamState(np.zeros(4), np.zeros(4))
        params = np.array([1.0, -2.0, 3.0, 0.5])
        out = adam_step(state, params, np.zeros(4), 0.01)
        assert np.array_equal(out, params)

    def test_first_step_moves_by_lr_sign(self):
        state = AdamState(np.zeros(3), np.zeros(3))
        params = np.zeros(3)
        grad = np.array([0.5, -2.0, 0.1])
        out = adam_step(state, params, grad, 0.01)
        assert np.allclose(out, -0.01 * np.sign(grad), rtol=1e-6)

    def test_matches_reference_transcript(self):
        # independently scripted Adam (loop form), weight decay folded into the gradient as
        # fed.local_train folds it
        lr, b1, b2, eps, wd = 1e-3, 0.9, 0.999, 1e-8, 5e-4
        rng = np.random.default_rng(12)
        params = rng.standard_normal(6)
        grads = [rng.standard_normal(6) for _ in range(10)]

        ref = params.copy()
        m = np.zeros(6)
        v = np.zeros(6)
        for t, g in enumerate(grads, start=1):
            g = g + wd * ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        state = AdamState(np.zeros(6), np.zeros(6))
        ours = params.copy()
        for g in grads:
            ours = adam_step(state, ours, g + wd * ours, lr)
        assert np.max(np.abs(ours - ref)) <= 1e-10

    def test_length_mismatch(self):
        state = AdamState(np.zeros(3), np.zeros(3))
        with pytest.raises(ArgumentError):
            adam_step(state, np.zeros(4), np.zeros(4), 1e-3)


class TestTrainability:
    def test_separable_toy_set_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(13)
        graphs, labels = [], []
        for i in range(20):
            label = i % 2
            g = random_graph(rng, n=6, feat_dim=2)
            feats = 0.05 * rng.standard_normal((6, 2))
            feats[:, label] += 1.0
            graphs.append(one_graph(g.num_nodes, g.edges, feats, label))
            labels.append(label)
        model = init_gin(2, 2, hidden=8, num_layers=2, rng=rng)
        opt = AdamState(np.zeros(model.vector.size), np.zeros(model.vector.size))
        batch = union(graphs)
        for epoch in range(200):
            _, grad = gin_loss_and_grad(model, batch)
            model.vector[:] = adam_step(opt, model.vector, grad, 5e-3)
            if all(predict(model, g) == y for g, y in zip(graphs, labels)):
                break
        assert all(predict(model, g) == y for g, y in zip(graphs, labels))


class TestOneHotDegree:
    def test_triangle(self, triangle):
        out = one_hot_degrees(triangle.degrees, 3)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert np.all(out[:, 2] == 1.0)

    def test_star_center_clamped(self):
        star = make_graph(6, [(0, i) for i in range(1, 6)])
        out = one_hot_degrees(star.degrees, 3)
        assert out[0].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert out[1].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_max_degree_below_one_rejected(self, triangle):
        with pytest.raises(ArgumentError, match="^max_degree must be >= 1$"):
            one_hot_degrees(triangle.degrees, 0)

    def test_output_width(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = random_graph(rng)
            md = int(rng.integers(1, 6))
            assert one_hot_degrees(g.degrees, md).shape == (g.num_nodes, md + 1)
