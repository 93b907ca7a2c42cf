import numpy as np
import pytest
from scipy import stats

from gcflsim.graphs import erdos_renyi_gnm

from conftest import edge_set, one_graph
from sgc import THETA_INIT_SCALE, normalized_adjacency, propagated_features, sgc_train


def planted_node_task(seed, n=30, feat_dim=8, classes=3, m=87):
    rng = np.random.default_rng(seed)
    edges = erdos_renyi_gnm(n, m, seed)
    x = rng.standard_normal((n, feat_dim))
    w = rng.standard_normal((feat_dim, classes))
    labels = np.argmax(x @ w, axis=1)
    return one_graph(n, edges, x), labels


def flip_edges(graph, count, rng):
    edges = edge_set(graph)
    flips = 0
    while flips < count:
        u, v = int(rng.integers(graph.num_nodes)), int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        edges.symmetric_difference_update({e})
        flips += 1
    return one_graph(graph.num_nodes, np.array(sorted(edges)), graph.features, graph.label)


class TestNormalizedAdjacency:
    def test_hand_computed_path(self, path3):
        # A+I degrees: [2, 3, 2]
        s = normalized_adjacency(path3)
        assert s[0, 0] == pytest.approx(1 / 2)
        assert s[0, 1] == pytest.approx(1 / np.sqrt(6))
        assert s[0, 2] == 0.0
        assert np.allclose(s, s.T)

    def test_rows_of_propagated_constant_stay_bounded(self, triangle):
        feats = propagated_features(triangle, hops=3)
        assert np.all(np.isfinite(feats))


class TestSgcTrain:
    def test_hops_zero_equals_plain_logistic_trainer(self):
        graph, labels = planted_node_task(0)
        steps, lr = 50, 0.3
        model, losses = sgc_train(graph, labels, hops=0, steps=steps, lr=lr, seed=3)

        # independent softmax-regression trainer on the raw features
        rng = np.random.default_rng(3)
        classes = labels.max() + 1
        theta = rng.uniform(-THETA_INIT_SCALE, THETA_INIT_SCALE,
                            size=(graph.feat_dim, classes))
        x = graph.features
        onehot = np.eye(classes)[labels]
        ref_losses = []
        for _ in range(steps):
            z = x @ theta
            z = z - z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            ref_losses.append(float(-np.mean(np.log(p[np.arange(len(labels)), labels] + 1e-300))))
            theta = theta - lr * x.T @ (p - onehot) / len(labels)

        assert np.allclose(losses, ref_losses, atol=1e-12)
        assert np.allclose(model.theta, theta, atol=1e-12)

    def test_deterministic_under_seed(self):
        graph, labels = planted_node_task(1)
        a, _ = sgc_train(graph, labels, hops=2, steps=40, seed=7)
        b, _ = sgc_train(graph, labels, hops=2, steps=40, seed=7)
        assert np.array_equal(a.theta, b.theta)

    def test_loss_decreases(self):
        graph, labels = planted_node_task(2)
        _, losses = sgc_train(graph, labels, hops=1, steps=100, lr=0.5, seed=0)
        assert losses[-1] < losses[0]

    def test_structure_perturbation_rank_correlation(self):
        # quick version of the monotonicity experiment: larger structure
        # perturbations should produce larger trained-weight differences
        levels = np.arange(1, 9)
        xs = np.zeros(len(levels))
        ds = np.zeros(len(levels))
        for seed in range(2):
            graph, labels = planted_node_task(seed)
            base, _ = sgc_train(graph, labels, hops=2, steps=200, lr=0.5, seed=seed)
            lap = normalized_adjacency(graph)
            for j, lvl in enumerate(levels):
                pert = flip_edges(graph, int(lvl) * 3, np.random.default_rng(500 + seed * 50 + lvl))
                xs[j] += np.linalg.norm(normalized_adjacency(pert) - lap)
                other, _ = sgc_train(pert, labels, hops=2, steps=200, lr=0.5, seed=seed)
                ds[j] += np.linalg.norm(other.theta - base.theta)
        rho = stats.spearmanr(xs, ds).statistic
        assert rho > 0.4
