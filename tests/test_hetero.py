from itertools import product

import numpy as np
import pytest
from hypothesis import given

from gcflsim import hetero
from gcflsim.errors import ArgumentError, UndefinedEmbeddingError
from gcflsim.graphs import Dataset, Graph, erdos_renyi_gnm
from gcflsim.hetero import (
    MAX_WALK_LENGTH,
    _pattern_index,
    awe_distribution,
    awe_distribution_auto,
    enumerate_anonymous_walks,
    feature_sim_histogram,
    js_distance,
    js_divergence,
    pairwise_heterogeneity,
)

from conftest import HYPOTHESIS, make_graph, random_graph, small_graphs


def _anonymize(walk) -> tuple[int, ...]:
    """Reference anonymiser: each node becomes the rank of its first visit."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(int(v), len(mapping)) for v in walk)


def dfs_awe_probs(graph, length):
    """Reference exact distribution: a DFS stack over every walk of every start."""
    patterns = enumerate_anonymous_walks(length)
    index = {p: i for i, p in enumerate(patterns)}
    nbrs = [row.tolist() for row in np.split(graph.adjacency.indices,
                                             graph.adjacency.indptr[1:-1])]
    starts = np.flatnonzero(graph.degrees > 0)
    probs = np.zeros(len(patterns))
    p0 = 1.0 / len(starts)
    for s in starts:
        stack = [(int(s), (0,), {int(s): 0}, p0)]
        while stack:
            node, pat, mapping, p = stack.pop()
            if len(pat) == length + 1:
                probs[index[pat]] += p
                continue
            step = p / len(nbrs[node])
            for nxt in nbrs[node]:
                if nxt in mapping:
                    stack.append((nxt, pat + (mapping[nxt],), mapping, step))
                else:
                    child = dict(mapping)
                    child[nxt] = len(mapping)
                    stack.append((nxt, pat + (child[nxt],), child, step))
    return probs


class TestEnumeration:
    def test_length_one(self):
        assert enumerate_anonymous_walks(1) == [(0, 1)]

    def test_length_two(self):
        assert set(enumerate_anonymous_walks(2)) == {(0, 1, 0), (0, 1, 2)}

    def test_length_three_matches_exhaustive_oracle(self):
        def canonical(seq):
            top = 0
            for prev, cur in zip(seq, seq[1:]):
                if cur == prev:
                    return False
                if cur > top:
                    if cur != top + 1:
                        return False
                    top = cur
            return seq[0] == 0

        oracle = {seq for seq in product(range(4), repeat=4) if canonical(seq)}
        assert set(enumerate_anonymous_walks(3)) == oracle
        assert len(oracle) == 5

    def test_rejects_out_of_range(self):
        for bad in (0, 9):
            with pytest.raises(ArgumentError):
                enumerate_anonymous_walks(bad)


class TestAweDistribution:
    def test_single_edge_all_mass_on_backtrack(self, single_edge):
        dist = awe_distribution(single_edge, 2)
        patterns = enumerate_anonymous_walks(2)
        assert dist.probs[patterns.index((0, 1, 0))] == 1.0

    def test_triangle_half_half(self, triangle):
        # 12 equally likely walks: 6 backtrack, 6 visit a third node
        dist = awe_distribution(triangle, 2)
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedEmbeddingError):
            awe_distribution(make_graph(3, []), 2)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng)
            for length in (2, 3, 4):
                assert awe_distribution(g, length).probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_node_relabeling(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_graph(rng, n=7)
            perm = rng.permutation(7)
            edges = np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1)
            h = Graph(7, edges, g.features[np.argsort(perm)], g.label)
            a = awe_distribution(g, 4).probs
            b = awe_distribution(h, 4).probs
            assert np.allclose(a, b, atol=1e-12)

    def test_sampled_converges_to_exact(self):
        g = random_graph(np.random.default_rng(3), n=6)
        exact = awe_distribution(g, 3).probs
        sampled = awe_distribution(g, 3, mode="sampled", samples=100_000, seed=0).probs
        assert 0.5 * np.abs(exact - sampled).sum() < 0.01  # total variation

    def test_sampled_deterministic_under_seed(self):
        g = random_graph(np.random.default_rng(4), n=6)
        a = awe_distribution(g, 3, mode="sampled", samples=500, seed=9).probs
        b = awe_distribution(g, 3, mode="sampled", samples=500, seed=9).probs
        assert np.array_equal(a, b)

    def test_auto_switches_on_budget(self, triangle, monkeypatch):
        exact = awe_distribution_auto(triangle, 2)
        monkeypatch.setattr(hetero, "WALK_BUDGET", 1)
        tiny = awe_distribution_auto(triangle, 2, seed=0)
        assert np.allclose(exact.probs, [0.5, 0.5])
        assert tiny.probs.sum() == pytest.approx(1.0)
        assert not np.array_equal(exact.probs, tiny.probs)

    @HYPOTHESIS
    @given(small_graphs().filter(lambda g: g.num_edges > 0))
    def test_exact_matches_dfs_reference(self, graph):
        for length in range(1, 6):
            assert np.array_equal(awe_distribution(graph, length).probs,
                                  dfs_awe_probs(graph, length))

    def test_pattern_index_matches_reference_anonymizer(self):
        rng = np.random.default_rng(15)
        for length in range(1, MAX_WALK_LENGTH + 1):
            patterns = enumerate_anonymous_walks(length)
            for nodes in (2, 3, length + 1, 50):
                steps = rng.integers(1, nodes, size=(400, length + 1))
                steps[:, 0] = rng.integers(nodes, size=400)
                walks = np.cumsum(steps, axis=1) % nodes  # no step stays in place
                got = _pattern_index(walks)
                assert [patterns[i] for i in got] == [_anonymize(w) for w in walks]


class TestJensenShannon:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0
        assert js_distance(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert js_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        # p = [1, 0], q = [0.5, 0.5], m = [0.75, 0.25]
        expected = 0.5 * (1.0 * np.log2(1.0 / 0.75)) + 0.5 * (
            0.5 * np.log2(0.5 / 0.75) + 0.5 * np.log2(0.5 / 0.25))
        assert js_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)
        assert js_distance([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.sqrt(expected), abs=1e-12)

    def test_distance_squared_is_divergence(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert js_distance(p, q) ** 2 == pytest.approx(js_divergence(p, q), abs=1e-12)

    def test_symmetry_nonnegativity_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q, r = (rng.dirichlet(np.ones(5)) for _ in range(3))
            assert js_distance(p, q) == pytest.approx(js_distance(q, p), abs=1e-12)
            assert js_distance(p, q) >= 0.0
            assert js_distance(p, r) <= js_distance(p, q) + js_distance(q, r) + 1e-9

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert js_distance(p, q) > 0
        assert js_distance(p, p) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            js_divergence([1.0], [0.5, 0.5])


class TestFeatureSimHistogram:
    def test_identical_features_mass_at_one(self, triangle):
        g = triangle.with_features(np.tile([1.0, 2.0], (3, 1)))
        hist = feature_sim_histogram(g, bins=20)
        assert hist.mass[-1] == 1.0  # cosine exactly 1 lands in the last bin

    def test_orthogonal_one_hot_mass_at_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)], features=np.eye(3))
        hist = feature_sim_histogram(g, bins=20)
        # cosine 0 falls in the bin whose left edge is 0
        assert hist.mass[10] == 1.0

    def test_matches_naive_per_edge_oracle(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n=8, feat_dim=4)
        bins = 16
        sims = []
        for u, v in g.edges:
            a, b = g.features[u], g.features[v]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            sims.append(float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0)
        ref, _ = np.histogram(np.clip(sims, -1, 1), bins=bins, range=(-1, 1))
        hist = feature_sim_histogram(g, bins=bins)
        assert np.allclose(hist.mass, ref / ref.sum())

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=7, feat_dim=3)
        a = feature_sim_histogram(g, 20).mass
        b = feature_sim_histogram(g.with_features(g.features * 3.7), 20).mass
        assert np.array_equal(a, b)

    def test_zero_vector_counts_as_zero_similarity(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        hist = feature_sim_histogram(make_graph(2, [(0, 1)], features=feats), bins=4)
        assert hist.mass[2] == 1.0  # [0, 0.5) bin

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedEmbeddingError):
            feature_sim_histogram(make_graph(2, []), 8)


class TestPairwiseHeterogeneity:
    def test_singleton_self_pairing_is_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        ds = Dataset("one", [g])
        rep = pairwise_heterogeneity(ds, ds)
        assert rep.structure_mean == 0.0 and rep.feature_mean == 0.0

    def test_self_set_uses_distinct_pairs(self):
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, n=6) for _ in range(4)]
        ds = Dataset("four", [g.with_features(np.ones((g.num_nodes, 2))) for g in graphs])
        rep = pairwise_heterogeneity(ds, ds, awe_length=3)
        # identical features everywhere: feature divergence must vanish
        assert rep.feature_mean == pytest.approx(0.0, abs=1e-12)
        assert rep.structure_mean > 0.0

    def test_order_invariance_with_exact_pairs(self):
        rng = np.random.default_rng(12)
        graphs = [random_graph(rng, n=6) for _ in range(5)]
        forward, backward = Dataset("x", graphs), Dataset("x", graphs[::-1])
        a = pairwise_heterogeneity(forward, forward, awe_length=3)
        b = pairwise_heterogeneity(backward, backward, awe_length=3)
        assert a.structure_mean == pytest.approx(b.structure_mean, abs=1e-12)
        assert a.feature_mean == pytest.approx(b.feature_mean, abs=1e-12)

    def test_sets_sharing_a_name_are_still_two_sets(self):
        sparse = Dataset("x", [erdos_renyi_gnm(12, 14, seed) for seed in range(6)])
        dense = Dataset("x", [erdos_renyi_gnm(12, 60, seed) for seed in range(6)])
        renamed = Dataset("y", dense.graphs)
        same_name = pairwise_heterogeneity(sparse, dense)
        assert same_name.structure_mean == pairwise_heterogeneity(sparse, renamed).structure_mean
        assert same_name.structure_mean > pairwise_heterogeneity(sparse, sparse).structure_mean

    def test_pair_budget_sampling_is_deterministic(self):
        rng = np.random.default_rng(13)
        xs = Dataset("xs", [random_graph(rng, n=6) for _ in range(8)])
        ys = Dataset("ys", [random_graph(rng, n=6) for _ in range(8)])
        a = pairwise_heterogeneity(xs, ys, awe_length=3, pair_budget=10, seed=5)
        b = pairwise_heterogeneity(xs, ys, awe_length=3, pair_budget=10, seed=5)
        assert a == b

    def test_pair_budget_below_one_raises(self):
        ds = Dataset("two", [make_graph(3, [(0, 1)]), make_graph(3, [(1, 2)])])
        for bad in (0, -3):
            with pytest.raises(ArgumentError):
                pairwise_heterogeneity(ds, ds, pair_budget=bad)

    def test_half_edgeless_set_is_finite(self):
        good = make_graph(3, [(0, 1), (1, 2)])
        bad = make_graph(3, [])
        ds = Dataset("half", [good, bad, good.with_features(np.full((3, 1), 2.0)), bad])
        rep = pairwise_heterogeneity(ds, ds, awe_length=2)
        assert np.isfinite([rep.structure_mean, rep.feature_mean]).all()

    def test_mostly_edgeless_set_raises(self):
        good = make_graph(3, [(0, 1)])
        bad = make_graph(3, [])
        ds = Dataset("sparse", [good, bad, bad])
        with pytest.raises(UndefinedEmbeddingError):
            pairwise_heterogeneity(ds, ds)

    def test_some_edgeless_graphs_skipped(self):
        rng = np.random.default_rng(14)
        graphs = [random_graph(rng, n=5) for _ in range(5)] + [make_graph(4, [])]
        ds = Dataset("mixed", [g.with_features(np.ones((g.num_nodes, 1))) for g in graphs])
        rep = pairwise_heterogeneity(ds, ds, awe_length=3)
        assert np.isfinite(rep.structure_mean)
