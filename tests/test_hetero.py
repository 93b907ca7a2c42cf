from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import hetero
from gcflsim.errors import ArgumentError, UndefinedEmbeddingError
from gcflsim.graphs import Dataset, erdos_renyi_gnm, one_graph
from gcflsim.hetero import (
    MAX_WALK_LENGTH,
    _advance,
    _sample_pairs,
    _walk_automaton,
    _walks_per_node,
    awe_distribution,
    awe_distribution_auto,
    dataset_pools,
    enumerate_anonymous_walks,
    feature_sim_histogram,
    js_distance,
    js_divergence,
    pairwise_heterogeneity,
)

from conftest import HYPOTHESIS, make_graph, random_graph, small_graphs, union, with_features


def _anonymize(walk) -> tuple[int, ...]:
    """Reference anonymiser: each node becomes the rank of its first visit."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(int(v), len(mapping)) for v in walk)


def pairwise(set_a, set_b, awe_length=4, bins=20, pair_budget=2000, seed=0):
    """``pairwise_heterogeneity`` of two datasets, keyed as ``gcflsim analyze-hetero`` keys them."""
    return pairwise_heterogeneity(*dataset_pools(set_a, set_b, awe_length, bins, seed), pair_budget)


def js_divergence_reference(p, q) -> float:
    """Per-pair Jensen-Shannon divergence: a masked sum over one pair's support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    return min(1.0, max(0.0, 0.5 * kl(p) + 0.5 * kl(q)))


@st.composite
def distribution_rows(draw, count=2):
    """``count`` stacks of the same shape, each row a probability vector, zeros included."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    mass = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    stacks = []
    for _ in range(count):
        raw = np.array(draw(st.lists(st.lists(mass, min_size=width, max_size=width),
                                     min_size=rows, max_size=rows)))
        raw[:, 0] += raw.sum(axis=1) == 0  # a row of zeros becomes a point mass
        stacks.append(raw / raw.sum(axis=1, keepdims=True))
    return stacks


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


def sampled_awe_reference(graph, length, samples, seed):
    """Reference sampled distribution: Python walks over sorted neighbour lists.

    It makes ``awe_distribution``'s generator calls in the same order: every
    start at once, then one next-neighbour draw per walk and step.
    """
    nbrs = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    nbrs = [sorted(row) for row in nbrs]
    starts = [v for v in range(graph.num_nodes) if nbrs[v]]
    rng = np.random.default_rng(seed)
    walks = [[starts[i]] for i in rng.integers(len(starts), size=samples).tolist()]
    for _ in range(length):
        picks = rng.integers(0, [len(nbrs[walk[-1]]) for walk in walks])
        for walk, r in zip(walks, picks.tolist()):
            walk.append(nbrs[walk[-1]][r])
    index = {p: i for i, p in enumerate(enumerate_anonymous_walks(length))}
    counts = np.zeros(len(index))
    for walk in walks:
        counts[index[_anonymize(walk)]] += 1
    return counts / samples


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
            h = one_graph(7, edges, g.features[np.argsort(perm)], g.label)
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

    @HYPOTHESIS
    @given(small_graphs().filter(lambda g: g.num_edges > 0))
    def test_exact_chunking_leaves_probs_unchanged(self, graph):
        starts = graph.degrees > 0
        for length in range(1, 6):
            per_start = _walks_per_node(graph, length)[starts]
            caps = (1, max(1, int(per_start.max()) - 1), int(per_start.sum()) + 1)
            want = dfs_awe_probs(graph, length)
            for cap in caps:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hetero, "EXACT_CHUNK_WALKS", cap)
                    assert np.array_equal(awe_distribution(graph, length).probs, want)

    @HYPOTHESIS
    @given(small_graphs().filter(lambda g: g.num_edges > 0), st.integers(0, 2**32))
    def test_sampled_matches_reference_walker(self, graph, seed):
        for length in range(1, MAX_WALK_LENGTH + 1):
            assert np.array_equal(
                awe_distribution(graph, length, mode="sampled", samples=200, seed=seed).probs,
                sampled_awe_reference(graph, length, 200, seed))

    def test_pattern_index_matches_reference_anonymizer(self):
        rng = np.random.default_rng(15)
        for length in range(1, MAX_WALK_LENGTH + 1):
            step, patterns = _walk_automaton(length)
            for nodes in (2, 3, length + 1, 50):
                steps = rng.integers(1, nodes, size=(400, length + 1))
                steps[:, 0] = rng.integers(nodes, size=400)
                walks = np.cumsum(steps, axis=1) % nodes  # no step stays in place
                cols, state = [walks[:, 0]], np.zeros(len(walks), dtype=np.intp)
                for t in range(1, length + 1):
                    cols.append(walks[:, t])
                    state = _advance(step, state, cols)
                assert [patterns[k - len(step)] for k in state] == [_anonymize(w) for w in walks]


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


    @HYPOTHESIS
    @given(distribution_rows())
    def test_stacked_rows_match_per_pair_reference(self, stacks):
        p, q = stacks
        got = js_divergence(p, q)
        assert got.shape == (len(p),)
        want = [js_divergence_reference(a, b) for a, b in zip(p, q)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.array_equal(js_distance(p, q), np.sqrt(got))

    @HYPOTHESIS
    @given(distribution_rows(count=3))
    def test_stacked_symmetric_bounded_and_triangular(self, stacks):
        p, q, r = stacks
        assert np.array_equal(js_divergence(p, q), js_divergence(q, p))
        assert np.all((js_divergence(p, q) >= 0.0) & (js_divergence(p, q) <= 1.0))
        # the square root amplifies rounding near 0: 1e-16 in a divergence is 1e-8 in a distance
        assert np.all(js_distance(p, r) <= js_distance(p, q) + js_distance(q, r) + 1e-7)


class TestSamplePairs:
    @HYPOTHESIS
    @given(st.integers(1, 40), st.integers(1, 40), st.booleans(), st.integers(1, 400),
           st.integers(0, 2**32))
    def test_distinct_in_range_and_seeded(self, len_a, len_b, same, budget, seed):
        rows, cols = _sample_pairs(len_a, len_b, same, budget, seed)
        total = len_a * (len_a - 1) // 2 if same else len_a * len_b
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert len(pairs) == len(set(pairs)) == min(total, budget)
        if same:
            assert all(0 <= i < j < len_a for i, j in pairs)
        else:
            assert all(0 <= i < len_a and 0 <= j < len_b for i, j in pairs)
        again = _sample_pairs(len_a, len_b, same, budget, seed)
        assert np.array_equal(rows, again[0]) and np.array_equal(cols, again[1])


class TestFeatureSimHistogram:
    def test_identical_features_mass_at_one(self, triangle):
        g = with_features(triangle, np.tile([1.0, 2.0], (3, 1)))
        mass = feature_sim_histogram(g, bins=20)
        assert mass[-1] == 1.0  # cosine exactly 1 lands in the last bin

    def test_orthogonal_one_hot_mass_at_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)], features=np.eye(3))
        mass = feature_sim_histogram(g, bins=20)
        # cosine 0 falls in the bin whose left edge is 0
        assert mass[10] == 1.0

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
        mass = feature_sim_histogram(g, bins=bins)
        assert np.allclose(mass, ref / ref.sum())

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=7, feat_dim=3)
        a = feature_sim_histogram(g, 20)
        b = feature_sim_histogram(with_features(g, g.features * 3.7), 20)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_finite_features(self, scale):
        # every edge's cosine is at least 1/sqrt(2), so all lands in the top bin.
        # Unscaled, the norms overflow or underflow, and a RuntimeWarning fails
        # the test
        first = [[scale, 1.0], [scale, 2.0]] if scale > 1 else [[scale, scale], [2 * scale, scale]]
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)], features=np.array(first + [[1.0, 1.0],
                                                                               [2.0, 1.0]]))
        assert feature_sim_histogram(g, bins=4).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_zero_vector_counts_as_zero_similarity(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        mass = feature_sim_histogram(make_graph(2, [(0, 1)], features=feats), bins=4)
        assert mass[2] == 1.0  # [0, 0.5) bin

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedEmbeddingError):
            feature_sim_histogram(make_graph(2, []), 8)


class TestPairwiseHeterogeneity:
    def test_datasets_keyed_by_set_tag_and_index(self):
        a = Dataset("a", union([make_graph(3, [(0, 1)]), make_graph(3, [(1, 2)])]))
        b = Dataset("b", union([make_graph(3, [(0, 2)])]))
        store, pool_a, pool_b = dataset_pools(a, b)
        assert pool_a == ("a", [(0, 0), (0, 1)]) and pool_b == ("b", [(1, 0)])
        assert store.sets == {0: [a.graphs], 1: [b.graphs]}
        assert store.graph((0, 1)).edges.tolist() == [[1, 2]]
        assert store.graph((1, 0)).edges.tolist() == [[0, 2]]
        with pytest.raises(KeyError):
            store.graph((1, 1))
        _, pool_a, pool_b = dataset_pools(a, a)
        assert pool_a is pool_b and pool_a.keys == [(0, 0), (0, 1)]

    def test_singleton_self_pairing_is_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        ds = Dataset("one", g)
        rep = pairwise(ds, ds)
        assert rep.structure_mean == 0.0 and rep.feature_mean == 0.0

    def test_self_set_uses_distinct_pairs(self):
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, n=6) for _ in range(4)]
        ds = Dataset("four", union(with_features(g, np.ones((g.num_nodes, 2))) for g in graphs))
        rep = pairwise(ds, ds, awe_length=3)
        # identical features everywhere: feature divergence must vanish
        assert rep.feature_mean == pytest.approx(0.0, abs=1e-12)
        assert rep.structure_mean > 0.0

    def test_order_invariance_with_exact_pairs(self):
        rng = np.random.default_rng(12)
        graphs = [random_graph(rng, n=6) for _ in range(5)]
        forward, backward = Dataset("x", union(graphs)), Dataset("x", union(graphs[::-1]))
        a = pairwise(forward, forward, awe_length=3)
        b = pairwise(backward, backward, awe_length=3)
        assert a.structure_mean == pytest.approx(b.structure_mean, abs=1e-12)
        assert a.feature_mean == pytest.approx(b.feature_mean, abs=1e-12)

    def test_sets_sharing_a_name_are_still_two_sets(self):
        sparse = Dataset("x", union(make_graph(12, erdos_renyi_gnm(12, 14, seed))
                                    for seed in range(6)))
        dense = Dataset("x", union(make_graph(12, erdos_renyi_gnm(12, 60, seed))
                                   for seed in range(6)))
        renamed = Dataset("y", dense.graphs)
        same_name = pairwise(sparse, dense)
        assert same_name.structure_mean == pairwise(sparse, renamed).structure_mean
        assert same_name.structure_mean > pairwise(sparse, sparse).structure_mean

    def test_pair_budget_sampling_is_deterministic(self):
        rng = np.random.default_rng(13)
        xs = Dataset("xs", union(random_graph(rng, n=6) for _ in range(8)))
        ys = Dataset("ys", union(random_graph(rng, n=6) for _ in range(8)))
        a = pairwise(xs, ys, awe_length=3, pair_budget=10, seed=5)
        b = pairwise(xs, ys, awe_length=3, pair_budget=10, seed=5)
        assert a == b

    def test_pair_budget_below_one_raises(self):
        ds = Dataset("two", union([make_graph(3, [(0, 1)]), make_graph(3, [(1, 2)])]))
        for bad in (0, -3):
            with pytest.raises(ArgumentError):
                pairwise(ds, ds, pair_budget=bad)

    def test_half_edgeless_set_is_finite(self):
        good = make_graph(3, [(0, 1), (1, 2)])
        bad = make_graph(3, [])
        ds = Dataset("half", union([good, bad, with_features(good, np.full((3, 1), 2.0)), bad]))
        rep = pairwise(ds, ds, awe_length=2)
        assert np.isfinite([rep.structure_mean, rep.feature_mean]).all()

    def test_mostly_edgeless_set_raises(self):
        good = make_graph(3, [(0, 1)])
        bad = make_graph(3, [])
        ds = Dataset("sparse", union([good, bad, bad]))
        with pytest.raises(UndefinedEmbeddingError):
            pairwise(ds, ds)

    def test_some_edgeless_graphs_skipped(self):
        rng = np.random.default_rng(14)
        graphs = [random_graph(rng, n=5) for _ in range(5)] + [make_graph(4, [])]
        ds = Dataset("mixed", union(with_features(g, np.ones((g.num_nodes, 1))) for g in graphs))
        rep = pairwise(ds, ds, awe_length=3)
        assert np.isfinite(rep.structure_mean)
