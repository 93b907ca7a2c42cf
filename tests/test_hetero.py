from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import hetero
from gcflsim.errors import ArgumentError, UndefinedEmbeddingError
from gcflsim.graphs import Dataset, erdos_renyi_gnm
from gcflsim.hetero import (
    MAX_WALK_LENGTH,
    GraphEmbeddings,
    GraphPool,
    HeteroSettings,
    _advance,
    _sample_pairs,
    _walk_automaton,
    _walks_per_node,
    awe_distribution,
    dataset_pools,
    feature_sim_histogram,
    js_distance,
    js_divergence,
    pairwise_heterogeneity,
)

from conftest import (HYPOTHESIS, make_graph, one_graph, random_graph, small_graphs, union,
                      with_features)

# unions of 1-5 graphs, each with an edge: every member can be embedded
embeddable_unions = st.lists(small_graphs().filter(lambda g: g.num_edges > 0),
                             min_size=1, max_size=5)


def _anonymize(walk) -> tuple[int, ...]:
    """Reference anonymiser: each node becomes the rank of its first visit."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(int(v), len(mapping)) for v in walk)


def enumerate_anonymous_walks(length: int) -> list[tuple[int, ...]]:
    """All canonical anonymous walk patterns with ``length`` edges: ``awe_distribution``'s
    columns, in order."""
    return list(_walk_automaton(length)[1])


def pairwise(set_a, set_b, seed=0, **settings):
    """``pairwise_heterogeneity`` of two datasets, keyed as ``gcflsim analyze-hetero`` keys them."""
    return pairwise_heterogeneity(*dataset_pools(set_a, set_b, HeteroSettings(**settings), seed))


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

    It makes ``awe_distribution``'s generator calls for one graph in the same
    order: every start at once, then one next-neighbour draw per walk and step.
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


def histogram_reference(graph, bins):
    """Reference histogram of one graph: its edges' cosines, computed as the library computes
    them, binned by ``np.histogram``."""
    x = graph.features
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, initial=0.0))[1][:, None])
    a, b = x[graph.edges[:, 0]], x[graph.edges[:, 1]]
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    sims = np.zeros(len(denom))
    ok = denom > 0
    sims[ok] = np.sum(a[ok] * b[ok], axis=1) / denom[ok]
    counts, _ = np.histogram(np.clip(sims, -1.0, 1.0), bins=bins, range=(-1.0, 1.0))
    return counts / counts.sum()


@st.composite
def featured_unions(draw):
    """An embeddable union's graphs with features of one width, many of whose cosines are
    exactly 0 or +-1 (small integer vectors) and the rest arbitrary."""
    graphs, dim = draw(embeddable_unions), draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-4.0, 4.0))
    return [with_features(g, np.reshape(draw(st.lists(value, min_size=g.num_nodes * dim,
                                                      max_size=g.num_nodes * dim)),
                                        (g.num_nodes, dim))) for g in graphs]


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
        [dist] = awe_distribution(single_edge, 2)
        patterns = enumerate_anonymous_walks(2)
        assert dist[patterns.index((0, 1, 0))] == 1.0

    def test_triangle_half_half(self, triangle):
        # 12 equally likely walks: 6 backtrack, 6 visit a third node
        assert np.allclose(awe_distribution(triangle, 2), [[0.5, 0.5]])

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedEmbeddingError):
            awe_distribution(make_graph(3, []), 2)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng)
            for length in (2, 3, 4):
                assert awe_distribution(g, length).sum() == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_node_relabeling(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_graph(rng, n=7)
            perm = rng.permutation(7)
            edges = np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1)
            h = one_graph(7, edges, g.features[np.argsort(perm)], g.label)
            a = awe_distribution(g, 4)
            b = awe_distribution(h, 4)
            assert np.allclose(a, b, atol=1e-12)

    def test_sampled_converges_to_exact(self):
        g = random_graph(np.random.default_rng(3), n=6)
        exact = awe_distribution(g, 3)
        sampled = awe_distribution(g, 3, mode="sampled", samples=100_000, seeds=[0])
        assert 0.5 * np.abs(exact - sampled).sum() < 0.01  # total variation

    def test_sampled_deterministic_under_seed(self):
        g = random_graph(np.random.default_rng(4), n=6)
        a = awe_distribution(g, 3, mode="sampled", samples=500, seeds=[9])
        b = awe_distribution(g, 3, mode="sampled", samples=500, seeds=[9])
        assert np.array_equal(a, b)

    def test_auto_switches_on_budget(self, triangle, monkeypatch):
        ds = Dataset("t", triangle)
        exact = dataset_pools(ds, ds, HeteroSettings(awe_length=2), 0)[0].rows([(0, 0)])[0]
        monkeypatch.setattr(hetero, "WALK_BUDGET", 1)
        tiny = dataset_pools(ds, ds, HeteroSettings(awe_length=2), 3)[0].rows([(0, 0)])[0]
        assert np.allclose(exact, [[0.5, 0.5]])
        assert tiny.sum() == pytest.approx(1.0)
        assert not np.array_equal(exact, tiny)
        # the sampled graph's seed is its key's
        seed = int(np.random.SeedSequence([hetero._WALK_SEED_TAG, 3, 0, 0]).generate_state(1)[0])
        assert np.array_equal(tiny, awe_distribution(triangle, 2, "sampled", seeds=[seed]))

    @HYPOTHESIS
    @given(embeddable_unions)
    def test_exact_matches_dfs_reference(self, graphs):
        for length in range(1, 6):
            got = awe_distribution(union(graphs), length)
            assert got.shape == (len(graphs), len(enumerate_anonymous_walks(length)))
            for row, graph in zip(got, graphs):
                assert np.array_equal(row, dfs_awe_probs(graph, length))
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @HYPOTHESIS
    @given(embeddable_unions)
    def test_exact_chunking_leaves_probs_unchanged(self, graphs):
        whole = union(graphs)
        first = graphs[0].num_nodes - graphs[0].degrees.tolist().count(0)  # graph 0's starts
        for length in range(1, 6):
            per_start = _walks_per_node(whole, length)[whole.degrees > 0]
            # the middle cap ends the first chunk inside graph 0, whose starts number >= 2
            middle = max(1, int(per_start[:first].sum()) // 2)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hetero, "EXACT_CHUNK_WALKS", middle)
                assert 0 < next(hetero._start_chunks(per_start))[1] < first
            want = [dfs_awe_probs(g, length) for g in graphs]
            for cap in (1, middle, int(per_start.sum()) + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hetero, "EXACT_CHUNK_WALKS", cap)
                    assert np.array_equal(awe_distribution(whole, length), want)

    @HYPOTHESIS
    @given(embeddable_unions, st.lists(st.integers(0, 2**32), min_size=5, max_size=5))
    def test_sampled_matches_reference_walker(self, graphs, seeds):
        seeds = seeds[:len(graphs)]
        for length in range(1, MAX_WALK_LENGTH + 1):
            got = awe_distribution(union(graphs), length, mode="sampled", samples=200,
                                   seeds=seeds)
            for row, graph, seed in zip(got, graphs, seeds):
                assert np.array_equal(row, sampled_awe_reference(graph, length, 200, seed))
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_edgeless_member_raises(self, triangle, mode):
        with pytest.raises(UndefinedEmbeddingError):
            awe_distribution(union([triangle, make_graph(2, []), triangle]), 2, mode,
                             seeds=[0, 1, 2])

    def test_seed_count_must_match_graph_count(self, triangle):
        for seeds in ([], [1], [1, 2, 3]):
            with pytest.raises(ArgumentError):
                awe_distribution(union([triangle, triangle]), 2, "sampled", seeds=seeds)

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

    @pytest.mark.parametrize("p", [[0.5, 0.6], [1.5, -0.5]], ids=["sum", "negative"])
    def test_non_probability_rows_rejected(self, p):
        with pytest.raises(ArgumentError, match="^inputs must be probability vectors$"):
            js_divergence(np.array([p, [0.5, 0.5]]), np.full((2, 2), 0.5))

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
        [mass] = feature_sim_histogram(g, bins=20)
        assert mass[-1] == 1.0  # cosine exactly 1 lands in the last bin

    def test_orthogonal_one_hot_mass_at_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)], features=np.eye(3))
        [mass] = feature_sim_histogram(g, bins=20)
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
        [mass] = feature_sim_histogram(g, bins=bins)
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
        assert feature_sim_histogram(g, bins=4).tolist() == [[0.0, 0.0, 0.0, 1.0]]

    def test_zero_vector_counts_as_zero_similarity(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        [mass] = feature_sim_histogram(make_graph(2, [(0, 1)], features=feats), bins=4)
        assert mass[2] == 1.0  # [0, 0.5) bin

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedEmbeddingError):
            feature_sim_histogram(make_graph(2, []), 8)
        with pytest.raises(UndefinedEmbeddingError):
            feature_sim_histogram(union([make_graph(2, [(0, 1)]), make_graph(2, [])]), 8)

    @HYPOTHESIS
    @given(featured_unions(), st.sampled_from([1, 2, 3, 4, 5, 8, 20]))
    def test_union_rows_match_per_graph_reference(self, graphs, bins):
        got = feature_sim_histogram(union(graphs), bins)
        assert got.shape == (len(graphs), bins)
        for row, graph in zip(got, graphs):
            assert np.array_equal(row, histogram_reference(graph, bins))
            assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cosines_on_bin_edges_and_at_plus_minus_one(self):
        # vectors of four +-1 entries have norm 2, so their cosines are exactly -1, -0.5, 0,
        # 0.5 and 1, every edge of four bins; the star's centre meets each once, and a copy
        # of itself (cosine 1, in the closed last bin)
        ones = [1.0] * 4
        star = make_graph(6, [(0, i) for i in range(1, 6)], features=np.array(
            [ones, [1, 1, 1, -1], [1, 1, -1, -1], [1, -1, -1, -1], [-1] * 4, ones]))
        flat = make_graph(3, [(0, 1), (1, 2)], features=np.full((3, 4), -1.0))
        got = feature_sim_histogram(union([star, flat, star]), 4)
        assert got.tolist() == [[0.2, 0.2, 0.2, 0.4], [0.0, 0.0, 0.0, 1.0], [0.2, 0.2, 0.2, 0.4]]
        for row, graph in zip(got, (star, flat, star)):
            assert np.array_equal(row, histogram_reference(graph, 4))


class TestPairwiseHeterogeneity:
    def test_datasets_keyed_by_set_tag_and_index(self):
        edge, path, triangle = (make_graph(3, [(0, 1)]), make_graph(3, [(0, 1), (1, 2)]),
                                make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        a, b = Dataset("a", union([edge, path])), Dataset("b", triangle)
        store, pool_a, pool_b = dataset_pools(a, b, HeteroSettings(awe_length=2), 0)
        assert pool_a == ("a", [0]) and pool_b == ("b", [1])
        assert store.keys(pool_a) == [(0, 0), (0, 1)] and store.keys(pool_b) == [(1, 0)]
        assert store.sets == {0: [a.graphs], 1: [b.graphs]}
        awe, _ = store.rows([(0, 1), (1, 0), (0, 0)])
        assert np.allclose(awe, [[2 / 3, 1 / 3], [0.5, 0.5], [1.0, 0.0]])
        for bad in ((1, 1), (0, -1), (2, 0)):
            with pytest.raises(KeyError):
                store.rows([bad])
        _, pool_a, pool_b = dataset_pools(a, a, HeteroSettings(), 0)
        assert pool_a is pool_b and pool_a.tags == [0]

    def test_pool_keys_run_in_tag_then_position_order(self):
        rng = np.random.default_rng(17)
        graphs = [random_graph(rng, n=5) for _ in range(5)]
        store = GraphEmbeddings({3: [union(graphs[:2]), union(graphs[2:3])],
                                 1: [union(graphs[3:])]}, HeteroSettings(), 0)
        assert store.keys(GraphPool("both", [3, 1])) == [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2)]
        assert store.keys(GraphPool("one", [3])) == [(3, 0), (3, 1), (3, 2)]

    def test_rows_embed_each_missing_graph_once_per_union(self, monkeypatch):
        rng = np.random.default_rng(16)
        graphs = [random_graph(rng, n=6) for _ in range(3)] + [random_graph(rng, n=7)
                                                               for _ in range(2)]
        store = GraphEmbeddings({4: [union(graphs[:3]), union(graphs[3:])]},
                                HeteroSettings(awe_length=3, bins=8), 0)
        cuts, binned = [], hetero.feature_sim_histogram
        monkeypatch.setattr(hetero, "feature_sim_histogram",
                            lambda graph, bins: cuts.append(len(graph)) or binned(graph, bins))
        awe, hist = store.rows([(4, 3), (4, 0), (4, 3), (4, 4)])
        assert cuts == [1, 2] and len(awe) == len(hist) == 4
        awe, hist = store.rows([(4, pos) for pos in range(5)])
        assert cuts == [1, 2, 2]  # the two graphs of the first union not yet embedded
        for pos, graph in enumerate(graphs):
            assert np.array_equal(awe[pos], awe_distribution(graph, 3)[0])
            assert np.array_equal(hist[pos], binned(graph, 8)[0])

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
            with pytest.raises(ArgumentError, match=f"^pair_budget must be >= 1, got {bad}$"):
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
