import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim.clustering import (
    ClusterConfig,
    ClusterState,
    bipartition_cluster,
    cluster_aggregate,
    cosine_matrix,
    split_check,
    stoer_wagner_mincut,
    to_cut_weights,
)
from gcflsim.errors import ArgumentError

from conftest import HYPOTHESIS


def brute_force_mincut(w):
    """Exhaustive minimum cut; the side containing vertex 0 is enumerated."""
    n = len(w)
    best_val, best_side = None, None
    for mask in range(2 ** (n - 1) - 1):
        side = [0] + [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        other = [i for i in range(n) if i not in side]
        val = sum(w[i, j] for i in side for j in other)
        if best_val is None or val < best_val - 1e-15:
            best_val, best_side = val, tuple(side)
    return best_val, best_side


def random_weights(rng, n, density=0.7):
    w = np.triu(rng.uniform(0, 1, (n, n)), 1)
    w *= np.triu(rng.uniform(size=(n, n)) < density, 1)
    return w + w.T


def _unique_mincut(w, best_val, tol=1e-12):
    n = len(w)
    hits = 0
    for mask in range(2 ** (n - 1) - 1):
        side = [0] + [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        other = [i for i in range(n) if i not in side]
        if abs(sum(w[i, j] for i in side for j in other) - best_val) <= tol:
            hits += 1
    return hits == 1


@st.composite
def symmetric_weights(draw):
    """A symmetric non-negative weight matrix with a zero diagonal, 2-8 vertices."""
    n = draw(st.integers(2, 8))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = draw(st.lists(weight, min_size=n * (n - 1) // 2,
                                             max_size=n * (n - 1) // 2))
    return w + w.T


def fedavg_aggregate(deltas, sizes, base):
    """base + size-weighted mean of the deltas."""
    if not deltas or len(deltas) != len(sizes):
        raise ArgumentError("need one size per delta and at least one delta")
    weights = np.asarray(sizes, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ArgumentError("total size must be positive")
    weights = weights / total
    assert abs(weights.sum() - 1.0) < 1e-9
    return base + sum(w * d for w, d in zip(weights, deltas))


def aggregate_stats(deltas, sizes):
    """The (delta_mean, delta_max) that aggregating one cluster records."""
    cluster = ClusterState(0, list(range(len(deltas))), np.zeros_like(deltas[0]))
    cluster_aggregate(cluster, deltas, sizes)
    return cluster.delta_mean, cluster.delta_max


def stats_and_check(deltas, sizes, config, round_index):
    """The split decision as the round loop makes it: aggregation first, then the criteria."""
    d_mean, d_max = aggregate_stats(deltas, sizes)
    return split_check(d_mean, d_max, len(deltas), config, round_index), d_mean, d_max


class TestSplitCheck:
    CFG = ClusterConfig(eps1=1.0, eps2=0.5, min_split_size=2, warmup_rounds=0)

    def test_all_zero_deltas_do_not_split(self):
        deltas = [np.zeros(4)] * 3
        should, d_mean, d_max = stats_and_check(deltas, [1, 1, 1], self.CFG, round_index=5)
        assert (should, d_mean, d_max) == (False, 0.0, 0.0)

    def test_exact_cancellation_splits(self):
        v = np.array([3.0, 4.0])  # norm 5 > eps2
        should, d_mean, d_max = stats_and_check([v, -v], [2, 2], self.CFG, round_index=1)
        assert should and d_mean == pytest.approx(0.0) and d_max == pytest.approx(5.0)

    def test_aligned_updates_do_not_split(self):
        v = np.array([3.0, 4.0])
        should, d_mean, _ = stats_and_check([v, v, v], [1, 1, 1], self.CFG, round_index=1)
        assert not should and d_mean == pytest.approx(5.0)

    def test_warmup_and_min_size_guards(self):
        v = np.array([3.0, 4.0])
        late = ClusterConfig(1.0, 0.5, min_split_size=2, warmup_rounds=10)
        assert not stats_and_check([v, -v], [1, 1], late, round_index=9)[0]
        assert stats_and_check([v, -v], [1, 1], late, round_index=10)[0]
        big = ClusterConfig(1.0, 0.5, min_split_size=3, warmup_rounds=0)
        assert not stats_and_check([v, -v], [1, 1], big, round_index=50)[0]

    def test_member_order_invariance(self):
        rng = np.random.default_rng(0)
        deltas = [rng.standard_normal(6) for _ in range(4)]
        sizes = [1, 2, 3, 4]
        a = stats_and_check(deltas, sizes, self.CFG, 3)
        b = stats_and_check(deltas[::-1], sizes[::-1], self.CFG, 3)
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], abs=1e-12)
        assert a[2] == b[2]

    def test_size_weighting(self):
        d_mean, _ = aggregate_stats([np.array([1.0]), np.array([-1.0])], [3, 1])
        assert d_mean == pytest.approx(0.5)

    def test_positive_eps_required(self):
        for eps1, eps2 in ((0.0, 1.0), (float("nan"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ArgumentError):
                ClusterConfig(eps1=eps1, eps2=eps2)

    @pytest.mark.parametrize("sizes", [dict(min_split_size=0), dict(min_split_size=-3),
                                       dict(warmup_rounds=-2)])
    def test_split_sizes_in_range(self, sizes):
        with pytest.raises(ArgumentError, match="min_split_size >= 1 and warmup_rounds >= 0"):
            ClusterConfig(eps1=1.0, eps2=1.0, **sizes)


class TestCosineMatrix:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0])
        alpha = cosine_matrix([v, v, v])
        assert np.allclose(alpha, 1.0)

    def test_orthogonal_vectors(self):
        alpha = cosine_matrix([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        assert alpha[0, 1] == 0.0 and alpha[0, 0] == 1.0

    def test_opposite_vectors(self):
        v = np.array([1.0, -1.0])
        assert cosine_matrix([v, -v])[0, 1] == pytest.approx(-1.0)

    def test_zero_vector_rows_are_zero(self):
        alpha = cosine_matrix([np.zeros(3), np.array([1.0, 0, 0])])
        assert alpha[0, 0] == 0.0 and alpha[0, 1] == 0.0 and alpha[1, 1] == 1.0

    def test_positive_scaling_leaves_rows_unchanged(self):
        rng = np.random.default_rng(1)
        vecs = [rng.standard_normal(5) for _ in range(3)]
        base = cosine_matrix(vecs)
        scaled = cosine_matrix([vecs[0] * 7.3, vecs[1], vecs[2]])
        assert np.allclose(base, scaled, atol=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        alpha = cosine_matrix([rng.standard_normal(8) for _ in range(5)])
        assert np.allclose(alpha, alpha.T)
        assert np.allclose(np.diag(alpha), 1.0)

    def test_needs_two_vectors(self):
        with pytest.raises(ArgumentError):
            cosine_matrix([np.ones(3)])


class TestToCutWeights:
    def test_all_ones(self):
        w = to_cut_weights(np.ones((3, 3)))
        assert np.allclose(w[~np.eye(3, dtype=bool)], 1.0 + 1e-6)
        assert np.all(np.diag(w) == 0.0)

    def test_negative_clamped_to_floor(self):
        alpha = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert to_cut_weights(alpha)[0, 1] == pytest.approx(1e-6)

    def test_output_satisfies_mincut_preconditions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            alpha = np.clip(rng.uniform(-1, 1, (n, n)), -1, 1)
            alpha = (alpha + alpha.T) / 2
            np.fill_diagonal(alpha, 1.0)
            w = to_cut_weights(alpha)
            stoer_wagner_mincut(w)  # must not raise


class TestStoerWagner:
    def test_two_vertices(self):
        w = np.array([[0.0, 2.5], [2.5, 0.0]])
        (a, b), value = stoer_wagner_mincut(w)
        assert {a, b} == {(0,), (1,)} and value == 2.5

    def test_weak_bridge_between_cliques(self):
        w = np.zeros((6, 6))
        for i, j in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]:
            w[i, j] = w[j, i] = 1.0
        w[2, 3] = w[3, 2] = 0.1
        (a, b), value = stoer_wagner_mincut(w)
        assert value == pytest.approx(0.1)
        assert {frozenset(a), frozenset(b)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_uniform_k4(self):
        w = np.ones((4, 4)) - np.eye(4)
        (a, b), value = stoer_wagner_mincut(w)
        assert value == pytest.approx(3.0)
        assert min(len(a), len(b)) == 1

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = random_weights(rng, n)
            (a, b), value = stoer_wagner_mincut(w)
            ref_val, ref_side = brute_force_mincut(w)
            assert value == pytest.approx(ref_val, abs=1e-9)
            # the returned partition must achieve the optimum; it must equal
            # the brute-force side (up to complement) whenever the cut is unique
            achieved = sum(w[i, j] for i in a for j in b)
            assert achieved == pytest.approx(ref_val, abs=1e-9)
            if w[w > 0].min(initial=np.inf) > 0 and _unique_mincut(w, ref_val):
                assert set(a) == set(ref_side) or set(b) == set(ref_side)

    @HYPOTHESIS
    @given(symmetric_weights())
    def test_matches_brute_force_on_drawn_weights(self, w):
        (a, b), value = stoer_wagner_mincut(w)
        ref_val, ref_side = brute_force_mincut(w)
        assert value == pytest.approx(ref_val, abs=1e-12)
        assert sum(w[i, j] for i in a for j in b) == pytest.approx(ref_val, abs=1e-12)
        if _unique_mincut(w, ref_val):
            assert set(a) == set(ref_side) or set(b) == set(ref_side)

    def test_deterministic_and_zero_first(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 6)
        first = stoer_wagner_mincut(w)
        second = stoer_wagner_mincut(w)
        assert first == second
        assert 0 in first[0][0]

    def test_input_validation(self):
        with pytest.raises(ArgumentError):
            stoer_wagner_mincut(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ArgumentError):
            stoer_wagner_mincut(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ArgumentError):
            stoer_wagner_mincut(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ArgumentError):
            stoer_wagner_mincut(np.zeros((1, 1)))


class TestBipartition:
    def test_two_member_cluster_becomes_singletons(self):
        cluster = ClusterState(0, [7, 3], np.arange(4.0))
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        halves, value = bipartition_cluster(cluster, w)
        assert halves == ((3,), (7,))
        assert value == 1.0

    def test_children_partition_parent(self):
        rng = np.random.default_rng(6)
        members = [4, 9, 11, 20, 31]
        cluster = ClusterState(2, members, rng.standard_normal(8))
        w = random_weights(rng, 5) + 0.01
        np.fill_diagonal(w, 0.0)
        (a, b), _ = bipartition_cluster(cluster, w)
        assert sorted(a + b) == sorted(members)
        assert not set(a) & set(b)
        assert a[0] == members[0] and list(a) == sorted(a) and list(b) == sorted(b)

    def test_singleton_rejected(self):
        with pytest.raises(ArgumentError):
            bipartition_cluster(ClusterState(0, [1], np.zeros(2)), np.zeros((1, 1)))


class TestClusterAggregate:
    def test_single_member(self):
        cluster = ClusterState(0, [0], np.array([1.0, 1.0]))
        out = cluster_aggregate(cluster, [np.array([0.5, -0.5])], [10])
        assert np.allclose(out, [1.5, 0.5])

    def test_equal_sizes_average(self):
        cluster = ClusterState(0, [0, 1], np.zeros(2))
        a, b = np.array([2.0, 0.0]), np.array([0.0, 4.0])
        out = cluster_aggregate(cluster, [a, b], [5, 5])
        assert np.allclose(out, [1.0, 2.0])

    def test_mismatch_rejected(self):
        cluster = ClusterState(0, [0, 1], np.zeros(2))
        with pytest.raises(ArgumentError):
            cluster_aggregate(cluster, [np.zeros(2)], [1, 2])

    def test_reproduces_fedavg_aggregate(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal(6)
        deltas = [rng.standard_normal(6) for _ in range(3)]
        sizes = [4, 9, 2]
        cluster = ClusterState(0, [0, 1, 2], base.copy())
        assert np.array_equal(cluster_aggregate(cluster, deltas, sizes),
                              fedavg_aggregate(deltas, sizes, base))
