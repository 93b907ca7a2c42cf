import csv
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcflsim import fed
from gcflsim.clustering import (ClusterState, bipartition_cluster, stoer_wagner_mincut,
                                to_cut_weights)
from gcflsim.dtwseries import dtw_distance, dtw_matrix, standardize_row
from gcflsim.errors import ArgumentError
from gcflsim.fed import ClientRound, RoundReport, RunSettings

from conftest import HYPOTHESIS

# norm-like sequences, zeros and repeats included, and the lengths a window holds
SEQUENCES = st.lists(st.floats(0.0, 1e3, allow_nan=False, allow_subnormal=False),
                     min_size=1, max_size=15)


def dtw_oracle(a, b):
    """Memoized-recursion DTW, written independently of the DP-table version."""
    a = tuple(float(x) for x in a)
    b = tuple(float(x) for x in b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 and j == 0:
            return abs(a[0] - b[0])
        if i < 0 or j < 0:
            return float("inf")
        return abs(a[i] - b[j]) + min(rec(i - 1, j), rec(i, j - 1), rec(i - 1, j - 1))

    return rec(len(a) - 1, len(b) - 1)


class TestStandardizeRow:
    def test_two_point_sequence(self):
        # population std of {2, 4} is 1, so the row is unchanged
        assert standardize_row(np.array([2.0, 4.0])).tolist() == [2.0, 4.0]

    def test_constant_sequence_unchanged(self, caplog):
        out = standardize_row(np.array([5.0, 5.0, 5.0]))
        assert out.tolist() == [5.0, 5.0, 5.0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        seq = rng.uniform(0.1, 2.0, size=8)
        assert np.allclose(standardize_row(seq * 3.0), standardize_row(seq), atol=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(ArgumentError):
            standardize_row(np.array([1.0]))


class TestDtwDistance:
    def test_identical_sequences(self):
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_cell(self):
        assert dtw_distance([0.0], [-3.5]) == 3.5

    def test_repeated_element_aligns_free(self):
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        assert dtw_distance([1.0, 1.0, 1.0], [5.0, 5.0, 5.0]) == 12.0

    @HYPOTHESIS
    @given(SEQUENCES, SEQUENCES)
    def test_matches_memoized_oracle(self, a, b):
        # both add the same |a_i - b_j| costs to the min of the same neighbours: exactly equal
        assert dtw_distance(a, b) == dtw_oracle(a, b)

    @HYPOTHESIS
    @given(SEQUENCES, SEQUENCES)
    def test_symmetry_and_self_distance(self, a, b):
        # both orders add the same costs along the same paths, so they agree exactly
        assert dtw_distance(a, b) == dtw_distance(b, a) >= 0.0
        assert dtw_distance(a, a) == 0.0
        assert dtw_distance(a, a + a[-1:]) == 0.0  # a repeated last element aligns for free

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            dtw_distance([], [1.0])


class TestDtwMatrix:
    def _window(self, rows):
        return {cid: [float(x) for x in row] for cid, row in rows.items()}

    def test_identical_histories_zero_matrix(self):
        window = self._window({0: [1.0, 2.0], 1: [1.0, 2.0], 2: [1.0, 2.0]})
        assert np.all(dtw_matrix(window, [0, 1, 2]) == 0.0)

    def test_constant_offset_pair(self):
        window = self._window({0: [1.0, 1.0, 1.0], 1: [5.0, 5.0, 5.0]})
        beta = dtw_matrix(window, [0, 1])
        assert beta[0, 1] == 12.0

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        window = self._window({i: rng.uniform(size=6) for i in range(4)})
        beta = dtw_matrix(window, [0, 1, 2, 3])
        assert np.allclose(beta, beta.T)
        assert np.all(np.diag(beta) == 0.0)

    def test_prefix_comparison_for_partial_fill(self):
        window = self._window({0: [1.0, 2.0, 3.0], 1: [1.0]})
        beta = dtw_matrix(window, [0, 1])
        assert beta[0, 1] == pytest.approx(dtw_oracle([1.0, 2.0, 3.0], [1.0]))

    def test_standardize_flag(self):
        window = self._window({0: [1.0, 2.0, 4.0], 1: [2.0, 4.0, 8.0]})
        raw = dtw_matrix(window, [0, 1])
        std = dtw_matrix(window, [0, 1], standardize=True)
        assert std[0, 1] == pytest.approx(0.0, abs=1e-12)  # same shape after scaling
        assert raw[0, 1] > 0.0

    def test_empty_buffer_names_client(self):
        window = self._window({0: [1.0]})
        with pytest.raises(ArgumentError, match="client 5"):
            dtw_matrix(window, [0, 5])


def dtw_cut_weights(beta):
    """gcflplus's cut weights: the distances complemented against their largest."""
    beta = np.asarray(beta, dtype=np.float64)
    return to_cut_weights(beta.max() - beta)


class TestDtwToCutWeights:
    def test_all_zero_distances_give_uniform_weights_singleton_cut(self):
        beta = np.zeros((4, 4))
        w = dtw_cut_weights(beta)
        off = w[~np.eye(4, dtype=bool)]
        assert np.allclose(off, off[0])
        (a, b), _ = stoer_wagner_mincut(w)
        assert min(len(a), len(b)) == 1

    def test_dominant_distance_is_severed(self):
        # client pair (0, 2) is far apart; 1 sits near 0
        beta = np.array([
            [0.0, 1.0, 10.0],
            [1.0, 0.0, 9.0],
            [10.0, 9.0, 0.0],
        ])
        (a, b), _ = stoer_wagner_mincut(dtw_cut_weights(beta))
        assert {frozenset(a), frozenset(b)} == {frozenset({0, 1}), frozenset({2})}

    def test_output_satisfies_mincut_preconditions(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            beta = np.triu(rng.uniform(0, 5, (n, n)), 1)
            beta = beta + beta.T
            stoer_wagner_mincut(dtw_cut_weights(beta))  # must not raise

    @pytest.mark.parametrize("standardize", [False, True])
    def test_gcflplus_cut_is_the_minimum_cut_of_these_weights(self, standardize):
        # clients 1 and 3 rise together, 2 and 4 swing apart; the cut reads the last 3 rounds
        norms = {1: [7.0, 1.0, 2.0, 3.0], 2: [7.0, 5.0, 0.5, 4.0], 3: [7.0, 1.1, 2.0, 3.2],
                 4: [7.0, 9.0, 9.5, 0.1]}
        reports = [RoundReport(t, [ClientRound(cid, 0, 0.0, 0.0, 0.0, row[t])
                                   for cid, row in norms.items()]) for t in range(4)]
        cluster = ClusterState(0, [4, 3, 2, 1], np.zeros(2))
        run = fed._RunState([cluster], 0.0, {}, {}, reports)
        settings = RunSettings(window=3, standardize=standardize)
        halves, cut_value, windows = fed._cut(run, {}, cluster, "gcflplus", settings)
        assert windows == {cid: row[1:] for cid, row in norms.items()}
        beta = dtw_matrix(windows, cluster.members, standardize)
        assert (halves, cut_value) == bipartition_cluster(cluster, dtw_cut_weights(beta))


def write_window_csv(path, window, members):
    """Dump the norm windows of the given clients (one row each)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "norms"])
        for client_id in sorted(members):
            writer.writerow([client_id, ";".join(repr(float(x)) for x in window[client_id])])


def test_write_window_csv(tmp_path):
    window = {3: [0.25, 0.5], 1: [0.5, 1.0]}
    path = tmp_path / "window.csv"
    write_window_csv(path, window, [3, 1])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "client_id,norms"
    assert lines[1].startswith("1,")
    assert "0.25;0.5" in lines[2]
