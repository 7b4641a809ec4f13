import warnings
from itertools import combinations

import numpy as np
import pytest

from tvglearn.analysis import (
    consensus,
    graph_correlation_matrix,
    select_consistent_nodes,
)

import oracles


class TestSelectConsistentNodes:
    def test_identical_trials_rank_by_index(self):
        rng = np.random.default_rng(0)
        trial = rng.normal(size=(5, 30))
        picked = select_consistent_nodes([trial, trial.copy()], top_k=3)
        assert picked == [0, 1, 2]

    def test_sign_flipped_node_ranked_last(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 25))
        b = a.copy()
        b[2] = -a[2]
        order = select_consistent_nodes([a, b], top_k=4)
        assert order[-1] == 2

    def test_mean_over_pairs_matches_oracle(self):
        rng = np.random.default_rng(2)
        trials = [rng.normal(size=(5, 12)) for _ in range(3)]
        order = select_consistent_nodes(trials, top_k=5)

        means = []
        for node in range(5):
            vals = [
                oracles.pearson(trials[a][node], trials[b][node])
                for a, b in combinations(range(3), 2)
            ]
            means.append(np.mean(vals))
        expected = list(np.argsort(-np.asarray(means), kind="stable"))
        assert order == [int(i) for i in expected]

    def test_zero_variance_counts_as_zero_with_warning(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 10))
        b = rng.normal(size=(3, 10))
        a[1] = 5.0  # constant row: undefined correlation
        with pytest.warns(UserWarning):
            order = select_consistent_nodes([a, b], top_k=3)
        assert set(order) == {0, 1, 2}

    def test_flat_pairs_count_as_zero_in_the_mean(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(5, 12))
        noise = np.array([[2.0], [1.0], [0.5], [0.2], [0.1]])
        trials = [base + noise * rng.normal(size=(5, 12)) for _ in range(3)]
        trials[1][4] = 2.0  # the least noisy node is flat in trial 1
        with pytest.warns(UserWarning, match="zero-variance"):
            order = select_consistent_nodes(trials, top_k=5)

        means = [
            np.mean([
                np.nan_to_num(oracles.pearson(trials[a][node], trials[b][node]))
                for a, b in combinations(range(3), 2)
            ])
            for node in range(5)
        ]
        assert order == [int(i) for i in np.argsort(-np.asarray(means), kind="stable")]

    def test_ranking_holds_for_a_node_at_any_scale(self):
        rng = np.random.default_rng(11)
        trials = [rng.normal(size=(5, 30)) for _ in range(3)]
        scaled = [t.copy() for t in trials]
        for t in scaled:
            t[2] *= 2.0**700
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert select_consistent_nodes(scaled, 5) == select_consistent_nodes(trials, 5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        trials = [rng.normal(size=(6, 15)) for _ in range(2)]
        perm = rng.permutation(6)
        direct = select_consistent_nodes([t[perm] for t in trials], top_k=6)
        relabeled = [int(np.flatnonzero(perm == node)[0]) for node in
                     select_consistent_nodes(trials, top_k=6)]
        assert direct == relabeled

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            select_consistent_nodes([np.zeros((3, 5))], top_k=2)

    @pytest.mark.parametrize("trials, top_k, match", [
        ([np.arange(5.0)] * 2, 1, r"trials\[0\] must be 2-D, got 1-D"),
        ([np.zeros((2, 3, 4))] * 2, 1, r"trials\[0\] must be 2-D, got 3-D"),
        ([np.zeros((3, 5)), np.zeros((3, 6))], 1,
         r"trials\[1\] must have shape \(3, 5\), got \(3, 6\)"),
        ([np.zeros((2, 0))] * 2, 1, "samples per trial must be positive, got 0"),
        ([np.zeros((0, 5))] * 2, 1, "node rows per trial must be positive, got 0"),
        ([np.arange(15.0).reshape(3, 5)] * 2, 0, r"top_k must be in \[1, 3\], got 0"),
        ([np.arange(15.0).reshape(3, 5)] * 2, 4, r"top_k must be in \[1, 3\], got 4"),
    ], ids=["1-D", "3-D", "ragged", "no-samples", "no-nodes", "top_k=0", "top_k>n"])
    def test_malformed_trials_rejected(self, trials, top_k, match):
        with pytest.raises(ValueError, match=match):
            select_consistent_nodes(trials, top_k=top_k)

    @pytest.mark.parametrize("top_k", [1.0, 1.5, True])
    def test_non_integer_top_k_rejected(self, top_k):
        trials = [np.arange(15.0).reshape(3, 5)] * 2
        with pytest.raises(ValueError, match="top_k must be an integer"):
            select_consistent_nodes(trials, top_k=top_k)


class TestConsensus:
    def test_single_trial_thresholding(self):
        result = consensus([[0.6, 0.4, 0.5]], prob_threshold=0.5, count_threshold=0)
        np.testing.assert_array_equal(result.counts, [1, 0, 1])
        np.testing.assert_array_equal(result.kept, [1, 0, 1])

    def test_one_graph_is_one_trial(self):
        result = consensus([0.6, 0.4, 0.5], prob_threshold=0.5, count_threshold=0)
        np.testing.assert_array_equal(result.counts, [1, 0, 1])

    def test_ragged_stack_is_named_by_the_array_rule(self):
        message = r"^graph_per_trial cannot be converted to float64$"
        with pytest.raises(ValueError, match=message) as info:
            consensus([[1.0, 2.0], [3.0]], 0.5, 0)
        assert isinstance(info.value.__cause__, ValueError)  # numpy's own reason

    def test_stack_of_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"^graph_per_trial must be 2-D, got 3-D$"):
            consensus(np.ones((2, 3, 4)), prob_threshold=0.5, count_threshold=1)

    def test_unanimous_trials_survive_count_threshold(self):
        graphs = np.ones((20, 4))
        result = consensus(graphs, prob_threshold=0.5, count_threshold=5)
        np.testing.assert_array_equal(result.counts, 20)
        np.testing.assert_array_equal(result.kept, 1)

    def test_exactly_at_count_threshold_is_dropped(self):
        graphs = np.zeros((20, 1))
        graphs[:5, 0] = 1.0
        result = consensus(graphs, prob_threshold=0.5, count_threshold=5)
        assert result.counts[0] == 5
        assert result.kept[0] == 0

    def test_binarization_keeps_exact_threshold(self):
        result = consensus([[0.5]], prob_threshold=0.5, count_threshold=0)
        assert result.counts[0] == 1

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_prob_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="prob_threshold"):
            consensus(np.ones((3, 4)), prob_threshold=threshold, count_threshold=0)

    def test_needs_one_trial_graph(self):
        with pytest.raises(ValueError, match="trial graphs of graph_per_trial must be positive, got 0"):
            consensus(np.zeros((0, 3)), prob_threshold=0.5, count_threshold=0)

    @pytest.mark.parametrize(
        "graphs", [[], np.zeros((2, 0))], ids=["empty list", "no edges"]
    )
    def test_graphs_without_edges_rejected(self, graphs):
        with pytest.raises(ValueError, match="edges of graph_per_trial must be positive, got 0"):
            consensus(graphs, prob_threshold=0.5, count_threshold=0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 1.5, True])
    def test_non_integer_count_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="count_threshold must be an integer"):
            consensus(np.ones((3, 4)), prob_threshold=0.5, count_threshold=threshold)

    def test_negative_count_threshold_rejected(self):
        # every count is at least 0, so -1 would keep edges no trial retained
        with pytest.raises(ValueError, match="count_threshold must be non-negative"):
            consensus(np.zeros((2, 3)), prob_threshold=0.5, count_threshold=-1)

    def test_monotone_in_count_threshold(self):
        rng = np.random.default_rng(5)
        graphs = rng.uniform(size=(10, 8))
        previous = None
        for threshold in range(0, 11):
            kept = consensus(graphs, 0.5, threshold).kept
            if previous is not None:
                assert np.all(kept <= previous)
            previous = kept


class TestGraphCorrelationMatrix:
    def test_identical_graphs(self):
        seq = np.tile(np.array([0.2, 0.8, 0.5]), (4, 1))
        np.testing.assert_allclose(graph_correlation_matrix(seq), 1.0, atol=0)

    def test_hand_pearson_value(self):
        seq = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        expected = np.array([[1.0, -0.5], [-0.5, 1.0]])
        np.testing.assert_allclose(graph_correlation_matrix(seq), expected, atol=1e-15)

    def test_matrix_properties_random(self):
        rng = np.random.default_rng(6)
        seq = rng.uniform(size=(7, 20))
        corr = graph_correlation_matrix(seq)
        np.testing.assert_array_equal(corr, corr.T)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=0)
        assert corr.min() >= -1.0 and corr.max() <= 1.0
        for s in range(7):
            for t in range(s + 1, 7):
                assert corr[s, t] == pytest.approx(
                    oracles.pearson(seq[s], seq[t]), abs=1e-12
                )

    def test_zero_variance_graph_gets_zero_row(self):
        seq = np.array([[0.5, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.warns(UserWarning):
            corr = graph_correlation_matrix(seq)
        assert corr[0, 0] == 1.0
        np.testing.assert_array_equal(corr[0, 1:], 0.0)
        np.testing.assert_array_equal(corr[1:, 0], 0.0)

    def test_alternating_blocks_correlate_within(self):
        rng = np.random.default_rng(7)
        m = 30
        base_a = (rng.uniform(size=m) > 0.7).astype(float)
        base_b = (rng.uniform(size=m) > 0.7).astype(float)
        seq = []
        labels = []
        for block, base in enumerate((base_a, base_b, base_a, base_b)):
            for _ in range(3):
                noisy = np.clip(base + rng.normal(scale=0.05, size=m), 0.0, 1.0)
                seq.append(noisy)
                labels.append(block)
        corr = graph_correlation_matrix(np.stack(seq))
        within, between = [], []
        for s in range(len(seq)):
            for t in range(s + 1, len(seq)):
                (within if labels[s] == labels[t] else between).append(corr[s, t])
        assert np.mean(within) > np.mean(between)

    @pytest.mark.parametrize("power", [-700, 700])
    def test_any_scale_gives_the_same_bytes(self, power):
        # the raw products would overflow (NaN) or underflow (a false flat
        # row, r = 0): each row's power-of-two scaling is exact
        seq = np.random.default_rng(10).uniform(size=(4, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = graph_correlation_matrix(2.0**power * seq)
        assert scaled.tobytes() == graph_correlation_matrix(seq).tobytes()

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            graph_correlation_matrix(np.ones((1, 5)))

    def test_needs_edges(self):
        with pytest.raises(ValueError, match="edges of w_seq must be positive, got 0"):
            graph_correlation_matrix(np.ones((2, 0)))


def test_no_warning_on_clean_input():
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph_correlation_matrix(rng.uniform(size=(3, 10)))
        select_consistent_nodes([rng.normal(size=(3, 8)) for _ in range(2)], top_k=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    rng = np.random.default_rng(9)
    trials = [rng.normal(size=(3, 8)) for _ in range(2)]
    trials[1][2, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        select_consistent_nodes(trials, top_k=2)
    seq = rng.uniform(size=(3, 10))
    seq[1, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        graph_correlation_matrix(seq)
    with pytest.raises(ValueError, match="non-finite"):
        consensus(seq, prob_threshold=0.5, count_threshold=0)
