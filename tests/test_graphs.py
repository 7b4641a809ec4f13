import numpy as np
import pytest

from tvglearn import graphs

import oracles


class TestEdgeIndexing:
    def test_pair_order_n3(self):
        i_idx, j_idx = graphs.edge_pairs(3)
        assert list(zip(i_idx, j_idx)) == [(0, 1), (0, 2), (1, 2)]

    def test_pair_order_n4_row_major(self):
        i_idx, j_idx = graphs.edge_pairs(4)
        assert list(zip(i_idx, j_idx)) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_edge_count_roundtrip(self):
        for n in range(2, 30):
            assert graphs.n_nodes_for_edges(graphs.n_edges(n)) == n

    def test_bad_edge_count(self):
        with pytest.raises(ValueError):
            graphs.n_nodes_for_edges(4)

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_edge_pairs_need_two_nodes(self, n_nodes):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            graphs.edge_pairs(n_nodes)

    def test_edge_vector_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="edge vector must be 1-D"):
            graphs.weight_matrix(np.zeros((2, 3)))


class TestWeightMatrix:
    def test_matches_the_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            w = rng.uniform(0.0, 1.0, size=graphs.n_edges(n))
            dense = oracles.dense_weight_matrix(w)
            np.testing.assert_array_equal(graphs.weight_matrix(w), dense)


class TestTerms:
    def test_smoothness_zero_signal(self):
        assert graphs.smoothness_term([0.3, 0.7, 0.1], np.zeros((3, 4))) == 0.0

    def test_smoothness_two_nodes(self):
        assert graphs.smoothness_term([1.0], np.array([[1.0], [0.0]])) == 1.0

    def test_smoothness_hand_value(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert graphs.smoothness_term([0.5, 0.0, 0.25], x) == pytest.approx(2.25)

    def test_energy_zero_signal(self):
        assert graphs.energy_penalty_term([1.0], np.zeros((2, 3))) == 0.0

    def test_energy_two_nodes(self):
        assert graphs.energy_penalty_term([1.0], np.array([[3.0], [4.0]])) == 25.0

    def test_energy_hand_value(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert graphs.energy_penalty_term([0.5, 0.0, 0.25], x) == pytest.approx(3.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            graphs.smoothness_term([1.0], np.zeros((3, 4)))
        with pytest.raises(ValueError):
            graphs.energy_penalty_term([1.0, 0.0, 0.0], np.zeros((2, 4)))

    @pytest.mark.parametrize("w_seq, x_windows, y_shape, match", [
        (np.zeros((1, 1, 3)), np.zeros((1, 3, 2)), (1, 3, 2), "graph sequence"),
        (np.zeros((2, 3)), np.zeros((1, 3, 2)), (1, 3, 2), "window count"),
        (np.zeros((1, 3)), np.zeros((3, 2)), (3, 2), "window count"),
        (np.zeros((1, 3)), np.zeros((1, 3, 2)), (1, 3, 4), "share a shape"),
    ], ids=["3-D graphs", "window count", "2-D signals", "Y shape"])
    def test_objective_rejects_mismatched_stacks(self, w_seq, x_windows, y_shape, match):
        with pytest.raises(ValueError, match=match):
            graphs.objective(np.zeros(y_shape), x_windows, w_seq,
                             gamma=1.0, eta=0.0, alpha=0.1)

    def test_temporal_variation_needs_a_sequence(self):
        with pytest.raises(ValueError, match="graph sequence"):
            graphs.temporal_variation(np.zeros(3))

    def test_trace_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            s = int(rng.integers(1, 7))
            w = rng.uniform(0.0, 1.0, size=graphs.n_edges(n))
            x = rng.normal(size=(n, s))
            smooth_edge = graphs.smoothness_term(w, x)
            smooth_trace = oracles.smoothness_term_dense(w, x)
            assert smooth_edge == pytest.approx(smooth_trace, rel=1e-10, abs=1e-12)
            energy_deg = graphs.energy_penalty_term(w, x)
            energy_pair = oracles.energy_penalty_term_pairwise(w, x)
            assert energy_deg == pytest.approx(energy_pair, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 5e153])
    def test_edge_energy_stack_matches_the_pairwise_oracle(self, scale):
        # at 5e153 each row energy is near the largest float; one-hot
        # weights keep the oracle's sum finite, and nothing may warn
        rng = np.random.default_rng(8)
        b, n, s = 3, 6, 3
        x = scale * rng.uniform(-1.0, 1.0, size=(b, n, s))
        stack = graphs._edge_energy_stack(x)
        assert stack.shape == (b, graphs.n_edges(n))
        for t in range(b):
            for e, one_hot in enumerate(np.eye(graphs.n_edges(n))):
                expected = oracles.energy_penalty_term_pairwise(one_hot, x[t])
                assert stack[t, e] == pytest.approx(expected, rel=1e-15, abs=0)


class TestObjective:
    def test_all_zero(self):
        y = np.zeros((2, 2, 3))
        w = np.full((2, 1), 0.5)
        assert graphs.objective(y, y, w, gamma=1.0, eta=0.2, alpha=3.0) == 0.0

    def test_pure_fidelity(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(1, 4, 5))
        x = np.zeros_like(y)
        w = np.full((1, 6), 0.1)
        value = graphs.objective(y, x, w, gamma=0.0, eta=0.0, alpha=0.0)
        assert value == pytest.approx(float((y * y).sum()))

    def test_hand_value_two_windows(self):
        # Y = X = [1, 0]^T in both windows, W goes from [1] to [0]
        y = np.array([[[1.0], [0.0]], [[1.0], [0.0]]])
        w = np.array([[1.0], [0.0]])
        value = graphs.objective(y, y, w, gamma=1.0, eta=0.0, alpha=2.0)
        assert value == pytest.approx(3.0)

    def test_energy_term_is_skipped_at_zero_eta(self):
        # rows near 1e160 overflow their energies but not their distances:
        # at eta = 0 the energy term is not evaluated, so the value is finite
        x = 1e160 * (1.0 + 1e-10 * np.arange(6.0).reshape(1, 3, 2))
        w = np.full((1, 3), 0.5)
        with np.errstate(over="ignore"):
            assert not np.isfinite(graphs.energy_penalty_term(w[0], x[0]))
        value = graphs.objective(x, x, w, gamma=1.0, eta=0.0, alpha=0.1)
        assert value == graphs.smoothness_term(w[0], x[0]) > 0.0

    @pytest.mark.parametrize("b", [1, 8])
    @pytest.mark.parametrize("eta_scale", [0.0, 0.9])
    def test_matches_per_window_oracle(self, b, eta_scale):
        rng = np.random.default_rng(10 * b + int(10 * eta_scale))
        n, s = 12, 40
        m = graphs.n_edges(n)
        y = rng.normal(size=(b, n, s))
        x = y + rng.normal(scale=0.3, size=(b, n, s))
        w = rng.uniform(0.0, 1.0, size=(b, m))
        w[:, ::7] = 0.0
        kwargs = dict(gamma=0.7, eta=eta_scale / (n - 1), alpha=0.4)
        value = graphs.objective(y, x, w, **kwargs)
        expected = oracles.objective_per_window(y, x, w, **kwargs)
        assert value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_one_window_objective_is_the_sum_of_its_terms(self):
        # bit for bit: the objective and the public terms share one code path
        rng = np.random.default_rng(6)
        for _ in range(300):
            n, s = int(rng.integers(2, 12)), int(rng.integers(1, 30))
            y = rng.normal(size=(1, n, s))
            x = y + rng.normal(scale=0.5, size=(1, n, s))
            w = rng.uniform(0.0, 1.0, size=(1, graphs.n_edges(n)))
            gamma, alpha = rng.uniform(0.0, 2.0, size=2)
            eta = rng.uniform(0.0, 1.0 / (n - 1))
            fit = graphs.objective(y, x, w, gamma=0.0, eta=0.0, alpha=0.0)
            expected = (
                fit
                + gamma * graphs.smoothness_term(w[0], x[0])
                - eta * graphs.energy_penalty_term(w[0], x[0])
            )
            value = graphs.objective(y, x, w, gamma=gamma, eta=eta, alpha=alpha)
            assert value == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_stack_objective_is_the_sum_of_window_terms(self, seed):
        rng = np.random.default_rng(seed)
        b, n, s = 8, 12, 40
        y = rng.normal(size=(b, n, s))
        x = y + rng.normal(scale=0.3, size=(b, n, s))
        w = rng.uniform(0.0, 1.0, size=(b, graphs.n_edges(n)))
        gamma, eta, alpha = 0.7, 0.5 / (n - 1), 0.4
        expected = (
            graphs.objective(y, x, w, gamma=0.0, eta=0.0, alpha=0.0)
            + sum(
                gamma * graphs.smoothness_term(w[t], x[t])
                - eta * graphs.energy_penalty_term(w[t], x[t])
                for t in range(b)
            )
            + alpha * graphs.temporal_variation(w).sum()
        )
        value = graphs.objective(y, x, w, gamma=gamma, eta=eta, alpha=alpha)
        assert value == pytest.approx(expected, rel=1e-15, abs=0)

    def test_affine_in_single_weight(self):
        # second difference of an affine function vanishes (away from the
        # l1 kinks, so only well-separated coordinates are probed)
        rng = np.random.default_rng(42)
        h = 1e-4
        for _ in range(20):
            n, s, b = 4, 3, 2
            m = graphs.n_edges(n)
            y = rng.normal(size=(b, n, s))
            x = rng.normal(size=(b, n, s))
            w = rng.uniform(0.0, 1.0, size=(b, m))
            gaps = np.abs(w[0] - w[1])
            e = int(np.argmax(gaps))
            assert gaps[e] > 1e-2

            def value(delta):
                w_mod = w.copy()
                w_mod[0, e] += delta
                return graphs.objective(
                    y, x, w_mod, gamma=0.7, eta=0.05, alpha=0.4
                )

            second_diff = value(h) - 2.0 * value(0.0) + value(-h)
            assert abs(second_diff) <= 1e-8


class TestWindowing:
    def test_shapes_and_remainder_drop(self):
        y = np.arange(2 * 7, dtype=float).reshape(2, 7)
        blocks = graphs.window_signals(y, 3)
        assert blocks.shape == (2, 2, 3)
        np.testing.assert_array_equal(blocks[0], y[:, 0:3])
        np.testing.assert_array_equal(blocks[1], y[:, 3:6])

    def test_too_short(self):
        with pytest.raises(ValueError):
            graphs.window_signals(np.zeros((3, 4)), 5)

    @pytest.mark.parametrize("window_len", [2.0, 2.5, True])
    def test_non_integer_window_len_rejected(self, window_len):
        with pytest.raises(ValueError, match="window_len must be an integer"):
            graphs.window_signals(np.zeros((3, 8)), window_len)

    @pytest.mark.parametrize("window_len", [0, -2])
    def test_nonpositive_window_len_rejected(self, window_len):
        with pytest.raises(ValueError, match="window_len must be positive"):
            graphs.window_signals(np.zeros((3, 8)), window_len)

    def test_signal_validation(self):
        with pytest.raises(ValueError):
            graphs.as_signal_matrix(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            graphs.as_signal_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            graphs.as_signal_matrix(np.zeros(5))
        with pytest.raises(ValueError, match="no samples"):
            graphs.as_signal_matrix(np.zeros((3, 0)))
