import re
import warnings

import numpy as np
import pytest

from tvglearn import InfeasibleBudgetError, SingularSystemError
from tvglearn.graphs import (
    change_profile,
    edge_pairs,
    n_edges,
    smoothness_term,
    window_signals,
)
from tvglearn.synthetic import ScenarioSpec, edge_f1, generate


def _spec(**kwargs):
    base = dict(
        n_nodes=12,
        k_true=10,
        n_segments=2,
        windows_per_segment=3,
        window_len=40,
        noise_sigma=0.1,
        seed=5,
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["noise_sigma", "smooth_gamma"])
    def test_non_finite_scale_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            _spec(**{name: value})

    @pytest.mark.parametrize("fields, error, match", [
        (dict(n_nodes=1, k_true=1), ValueError, "n_nodes must be at least 2"),
        (dict(k_true=0), InfeasibleBudgetError,
         r"^k_true must be in \(0, m\] with m = 66 edges, got 0$"),
        (dict(n_nodes=4, k_true=7), InfeasibleBudgetError,
         r"^k_true must be in \(0, m\] with m = 6 edges, got 7$"),
        (dict(n_segments=0), ValueError, "n_segments must be positive"),
        (dict(windows_per_segment=0), ValueError, "windows_per_segment must be positive"),
        (dict(seed=-1), ValueError, "seed must be non-negative, got -1"),
    ], ids=["one node", "no edges", "too many edges", "no segment", "no window",
            "negative seed"])
    def test_bad_layout_is_rejected(self, fields, error, match):
        with pytest.raises(error, match=match):
            _spec(**fields)

    @pytest.mark.parametrize("fraction", [1.0, 1.5])
    def test_zero_node_fraction_of_one_or_more_is_rejected(self, fraction):
        message = rf"^zero_node_fraction must be in \[0, 1\), got {fraction}$"
        with pytest.raises(ValueError, match=message):
            _spec(zero_node_fraction=fraction)


class TestGenerate:
    def test_deterministic(self):
        a = generate(_spec())
        b = generate(_spec())
        np.testing.assert_array_equal(a.signals, b.signals)
        np.testing.assert_array_equal(a.clean, b.clean)
        np.testing.assert_array_equal(a.segments, b.segments)
        assert a.boundaries == b.boundaries

    def test_frozen_values(self):
        # frozen draws: how the clean blocks solve I + gamma*L may move
        # them by rounding only
        truth = generate(ScenarioSpec(n_nodes=5, k_true=4, seed=1))
        frozen = {
            "signals[0, :3]": (
                truth.signals[0, :3],
                [0.2472596729954462, 0.5858705167355193, -0.08860932457625752],
            ),
            "clean[:, 0]": (
                truth.clean[:, 0],
                [0.282439148535868, 0.16904674401922898, 0.4520632057794605,
                 0.18561973832899645, 0.22270335740377087],
            ),
            "clean[:, 600]": (
                truth.clean[:, 600],
                [-0.5503388110094726, -1.0567800985639495, -0.6868951859543925,
                 -0.5453421711000145, -0.9501814827070502],
            ),
            "clean row energies": (
                (truth.clean**2).sum(axis=1),
                [179.67365605461015, 187.2269475195571, 179.49792893165,
                 188.83080401525072, 175.57947870075657],
            ),
            "signal row energies": (
                (truth.signals**2).sum(axis=1),
                [187.43666486203273, 197.2740984759668, 183.71772874313274,
                 198.23689253915796, 182.7735597380493],
            ),
        }
        for name, (actual, expected) in frozen.items():
            np.testing.assert_allclose(actual, expected, rtol=1e-12, err_msg=name)

    def test_noise_free(self):
        truth = generate(_spec(noise_sigma=0.0))
        np.testing.assert_array_equal(truth.signals, truth.clean)

    def test_single_segment_has_no_boundaries(self):
        truth = generate(_spec(n_segments=1))
        assert truth.boundaries == ()

    def test_shapes_and_segment_budgets(self):
        spec = _spec()
        truth = generate(spec)
        assert truth.segments.shape == (2, n_edges(12))
        assert truth.signals.shape == (12, spec.n_samples)
        assert set(np.unique(truth.segments)) <= {0.0, 1.0}
        np.testing.assert_array_equal(truth.segments.sum(axis=1), spec.k_true)
        assert truth.boundaries == (2,)

    @pytest.mark.parametrize("t", [-1, 6, 99])
    def test_segment_of_window_rejects_windows_outside_the_record(self, t):
        truth = generate(_spec())  # 6 windows
        with pytest.raises(ValueError, match=rf"t must be in \[0, 5\], got {t}"):
            truth.segment_of_window(t)

    @pytest.mark.parametrize("t", [1.0, True])
    def test_segment_of_window_rejects_a_non_integer_window(self, t):
        with pytest.raises(ValueError, match="t must be an integer"):
            generate(_spec()).segment_of_window(t)

    @pytest.mark.parametrize("t", [3, np.int64(3), np.uint8(3)], ids=["int", "int64", "uint8"])
    def test_segment_of_window_returns_a_python_int(self, t):
        segment = generate(_spec()).segment_of_window(t)  # 6 windows, 3 per segment
        assert type(segment) is int and segment == 1

    def test_zero_nodes_are_silent_and_isolated(self):
        spec = _spec(zero_node_fraction=0.25, noise_sigma=0.0)
        truth = generate(spec)
        zero_rows = np.flatnonzero(~truth.clean.any(axis=1))
        assert len(zero_rows) == 3
        i_idx, j_idx = edge_pairs(spec.n_nodes)
        touched = np.zeros(spec.n_nodes, dtype=bool)
        for seg in truth.segments:
            on = seg > 0
            touched[i_idx[on]] = True
            touched[j_idx[on]] = True
        assert not touched[zero_rows].any()

    def test_infeasible_after_zero_nodes(self):
        with pytest.raises(InfeasibleBudgetError):
            generate(_spec(n_nodes=6, k_true=12, zero_node_fraction=0.5))

    def test_overflowing_smoothing_system_raises_without_warning(self):
        # I + smooth_gamma * L overflows: the X-update rejects the system
        # instead of returning an all-zero clean record
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="must not overflow"):
                generate(ScenarioSpec(n_nodes=5, k_true=4, smooth_gamma=1e308))

    def test_overflowing_noise_scale_is_refused_by_name(self):
        # the scaled noise overflows the record: refused before any inf
        # reaches it, with no floating-point warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^noise_sigma must not overflow the record, "
                                                 r"got 1e\+308$"):
                generate(_spec(noise_sigma=1e308))

    def test_singular_smoothing_system_names_gamma_and_window(self):
        # I + smooth_gamma * L is finite but rounds to a singular matrix
        with pytest.raises(SingularSystemError, match=r"smooth_gamma .*smaller gamma") as excinfo:
            generate(ScenarioSpec(n_nodes=5, k_true=4, smooth_gamma=1e200))
        assert str(excinfo.value).startswith("window 0:")
        assert excinfo.value.window == 0

    @pytest.mark.parametrize("smooth_gamma, error, message", [
        (1e16, SingularSystemError, "window 0: smooth_gamma must leave I + gamma*L positive "
                                    "definite (try a smaller gamma), got 1e+16"),
        (1e200, SingularSystemError, "window 0: smooth_gamma must leave I + gamma*L positive "
                                     "definite (try a smaller gamma), got 1e+200"),
        (1e308, ValueError, "smooth_gamma must not overflow I + gamma*L, got 1e+308"),
    ])
    def test_refused_smoothing_names_smooth_gamma(self, smooth_gamma, error, message):
        # the X-update's own refusal, which speaks of gamma and the weights,
        # is chained under one that names the scenario field
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as excinfo:
                generate(ScenarioSpec(smooth_gamma=smooth_gamma))
        assert type(excinfo.value) is error and str(excinfo.value) == message
        assert type(excinfo.value.__cause__) is error
        if error is SingularSystemError:
            assert excinfo.value.window == excinfo.value.__cause__.window == 0

    def test_true_graph_is_smoothest_among_random_budgets(self):
        spec = _spec(n_nodes=15, k_true=14, n_segments=1, windows_per_segment=4)
        truth = generate(spec)
        blocks = window_signals(truth.clean, spec.window_len)
        rng = np.random.default_rng(99)
        m = n_edges(spec.n_nodes)
        wins = 0
        for _ in range(100):
            random_graph = np.zeros(m)
            random_graph[rng.choice(m, size=spec.k_true, replace=False)] = 1.0
            true_cost = sum(
                smoothness_term(truth.segments[0], blocks[b]) for b in range(4)
            )
            rand_cost = sum(
                smoothness_term(random_graph, blocks[b]) for b in range(4)
            )
            wins += true_cost < rand_cost
        assert wins >= 95


class TestEdgeF1:
    def test_perfect_recovery(self):
        truth = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert edge_f1(truth, truth, k=3) == 1.0

    def test_disjoint(self):
        estimate = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        truth = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        assert edge_f1(estimate, truth, k=2) == 0.0

    def test_half_overlap(self):
        estimate = np.array([0.9, 0.8, 0.7, 0.6, 0.1, 0.0])
        truth = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        assert edge_f1(estimate, truth, k=4) == pytest.approx(0.5)

    def test_tie_break_by_edge_index(self):
        estimate = np.array([0.5, 0.5, 0.5])
        truth = np.array([1.0, 0.0, 0.0])
        assert edge_f1(estimate, truth, k=1) == 1.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(7)
        n = 6
        m = n_edges(n)
        i_idx, j_idx = edge_pairs(n)
        estimate = rng.uniform(size=m)
        truth = np.zeros(m)
        truth[rng.choice(m, size=4, replace=False)] = 1.0
        perm = rng.permutation(n)

        def permute_edges(vec):
            dense = np.zeros((n, n))
            dense[i_idx, j_idx] = vec
            dense += dense.T
            dense = dense[np.ix_(perm, perm)]
            return dense[np.triu_indices(n, k=1)]

        original = edge_f1(estimate, truth, k=4)
        relabeled = edge_f1(permute_edges(estimate), permute_edges(truth), k=4)
        assert original == pytest.approx(relabeled)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            edge_f1(np.zeros(3), np.zeros(3), k=4)

    @pytest.mark.parametrize("estimate, truth, match", [
        (np.zeros(3), np.zeros(6), "truth must have shape (3,), got (6,)"),
        (np.zeros(3), np.array([1.0, 0.5, 0.0]), "0/1 edge vector"),
    ])
    def test_malformed_vectors_rejected(self, estimate, truth, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            edge_f1(estimate, truth, k=1)

    @pytest.mark.parametrize("k", [1.0, 1.5, True])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            edge_f1(np.zeros(3), np.zeros(3), k=k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            edge_f1([bad, 1.0, 0.0], [1, 0, 0], k=1)


class TestChangeProfile:
    def test_constant_sequence(self):
        seq = np.tile(np.array([0.5, 0.5, 0.0]), (4, 1))
        np.testing.assert_array_equal(change_profile(seq), 0.0)

    def test_unit_swap(self):
        seq = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        np.testing.assert_allclose(change_profile(seq), [2.0])

    def test_one_window_gives_an_empty_profile(self):
        assert change_profile(np.ones((1, 3))).shape == (0,)

    def test_truth_sequence_spikes_only_at_boundary(self):
        spec = _spec()
        truth = generate(spec)
        seq = np.stack(
            [truth.segments[truth.segment_of_window(t)] for t in range(6)]
        )
        profile = change_profile(seq)
        assert profile[2] > 0
        assert np.count_nonzero(profile) == 1
        assert int(np.argmax(profile)) == truth.boundaries[0]
