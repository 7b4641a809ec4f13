import re
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvglearn import (
    DivergenceError,
    InfeasibleBudgetError,
    ScenarioSpec,
    SingularSystemError,
    SolverConfig,
    TvgLearnError,
    fit_dynamic,
    fit_static,
    generate,
)
from tvglearn import errors, solver
from tvglearn.graphs import change_profile, n_edges, window_signals
from tvglearn.projection import is_feasible
from tvglearn.solver import (
    C1,
    C2,
    FitReport,
    SolverState,
    _initial_state,
    _resolve_steps,
    grad_w,
    step,
    update_x,
)

import oracles


def _random_state(rng, n, b, s, k):
    m = n_edges(n)
    w = np.stack(
        [oracles.breakpoint_projection(rng.normal(size=m), k)[0] for _ in range(b)]
    )
    return SolverState(
        x=rng.normal(size=(b, n, s)),
        w=w,
        z=rng.normal(scale=0.3, size=(max(b - 1, 0), m)),
        beta=rng.normal(scale=0.5, size=(max(b - 1, 0), m)),
    )


class TestUpdateX:
    def test_identity_when_unregularized(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(3, 5))
        out = update_x(y, np.array([0.4, 0.1, 0.9]), 0.0, 0.0)
        np.testing.assert_allclose(out, y, atol=1e-14)

    def test_two_node_hand_solve(self):
        out = update_x(np.array([[3.0], [0.0]]), np.array([1.0]), 1.0, 0.0)
        np.testing.assert_allclose(out, [[2.0], [1.0]], atol=1e-12)

    def test_exactly_singular_system(self):
        # gamma=0, eta=1 on a single unit edge gives I - D = 0
        with pytest.raises(SingularSystemError) as excinfo:
            update_x(np.array([[1.0], [1.0]]), np.array([1.0]), 0.0, 1.0, window=4)
        assert "window 4" in str(excinfo.value)
        assert "smaller eta" in str(excinfo.value)
        assert excinfo.value.window == 4

    def test_huge_gamma_names_gamma(self):
        # at eta = 0 the rounded I + gamma*L loses its identity
        with pytest.raises(SingularSystemError, match="smaller gamma") as excinfo:
            update_x(np.ones((3, 2)), np.array([1.0, 1.0, 0.0]), 1e200, 0.0, window=2)
        assert "window 2" in str(excinfo.value)
        assert excinfo.value.window == 2

    def test_direct_call_names_no_window(self):
        # I - 2D on a single unit edge has -1 on its diagonal
        with pytest.raises(SingularSystemError) as excinfo:
            update_x(np.ones((2, 3)), [1.0], 0.0, 2.0)
        assert str(excinfo.value) == (
            "I + gamma*L - eta*D is not positive definite (try a smaller eta)"
        )
        assert excinfo.value.window is None

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            s = int(rng.integers(1, 8))
            y = rng.normal(scale=3.0, size=(n, s))
            w = rng.uniform(0.0, 1.0, size=n_edges(n))
            gamma = float(rng.uniform(0.0, 2.0))
            eta = float(rng.uniform(0.0, 0.9 / max(n - 1, 1)))
            x = update_x(y, w, gamma, eta)
            a = np.eye(n) + gamma * oracles.dense_laplacian(w)
            a -= eta * np.diag(np.diag(oracles.dense_laplacian(w)))
            resid = np.linalg.norm(a @ x - y)
            assert resid <= 1e-8 * np.linalg.norm(y)

    @pytest.mark.parametrize("n, s", [(20, 200), (100, 200), (20, 1600)])
    @pytest.mark.parametrize("eta_scale", [0.0, 0.9])
    def test_matches_dense_solve(self, n, s, eta_scale):
        rng = np.random.default_rng(n + s)
        y = rng.normal(size=(n, s))
        w = rng.uniform(0.0, 1.0, size=n_edges(n))
        gamma, eta = 0.7, eta_scale / (n - 1)
        lap = oracles.dense_laplacian(w)
        a = np.eye(n) + gamma * lap - eta * np.diag(np.diag(lap))
        expected = np.linalg.solve(a, y)
        x = update_x(y, w, gamma, eta)
        np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize("bad", ["nan weight", "inf weight", "inf signal"])
    def test_non_finite_input_raises_without_warning(self, bad, eta):
        y = np.ones((3, 4))
        w = np.array([0.5, 0.2, 0.3])
        if bad == "inf signal":
            y[1, 2] = np.inf
        else:
            w[1] = np.nan if bad == "nan weight" else np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                update_x(y, w, 1.0, eta)
        assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]

    @pytest.mark.parametrize("weight, gamma, eta", [
        (1.0, 1e308, 0.0),
        (1.0, 0.0, -1e308),
        (1e308, 0.0, 0.0),
    ], ids=["gamma", "eta", "weight"])
    def test_overflowing_system_raises_without_warning(self, weight, gamma, eta):
        # finite inputs whose I + gamma*L - eta*D overflows: the Cholesky
        # factor of an infinite diagonal would turn X into zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="must not overflow"):
                update_x(np.ones((5, 3)), np.full(10, weight), gamma, eta)

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            update_x(np.ones((3, 4)), np.ones(4), 1.0, 0.0)

    @pytest.mark.parametrize("y_shape, m, match", [
        ((3, 5), 6, "y_block must have shape (4, *), got (3, 5)"),
        ((2, 3, 4), 3, "y_block must be 2-D, got 3-D"),
    ], ids=["rows", "3-D"])
    def test_block_that_does_not_fit_the_graph(self, y_shape, m, match):
        # 6 edges are a 4-node graph, so 3 rows do not fit; a 3-D block is
        # not one window's (n, s) signals, even with n matching rows
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            update_x(np.ones(y_shape), np.ones(m), 1.0, 0.0)

    @pytest.mark.parametrize(
        "gamma, eta", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf)]
    )
    def test_non_finite_gamma_or_eta_rejected(self, gamma, eta):
        name = "eta" if np.isfinite(gamma) else "gamma"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            update_x(np.ones((3, 4)), np.full(3, 0.5), gamma, eta)

    @pytest.mark.parametrize("gamma", [np.inf, np.float64(np.inf), np.float64(np.nan)],
                             ids=["float inf", "numpy inf", "numpy nan"])
    def test_non_finite_gamma_rejected_on_zero_weights(self, gamma):
        # gamma is checked before the system exists, where inf * 0 would be
        # NaN, and a numpy scalar's inf must not warn on the way
        with pytest.raises(ValueError, match="^gamma must be finite, got"):
            update_x(np.ones((3, 4)), np.zeros(3), gamma, 0.0)

    def test_each_argument_is_checked_once(self):
        # the X-update runs once per window and iteration, so a repeated
        # check is paid on every one of them
        rules = {"as_float_array", "check_integer", "check_finite", "check_budget"}
        calls = []

        def profile(frame, event, _):
            code = frame.f_code
            if event == "call" and code.co_filename == errors.__file__ and code.co_name in rules:
                calls.append((code.co_name, frame.f_locals["name"]))

        rng = np.random.default_rng(3)
        y, w = rng.normal(size=(20, 5)), rng.random(n_edges(20))
        sys.setprofile(profile)
        try:
            update_x(y, w, 0.1, 0.0)
        finally:
            sys.setprofile(None)
        assert len(calls) == 5, calls
        assert [name for rule, name in calls if rule == "as_float_array"] == ["weights", "y_block"]


class TestGradW:
    def test_zero_signals_zero_duals(self):
        state = SolverState(
            x=np.zeros((2, 3, 4)),
            w=np.full((2, 3), 0.5),
            z=np.zeros((1, 3)),
            beta=np.zeros((1, 3)),
        )
        cfg = SolverConfig(k_budget=1.5, gamma=1.0, eta=0.3)
        grad = grad_w(state.x, state.beta, cfg)
        assert grad.shape == (2, 3)
        np.testing.assert_array_equal(grad, 0.0)

    def test_two_node_hand_value(self):
        state = SolverState(
            x=np.array([[[1.0], [0.0]]]),
            w=np.array([[0.5]]),
            z=np.zeros((0, 1)),
            beta=np.zeros((0, 1)),
        )
        cfg = SolverConfig(k_budget=0.5, gamma=1.0, eta=0.1)
        assert grad_w(state.x, state.beta, cfg)[0, 0] == pytest.approx(0.9)

    def test_interior_window_dual_terms(self):
        state = SolverState(
            x=np.zeros((3, 2, 1)),
            w=np.full((3, 1), 1.0),
            z=np.zeros((2, 1)),
            beta=np.array([[0.2], [0.5]]),
        )
        cfg = SolverConfig(k_budget=1.0, gamma=1.0, eta=0.0)
        np.testing.assert_allclose(
            grad_w(state.x, state.beta, cfg)[:, 0], [-0.2, -0.3, 0.5], atol=1e-15
        )

    def test_matches_finite_differences_of_lagrangian(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(10):
            n = int(rng.integers(2, 6))
            b = int(rng.integers(1, 4))
            s = int(rng.integers(1, 5))
            m = n_edges(n)
            k = float(rng.uniform(0.5, m))
            cfg = SolverConfig(
                k_budget=k,
                gamma=float(rng.uniform(0.1, 2.0)),
                eta=float(rng.uniform(0.0, 0.2)),
                alpha=float(rng.uniform(0.0, 1.0)),
            )
            state = _random_state(rng, n, b, s, k)
            y = rng.normal(size=(b, n, s))
            grads = grad_w(state.x, state.beta, cfg)
            for t in range(b):
                grad = grads[t]
                for e in range(m):
                    def lag(delta, t=t, e=e):
                        w_mod = state.w.copy()
                        w_mod[t, e] += delta
                        return oracles.lagrangian_value(
                            y, state.x, w_mod, state.z, state.beta,
                            cfg.gamma, cfg.eta, cfg.alpha,
                        )

                    fd = (lag(h) - lag(-h)) / (2.0 * h)
                    assert abs(fd - grad[e]) <= 1e-5 * max(1.0, abs(grad[e]))


class TestStep:
    def test_fixed_point_on_zero_data(self):
        cfg = SolverConfig(k_budget=1.5, window_len=3, gamma=1.0, eta=0.1, alpha=0.5)
        y = np.zeros((2, 3, 3))
        state = _initial_state(y, cfg)
        new = step(state, y, cfg)
        np.testing.assert_allclose(new.x, 0.0, atol=0)
        np.testing.assert_allclose(new.w, state.w, atol=1e-9)
        assert new.objective == pytest.approx(0.0, abs=1e-12)
        assert new.residual == pytest.approx(0.0, abs=1e-12)

    def test_single_window_has_no_coupling_state(self):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        y = np.random.default_rng(1).normal(size=(1, 3, 4))
        state = _initial_state(y, cfg)
        assert state.z.shape == (0, 3)
        new = step(state, y, cfg)
        assert new.z.shape == (0, 3)
        assert new.residual == 0.0

    def test_residual_is_the_largest_splitting_gap(self):
        rng = np.random.default_rng(17)
        cfg = SolverConfig(k_budget=4.0, window_len=12, gamma=0.3, eta=0.05,
                           alpha=0.2, tau1=0.05, tau2=0.1)
        y = rng.normal(size=(4, 6, 12))
        state = _initial_state(y, cfg)
        assert state.residual == 0.0
        for _ in range(50):
            state = step(state, y, cfg)
            gap = state.z - (state.w[:-1] - state.w[1:])
            assert state.residual == np.abs(gap).max()

    def test_every_window_feasible_after_each_step(self):
        rng = np.random.default_rng(33)
        cfg = SolverConfig(k_budget=2.5, window_len=5, gamma=0.2, alpha=0.3)
        y = rng.normal(size=(3, 4, 5))
        state = _initial_state(y, cfg)
        for _ in range(25):
            state = step(state, y, cfg)
            for t in range(3):
                assert is_feasible(state.w[t], cfg.k_budget, tol=1e-6)

    def test_objective_monotone_without_coupling(self):
        # with alpha = eta = 0 and zero duals each phase is a descent step
        rng = np.random.default_rng(44)
        for _ in range(5):
            cfg = SolverConfig(
                k_budget=2.0, window_len=4, gamma=0.5, eta=0.0, alpha=0.0, tau1=1e-3
            )
            y = rng.normal(size=(2, 4, 4))
            state = _initial_state(y, cfg)
            values = [state.objective]
            for _ in range(30):
                state = step(state, y, cfg)
                values.append(state.objective)
            diffs = np.diff(values)
            assert diffs.max() <= 1e-10

    def test_warm_started_kappa_matches_cold_start(self):
        rng = np.random.default_rng(21)
        cfg = SolverConfig(k_budget=3.0, window_len=20, gamma=0.3, alpha=0.1)
        y = rng.normal(size=(3, 6, 20))
        warm = cold = _initial_state(y, cfg)
        assert warm.kappa is None
        for _ in range(50):
            warm = step(warm, y, cfg)
            cold.kappa = None
            cold = step(cold, y, cfg)
            assert warm.kappa.shape == (3,)
            # on a flat stretch of the clipped sum both report its midpoint
            for name in ("w", "x", "z", "beta", "objective", "kappa"):
                np.testing.assert_allclose(
                    getattr(warm, name), getattr(cold, name), rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("case", ["reference", "one window", "four windows"])
    def test_matches_per_window_step(self, case):
        # the batched step against the per-window loop it replaced, whose
        # gradient is the oracle's own
        if case == "reference":  # acceptance test_07's scenario and settings
            spec = ScenarioSpec(
                n_nodes=20, k_true=19, n_segments=2, windows_per_segment=4,
                window_len=200, noise_sigma=0.1, seed=25,
            )
            cfg = SolverConfig(k_budget=19.0, window_len=200, gamma=0.01, alpha=0.1)
            y = window_signals(generate(spec).signals, cfg.window_len)
        else:
            rng = np.random.default_rng(12)
            y = rng.normal(size=(1 if case == "one window" else 4, 8, 30))
            cfg = SolverConfig(
                k_budget=6.0, window_len=30, gamma=0.2, eta=0.05, alpha=0.3,
                tau1=0.02, tau2=0.05,
            )
        batched = per_window = _initial_state(y, cfg)
        for _ in range(100):
            batched = step(batched, y, cfg)
            per_window = oracles.step_per_window(per_window, y, cfg)
            for name in ("w", "x", "z", "beta", "objective", "residual"):
                np.testing.assert_allclose(
                    getattr(batched, name), getattr(per_window, name),
                    rtol=0, atol=1e-12, err_msg=name,
                )

    def test_golden_trace_two_windows(self):
        # frozen from a straight-line reference implementation of the same
        # update order (dense solves, loop gradients, breakpoint projection)
        y = window_signals(
            np.array(
                [
                    [1.0, 0.5, 0.5, 0.0],
                    [-0.5, 1.0, 1.5, -1.0],
                    [2.0, -1.0, -1.0, 2.0],
                ]
            ),
            2,
        )
        cfg = SolverConfig(
            k_budget=1.5, gamma=0.5, eta=0.1, alpha=0.05, lam=0.7,
            tau1=0.05, tau2=0.04, window_len=2,
        )
        state = _initial_state(y, cfg)
        state = step(state, y, cfg)
        np.testing.assert_allclose(
            state.w,
            [
                [0.5190456756113322, 0.5244022718770194, 0.45655205251164854],
                [0.5492466755093017, 0.5139441553582969, 0.4368091691324015],
            ],
            atol=1e-9,
        )
        np.testing.assert_allclose(state.z, [[0.0, 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(
            state.beta,
            [[0.0012080399959187816, -0.0004183246607489011, -0.0007897153351698827]],
            atol=1e-11,
        )
        assert state.objective == pytest.approx(4.685900204117372, abs=1e-9)

        state = step(state, y, cfg)
        state = step(state, y, cfg)
        np.testing.assert_allclose(
            state.w,
            [
                [0.5589963520673109, 0.5768260591273382, 0.36417758880535084],
                [0.6568124383958895, 0.5445619796015087, 0.2986255820026017],
            ],
            atol=1e-8,
        )
        np.testing.assert_allclose(
            state.x,
            [
                [
                    [1.0313426801264451, 0.3795994474145137],
                    [0.08671030884127162, 0.7182139053738327],
                    [1.662258291958524, -0.5401845688908135],
                ],
                [
                    [0.4875355434921873, 0.15878450945960954],
                    [1.1208429675450382, -0.49471665148517635],
                    [-0.48829955960219723, 1.4347593642514729],
                ],
            ],
            atol=1e-9,
        )
        np.testing.assert_allclose(
            state.z,
            [[-0.06461803674180178, 0.0, 0.03206932911679874]],
            atol=1e-8,
        )
        np.testing.assert_allclose(
            state.beta,
            [[0.00390213685950413, -0.0025577730135566946, -0.0035069104132231417]],
            atol=1e-9,
        )
        assert state.objective == pytest.approx(4.23618568278013, abs=1e-8)


class TestFits:
    def test_zero_record_converges_immediately(self):
        cfg = SolverConfig(k_budget=2.0, window_len=4, alpha=0.7)
        w_seq, x, report = fit_dynamic(np.zeros((4, 12)), cfg)
        assert report.converged
        assert report.iterations == 1
        assert report.final_objective == 0.0
        np.testing.assert_allclose(w_seq, 2.0 / 6.0, atol=1e-12)

    def test_static_two_nodes_forced_budget(self):
        rng = np.random.default_rng(2)
        cfg = SolverConfig(k_budget=1.0, max_iter=50)
        w, x, report = fit_static(rng.normal(size=(2, 30)), cfg)
        np.testing.assert_allclose(w, [1.0], atol=1e-9)

    def test_static_zero_record(self):
        cfg = SolverConfig(k_budget=1.0)
        w, x, report = fit_static(np.zeros((3, 10)), cfg)
        assert report.converged
        assert report.final_objective == 0.0
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-12)

    def test_dynamic_single_window_equals_static(self):
        rng = np.random.default_rng(55)
        for _ in range(3):
            n = int(rng.integers(3, 6))
            t = int(rng.integers(8, 20))
            y = rng.normal(size=(n, t))
            cfg = SolverConfig(
                k_budget=float(rng.uniform(1.0, n_edges(n))),
                gamma=float(rng.uniform(0.05, 0.5)),
                eta=float(rng.uniform(0.0, 0.5 / (n - 1))),
                alpha=float(rng.uniform(0.0, 1.0)),
                max_iter=60,
                window_len=t,
            )
            w_dyn, x_dyn, rep_dyn = fit_dynamic(y, cfg)
            w_sta, x_sta, rep_sta = fit_static(y, cfg)
            # the static fit is the dynamic loop on one window: bit for bit
            _assert_same_bytes(w_dyn[0], w_sta)
            _assert_same_bytes(x_dyn[0], x_sta)
            assert rep_dyn == rep_sta

    @pytest.mark.parametrize("window_len", [None, 200])
    def test_static_is_dynamic_on_one_whole_window(self, window_len):
        # fit_static ignores cfg.window_len and runs the solver loop on one
        # window that spans the record
        y, cfg = _reference_scenario(25)
        cfg = replace(cfg, window_len=window_len)
        w, x, report = fit_static(y, cfg)
        w_seq, x_seq, report_dyn = fit_dynamic(y, replace(cfg, window_len=y.shape[1]))
        assert w_seq.shape[0] == x_seq.shape[0] == 1
        _assert_same_bytes(w, w_seq[0])
        _assert_same_bytes(x, x_seq[0])
        assert report == report_dyn and report.per_window_change == ()
        assert change_profile(w[np.newaxis]).shape == (0,)

    def test_per_window_change_is_the_change_profile(self):
        y, cfg = _reference_scenario(25)
        w_seq, _, report = fit_dynamic(y, replace(cfg, max_iter=20))
        assert report.per_window_change == tuple(change_profile(w_seq))

    def test_stop_reason(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, 24))
        capped = SolverConfig(k_budget=2.0, window_len=8, gamma=0.05, max_iter=3)
        _, _, report = fit_dynamic(y, capped)
        assert (report.converged, report.iterations) == (False, 3)
        assert report.stop_reason == "max_iter"
        assert report.to_dict()["stop_reason"] == "max_iter"
        # report keys come from the fields, plus the derived stop_reason
        as_dict = report.to_dict()
        assert set(as_dict) == {f.name for f in fields(FitReport)} | {"stop_reason"}
        assert as_dict["per_window_change"] == list(report.per_window_change)
        _, _, report = fit_static(y, SolverConfig(k_budget=2.0, gamma=0.05))
        assert report.converged and report.iterations < 5000
        assert report.stop_reason == "tolerance"
        assert report.to_dict()["stop_reason"] == "tolerance"

    def test_window_len_required_for_dynamic(self):
        with pytest.raises(ValueError):
            fit_dynamic(np.zeros((3, 10)), SolverConfig(k_budget=1.0))

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    def test_record_without_samples_rejected(self, fit):
        with pytest.raises(ValueError, match="samples of y must be positive, got 0"):
            fit(np.zeros((3, 0)), SolverConfig(k_budget=1.0, window_len=4))

    def test_infeasible_budget_detected(self):
        cfg = SolverConfig(k_budget=10.0, window_len=5)
        with pytest.raises(InfeasibleBudgetError):
            fit_dynamic(np.zeros((3, 10)), cfg)

    def test_divergence_on_overflowing_scale(self):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        y = np.full((3, 4), 1e200)
        with pytest.raises(DivergenceError):
            fit_dynamic(y, cfg)

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    def test_huge_record_diverges_without_a_warning(self, fit):
        # the squared distances of a 1e154 record overflow: the initial
        # objective says so as a typed error, and nothing warns first
        y = 1e154 * np.random.default_rng(0).normal(size=(3, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="initialization"):
                fit(y, SolverConfig(k_budget=1, window_len=4))

    def test_offset_record_fits_at_zero_eta_without_a_warning(self):
        # the energies of a 1e154 offset overflow but its distances do not:
        # at eta = 0 the energy term is never evaluated, so the fit runs;
        # at eta > 0 it is, and the initial objective reports the overflow
        y = 1e154 + np.random.default_rng(0).normal(size=(4, 40))
        cfg = SolverConfig(k_budget=1.0, window_len=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w_seq, _, report = fit_dynamic(y, cfg)
            assert report.converged and np.isfinite(report.final_objective)
            assert all(is_feasible(w, 1.0) for w in w_seq)
            with pytest.raises(DivergenceError, match="initialization"):
                fit_dynamic(y, replace(cfg, eta=0.1))

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    @pytest.mark.parametrize(
        "scale, shape, window_len, eta, tau1",
        [
            (10**153.3, (3, 16), 8, 0.45, None),
            (10**153.375, (12, 10), 5, 0.0, None),
            (1.0, (4, 20), 10, 0.0, 1e308),
        ],
        ids=["gradient", "initial-objective", "step"],
    )
    def test_overflowing_step_diverges_without_a_warning(
        self, fit, scale, shape, window_len, eta, tau1
    ):
        # the initial objective of a record near 1e153 can be finite while a
        # later X-update, W-gradient or W step overflows.  The first case
        # overflows the second dynamic step's gradient (the static fit's one
        # window already overflows the initial objective); the second
        # overflows the initial objective in both fits; the third, at unit
        # scale, overflows the first step tau1 * G through the set tau1
        y = scale * np.random.default_rng(0).normal(size=shape)
        cfg = SolverConfig(
            k_budget=1.0, window_len=window_len, eta=eta, tau1=tau1, max_iter=30
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="non-finite"):
                fit(y, cfg)

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    @pytest.mark.parametrize(
        "scale, cfg, where, hint",
        [
            # the gradient rule sized tau1; what overflows is the objective's
            # smoothness and energy sums (inf - inf), and eta weights one
            (
                10**152.5,
                SolverConfig(
                    k_budget=3.0, eta=0.3, gamma=0.01, window_len=10, max_iter=20
                ),
                "objective became non-finite at iteration 2",
                "rescale the input or reduce eta",
            ),
            # the set tau1 overflows the step tau1 * G, and eta is 0
            (
                1.0,
                SolverConfig(k_budget=1.0, window_len=10, tau1=1e308, max_iter=5),
                "W-gradient step became non-finite at iteration 1",
                "rescale the input or set a smaller tau1",
            ),
        ],
        ids=["rule-sized-tau1", "zero-eta"],
    )
    def test_divergence_hint_names_only_the_knobs_in_play(
        self, fit, scale, cfg, where, hint
    ):
        y = np.random.default_rng(0).normal(size=(4, 20))
        y[0] *= scale
        with pytest.raises(DivergenceError, match=where) as raised:
            fit(y, cfg)
        assert str(raised.value).endswith("; " + hint)

    @pytest.mark.parametrize("fit", [fit_static, fit_dynamic])
    def test_eta_bound_warning_points_at_the_caller(self, fit):
        # the warning names the line that called into the package, not the
        # package line that checks the bound
        y = np.random.default_rng(0).normal(size=(3, 20))
        cfg = SolverConfig(k_budget=1.0, eta=0.6, window_len=10, max_iter=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(y, cfg)
        assert [w.category for w in caught] == [UserWarning]
        assert caught[0].filename == __file__

    def test_mode_flags_validated(self):
        # the paper-literal Z iteration and dual descent are not offered
        for removed in ("z_update_mode", "dual_sign"):
            with pytest.raises(TypeError):
                SolverConfig(k_budget=1.0, **{removed: "paper-literal"})
        for bad in (np.nan, np.inf):
            with pytest.raises(InfeasibleBudgetError):
                SolverConfig(k_budget=bad)
            for name in ("gamma", "eta", "alpha", "lam", "tau1", "tau2",
                         "tol_obj", "tol_residual"):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(k_budget=1.0, **{name: bad})

    def test_update_rule_formulas_per_mode(self):
        # one step from a handcrafted state, checked against the literal
        # update formulas: the prox anchored at the current weight
        # difference, then dual ascent on the constraint residual
        rng = np.random.default_rng(99)
        y = rng.normal(size=(2, 3, 2))
        cfg = SolverConfig(
            k_budget=1.2, window_len=2, gamma=0.3, eta=0.05,
            alpha=0.2, lam=0.6, tau1=0.03, tau2=0.07,
        )
        state = _initial_state(y, cfg)
        state.z = rng.normal(scale=0.2, size=(1, 3))
        state.beta = rng.normal(scale=0.2, size=(1, 3))
        beta_old = state.beta.copy()
        new = step(state, y, cfg)
        diff = new.w[0] - new.w[1]
        z_expected = oracles.soft_threshold_sign(
            diff - cfg.lam * beta_old[0], cfg.lam * cfg.alpha
        )
        np.testing.assert_allclose(new.z[0], z_expected, atol=1e-12)
        beta_expected = beta_old[0] + cfg.tau2 * (new.z[0] - diff)
        np.testing.assert_allclose(new.beta[0], beta_expected, atol=1e-12)

    @pytest.mark.parametrize("name, value, match", [
        ("max_iter", 0, "max_iter must be positive"),
        ("window_len", 0, "window_len must be positive"),
        ("window_len", -3, "window_len must be positive"),
    ])
    def test_counts_below_one_rejected(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(k_budget=1.0, **{name: value})

    @pytest.mark.parametrize("tau2, lam", [(4.0, 0.5), (2.0, 1.0), (5.0, 0.5)])
    def test_unstable_dual_step_rejected(self, tau2, lam):
        # past tau2 * lam = 2 the dual ascent step no longer contracts beta
        with pytest.raises(ValueError, match="tau2"):
            SolverConfig(k_budget=2.0, tau2=tau2, lam=lam)
        SolverConfig(k_budget=2.0, tau2=np.nextafter(2.0 / lam, 0.0), lam=lam)


class TestMemory:
    """A fit holds the caller's record plus one X stack: the windows are
    views of the record, X starts at Y, and every step writes its X into the
    one stack the fit allocates."""

    @pytest.mark.parametrize("fit, bound", [(fit_dynamic, 2.0), (fit_static, 2.5)])
    def test_fit_allocation_peak(self, fit, bound):
        y, cfg = _reference_scenario(25)
        cfg = replace(cfg, max_iter=5)
        fit(y, cfg)  # warm-up: module caches are not part of a fit's cost
        _, peak = _traced_peak(fit, y, cfg)
        # the returned X stack alone is one record's worth
        assert peak < bound * y.nbytes

    @pytest.mark.parametrize("windows_per_segment", [4, 32], ids=["8", "64"])
    def test_wide_fit_holds_one_generation_of_step_temporaries(
        self, windows_per_segment
    ):
        # at n=100 each (b-1, m) stack of Z or beta is a fifth of the record.
        # With the old Z freed before a step, beta formed in the residual's
        # buffer, a one-buffer projection and a one-buffer prox the peak
        # sits in the objective at 8 windows (2.24 records) and in the prox
        # at 64 (2.23); with the old Z alive, a separate beta, a second
        # projection buffer and a two-buffer prox, 2.58 and 2.71
        y = generate(
            replace(_wide_spec(), windows_per_segment=windows_per_segment)
        ).signals
        cfg = SolverConfig(k_budget=99.0, window_len=200, gamma=0.01, alpha=0.1,
                           max_iter=3)
        fit_dynamic(y, cfg)  # warm-up
        _, peak = _traced_peak(fit_dynamic, y, cfg)
        assert peak < 2.45 * y.nbytes

    def test_generate_holds_the_record_and_its_clean_version(self):
        # 2.22 records with the noise scaled in place, 3.22 with a noise
        # draw and its scaled copy beside the two records
        generate(_wide_spec())  # warm-up
        truth, peak = _traced_peak(generate, _wide_spec())
        assert peak < 2.7 * truth.signals.nbytes

    @pytest.mark.parametrize("n_samples", [1600, 1537])
    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    def test_fit_leaves_the_record_unchanged(self, fit, n_samples):
        y, cfg = _reference_scenario(25)
        y = np.ascontiguousarray(y[:, :n_samples])
        before = y.copy()
        _, x, _ = fit(y, replace(cfg, max_iter=5))
        np.testing.assert_array_equal(y, before)
        assert not np.shares_memory(x, y)

    def test_windows_are_views_of_the_record(self):
        y = np.random.default_rng(3).normal(size=(4, 50))
        blocks = window_signals(y, 12)
        assert np.shares_memory(blocks, y)

    def test_step_does_not_read_x(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(3, 6, 10))
        cfg = SolverConfig(k_budget=4.0, window_len=10, gamma=0.3, eta=0.05)
        state = step(_initial_state(y, cfg), y, cfg)
        full = step(state, y, cfg)
        for freed in (replace(state, x=None), replace(state, x=None, z=None)):
            new = step(freed, y, cfg)
            for f in fields(SolverState):
                _assert_same_bytes(getattr(full, f.name), getattr(new, f.name))

    def test_step_writes_x_into_the_given_buffer(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(3, 6, 10))
        cfg = SolverConfig(k_budget=4.0, window_len=10, gamma=0.3, eta=0.05)
        state = step(_initial_state(y, cfg), y, cfg)
        buf = np.full(y.shape, np.nan)
        fresh, into = step(state, y, cfg), step(state, y, cfg, x_out=buf)
        assert into.x is buf
        for f in fields(SolverState):
            _assert_same_bytes(getattr(fresh, f.name), getattr(into, f.name))
        # the buffer may be the X of the state it is given, which step never reads
        fresh = step(into, y, cfg)
        again = step(into, y, cfg, x_out=into.x)
        assert again.x is buf
        for f in fields(SolverState):
            _assert_same_bytes(getattr(fresh, f.name), getattr(again, f.name))

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    def test_fit_writes_every_step_into_one_x_stack(self, fit, monkeypatch):
        y, cfg = _reference_scenario(25)
        buffers = []
        original = solver.step

        def recording(state, y_windows, cfg, **kwargs):
            buffers.append(kwargs["x_out"])
            return original(state, y_windows, cfg, **kwargs)

        monkeypatch.setattr(solver, "step", recording)
        _, x, report = fit(y, replace(cfg, max_iter=5))
        assert report.iterations == len(buffers) == 5
        assert all(buf is buffers[0] for buf in buffers)
        # a static fit returns its one window of the stack
        assert (x if fit is fit_dynamic else x.base) is buffers[0]


def _assert_same_bytes(a, b):
    """``a`` and ``b`` (arrays or numbers) agree in dtype, shape and every
    bit; unlike ``np.array_equal`` this tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _wide_spec():
    # the reference layout (8 windows of 200 samples) at n=100
    return ScenarioSpec(
        n_nodes=100, k_true=99, n_segments=2, windows_per_segment=4,
        window_len=200, noise_sigma=0.1, seed=25,
    )


def _reference_scenario(seed):
    # acceptance test_07's scenario and solver settings
    spec = ScenarioSpec(
        n_nodes=20, k_true=19, n_segments=2, windows_per_segment=4,
        window_len=200, noise_sigma=0.1, seed=seed,
    )
    cfg = SolverConfig(k_budget=19.0, window_len=200, gamma=0.01, alpha=0.1)
    return generate(spec).signals, cfg


class TestDefaultSteps:
    # seed 0 at the strong couplings is among the grid fits C1 and C2 were
    # chosen to converge (158 and 161 iterations)
    @pytest.mark.parametrize(
        "seed, alpha",
        [*((seed, 0.1) for seed in range(7)), (0, 0.8), (0, 1.6)],
        ids=[*map(str, range(7)), "0-alpha0.8", "0-alpha1.6"],
    )
    def test_reference_scenario_converges(self, seed, alpha):
        y, cfg = _reference_scenario(seed)
        _, _, report = fit_dynamic(y, replace(cfg, alpha=alpha))
        assert report.converged and report.stop_reason == "tolerance"

    def test_fixed_point_is_w_block_optimal(self):
        # with X fixed at the fit's final signals the objective is a linear
        # program in W; a tightly converged fit sits at its optimum
        y, cfg = _reference_scenario(25)
        cfg = replace(cfg, tol_residual=1e-8, tol_obj=1e-12)
        w_seq, x_seq, report = fit_dynamic(y, cfg)
        assert report.converged
        costs = oracles.w_block_costs(x_seq, cfg.gamma, cfg.eta)
        optimum = oracles.w_block_lp(costs, cfg.k_budget, cfg.alpha)
        gap = oracles.w_block_value(costs, w_seq, cfg.alpha) - optimum
        assert -1e-8 <= gap <= 1e-8

    @pytest.mark.parametrize("c", [0.5, 4.0, 1e-3, 1e-6, 1e-100])
    def test_static_fit_follows_the_signal_scale(self, c):
        # G scales with c**2 and tau1 = C1 / S with 1 / c**2, so the steps
        # are the same; the objective scales with c**2 too, so the relative
        # tol_obj test stops at the same iteration
        rng = np.random.default_rng(3)
        y = rng.normal(size=(12, 30)) + 0.5 * rng.normal(size=(12, 1))
        cfg = SolverConfig(k_budget=11.0, gamma=0.05, eta=0.02)
        w, _, report = fit_static(y, cfg)
        w_c, _, report_c = fit_static(c * y, cfg)
        assert report.converged and report_c.converged
        assert report_c.iterations == report.iterations > 1
        np.testing.assert_allclose(w_c, w, rtol=0, atol=1e-9)
        assert report_c.tau1 == pytest.approx(report.tau1 / c**2, rel=1e-12)

    def test_report_carries_the_steps_in_use(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(4, 24))
        y_windows = window_signals(y, 8)
        cfg = SolverConfig(k_budget=2.0, window_len=8, gamma=0.3, max_iter=5)
        state = _initial_state(y_windows, cfg)
        x = np.stack([update_x(y_windows[t], state.w[t], 0.3, 0.0) for t in range(3)])
        spread = np.mean(np.ptp(grad_w(x, state.beta, cfg), axis=1))

        _, _, report = fit_dynamic(y, cfg)
        assert report.tau1 == pytest.approx(C1 / spread, rel=1e-12)
        assert report.tau2 == pytest.approx(C2 * spread, rel=1e-12)
        assert (report.to_dict()["tau1"], report.to_dict()["tau2"]) == (
            report.tau1, report.tau2,
        )
        _, _, report = fit_dynamic(y, replace(cfg, tau2=0.07))
        assert report.tau1 == pytest.approx(C1 / spread, rel=1e-12)
        assert report.tau2 == 0.07
        _, _, report = fit_dynamic(y, replace(cfg, tau1=0.03, tau2=0.07))
        assert (report.tau1, report.tau2) == (0.03, 0.07)
        # the step fields trail with defaults, so positional calls still work
        assert FitReport(True, 1, 0.0, 0.0, ()).tau1 is None

    @pytest.mark.parametrize(
        "grads",
        [
            np.zeros((2, 3)),  # zero record
            np.full((2, 3), -7.0),  # constant record
        ],
        ids=["zero", "constant"],
    )
    def test_degenerate_spread_falls_back_to_unit_scale(self, grads):
        cfg = SolverConfig(k_budget=1.0, lam=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _resolve_steps(grads, cfg) == (C1, C2)

    @pytest.mark.parametrize(
        "grads, spread",
        [
            (np.array([[0.0, 1e-320, 0.0]]), 1e-320),  # C1 / S overflows
            (np.array([[np.inf, 0.0, 1.0]]), np.inf),
            (np.array([[np.nan, 0.0, 1.0]]), np.nan),
            (np.array([[-1e308, 1e308]]), np.inf),  # the spread itself overflows
        ],
        ids=["subnormal", "inf", "nan", "overflow"],
    )
    def test_nonzero_spread_follows_the_rule(self, grads, spread):
        # only a flat gradient falls back; a step the rule leaves non-finite
        # is refused by the W step (test_subnormal_gradient_fit)
        cfg = SolverConfig(k_budget=1.0, lam=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            steps = _resolve_steps(grads, cfg)
        np.testing.assert_array_equal(steps, (C1 / spread, min(C2 * spread, 1.0 / cfg.lam)))

    @pytest.mark.parametrize("case", ["one edge", "equal rows"])
    def test_gradient_offset_far_above_its_spread_keeps_the_budget(self, case):
        # eta near its bound makes G large, while its spread is zero (one
        # edge) or rounding noise (equal rows), so C1 / S times G is far
        # beyond the resolution of W - tau1 * G unless the offset goes
        if case == "one edge":
            y = np.array([[0.12573022], [-0.13210486]])
        else:
            y = np.full((3, 1), 0.1)
        n = y.shape[0]
        cfg = SolverConfig(
            k_budget=1.0, gamma=0.01, eta=(1.0 - 1e-9) / (n - 1), window_len=1
        )
        w_seq, _, report = fit_dynamic(y, cfg)
        assert all(is_feasible(w, 1.0, tol=1e-9) for w in w_seq)
        assert np.isfinite(report.final_objective)

    def test_subnormal_gradient_fit(self):
        # the spread is subnormal, so tau1 = C1 / S overflows and the first
        # W step is non-finite: a divergence, as for a record near 1e153
        rng = np.random.default_rng(9)
        with pytest.raises(DivergenceError, match="iteration 1; rescale the input$"):
            fit_dynamic(
                1e-160 * rng.normal(size=(4, 12)), SolverConfig(k_budget=2.0, window_len=4)
            )

    # a window's squared distances scale with its samples: the static fit's
    # one 1600-sample window has about 8 times the spread of a 200-sample
    # one, so its step overflows one decade lower
    @pytest.mark.parametrize(
        "fit, scale",
        [(fit_dynamic, 1e-154), (fit_dynamic, 1e-160), (fit_static, 1e-155),
         (fit_static, 1e-160)],
        ids=["dynamic-1e-154", "dynamic-1e-160", "static-1e-155", "static-1e-160"],
    )
    def test_record_too_small_for_the_step_rule_is_divergence(self, fit, scale):
        # the objective is tiny but not 0, so the uniform start graph is no
        # answer; the rule's tau1 = C1 / S overflows instead
        y, cfg = _reference_scenario(25)
        with pytest.raises(DivergenceError, match="iteration 1; rescale the input$"):
            fit(scale * y, cfg)

    def test_smallest_record_the_rule_sizes_still_converges(self):
        y, cfg = _reference_scenario(25)
        w_seq, _, report = fit_dynamic(1e-153 * y, cfg)
        # 119 iterations here; the count may move by a step or two across
        # BLAS builds
        assert report.converged and abs(report.iterations - 119) <= 2
        assert np.isfinite(report.tau1) and report.final_objective > 0.0
        assert all(is_feasible(w, cfg.k_budget, tol=1e-9) for w in w_seq)
        assert np.ptp(w_seq) == 1.0  # not the uniform start graph K/m

    @pytest.mark.parametrize("fit", [fit_dynamic, fit_static])
    def test_record_whose_squares_underflow_fits_like_a_zero_record(self, fit):
        # at 1e-200 every squared difference is exactly 0: the objective is
        # 0 for every W, so the gradient is flat and S falls back to 1
        y, cfg = _reference_scenario(25)
        w, _, report = fit(1e-200 * y, cfg)
        w_zero, _, report_zero = fit(np.zeros_like(y), cfg)
        _assert_same_bytes(w, w_zero)
        assert report == report_zero
        assert (report.tau1, report.tau2) == (C1, C2)

    def test_budget_missed_beyond_float_resolution_is_divergence(self):
        # eta at its bound: once W gives node 3 degree 3 the X system is near
        # singular, X grows to 6e8 and W - tau1 * G spans about 1e18, more
        # than the projection can resolve to meet the budget
        y = np.array([[0.12573022], [-0.13210486], [0.64042265], [0.10490012]])
        cfg = SolverConfig(k_budget=4.0, gamma=0.0, eta=(1.0 - 1e-9) / 3, window_len=1)
        with pytest.raises(DivergenceError, match="budget"):
            fit_dynamic(y, cfg)

    def test_dual_step_is_capped_at_one_over_lam(self):
        # Once |beta| is large, the anchored ascent step scales beta by about
        # 1 - tau2 * lam, so a dual step above 2 / lam diverges.  At this
        # signal scale C2 * S is far above it.
        rng = np.random.default_rng(10)
        cfg = SolverConfig(k_budget=2.0, window_len=8, lam=0.5, max_iter=300)
        w_seq, _, report = fit_dynamic(1e3 * rng.normal(size=(4, 24)), cfg)
        assert report.tau2 == 2.0
        assert np.isfinite(w_seq).all() and np.isfinite(report.final_objective)
        assert all(is_feasible(w, 2.0, tol=1e-9) for w in w_seq)


@st.composite
def _fit_case(draw):
    n = draw(st.integers(2, 7))
    b = draw(st.integers(1, 4))
    s = draw(st.integers(1, 10))
    m = n_edges(n)
    k = draw(st.one_of(
        st.integers(1, m).map(float), st.floats(0.0, m, exclude_min=True)
    ))
    # eta * (n - 1) < 1, up to the bound itself
    eta = draw(st.one_of(st.floats(0.0, 0.99), st.just(1.0 - 1e-9))) / (n - 1)
    gamma = draw(st.sampled_from([0.0, 0.01, 1.0]))
    scale = draw(st.one_of(st.just(0.0), st.integers(-6, 6).map(lambda e: 10.0**e)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = scale * rng.normal(size=(n, b * s))
    for row in draw(st.sets(st.integers(0, n - 1))):
        y[row] = draw(st.sampled_from([0.0, scale, -3.0 * scale]))
    cfg = SolverConfig(
        k_budget=k, gamma=gamma, eta=eta, window_len=s, max_iter=25
    )
    return y, cfg, draw(st.booleans())


class TestFitProperties:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(case=_fit_case())
    def test_default_steps_end_in_a_graph_or_a_typed_error(self, case):
        y, cfg, static = case
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                if static:
                    w, x, report = fit_static(y, cfg)
                    w, x = w[np.newaxis], x[np.newaxis]
                else:
                    w, x, report = fit_dynamic(y, cfg)
        except TvgLearnError:
            return
        assert np.isfinite(w).all() and np.isfinite(x).all()
        assert np.isfinite(report.final_objective)
        assert all(is_feasible(row, cfg.k_budget, tol=1e-6) for row in w)
        assert 0.0 < report.tau1 < np.inf and 0.0 < report.tau2 < np.inf
