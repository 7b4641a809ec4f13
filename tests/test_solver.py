import warnings

import numpy as np
import pytest

from tvglearn import (
    DivergenceError,
    InfeasibleBudgetError,
    SingularSystemError,
    SolverConfig,
    fit_dynamic,
    fit_static,
)
from tvglearn.graphs import n_edges, window_signals
from tvglearn.projection import is_feasible
from tvglearn.solver import SolverState, _initial_state, grad_w, step, update_x

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
        assert excinfo.value.window == 4

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

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            update_x(np.ones((3, 4)), np.ones(4), 1.0, 0.0)


class TestGradW:
    def test_zero_signals_zero_duals(self):
        state = SolverState(
            x=np.zeros((2, 3, 4)),
            w=np.full((2, 3), 0.5),
            z=np.zeros((1, 3)),
            beta=np.zeros((1, 3)),
        )
        cfg = SolverConfig(k_budget=1.5, gamma=1.0, eta=0.3)
        np.testing.assert_array_equal(grad_w(0, state, cfg), 0.0)
        np.testing.assert_array_equal(grad_w(1, state, cfg), 0.0)

    def test_two_node_hand_value(self):
        state = SolverState(
            x=np.array([[[1.0], [0.0]]]),
            w=np.array([[0.5]]),
            z=np.zeros((0, 1)),
            beta=np.zeros((0, 1)),
        )
        cfg = SolverConfig(k_budget=0.5, gamma=1.0, eta=0.1)
        assert grad_w(0, state, cfg)[0] == pytest.approx(0.9)

    def test_interior_window_dual_terms(self):
        state = SolverState(
            x=np.zeros((3, 2, 1)),
            w=np.full((3, 1), 1.0),
            z=np.zeros((2, 1)),
            beta=np.array([[0.2], [0.5]]),
        )
        cfg = SolverConfig(k_budget=1.0, gamma=1.0, eta=0.0)
        assert grad_w(1, state, cfg)[0] == pytest.approx(-0.3)

    def test_index_out_of_range(self):
        state = SolverState(
            x=np.zeros((1, 2, 1)), w=np.ones((1, 1)),
            z=np.zeros((0, 1)), beta=np.zeros((0, 1)),
        )
        cfg = SolverConfig(k_budget=1.0)
        with pytest.raises(IndexError):
            grad_w(1, state, cfg)

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
            for t in range(b):
                grad = grad_w(t, state, cfg)
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
        assert new.obj_history[-1] == pytest.approx(0.0, abs=1e-12)
        assert new.residual == pytest.approx(0.0, abs=1e-12)

    def test_single_window_has_no_coupling_state(self):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        y = np.random.default_rng(1).normal(size=(1, 3, 4))
        state = _initial_state(y, cfg)
        assert state.z.shape == (0, 3)
        new = step(state, y, cfg)
        assert new.z.shape == (0, 3)
        assert new.residual == 0.0

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
            for _ in range(30):
                state = step(state, y, cfg)
            diffs = np.diff(state.obj_history)
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
            # kappa itself is not compared: on a flat stretch of the clipped
            # sum every shift gives the same point
            for name in ("w", "x", "z", "beta", "obj_history"):
                np.testing.assert_allclose(
                    getattr(warm, name), getattr(cold, name), rtol=0, atol=1e-12
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
        assert state.obj_history[-1] == pytest.approx(4.685900204117372, abs=1e-9)

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
        assert state.obj_history[-1] == pytest.approx(4.23618568278013, abs=1e-8)


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
            assert np.array_equal(w_dyn[0], w_sta)
            assert np.array_equal(x_dyn[0], x_sta)
            assert rep_dyn == rep_sta

    def test_window_len_required_for_dynamic(self):
        with pytest.raises(ValueError):
            fit_dynamic(np.zeros((3, 10)), SolverConfig(k_budget=1.0))

    def test_infeasible_budget_detected(self):
        cfg = SolverConfig(k_budget=10.0, window_len=5)
        with pytest.raises(InfeasibleBudgetError):
            fit_dynamic(np.zeros((3, 10)), cfg)

    def test_divergence_on_overflowing_scale(self):
        cfg = SolverConfig(k_budget=1.0, window_len=4)
        y = np.full((3, 4), 1e200)
        with pytest.raises(DivergenceError):
            fit_dynamic(y, cfg)

    def test_eta_bound_warning(self):
        cfg = SolverConfig(k_budget=1.0, eta=0.6, window_len=5)
        with pytest.warns(UserWarning):
            cfg.validate_for(3)

    def test_mode_flags_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(k_budget=1.0, z_update_mode="bogus")
        with pytest.raises(ValueError):
            SolverConfig(k_budget=1.0, dual_sign="bogus")
        for bad in (np.nan, np.inf):
            with pytest.raises(InfeasibleBudgetError):
                SolverConfig(k_budget=bad)
            for name in ("gamma", "eta", "alpha", "lam", "tau1", "tau2",
                         "tol_obj", "tol_residual"):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(k_budget=1.0, **{name: bad})

    def test_update_rule_formulas_per_mode(self):
        # one step from a handcrafted state, checked against the literal
        # update formulas of each mode switch
        from tvglearn.proximal import soft_threshold

        rng = np.random.default_rng(99)
        y = rng.normal(size=(2, 3, 2))
        for z_mode in ("anchored", "paper-literal"):
            for dual in ("ascent", "paper-literal"):
                cfg = SolverConfig(
                    k_budget=1.2, window_len=2, gamma=0.3, eta=0.05,
                    alpha=0.2, lam=0.6, tau1=0.03, tau2=0.07,
                    z_update_mode=z_mode, dual_sign=dual,
                )
                state = _initial_state(y, cfg)
                state.z = rng.normal(scale=0.2, size=(1, 3))
                state.beta = rng.normal(scale=0.2, size=(1, 3))
                z_old, beta_old = state.z.copy(), state.beta.copy()
                new = step(state, y, cfg)
                diff = new.w[0] - new.w[1]
                anchor = diff if z_mode == "anchored" else z_old[0]
                z_expected = soft_threshold(
                    anchor - cfg.lam * beta_old[0], cfg.lam * cfg.alpha
                )
                np.testing.assert_allclose(new.z[0], z_expected, atol=1e-12)
                sign = 1.0 if dual == "ascent" else -1.0
                beta_expected = beta_old[0] + sign * cfg.tau2 * (new.z[0] - diff)
                np.testing.assert_allclose(new.beta[0], beta_expected, atol=1e-12)

    def test_paper_literal_modes_run_and_differ(self):
        rng = np.random.default_rng(77)
        y = rng.normal(size=(4, 20))
        base = dict(k_budget=3.0, window_len=5, gamma=0.1, alpha=0.5, max_iter=40)
        w_anchor, _, _ = fit_dynamic(y, SolverConfig(**base))
        w_lit, _, _ = fit_dynamic(
            y,
            SolverConfig(
                **base, z_update_mode="paper-literal", dual_sign="paper-literal"
            ),
        )
        for w_seq in (w_anchor, w_lit):
            for t in range(w_seq.shape[0]):
                assert is_feasible(w_seq[t], 3.0, tol=1e-6)
        assert not np.allclose(w_anchor, w_lit, atol=1e-6)
