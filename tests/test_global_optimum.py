"""The exact global optimum of :func:`oracles.global_optimum`: its self-checks,
and the standing check that no fit ends below it."""

import itertools

import numpy as np
import pytest

from tvglearn import (
    ScenarioSpec,
    SolverConfig,
    fit_dynamic,
    generate,
    objective,
    update_x,
    window_signals,
)

import oracles


def _resolved_value(y_windows, w_seq, gamma, eta, alpha):
    # the package's objective at w_seq, with each X_t its exact minimiser
    x = np.stack([update_x(y, w, gamma, eta) for y, w in zip(y_windows, w_seq)])
    return objective(y_windows, x, w_seq, gamma=gamma, eta=eta, alpha=alpha)


@pytest.mark.parametrize("eta", [0.0, 0.2])  # 0.2 * (4 - 1) < 1
def test_equals_brute_force_over_set_sequences(eta):
    rng = np.random.default_rng(11)
    y = 0.3 * rng.normal(size=(2, 4, 6))
    y[0, :3] += rng.normal(size=6)  # a triangle on nodes 0-2, then on 1-3
    y[1, 1:] += rng.normal(size=6)
    gamma, alpha, k = 0.7, 0.3, 3
    eye = np.eye(4)

    def value(w_seq):
        x = np.stack([
            np.linalg.solve(
                eye + gamma * oracles.dense_laplacian(w)
                - eta * np.diag(oracles.dense_weight_matrix(w).sum(axis=1)),
                y_t,
            )
            for w, y_t in zip(w_seq, y)
        ])
        return oracles.objective_per_window(y, x, w_seq, gamma, eta, alpha)

    sets = [np.isin(np.arange(6), s).astype(float)
            for s in itertools.combinations(range(6), k)]
    best = min(value(np.stack(pair)) for pair in itertools.product(sets, repeat=2))
    opt, w_opt = oracles.global_optimum(y, k, gamma, eta, alpha)
    assert opt == pytest.approx(best, rel=1e-12)
    assert value(w_opt) == pytest.approx(opt, rel=1e-12)
    # the two windows want different graphs, so the coupling is in play
    assert not np.array_equal(w_opt[0], w_opt[1])


def test_its_graphs_give_its_value_through_the_objective():
    rng = np.random.default_rng(4)
    y = rng.normal(size=(3, 5, 20))
    gamma, eta, alpha = 0.5, 0.1, 0.4
    opt, w_opt = oracles.global_optimum(y, 4, gamma, eta, alpha)
    assert w_opt.shape == (3, 10) and set(np.unique(w_opt)) == {0.0, 1.0}
    assert (w_opt.sum(axis=1) == 4).all()
    assert _resolved_value(y, w_opt, gamma, eta, alpha) == pytest.approx(opt, rel=1e-9)


@pytest.mark.parametrize(
    "n, k, eta, match",
    [
        (5, 2.5, 0.0, "k must be an integer"),
        (5, 0, 0.0, "k must be an integer"),
        (8, 7, 0.0, "edge sets exceed"),
        (5, 4, 0.25, "eta"),
    ],
)
def test_refuses_what_it_cannot_solve_exactly(n, k, eta, match):
    with pytest.raises(ValueError, match=match):
        oracles.global_optimum(np.ones((2, n, 3)), k, 1.0, eta, 0.1)


@pytest.mark.parametrize("seed", range(3))
def test_no_default_fit_ends_below_the_global_optimum(seed):
    y = generate(ScenarioSpec(n_nodes=5, k_true=4, window_len=200, seed=seed)).signals
    y_windows = window_signals(y, 200)
    for gamma, alpha in itertools.product((0.01, 1.0), (0.1, 0.8)):
        cfg = SolverConfig(k_budget=4.0, window_len=200, gamma=gamma, alpha=alpha)
        w_seq, _, _ = fit_dynamic(y, cfg)
        opt, _ = oracles.global_optimum(y_windows, 4, gamma, 0.0, alpha)
        fit_value = _resolved_value(y_windows, w_seq, gamma, 0.0, alpha)
        assert fit_value >= opt - 1e-9 * abs(opt), (gamma, alpha)
