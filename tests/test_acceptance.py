"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are fixed here and are not meant to be tuned.
"""

import json
import time

import numpy as np
import pytest

import tvglearn as tg
from tvglearn.cli import ingest_csv, run
from tvglearn.graphs import n_edges, objective
from tvglearn.solver import SolverState, grad_w, update_x

import oracles


def _passed(n, text):
    print(f"ACCEPTANCE {n:2d} PASS - {text}")


def test_01_projection_matches_kkt_enumeration():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(3, 11))
        k = float(rng.uniform(0.05, m - 0.05))
        raw = rng.uniform(-2.0, 3.0, size=m)
        res = tg.project_capped_simplex(raw, k)
        expected, _ = oracles.kkt_projection(raw, k)
        worst = max(worst, float(np.abs(res.projected - expected).max()))
        assert np.abs(res.projected - expected).max() <= 1e-6
        assert abs(res.projected.sum() - k) <= 1e-9
        assert res.projected.min() >= 0.0 and res.projected.max() <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"projection vs KKT enumeration, 1000 cases, "
               f"max err {worst:.2e}, {elapsed:.1f}s")


def test_02_prox_matches_numerical_minimizer():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(-3.0, 3.0))
        alpha = float(rng.uniform(0.0, 2.0))
        beta = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(0.1, 3.0))
        span = abs(v) + lam * (alpha + abs(beta)) + 1.0
        z_star = oracles.golden_min(
            lambda z: alpha * abs(z) + beta * z + (z - v) ** 2 / (2.0 * lam),
            -span,
            span,
            iters=120,
        )
        out = float(tg.prox_l1_linear(np.array([v]), alpha, np.array([beta]), lam)[0])
        worst = max(worst, abs(out - z_star))
        assert abs(out - z_star) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"prox vs golden-section minimizer, 1000 cases, "
               f"max err {worst:.2e}, {elapsed:.1f}s")


def test_03_gradient_matches_lagrangian_finite_differences():
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        b = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        m = n_edges(n)
        k = float(rng.uniform(0.5, m))
        cfg = tg.SolverConfig(
            k_budget=k,
            gamma=float(rng.uniform(0.1, 2.0)),
            eta=float(rng.uniform(0.0, 0.8 / (n - 1))),
            alpha=float(rng.uniform(0.0, 1.0)),
        )
        w = np.stack(
            [oracles.breakpoint_projection(rng.normal(size=m), k)[0] for _ in range(b)]
        )
        state = SolverState(
            x=rng.normal(size=(b, n, s)),
            w=w,
            z=rng.normal(scale=0.3, size=(max(b - 1, 0), m)),
            beta=rng.normal(scale=0.5, size=(max(b - 1, 0), m)),
        )
        y = rng.normal(size=(b, n, s))
        for t in range(b):
            grad = grad_w(state.x, state.beta, cfg)[t]
            for e in range(m):
                def lag(delta, t=t, e=e):
                    w_mod = state.w.copy()
                    w_mod[t, e] += delta
                    return oracles.lagrangian_value(
                        y, state.x, w_mod, state.z, state.beta,
                        cfg.gamma, cfg.eta, cfg.alpha,
                    )

                fd = (lag(h) - lag(-h)) / (2.0 * h)
                err = abs(fd - grad[e]) / max(1.0, abs(grad[e]))
                worst = max(worst, err)
                assert err < 1e-5
    _passed(3, f"analytic gradient vs central differences (h=1e-5), "
               f"100 states, worst rel err {worst:.2e}")


def test_04_x_update_is_block_optimal():
    rng = np.random.default_rng(404)
    worst_dir = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        s = int(rng.integers(2, 8))
        m = n_edges(n)
        y = rng.normal(scale=2.0, size=(n, s))
        w = oracles.breakpoint_projection(rng.normal(size=m), m / 3.0)[0]
        gamma = float(rng.uniform(0.1, 1.5))
        eta = float(rng.uniform(0.0, 0.5 / (n - 1)))
        x_star = update_x(y, w, gamma, eta)

        lap = oracles.dense_laplacian(w)
        deg = np.diag(np.diag(lap))
        a_mat = np.eye(n) + gamma * lap - eta * deg
        y_norm = np.linalg.norm(y)
        assert np.linalg.norm(a_mat @ x_star - y) <= 1e-8 * y_norm

        def restricted(x):
            resid = y - x
            return float(
                (resid * resid).sum()
                + np.trace(x.T @ (gamma * lap - eta * deg) @ x)
            )

        h = 1e-4
        for _ in range(20):
            direction = rng.normal(size=(n, s))
            direction /= np.linalg.norm(direction)
            deriv = (restricted(x_star + h * direction)
                     - restricted(x_star - h * direction)) / (2.0 * h)
            worst_dir = max(worst_dir, abs(deriv))
            assert abs(deriv) <= 1e-6 * (1.0 + y_norm)
    _passed(4, f"X update stationarity over 20 directions x 10 instances, "
               f"worst directional derivative {worst_dir:.2e}")


def test_05_trace_identities():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        s = int(rng.integers(1, 8))
        w = rng.uniform(0.0, 1.0, size=n_edges(n))
        x = rng.normal(size=(n, s))
        smooth_edge = tg.smoothness_term(w, x)
        smooth_trace = oracles.smoothness_term_dense(w, x)
        rel = abs(smooth_edge - smooth_trace) / max(1e-30, abs(smooth_trace))
        worst = max(worst, rel)
        assert rel <= 1e-10 or abs(smooth_edge - smooth_trace) <= 1e-12
        energy_deg = tg.energy_penalty_term(w, x)
        energy_pair = oracles.energy_penalty_term_pairwise(w, x)
        rel = abs(energy_deg - energy_pair) / max(1e-30, abs(energy_pair))
        worst = max(worst, rel)
        assert rel <= 1e-10 or abs(energy_deg - energy_pair) <= 1e-12
    _passed(5, f"trace vs edge-sum identities, 1000 cases, worst rel {worst:.2e}")


def test_06_zero_signal_pathology():
    # N=6, nodes 4 and 5 silent; nodes 0 and 1 share an identical active row
    n, s = 6, 10
    rng = np.random.default_rng(606)
    x = rng.normal(size=(n, s))
    x[1] = x[0]
    x[4] = 0.0
    x[5] = 0.0
    y = x.copy()
    m = n_edges(n)
    i_idx, j_idx = tg.edge_pairs(n)
    edge_index = {(i, j): e for e, (i, j) in enumerate(zip(i_idx, j_idx))}
    silent_edge = edge_index[(4, 5)]  # both endpoints silent
    active_edge = edge_index[(0, 1)]  # identical active rows: zero smoothness

    def obj_with(weights, eta):
        return objective(
            y[np.newaxis], x[np.newaxis], weights[np.newaxis],
            gamma=0.8, eta=eta, alpha=0.0,
        )

    base = np.full(m, 0.02)
    base[silent_edge] = 1.0
    base[active_edge] = 0.0

    moved = base.copy()
    moved[silent_edge] = 0.0
    moved[active_edge] = 1.0

    # eta = 0: both placements cost the same
    drift = abs(obj_with(base, 0.0) - obj_with(moved, 0.0))
    assert drift <= 1e-10

    # eta = 0: transfers among silent-silent edges are also free
    x3 = x.copy()
    x3[3] = 0.0  # third silent node gives a second silent-silent edge
    y3 = x3.copy()
    pair_a = edge_index[(3, 4)]
    pair_b = edge_index[(4, 5)]
    w_a = np.full(m, 0.02)
    w_a[pair_a] = 0.7
    w_a[pair_b] = 0.1
    w_b = w_a.copy()
    w_b[pair_a] = 0.1
    w_b[pair_b] = 0.7
    vals = [
        objective(y3[np.newaxis], x3[np.newaxis], w[np.newaxis],
                  gamma=0.8, eta=0.0, alpha=0.0)
        for w in (w_a, w_b)
    ]
    assert abs(vals[0] - vals[1]) <= 1e-10

    # eta > 0: moving one weight unit to the active pair pays out eta * E
    eta = 0.05
    energy = float((x[0] * x[0]).sum() + (x[1] * x[1]).sum())
    drop = obj_with(base, eta) - obj_with(moved, eta)
    assert drop == pytest.approx(eta * energy, abs=1e-8)
    _passed(6, f"silent-node pathology: eta=0 invariant, "
               f"eta=0.05 payoff {drop:.6f} == eta*E")


def test_07_synthetic_recovery():
    start = time.perf_counter()
    spec = tg.ScenarioSpec(
        n_nodes=20, k_true=19, n_segments=2, windows_per_segment=4,
        window_len=200, noise_sigma=0.1, seed=25,
    )
    truth = tg.generate(spec)
    # gamma/alpha/lam validated against this fixed scenario; all remaining
    # fields (steps, tolerances) are the package defaults
    cfg = tg.SolverConfig(
        k_budget=float(spec.k_true), window_len=spec.window_len,
        gamma=0.01, alpha=0.1, lam=1.0,
    )

    w_seq, _, report = tg.fit_dynamic(truth.signals, cfg)
    assert report.converged
    assert report.iterations <= 500
    f1 = [
        tg.edge_f1(w_seq[t], truth.segments[truth.segment_of_window(t)], spec.k_true)
        for t in range(spec.n_windows)
    ]
    seg_f1 = [float(np.mean(f1[:4])), float(np.mean(f1[4:]))]
    assert seg_f1[0] >= 0.8
    assert seg_f1[1] >= 0.8

    profile = tg.change_profile(w_seq)
    assert int(np.argmax(profile)) == truth.boundaries[0]

    w_static, _, _ = tg.fit_static(truth.signals, cfg)
    static_f1 = float(np.mean(
        [tg.edge_f1(w_static, truth.segments[s], spec.k_true) for s in range(2)]
    ))
    assert static_f1 < float(np.mean(seg_f1))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(7, f"recovery F1 {seg_f1[0]:.3f}/{seg_f1[1]:.3f} "
               f"(static {static_f1:.3f}), boundary at "
               f"{int(np.argmax(profile))}, converged in {report.iterations} "
               f"iterations, {elapsed:.1f}s")


def test_08_dynamic_single_window_equals_static():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        t_len = int(rng.integers(6, 25))
        y = rng.normal(size=(n, t_len))
        cfg = tg.SolverConfig(
            k_budget=float(rng.uniform(1.0, n_edges(n))),
            gamma=float(rng.uniform(0.02, 0.5)),
            eta=float(rng.uniform(0.0, 0.5 / (n - 1))),
            alpha=float(rng.uniform(0.0, 1.0)),
            max_iter=int(rng.integers(5, 60)),
            window_len=t_len,
        )
        w_dyn, x_dyn, _ = tg.fit_dynamic(y, cfg)
        w_sta, x_sta, _ = tg.fit_static(y, cfg)
        worst = max(worst, float(np.abs(w_dyn[0] - w_sta).max()))
        np.testing.assert_allclose(w_dyn[0], w_sta, atol=1e-8)
        np.testing.assert_allclose(x_dyn[0], x_sta, atol=1e-8)
    _passed(8, f"single-window dynamic == static on 20 instances, "
               f"max |dW| {worst:.2e}")


def test_09_analysis_properties():
    rng = np.random.default_rng(909)
    seq = rng.uniform(size=(6, 28))
    corr = tg.graph_correlation_matrix(seq)
    assert np.abs(corr - corr.T).max() <= 1e-12
    assert np.abs(np.diag(corr) - 1.0).max() <= 1e-12
    assert corr.min() >= -1.0 - 1e-12 and corr.max() <= 1.0 + 1e-12

    # alternating-stimulus sequence: same-block pairs beat cross-block pairs
    m = 40
    base_a = (rng.uniform(size=m) > 0.75).astype(float)
    base_b = (rng.uniform(size=m) > 0.75).astype(float)
    graphs, labels = [], []
    for block, base in enumerate((base_a, base_b, base_a, base_b)):
        for _ in range(3):
            graphs.append(np.clip(base + rng.normal(scale=0.08, size=m), 0, 1))
            labels.append(block)
    block_corr = tg.graph_correlation_matrix(np.stack(graphs))
    within, between = [], []
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            (within if labels[a] == labels[b] else between).append(block_corr[a, b])
    assert np.mean(within) > np.mean(between)

    # consensus with 20 trials, binarize at 0.5, keep count > 5
    trials = np.zeros((20, 3))
    trials[:, 0] = 1.0          # edge 1: present in all 20 trials
    trials[:6, 1] = 0.9         # edge 2: present in 6 trials
    trials[:5, 2] = 0.51        # edge 3: present in exactly 5 trials
    result = tg.consensus(trials, prob_threshold=0.5, count_threshold=5)
    np.testing.assert_array_equal(result.counts, [20, 6, 5])
    np.testing.assert_array_equal(result.kept, [1, 1, 0])
    _passed(9, f"correlation-matrix invariants, block structure "
               f"(within {np.mean(within):.2f} > between {np.mean(between):.2f}), "
               f"consensus counts {result.counts.tolist()} -> {result.kept.tolist()}")


def test_10_cli_contract(tmp_path):
    # deterministic synth output
    args = ["--mode", "synth", "--seed", "11", "--n-nodes", "8", "--k-true", "6",
            "--window-len", "25"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    names = ("signals.csv", "clean.csv", "truth_graph_1.csv",
             "truth_graph_2.csv", "truth.json")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    # round-trip fidelity
    truth = tg.generate(tg.ScenarioSpec(n_nodes=8, k_true=6, window_len=25, seed=11))
    back = ingest_csv(tmp_path / "a" / "signals.csv")
    assert back.shape == truth.signals.shape
    np.testing.assert_allclose(back, truth.signals, rtol=1e-9)

    # exit code 1: usage error (missing --input)
    assert run(["--mode", "dynamic", "--out", str(tmp_path / "x"),
                "--k", "2", "--window-len", "5"]) == 1
    # exit code 2: data error (non-finite cell)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,inf\n")
    assert run(["--mode", "static", "--input", str(bad),
                "--out", str(tmp_path / "x"), "--k", "1"]) == 2
    # exit code 3: numerical failure (singular X-update system)
    ones = tmp_path / "ones.csv"
    ones.write_text("1,1,1,1\n1,1,1,1\n")
    assert run(["--mode", "static", "--input", str(ones),
                "--out", str(tmp_path / "x"), "--k", "1",
                "--gamma", "0", "--eta", "1"]) == 3

    # fit emits the full file set and a well-formed report
    sig = tmp_path / "sig.csv"
    rng = np.random.default_rng(4)
    sig.write_text(
        "\n".join(",".join(f"{v:.12g}" for v in row)
                  for row in rng.normal(size=(4, 20))) + "\n"
    )
    out = tmp_path / "fit"
    assert run(["--mode", "dynamic", "--input", str(sig), "--out", str(out),
                "--k", "2", "--window-len", "10", "--gamma", "0.05",
                "--max-iter", "50"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"mode", "seed", "config", "converged", "iterations",
                           "final_objective", "final_residual",
                           "per_window_change", "n_windows", "n_nodes"}
    _passed(10, "CLI determinism, round-trip, exit codes 1/2/3, report schema")
