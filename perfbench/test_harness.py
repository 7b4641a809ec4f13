"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tvglearn import _kernels, solver  # noqa: E402


def _nested_spans():
    # fit [0, 10] holds step [1, 9] and objective [9.5, 9.8];
    # step holds update_x [2, 4] and pairwise [5, 6].
    return [
        ["fit", -1, 0.0, 10.0],
        ["solver.step", 0, 1.0, 9.0],
        ["solver.update_x", 1, 2.0, 4.0],
        ["kernels.pairwise_sq_dists", 1, 5.0, 6.0],
        ["graphs.objective", 0, 9.5, 9.8],
    ]


def test_self_times_subtract_direct_children():
    own = tracing.self_times(_nested_spans())
    np.testing.assert_allclose(own, [10.0 - 8.0 - 0.3, 8.0 - 2.0 - 1.0, 2.0, 1.0, 0.3])
    assert sum(own) == pytest.approx(10.0)


def test_layer_self_times_add_up_to_the_fit():
    tracer = tracing.Tracer()
    tracer.spans.extend(_nested_spans())
    metrics = tracing.layer_metrics(tracer)
    layers = sum(metrics[f"{name}.self_s"] for name, _, _ in tracing.LAYERS)
    assert layers + metrics["solver.loop.self_s"] == pytest.approx(10.0)
    assert metrics["solver.loop.self_s"] == pytest.approx(1.7)
    assert metrics["solver.step.calls"] == 1
    assert metrics["proximal.prox_l1_linear.calls"] == 0
    assert metrics["solver.update_x.p50_us"] == pytest.approx(2e6)


@pytest.fixture(scope="module")
def ref_inputs():
    return workloads.make_inputs(workloads.WORKLOADS["ref-dynamic"], 25)


def test_check_accepts_a_feasible_fit(ref_inputs):
    w, x, _ = workloads.fit(ref_inputs, max_iter=2)
    truth = ref_inputs.truth.segments
    # The ground truth itself recovers every segment perfectly.
    perfect = np.stack([truth[ref_inputs.truth.segment_of_window(t)] for t in range(len(w))])
    assert workloads.check_fit(ref_inputs, perfect, x) == []


def test_check_rejects_infeasible_w_and_nan_x(ref_inputs):
    w, x, _ = workloads.fit(ref_inputs, max_iter=2)
    bad_w = w.copy()
    bad_w[3, 0] += 0.5  # breaks the edge budget of window 3
    assert workloads.check_fit(ref_inputs, bad_w, x) == ["window 3 is not a feasible graph"]
    bad_x = x.copy()
    bad_x[0, 0, 0] = np.nan
    assert "X has non-finite entries" in workloads.check_fit(ref_inputs, w, bad_x)


def test_check_rejects_a_fit_that_learned_nothing(ref_inputs):
    _, x, _ = workloads.fit(ref_inputs, max_iter=2)
    m = x.shape[1] * (x.shape[1] - 1) // 2
    uniform = np.full((x.shape[0], m), ref_inputs.k / m)
    problems = workloads.check_fit(ref_inputs, uniform, x)
    assert len(problems) == 2 and all("edge F1" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(name):
    first = workloads.make_inputs(workloads.WORKLOADS[name], 7)
    second = workloads.make_inputs(workloads.WORKLOADS[name], 7)
    other = workloads.make_inputs(workloads.WORKLOADS[name], 8)
    assert first.cfg == second.cfg
    assert np.array_equal(first.truth.signals, second.truth.signals)
    assert np.array_equal(first.truth.segments, second.truth.segments)
    assert not np.array_equal(first.truth.signals, other.truth.signals)


def test_tracing_leaves_the_fit_unchanged_and_restores_the_solver(ref_inputs):
    originals = [getattr(module, attr) for _, module, attr in tracing.LAYERS]
    w_plain, x_plain, report_plain = workloads.fit(ref_inputs, max_iter=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        w, x, report = tracer.call(workloads.fit, ref_inputs, max_iter=3)
    assert [getattr(module, attr) for _, module, attr in tracing.LAYERS] == originals
    assert solver.step is originals[0] and _kernels.pairwise_sq_dists is originals[3]
    assert np.array_equal(w, w_plain) and np.array_equal(x, x_plain)
    assert report.iterations == report_plain.iterations == 3

    metrics = tracing.layer_metrics(tracer)
    b, n, s = x.shape
    assert metrics["solver.step.calls"] == 3
    assert metrics["solver.update_x.calls"] == 3 * b
    # once per window in grad_w, once per window in every objective
    # evaluation (the initial one plus one per iteration)
    assert metrics["kernels.pairwise_sq_dists.calls"] == 3 * b + 4 * b
    assert metrics["kernels.pairwise_sq_dists.pair_samples"] == 7 * b * (n * (n - 1) // 2) * s
    assert metrics["projection.project_capped_simplex.bisect_iters"] >= 3 * b
    root = tracer.spans[0]
    total = sum(metrics[f"{name}.self_s"] for name, _, _ in tracing.LAYERS)
    assert total + metrics["solver.loop.self_s"] == pytest.approx(root[3] - root[2])


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(
        tracing.LAYERS
    )


def test_a_failed_check_is_counted_and_exits_nonzero(monkeypatch, capsys):
    short = workloads.Workload("long-static", static=True, n_nodes=20, max_iter=2)
    monkeypatch.setitem(workloads.WORKLOADS, "long-static", short)
    monkeypatch.setattr(workloads, "check_fit", lambda inputs, w, x: ["forced failure"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    code = run.main(["--workload", "long-static", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["attempted"] == result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_reference_work_stays_below_the_mmap_threshold():
    # A larger temporary would go through mmap, and freeing it would raise
    # glibc's threshold and speed up the fits that follow.
    assert (calibrate._X[calibrate._I] - calibrate._X[calibrate._J]).nbytes < 128 * 1024
    assert calibrate.reference_s() > 0.0
