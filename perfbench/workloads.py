"""Benchmark workloads: seeded inputs, the public fit call and its output check.

Every workload draws the ROADMAP's synthetic scenario layout (2 segments of
4 windows of 200 samples, noise sigma 0.1, K = n - 1 true edges) from the
seed, and fits it with test_07's solver settings (gamma=0.01, alpha=0.1,
lam=1, everything else at the package default).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import tvglearn as tg

HELD_OUT_SEED = 7  # not used while tuning; reserved for checking later claims

WINDOW_LEN = 200
N_SEGMENTS = 2
WINDOWS_PER_SEGMENT = 4

# Top-K edge F1 of a guess that has learned nothing is about K/m (0.1 at
# n=20).  Every segment of a ref-dynamic fit must reach four times that.
# test_07's own floor of 0.8 holds at seed 25 but not across seeds: of
# seeds 0-9, seven have a segment below it after 5000 iterations, and the
# lowest segment over seeds 0-21 scores 0.53.
CHANCE_MULTIPLE = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    static: bool
    n_nodes: int
    max_iter: int
    check_recovery: bool = False


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref-dynamic",
            static=False,
            n_nodes=20,
            max_iter=5000,
            check_recovery=True,
        ),
        Workload(
            "wide-dynamic",
            static=False,
            n_nodes=100,
            max_iter=100,
        ),
        Workload(
            "long-static",
            static=True,
            n_nodes=20,
            max_iter=500,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    truth: tg.GroundTruth
    cfg: tg.SolverConfig

    @property
    def k(self) -> int:
        return self.workload.n_nodes - 1


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Scenario and solver config of ``workload``; a pure function of ``seed``."""
    k = workload.n_nodes - 1
    spec = tg.ScenarioSpec(
        n_nodes=workload.n_nodes,
        k_true=k,
        n_segments=N_SEGMENTS,
        windows_per_segment=WINDOWS_PER_SEGMENT,
        window_len=WINDOW_LEN,
        noise_sigma=0.1,
        seed=seed,
    )
    cfg = tg.SolverConfig(
        k_budget=float(k),
        window_len=WINDOW_LEN,
        gamma=0.01,
        alpha=0.1,
        lam=1.0,
        max_iter=workload.max_iter,
    )
    return Inputs(workload=workload, truth=tg.generate(spec), cfg=cfg)


def fit(inputs: Inputs, max_iter: int | None = None):
    """Run the workload's public fit; returns (W, X, report) with a window axis.

    A static fit comes back as one window: W of shape (1, m), X of (1, n, s).
    """
    cfg = inputs.cfg if max_iter is None else replace(inputs.cfg, max_iter=max_iter)
    if inputs.workload.static:
        w, x, report = tg.fit_static(inputs.truth.signals, cfg)
        return w[np.newaxis], x[np.newaxis], report
    return tg.fit_dynamic(inputs.truth.signals, cfg)


def segment_f1(inputs: Inputs, w_seq) -> list[float]:
    """Top-K edge F1 per ground-truth segment.

    A dynamic fit scores each window against its own segment and averages
    the windows of a segment; a static fit scores its one graph against
    every segment.
    """
    truth = inputs.truth
    if inputs.workload.static:
        return [tg.edge_f1(w_seq[0], seg, inputs.k) for seg in truth.segments]
    per_window = [
        tg.edge_f1(w, truth.segments[truth.segment_of_window(t)], inputs.k)
        for t, w in enumerate(w_seq)
    ]
    return [
        float(np.mean(per_window[s * WINDOWS_PER_SEGMENT : (s + 1) * WINDOWS_PER_SEGMENT]))
        for s in range(N_SEGMENTS)
    ]


def check_fit(inputs: Inputs, w_seq, x_seq) -> list[str]:
    """Problems with a fit's output; an empty list means it passes."""
    n = inputs.workload.n_nodes
    b = 1 if inputs.workload.static else N_SEGMENTS * WINDOWS_PER_SEGMENT
    s = inputs.truth.signals.shape[1] // b
    w_seq = np.asarray(w_seq)
    x_seq = np.asarray(x_seq)
    if w_seq.shape != (b, tg.n_edges(n)) or x_seq.shape != (b, n, s):
        return [f"unexpected shapes W {w_seq.shape}, X {x_seq.shape}"]
    problems = []
    if not np.isfinite(w_seq).all():
        problems.append("W has non-finite entries")
    if not np.isfinite(x_seq).all():
        problems.append("X has non-finite entries")
    problems += [
        f"window {t} is not a feasible graph"
        for t, w in enumerate(w_seq)
        if not tg.is_feasible(w, inputs.k)
    ]
    if inputs.workload.check_recovery and not problems:
        floor = CHANCE_MULTIPLE * inputs.k / tg.n_edges(n)
        problems += [
            f"segment {i} edge F1 {f1:.3f} below {floor:.3f}"
            for i, f1 in enumerate(segment_f1(inputs, w_seq))
            if f1 < floor
        ]
    return problems
