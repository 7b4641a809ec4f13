#!/usr/bin/env python3
"""Whole-fit and per-layer benchmark of tvglearn's public fit calls.

Run from the repository root:

    python3 perfbench/run.py --workload ref-dynamic --seed 25 --seconds 10 --trace 0

One process fits the workload's seeded input back to back (a closed loop with
one client) until ``--seconds`` have passed, always completing at least one
fit, and checks every output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced fit and
reports the per-layer metrics.  Progress lines go to stdout as JSON; the last
line is the result ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every fit passed its check.

BLAS threads are capped at the number of usable cores.  Only the standard
library is imported at module level so that set-up time includes the import
of numpy, scipy and tvglearn.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"

SETUP_REPEATS = 3  # set-up runs per benchmark run: this process plus subprocesses
WARMUP_ITERS = 1

END_TO_END_UNITS = {"fit_calib": "calib", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units(layers) -> dict:
    units = {}
    for name, _, _ in layers:
        units.update({
            f"{name}.calls": "count",
            f"{name}.self_s": "s",
            f"{name}.p50_us": "us",
            f"{name}.p99_us": "us",
        })
    units.update({
        "solver.loop.self_s": "s",
        "projection.project_capped_simplex.bisect_iters": "count",
        "kernels.pairwise_sq_dists.pair_samples": "count",
        "kernels.pairwise_sq_dists.ns_per_pair_sample": "ns",
        "solver.iterations": "count",
        "solver.final_residual": "1",
        "solver.converged_frac": "frac",
        "quality.edge_f1": "frac",
        "synthetic.generate.s": "s",
        "trace.fit_s": "s",
        "trace.overhead_frac": "frac",
    })
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=25)  # test_07's scenario
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print {\"setup_s\": ...} and exit",
    )
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Keep BLAS threads at or below the usable cores; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cores):
            os.environ[var] = str(cores)
    return cores


def timed_setup(name, seed):
    """Import, generate the inputs and warm up; returns (inputs, set-up s, generate s)."""
    start = time.perf_counter()
    import workloads  # numpy, scipy and tvglearn load here

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    t_generate = time.perf_counter()
    inputs = workloads.make_inputs(workloads.WORKLOADS[name], seed)
    generate_s = time.perf_counter() - t_generate
    workloads.fit(inputs, max_iter=WARMUP_ITERS)
    return inputs, time.perf_counter() - start, generate_s


def setup_in_subprocess(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, cores) -> dict:
    import numpy
    import scipy
    from tvglearn import _kernels
    from workloads import HELD_OUT_SEED

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": cores,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": git_commit(),
    }


def fit_once(inputs, tracer=None):
    """One checked public fit; returns (elapsed s, W, report or None, problems).

    With a ``tracer``, the fit (not its check) runs inside the root span.
    """
    import tvglearn as tg
    import workloads

    start = time.perf_counter()
    try:
        if tracer is None:
            w, x, report = workloads.fit(inputs)
        else:
            w, x, report = tracer.call(workloads.fit, inputs)
    except tg.TvgLearnError as exc:
        return time.perf_counter() - start, None, None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    return elapsed, w, report, workloads.check_fit(inputs, w, x)


def log_fit(label, elapsed, inputs, w, report, problems, **extra):
    import workloads

    record = {"fit": label, "fit_s": elapsed, **extra, "problems": problems}
    if report is not None:
        record.update(
            iterations=report.iterations,
            converged=report.converged,
            final_residual=report.final_residual,
            segment_f1=workloads.segment_f1(inputs, w),
        )
    print(json.dumps(record), flush=True)


def timed_run(inputs, seconds):
    """Closed loop of untraced fits; returns (attempted, failed, metrics).

    The reference work of calibrate.py runs before the first fit and after
    every fit; ``fit_calib`` is the median of each fit's time over the mean
    of the two reference times around it.
    """
    import calibrate

    ratios = []
    reference = [calibrate.reference_s()]
    failed = 0
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        elapsed, w, report, problems = fit_once(inputs)
        reference.append(calibrate.reference_s())
        ratios.append(elapsed / statistics.mean(reference[-2:]))
        log_fit(len(ratios) - 1, elapsed, inputs, w, report, problems, reference_s=reference[-2:])
        failed += bool(problems)
    return len(ratios), failed, {"fit_calib": statistics.median(ratios)}


def traced_run(inputs, generate_s):
    """One untraced and one traced fit; returns (attempted, failed, metrics)."""
    import numpy as np
    import tracing
    import workloads

    plain_s, w_plain, r_plain, plain_problems = fit_once(inputs)
    log_fit("untraced", plain_s, inputs, w_plain, r_plain, plain_problems)

    tracer = tracing.Tracer()
    with tracer.installed():
        traced_s, w, report, problems = fit_once(inputs, tracer)
    if report is not None and r_plain is not None and not (
        np.array_equal(w, w_plain) and report.iterations == r_plain.iterations
    ):
        problems.append("traced W or iteration count differs from the untraced fit")
    log_fit("traced", traced_s, inputs, w, report, problems)
    failed = bool(plain_problems) + bool(problems)
    if report is None:
        return 2, failed, {}

    root = tracer.spans[0]
    fit_s = root[3] - root[2]
    metrics = tracing.layer_metrics(tracer)
    metrics.update({
        "solver.iterations": report.iterations,
        "solver.final_residual": report.final_residual,
        "solver.converged_frac": float(report.converged),
        "quality.edge_f1": float(np.mean(workloads.segment_f1(inputs, w))),
        "synthetic.generate.s": generate_s,
        "trace.fit_s": fit_s,
        "trace.overhead_frac": fit_s / plain_s - 1.0,
    })
    return 2, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tvglearn" / "__init__.py").is_file():
        print("error: tvglearn sources not found under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cores = cap_blas_threads()

    inputs, setup_s, generate_s = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(json.dumps({"environment": environment(args.seed, cores)}), flush=True)
    if args.trace:
        import tracing

        attempted, failed, metrics = traced_run(inputs, generate_s)
        units = per_layer_units(tracing.LAYERS)
    else:
        setup_samples = [setup_s] + [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
        attempted, failed, metrics = timed_run(inputs, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
