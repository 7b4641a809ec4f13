#!/usr/bin/env python3
"""Time the active kernel path at the shapes the benchmark workloads use.

Run from the repository root:

    python3 perfbench/kernels.py [--repeat 50]

Times ``_kernels.pairwise_sq_dists`` at n=20/100 nodes with s=200/1600
samples and ``_kernels.capped_simplex_project`` at m=190/4950 edges, one
median-of-``repeat`` figure per case.  When numba imports, the numba and
numpy twins are timed side by side as well.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from tvglearn import _kernels  # noqa: E402

PAIRWISE_SHAPES = ((20, 200), (100, 200), (20, 1600))  # ref, wide, long-static
PROJECTION_SIZES = (190, 4950)  # n=20 and n=100


def median_us(fn, *args, repeat):
    fn(*args)  # warm-up (and JIT compile on the numba path)
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def paths(active, numba_name, numpy_name):
    out = {"active": active}
    if _kernels._HAVE_NUMBA:
        out.update(numba=getattr(_kernels, numba_name), numpy=getattr(_kernels, numpy_name))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50)
    args = parser.parse_args()
    print(f"active path: {'numba' if _kernels.USING_NUMBA else 'numpy'}; median of {args.repeat} calls")

    rng = np.random.default_rng(0)
    pairwise = paths(
        _kernels.pairwise_sq_dists, "pairwise_sq_dists_numba", "pairwise_sq_dists_numpy"
    )
    for n, s in PAIRWISE_SHAPES:
        x = rng.normal(size=(n, s))
        cells = "  ".join(
            f"{name} {median_us(fn, x, repeat=args.repeat):10.1f} us" for name, fn in pairwise.items()
        )
        print(f"pairwise_sq_dists      n={n:<4} s={s:<5} {cells}")

    projection = paths(
        _kernels.capped_simplex_project,
        "capped_simplex_project_numba",
        "capped_simplex_project_numpy",
    )
    for m in PROJECTION_SIZES:
        w = rng.normal(0.0, 2.0, size=m)
        k = float(m // 10)
        cells = "  ".join(
            f"{name} {median_us(fn, w, k, 1e-10, repeat=args.repeat):10.1f} us"
            for name, fn in projection.items()
        )
        print(f"capped_simplex_project m={m:<12} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
