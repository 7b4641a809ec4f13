"""Spans around the solver's layers, recorded from outside the library.

While installed, a :class:`Tracer` replaces each layer function at the module
attribute the solver looks up when it calls it, so no library code changes.
Each call records a span ``[name, parent, start, end]``; ``parent`` is the
index of the enclosing span, or -1.  A span's self time is its duration minus
the durations of its direct children, which is the part of the interval they
cover because calls in one thread nest without overlapping.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from tvglearn import _kernels, solver

ROOT = "fit"

# (metric prefix, module whose attribute the solver resolves at call time, name)
LAYERS = (
    ("solver.step", solver, "step"),
    ("solver.update_x", solver, "update_x"),
    ("solver.grad_w", solver, "grad_w"),
    ("kernels.pairwise_sq_dists", _kernels, "pairwise_sq_dists"),
    ("projection.project_capped_simplex", solver, "project_capped_simplex"),
    ("proximal.prox_l1_linear", solver, "prox_l1_linear"),
    ("graphs.objective", solver, "objective"),
)


class Tracer:
    """Span and counter recorder for one traced fit."""

    def __init__(self):
        self.spans = []
        self.bisect_iters = 0
        self.pair_samples = 0
        self._stack = [-1]

    def _wrap(self, name, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_projection(self, args, result):
        self.bisect_iters += result.iterations

    def _count_pairs(self, args, result):
        n, s = args[0].shape
        self.pair_samples += n * (n - 1) // 2 * s

    @contextmanager
    def installed(self):
        """Patch every layer in :data:`LAYERS`; restore the originals on exit."""
        counters = {
            "projection.project_capped_simplex": self._count_projection,
            "kernels.pairwise_sq_dists": self._count_pairs,
        }
        saved = []
        try:
            for name, module, attr in LAYERS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counters.get(name)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` inside a root span named :data:`ROOT`."""
        return self._wrap(ROOT, fn, None)(*args, **kwargs)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls, self time and duration percentiles, plus counters.

    ``solver.loop.self_s`` is the root span's self time: everything in the
    fit that no traced layer covers.  It and the layers' ``self_s`` add up
    to the root span's duration.
    """
    own = self_times(tracer.spans)
    durations = {name: [] for name, _, _ in LAYERS}
    self_s = dict.fromkeys(durations, 0.0)
    loop_s = 0.0
    for (name, _, start, end), s in zip(tracer.spans, own):
        if name == ROOT:
            loop_s += s
        else:
            durations[name].append(end - start)
            self_s[name] += s

    out = {}
    for name, d in durations.items():
        us = np.asarray(d) * 1e6
        out[f"{name}.calls"] = len(d)
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.p50_us"] = float(np.percentile(us, 50)) if len(d) else 0.0
        out[f"{name}.p99_us"] = float(np.percentile(us, 99)) if len(d) else 0.0
    out["solver.loop.self_s"] = loop_s
    out["projection.project_capped_simplex.bisect_iters"] = tracer.bisect_iters
    out["kernels.pairwise_sq_dists.pair_samples"] = tracer.pair_samples
    pair_s = sum(durations["kernels.pairwise_sq_dists"])
    out["kernels.pairwise_sq_dists.ns_per_pair_sample"] = (
        pair_s / tracer.pair_samples * 1e9 if tracer.pair_samples else 0.0
    )
    return out
