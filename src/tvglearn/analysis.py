"""Post-processing of fitted graph sequences across trials.

Covers consistent-node selection from repeated trials, cross-trial consensus
graphs, and the window-by-window correlation matrix of a graph sequence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "ConsensusGraph",
    "select_consistent_nodes",
    "consensus",
    "graph_correlation_matrix",
]


@dataclass(frozen=True)
class ConsensusGraph:
    """Edge retention counts across trials and the thresholded result."""

    counts: np.ndarray  # per-edge number of trials retaining the edge
    kept: np.ndarray  # 0/1, kept iff count strictly exceeds count_threshold
    prob_threshold: float
    count_threshold: int


def _pearson(u, v) -> float:
    du = u - u.mean()
    dv = v - v.mean()
    # sqrt of the product keeps r == 1.0 exact for identical inputs
    denom = float(np.sqrt((du @ du) * (dv @ dv)))
    if denom == 0.0:
        return np.nan
    return float(du @ dv) / denom


def select_consistent_nodes(trials, top_k: int) -> list[int]:
    """Rank nodes by mean signal correlation across all trial pairs.

    Parameters
    ----------
    trials : sequence of (n_nodes, n_samples) arrays, identical shapes
    top_k : int
        How many node indices to return, best first.  Ties break toward
        the lower node index.

    A node with zero variance in some trial contributes correlation 0 for
    the pairs involving that trial (with a warning).
    """
    mats = [np.asarray(t, dtype=np.float64) for t in trials]
    if len(mats) < 2:
        raise ValueError("need at least 2 trials")
    shape = mats[0].shape
    if any(t.shape != shape for t in mats):
        raise ValueError("all trials must share the same shape")
    n = shape[0]
    if not 0 < top_k <= n:
        raise ValueError(f"top_k={top_k} outside (0, {n}]")

    saw_degenerate = False
    means = np.empty(n)
    pairs = list(combinations(range(len(mats)), 2))
    for node in range(n):
        acc = 0.0
        for a, b in pairs:
            r = _pearson(mats[a][node], mats[b][node])
            if np.isnan(r):
                saw_degenerate = True
                r = 0.0
            acc += r
        means[node] = acc / len(pairs)
    if saw_degenerate:
        warnings.warn(
            "zero-variance node signal; its pair correlations count as 0",
            stacklevel=2,
        )
    order = np.argsort(-means, kind="stable")
    return [int(i) for i in order[:top_k]]


def consensus(graph_per_trial, prob_threshold: float, count_threshold: int) -> ConsensusGraph:
    """Binarize each trial's graph and keep edges seen often enough.

    An edge survives a trial when its weight is at least ``prob_threshold``
    (weights read as connection probabilities); it enters the consensus
    graph when its trial count strictly exceeds ``count_threshold``.
    """
    if not np.isfinite(prob_threshold):
        raise ValueError(f"prob_threshold must be finite, got {prob_threshold}")
    graphs = np.atleast_2d(np.asarray(graph_per_trial, dtype=np.float64))
    if graphs.shape[0] < 1:
        raise ValueError("need at least one trial graph")
    counts = (graphs >= prob_threshold).sum(axis=0).astype(np.int64)
    kept = (counts > count_threshold).astype(np.int64)
    return ConsensusGraph(
        counts=counts,
        kept=kept,
        prob_threshold=prob_threshold,
        count_threshold=count_threshold,
    )


def graph_correlation_matrix(w_seq) -> np.ndarray:
    """Pearson correlation between the edge vectors of every window pair.

    Returns a symmetric (n_windows, n_windows) matrix with unit diagonal and
    entries in [-1, 1].  A window whose edge vector has zero variance gets 0
    in its off-diagonal entries, with a warning.
    """
    w_seq = np.asarray(w_seq, dtype=np.float64)
    if w_seq.ndim != 2 or w_seq.shape[0] < 2:
        raise ValueError("need a (n_windows >= 2, n_edges) graph sequence")

    centered = w_seq - w_seq.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("te,te->t", centered, centered))
    degenerate = norms == 0.0
    if degenerate.any():
        warnings.warn(
            "graph with zero edge-weight variance; its correlations are set to 0",
            stacklevel=2,
        )
    safe = np.where(degenerate, 1.0, norms)
    corr = (centered @ centered.T) / np.outer(safe, safe)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr
