"""Post-processing of fitted graph sequences across trials.

Covers consistent-node selection from repeated trials, cross-trial consensus
graphs, and the window-by-window correlation matrix of a graph sequence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import check_integer

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
    kept: np.ndarray  # 0/1, kept iff count > the call's count_threshold


def _row_correlations(x, flat_warning: str) -> np.ndarray:
    """Pearson r between every two rows of ``x``, shape (..., rows, samples),
    as (..., rows, rows) matrices.

    r = sum(a*b) / sqrt(sum(a*a) * sum(b*b)) over the centred rows, so
    identical rows give exactly 1.0.  Where that product is 0 (a flat row)
    r is 0, with ``flat_warning``.  Non-finite input raises ValueError.
    """
    if not np.isfinite(x).all():
        raise ValueError("non-finite value in the input")
    centred = x - x.mean(axis=-1, keepdims=True)
    cross = centred @ np.swapaxes(centred, -1, -2)
    sq = np.diagonal(cross, axis1=-2, axis2=-1)
    denom = np.sqrt(sq[..., :, np.newaxis] * sq[..., np.newaxis, :])
    flat = denom == 0.0
    if flat.any():
        warnings.warn(flat_warning, stacklevel=3)
    return np.divide(cross, denom, out=np.zeros_like(cross), where=~flat)


def select_consistent_nodes(trials, top_k: int) -> list[int]:
    """Rank nodes by mean signal correlation across all trial pairs.

    Parameters
    ----------
    trials : sequence of (n_nodes, n_samples) arrays, identical shapes
    top_k : int
        How many node indices to return, best first.  Ties break toward
        the lower node index.

    A node with zero variance in some trial contributes correlation 0 for
    the pairs involving that trial (with a warning).  A non-finite sample,
    or trials with no samples, raise ValueError.
    """
    mats = [np.asarray(t, dtype=np.float64) for t in trials]
    if len(mats) < 2:
        raise ValueError("need at least 2 trials")
    shape = mats[0].shape
    if len(shape) != 2:
        raise ValueError(f"each trial must be a 2-D array, got {len(shape)}-D")
    if any(t.shape != shape for t in mats):
        raise ValueError("all trials must share the same shape")
    if shape[1] == 0:
        raise ValueError("each trial needs at least one sample")
    n = shape[0]
    check_integer("top_k", top_k)
    if not 0 < top_k <= n:
        raise ValueError(f"top_k={top_k} outside (0, {n}]")

    # (n, T, T): per node, r between its signals in every two trials
    r = _row_correlations(
        np.stack(mats, axis=1),
        "zero-variance node signal; its pair correlations count as 0",
    )
    a, b = np.triu_indices(len(mats), k=1)
    means = r[:, a, b].mean(axis=1)
    order = np.argsort(-means, kind="stable")
    return [int(i) for i in order[:top_k]]


def consensus(graph_per_trial, prob_threshold: float, count_threshold: int) -> ConsensusGraph:
    """Binarize each trial's graph and keep edges seen often enough.

    An edge survives a trial when its weight is at least ``prob_threshold``
    (weights read as connection probabilities); it enters the consensus
    graph when its trial count strictly exceeds ``count_threshold``.  No
    trial graph, graphs with no edges, or a non-finite weight raise
    ValueError.
    """
    if not np.isfinite(prob_threshold):
        raise ValueError(f"prob_threshold must be finite, got {prob_threshold}")
    check_integer("count_threshold", count_threshold)
    graphs = np.atleast_2d(np.asarray(graph_per_trial, dtype=np.float64))
    if not np.isfinite(graphs).all():
        raise ValueError("non-finite value in the input")
    if graphs.shape[0] < 1:
        raise ValueError("need at least one trial graph")
    if graphs.shape[1] < 1:
        raise ValueError("trial graphs need at least one edge")
    counts = (graphs >= prob_threshold).sum(axis=0).astype(np.int64)
    kept = (counts > count_threshold).astype(np.int64)
    return ConsensusGraph(counts=counts, kept=kept)


def graph_correlation_matrix(w_seq) -> np.ndarray:
    """Pearson correlation between the edge vectors of every window pair.

    Returns a symmetric (n_windows, n_windows) matrix with unit diagonal and
    entries in [-1, 1].  A window whose edge vector has zero variance gets 0
    in its off-diagonal entries, with a warning.  A non-finite weight, or a
    sequence with no edges, raises ValueError.
    """
    w_seq = np.asarray(w_seq, dtype=np.float64)
    if w_seq.ndim != 2 or w_seq.shape[0] < 2 or w_seq.shape[1] < 1:
        raise ValueError("need a (n_windows >= 2, n_edges >= 1) graph sequence")

    corr = np.clip(_row_correlations(
        w_seq, "graph with zero edge-weight variance; its correlations are set to 0"
    ), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr
