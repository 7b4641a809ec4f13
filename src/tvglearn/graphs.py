"""Edge-vector graph representation and the objective's building blocks.

Graphs are stored as upper-triangular edge vectors: a graph on ``n`` nodes is
a length ``m = n*(n-1)/2`` vector ``w`` whose entries follow row-major
upper-triangular order (0,1), (0,2), ..., (0,n-1), (1,2), ...  The dense
weight matrix is assembled on demand; the X-update builds its Laplacian
system from it.

Signals are plain 2-D float arrays with one row per node; a windowed record
is a 3-D array of shape (n_windows, n_nodes, window_len).
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import check_integer

__all__ = [
    "edge_pairs",
    "n_edges",
    "n_nodes_for_edges",
    "as_signal_matrix",
    "window_signals",
    "weight_matrix",
    "smoothness_term",
    "energy_penalty_term",
    "temporal_variation",
    "objective",
]


def n_edges(n_nodes: int) -> int:
    """Number of undirected edges on ``n_nodes`` nodes."""
    return n_nodes * (n_nodes - 1) // 2


def n_nodes_for_edges(m: int) -> int:
    """Inverse of :func:`n_edges`; raises if ``m`` is not a valid edge count."""
    n = (1 + math.isqrt(1 + 8 * m)) // 2
    if n < 2 or n_edges(n) != m:
        raise ValueError(f"{m} is not n*(n-1)/2 for any integer n >= 2")
    return n


def edge_pairs(n_nodes: int):
    """Arrays (i_idx, j_idx) of the node pair behind each edge index."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    return _kernels.triu_pairs(n_nodes)


def as_signal_matrix(values) -> np.ndarray:
    """Validate and return a (n_nodes, n_samples) float64 signal matrix."""
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"signal matrix must be 2-D, got {y.ndim}-D")
    if y.shape[0] < 2:
        raise ValueError(f"need at least 2 node rows, got {y.shape[0]}")
    if y.shape[1] < 1:
        raise ValueError("signal matrix has no samples")
    if not np.isfinite(y).all():
        raise ValueError("signal matrix contains non-finite entries")
    return y


def window_signals(y, window_len: int) -> np.ndarray:
    """Split a (n, t) record into (b, n, window_len) blocks.

    Trailing samples that do not fill a window are dropped.  The blocks are
    a view of the validated record, not a copy: for a float64 record,
    writing into them writes into the record.
    """
    y = as_signal_matrix(y)
    check_integer("window_len", window_len)
    if window_len < 1:
        raise ValueError("window_len must be positive")
    n, t = y.shape
    b = t // window_len
    if b < 1:
        raise ValueError(
            f"record of {t} samples is shorter than one window ({window_len})"
        )
    return y[:, : b * window_len].reshape(n, b, window_len).transpose(1, 0, 2)


def weight_matrix(weights) -> np.ndarray:
    """Dense symmetric zero-diagonal weight matrix behind an edge vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("edge vector must be 1-D")
    n = n_nodes_for_edges(w.shape[0])
    mat = np.zeros(n * n)
    mat[_kernels.triu_flat(n)] = w
    mat = mat.reshape(n, n)
    mat += mat.T
    return mat


def _check_stacks(w_seq, x_windows) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (b, m) graph sequence against a (b, n, s) signal stack."""
    w_seq = np.asarray(w_seq, dtype=np.float64)
    x_windows = np.asarray(x_windows, dtype=np.float64)
    if w_seq.ndim != 2:
        raise ValueError("graph sequence must be a (n_windows, n_edges) array")
    if x_windows.ndim != 3 or x_windows.shape[0] != w_seq.shape[0]:
        raise ValueError("window count mismatch between signals and graphs")
    n = n_nodes_for_edges(w_seq.shape[1])
    if x_windows.shape[1] != n:
        raise ValueError(
            f"signal blocks with {x_windows.shape[1]} rows do not match "
            f"graphs on {n} nodes"
        )
    return w_seq, x_windows


def _sq_dist_stack(x_windows) -> np.ndarray:
    """The (b, m) squared row distances of a (b, n, s) stack, window by window."""
    out = np.empty((x_windows.shape[0], n_edges(x_windows.shape[1])))
    for t, x in enumerate(x_windows):
        out[t] = _kernels.pairwise_sq_dists(x)
    return out


def _edge_energy_stack(x_windows) -> np.ndarray:
    """The (b, m) row energies ||x_i||^2 + ||x_j||^2 of each edge (i, j) of a
    (b, n, s) stack; sum_i d_i ||x_i||^2 is their sum weighted by W."""
    row_energy = np.einsum("bns,bns->bn", x_windows, x_windows)
    i_idx, j_idx = _kernels.triu_pairs(x_windows.shape[1])
    return row_energy[:, i_idx] + row_energy[:, j_idx]


# Each term is one einsum over its (b, m) stack, not a BLAS dot: a zero
# weight on an infinite distance or energy gives NaN without a
# floating-point warning.
def _smoothness(w_seq, x_windows) -> float:
    return float(np.einsum("bm,bm->", w_seq, _sq_dist_stack(x_windows)))


def _energy(w_seq, x_windows) -> float:
    return float(np.einsum("bm,bm->", w_seq, _edge_energy_stack(x_windows)))


def smoothness_term(weights, x) -> float:
    """Laplacian quadratic form sum_{i<j} w_ij ||x_i - x_j||^2 = tr(x^T L(W) x),
    computed as the objective computes it for one window."""
    return _smoothness(*_check_stacks([weights], [x]))


def energy_penalty_term(weights, x) -> float:
    """Degree-weighted signal energy sum_i d_i ||x_i||^2 = tr(x^T D(W) x),
    computed as the objective computes it for one window.

    Returned unscaled; the objective multiplies it by ``-eta``.
    """
    return _energy(*_check_stacks([weights], [x]))


def temporal_variation(w_seq) -> np.ndarray:
    """l1 distances ||W_t - W_{t+1}||_1 between consecutive edge vectors."""
    w_seq = np.asarray(w_seq, dtype=np.float64)
    if w_seq.ndim != 2:
        raise ValueError("graph sequence must be a (n_windows, n_edges) array")
    change = np.subtract(w_seq[1:], w_seq[:-1])  # empty for one window
    return np.abs(change, out=change).sum(axis=1)


def objective(y_windows, x_windows, w_seq, *, gamma, eta, alpha) -> float:
    """Full model objective over a windowed record.

    sum_t [ ||Y_t - X_t||_F^2 + gamma * smoothness - eta * energy ]
    plus alpha * sum_t ||W_t - W_{t+1}||_1.
    """
    w_seq, x_windows = _check_stacks(np.atleast_2d(w_seq), x_windows)
    y_windows = np.asarray(y_windows, dtype=np.float64)
    if y_windows.shape != x_windows.shape:
        raise ValueError("Y and X window stacks must share a shape")

    # each term's (b, m) stack is freed before the next is made, and before
    # the window-sized residual buffer, to keep the peak memory low
    smooth = _smoothness(w_seq, x_windows)
    energy = _energy(w_seq, x_windows) if eta != 0.0 else 0.0
    change = float(temporal_variation(w_seq).sum())
    resid = np.empty_like(y_windows[0])
    fit = 0.0
    for t in range(w_seq.shape[0]):
        np.subtract(y_windows[t], x_windows[t], out=resid)
        fit += float(np.einsum("ns,ns->", resid, resid))
    return fit + gamma * smooth - eta * energy + alpha * change
