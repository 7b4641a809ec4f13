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
from .errors import as_float_array, check_finite, check_integer

__all__ = [
    "edge_pairs",
    "n_edges",
    "n_nodes_for_edges",
    "as_signal_matrix",
    "window_signals",
    "weight_matrix",
    "smoothness_term",
    "energy_penalty_term",
    "change_profile",
    "objective",
]


def n_edges(n_nodes: int) -> int:
    """Number of undirected edges on ``n_nodes`` nodes."""
    n_nodes = check_integer("n_nodes", n_nodes, 0)
    return n_nodes * (n_nodes - 1) // 2


def n_nodes_for_edges(m: int, name: str = "m") -> int:
    """Inverse of :func:`n_edges`; ValueError naming ``name`` unless ``m`` is
    a valid edge count."""
    m = check_integer(name, m)  # a numpy integer's arithmetic wraps
    n = (1 + math.isqrt(1 + 8 * m)) // 2 if m > 0 else 0
    if n < 2 or n * (n - 1) // 2 != m:
        raise ValueError(f"{name} must be n*(n-1)/2 for an integer n >= 2, got {m}")
    return n


def edge_pairs(n_nodes: int):
    """Arrays (i_idx, j_idx) of the node pair behind each edge index."""
    check_integer("n_nodes", n_nodes, 2)
    return _kernels.triu_pairs(n_nodes)


def as_signal_matrix(y) -> np.ndarray:
    """Validate and return a (n_nodes, n_samples) float64 signal matrix."""
    y = as_float_array("y", y, (None, None), finite=True)
    check_integer("node rows of y", y.shape[0], 2)
    check_integer("samples of y", y.shape[1], 1)
    return y


def window_signals(y, window_len: int) -> np.ndarray:
    """Split a (n, t) record into (b, n, window_len) blocks.

    Trailing samples that do not fill a window are dropped.  The blocks are
    a view of the validated record, not a copy: for a float64 record,
    writing into them writes into the record.
    """
    y = as_signal_matrix(y)
    check_integer("window_len", window_len, 1)
    n, t = y.shape
    b = t // window_len
    if b < 1:
        raise ValueError(
            f"record of {t} samples is shorter than one window ({window_len})"
        )
    return y[:, : b * window_len].reshape(n, b, window_len).transpose(1, 0, 2)


def weight_matrix(weights) -> np.ndarray:
    """Dense symmetric zero-diagonal weight matrix behind an edge vector."""
    w = as_float_array("weights", weights, (None,))
    n = n_nodes_for_edges(w.shape[0], "edges of weights")
    mat = np.zeros(n * n)
    mat[_kernels.triu_flat(n)] = w
    mat = mat.reshape(n, n)
    mat += mat.T
    return mat


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
    w = as_float_array("weights", weights, (None,))
    x = as_float_array("x", x, (n_nodes_for_edges(w.shape[0], "edges of weights"), None))
    return _smoothness(w[np.newaxis], x[np.newaxis])


def energy_penalty_term(weights, x) -> float:
    """Degree-weighted signal energy sum_i d_i ||x_i||^2 = tr(x^T D(W) x),
    computed as the objective computes it for one window.

    Returned unscaled; the objective multiplies it by ``-eta``.
    """
    w = as_float_array("weights", weights, (None,))
    x = as_float_array("x", x, (n_nodes_for_edges(w.shape[0], "edges of weights"), None))
    return _energy(w[np.newaxis], x[np.newaxis])


def change_profile(w_seq) -> np.ndarray:
    """l1 distances ||W_t - W_{t+1}||_1 between consecutive edge vectors;
    empty for a one-window sequence."""
    w_seq = as_float_array("w_seq", w_seq, (None, None))
    change = np.subtract(w_seq[1:], w_seq[:-1])  # empty for one window
    return np.abs(change, out=change).sum(axis=1)


def objective(y_windows, x_windows, w_seq, *, gamma, eta, alpha) -> float:
    """Full model objective over a windowed record.

    sum_t [ ||Y_t - X_t||_F^2 + gamma * smoothness - eta * energy ]
    plus alpha * sum_t ||W_t - W_{t+1}||_1, for a (b, m) graph sequence
    ``w_seq`` and (b, n, s) stacks on its n nodes.  ``gamma``, ``eta`` and
    ``alpha`` must be non-negative and finite, as in ``SolverConfig``.
    """
    check_finite("gamma", gamma)
    check_finite("eta", eta)
    check_finite("alpha", alpha)
    w_seq = as_float_array("w_seq", w_seq, (None, None))
    b = check_integer("windows of w_seq", w_seq.shape[0], 1)
    n = n_nodes_for_edges(w_seq.shape[1], "edges of w_seq")
    x_windows = as_float_array("x_windows", x_windows, (b, n, None))
    y_windows = as_float_array("y_windows", y_windows, x_windows.shape)

    # each term's (b, m) stack is freed before the next is made, and before
    # the window-sized residual buffer, to keep the peak memory low
    smooth = _smoothness(w_seq, x_windows)
    energy = _energy(w_seq, x_windows) if eta != 0.0 else 0.0
    change = float(change_profile(w_seq).sum())
    resid = np.empty_like(y_windows[0])
    fit = 0.0
    for t in range(b):
        np.subtract(y_windows[t], x_windows[t], out=resid)
        fit += float(np.einsum("ns,ns->", resid, resid))
    return fit + gamma * smooth - eta * energy + alpha * change
