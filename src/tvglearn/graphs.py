"""Edge-vector graph representation and the objective's building blocks.

Graphs are stored as upper-triangular edge vectors: a graph on ``n`` nodes is
a length ``m = n*(n-1)/2`` vector ``w`` whose entries follow row-major
upper-triangular order (0,1), (0,2), ..., (0,n-1), (1,2), ...  Dense weight,
degree and Laplacian matrices are assembled on demand.

Signals are plain 2-D float arrays with one row per node; a windowed record
is a 3-D array of shape (n_windows, n_nodes, window_len).
"""

from __future__ import annotations

import numpy as np

from . import _kernels

__all__ = [
    "edge_pairs",
    "n_edges",
    "n_nodes_for_edges",
    "as_signal_matrix",
    "window_signals",
    "weight_matrix",
    "degrees",
    "degree_matrix",
    "laplacian",
    "smoothness_term",
    "smoothness_term_dense",
    "energy_penalty_term",
    "energy_penalty_term_pairwise",
    "temporal_variation",
    "objective",
]


def n_edges(n_nodes: int) -> int:
    """Number of undirected edges on ``n_nodes`` nodes."""
    return n_nodes * (n_nodes - 1) // 2


def n_nodes_for_edges(m: int) -> int:
    """Inverse of :func:`n_edges`; raises if ``m`` is not a valid edge count."""
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * m)) / 2.0))
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
    if not np.isfinite(y).all():
        raise ValueError("signal matrix contains non-finite entries")
    return y


def window_signals(y, window_len: int) -> np.ndarray:
    """Split a (n, t) record into (b, n, window_len) blocks.

    Trailing samples that do not fill a window are dropped.
    """
    y = as_signal_matrix(y)
    if window_len < 1:
        raise ValueError("window_len must be positive")
    n, t = y.shape
    b = t // window_len
    if b < 1:
        raise ValueError(
            f"record of {t} samples is shorter than one window ({window_len})"
        )
    trimmed = y[:, : b * window_len]
    return np.ascontiguousarray(
        trimmed.reshape(n, b, window_len).transpose(1, 0, 2)
    )


def _as_edge_vector(weights) -> tuple[np.ndarray, int]:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("edge vector must be 1-D")
    return w, n_nodes_for_edges(w.shape[0])


def weight_matrix(weights) -> np.ndarray:
    """Dense symmetric zero-diagonal weight matrix behind an edge vector."""
    w, n = _as_edge_vector(weights)
    mat = np.zeros(n * n)
    mat[_kernels.triu_flat(n)] = w
    mat = mat.reshape(n, n)
    return mat + mat.T


def degrees(weights) -> np.ndarray:
    """Per-node degree vector d_i = sum_j w_ij."""
    w, n = _as_edge_vector(weights)
    i_idx, j_idx = edge_pairs(n)
    return np.bincount(i_idx, weights=w, minlength=n) + np.bincount(
        j_idx, weights=w, minlength=n
    )


def degree_matrix(weights) -> np.ndarray:
    """Diagonal degree matrix D(W)."""
    return np.diag(degrees(weights))


def laplacian(weights) -> np.ndarray:
    """Combinatorial Laplacian L = D - W of an edge vector."""
    mat = weight_matrix(weights)
    lap = -mat
    np.fill_diagonal(lap, mat.sum(axis=1))
    return lap


def _check_block(weights, x) -> tuple[np.ndarray, np.ndarray, int]:
    w, n = _as_edge_vector(weights)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(
            f"signal block with {x.shape[0] if x.ndim == 2 else '?'} rows does "
            f"not match a graph on {n} nodes"
        )
    return w, x, n


def smoothness_term(weights, x) -> float:
    """Laplacian quadratic form sum_{i<j} w_ij ||x_i - x_j||^2.

    Evaluated by the edge-sum route; equals tr(x^T L(W) x) and is the hot
    path used inside the solver.
    """
    w, x, _ = _check_block(weights, x)
    return float(w @ _kernels.pairwise_sq_dists(x))


def smoothness_term_dense(weights, x) -> float:
    """tr(x^T L(W) x) assembled through the dense Laplacian."""
    w, x, _ = _check_block(weights, x)
    return float(np.trace(x.T @ laplacian(w) @ x))


def energy_penalty_term(weights, x) -> float:
    """Degree-weighted signal energy sum_i d_i ||x_i||^2 = tr(x^T D(W) x).

    Returned unscaled; the objective multiplies it by ``-eta``.
    """
    w, x, _ = _check_block(weights, x)
    row_energy = np.einsum("ns,ns->n", x, x)
    return float(degrees(w) @ row_energy)


def energy_penalty_term_pairwise(weights, x) -> float:
    """Same quantity as an explicit pairwise sum over edges."""
    w, x, n = _check_block(weights, x)
    i_idx, j_idx = edge_pairs(n)
    row_energy = np.einsum("ns,ns->n", x, x)
    return float(w @ (row_energy[i_idx] + row_energy[j_idx]))


def temporal_variation(w_seq) -> np.ndarray:
    """l1 distances ||W_t - W_{t+1}||_1 between consecutive edge vectors."""
    w_seq = np.asarray(w_seq, dtype=np.float64)
    if w_seq.ndim != 2:
        raise ValueError("graph sequence must be a (n_windows, n_edges) array")
    return np.abs(np.diff(w_seq, axis=0)).sum(axis=1)


def objective(y_windows, x_windows, w_seq, *, gamma, eta, alpha) -> float:
    """Full model objective over a windowed record.

    sum_t [ ||Y_t - X_t||_F^2 + gamma * smoothness - eta * energy ]
    plus alpha * sum_t ||W_t - W_{t+1}||_1.
    """
    y_windows = np.asarray(y_windows, dtype=np.float64)
    x_windows = np.asarray(x_windows, dtype=np.float64)
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=np.float64))
    if y_windows.shape != x_windows.shape:
        raise ValueError("Y and X window stacks must share a shape")
    if y_windows.ndim != 3 or y_windows.shape[0] != w_seq.shape[0]:
        raise ValueError("window count mismatch between signals and graphs")
    if w_seq.ndim != 2:
        raise ValueError("graph sequence must be a (n_windows, n_edges) array")
    n = n_nodes_for_edges(w_seq.shape[1])
    if y_windows.shape[1] != n:
        raise ValueError(
            f"signal blocks with {y_windows.shape[1]} rows do not match "
            f"graphs on {n} nodes"
        )

    total = 0.0
    for t in range(w_seq.shape[0]):
        x, w = x_windows[t], w_seq[t]
        resid = y_windows[t] - x
        total += float(np.einsum("ns,ns->", resid, resid))
        total += gamma * float(w @ _kernels.pairwise_sq_dists(x))
        # kept at eta = 0: 0 * inf is NaN, which flags overflowing signals
        row_energy = np.einsum("ns,ns->n", x, x)
        total -= eta * float(degrees(w) @ row_energy)
    if w_seq.shape[0] > 1:
        total += alpha * float(temporal_variation(w_seq).sum())
    return total
