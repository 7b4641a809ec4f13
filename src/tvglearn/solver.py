"""Alternating solver for the dynamic and static graph learning problems.

Each iteration runs, in order and for every window: a closed-form update of
the denoised signals X_t, a projected gradient step on the edge weights W_t,
a proximal update of the splitting variables Z_t that stand in for
W_t - W_{t+1}, and a dual step on the multipliers beta_t.  The static fit
runs the same loop on a single window, where the Z and beta steps drop out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from . import _kernels
from .errors import DivergenceError, InfeasibleBudgetError, SingularSystemError
from .graphs import (
    as_signal_matrix,
    edge_pairs,
    n_edges,
    objective,
    temporal_variation,
    weight_matrix,
    window_signals,
)
from .projection import project_capped_simplex
from .proximal import prox_l1_linear

__all__ = [
    "SolverConfig",
    "SolverState",
    "FitReport",
    "update_x",
    "grad_w",
    "step",
    "fit_dynamic",
    "fit_static",
]

Z_UPDATE_MODES = ("anchored", "paper-literal")
DUAL_SIGNS = ("ascent", "paper-literal")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the graph learning objective and its solver.

    Attributes
    ----------
    k_budget : float
        Required total edge weight K per window, 0 < K <= n_edges.
    gamma : float
        Weight of the Laplacian smoothness term.
    eta : float
        Weight of the signal-energy penalty steering edges toward
        high-energy nodes.  Keep eta * max_degree < 1 or the X update
        system loses positive definiteness.
    alpha : float
        Weight of the l1 coupling between consecutive windows.
    lam : float
        Proximal step for the Z update.
    tau1, tau2 : float
        Primal (W) and dual (beta) step sizes.
    max_iter : int
        Iteration cap.
    tol_obj : float
        Relative objective-change tolerance.
    tol_residual : float
        Tolerance on max_t ||Z_t - W_t + W_{t+1}||_inf.
    z_update_mode : str
        "anchored" re-anchors the prox at the current weight difference;
        "paper-literal" iterates the prox on Z itself.
    dual_sign : str
        "ascent" moves beta up the constraint residual; "paper-literal"
        moves it down.
    window_len : int or None
        Samples per window for dynamic fits; ignored by static fits.
    """

    k_budget: float
    gamma: float = 1.0
    eta: float = 0.0
    alpha: float = 0.1
    lam: float = 1.0
    tau1: float = 1e-2
    tau2: float = 1e-2
    max_iter: int = 5000
    tol_obj: float = 1e-6
    tol_residual: float = 1e-4
    z_update_mode: str = "anchored"
    dual_sign: str = "ascent"
    window_len: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.k_budget) and self.k_budget > 0):
            raise InfeasibleBudgetError(
                f"k_budget must be positive and finite, got {self.k_budget}"
            )
        for name in ("gamma", "eta", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        for name in ("lam", "tau1", "tau2", "tol_obj", "tol_residual"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.z_update_mode not in Z_UPDATE_MODES:
            raise ValueError(f"z_update_mode must be one of {Z_UPDATE_MODES}")
        if self.dual_sign not in DUAL_SIGNS:
            raise ValueError(f"dual_sign must be one of {DUAL_SIGNS}")

    def validate_for(self, n_nodes: int) -> None:
        """Checks that need the node count; warns on the soft eta bound."""
        m = n_edges(n_nodes)
        if self.k_budget > m:
            raise InfeasibleBudgetError(
                f"k_budget={self.k_budget} exceeds the {m} edges of a "
                f"{n_nodes}-node graph"
            )
        if self.eta > 0 and self.eta * (n_nodes - 1) >= 1.0:
            warnings.warn(
                f"eta={self.eta} violates the sufficient bound "
                f"eta*(n-1) < 1; the X update may lose positive definiteness",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        return {
            "k_budget": self.k_budget,
            "gamma": self.gamma,
            "eta": self.eta,
            "alpha": self.alpha,
            "lambda": self.lam,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "max_iter": self.max_iter,
            "tol_obj": self.tol_obj,
            "tol_residual": self.tol_residual,
            "z_update_mode": self.z_update_mode,
            "dual_sign": self.dual_sign,
            "window_len": self.window_len,
        }


@dataclass
class SolverState:
    """Primal, splitting and dual variables plus iteration diagnostics."""

    x: np.ndarray  # (b, n, s) denoised signals
    w: np.ndarray  # (b, m) edge weights
    z: np.ndarray  # (b-1, m) splitting variables
    beta: np.ndarray  # (b-1, m) dual variables
    iteration: int = 0
    obj_history: list = field(default_factory=list)
    residual: float = 0.0
    kappa: np.ndarray | None = None  # (b,) last projection shifts, or None

    @property
    def n_windows(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class FitReport:
    """Outcome summary of a fit."""

    converged: bool
    iterations: int
    final_objective: float
    final_residual: float
    per_window_change: tuple

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_objective": self.final_objective,
            "final_residual": self.final_residual,
            "per_window_change": list(self.per_window_change),
        }


def update_x(y_block, weights, gamma: float, eta: float, window: int | None = None):
    """Exact minimizer of the objective in one window's denoised signals.

    Solves (I + gamma*L(W) - eta*D(W)) X = Y with the Cholesky factor
    A = C C^T as X = C^-T (C^-1 Y); the system matrix must be positive
    definite.  Raises ValueError on non-finite weights or signals.
    """
    y_block = np.asarray(y_block, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(w).all() and np.isfinite(y_block).all()):
        raise ValueError("weights and signals must not contain infs or NaNs")
    a = weight_matrix(w)  # checks the shape and the edge count
    deg = a.sum(axis=1)
    a *= -gamma
    a.flat[:: a.shape[0] + 1] = gamma * deg + (1.0 - eta * deg)
    # a is symmetric, so its transpose is the same matrix in Fortran order
    factor, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info > 0:
        where = "window ?" if window is None else f"window {window}"
        raise SingularSystemError(
            f"{where}: I + gamma*L - eta*D is not positive definite "
            f"(try a smaller eta)",
            window=window,
        )
    inv_factor, _ = lapack.dtrtri(factor, lower=1, overwrite_c=1)
    return inv_factor.T @ (inv_factor @ y_block)


def grad_w(t: int, state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """Gradient of the Lagrangian in window t's edge weights.

    Per edge (i, j):
        gamma*||x_i - x_j||^2 - eta*(||x_i||^2 + ||x_j||^2)
        - beta_t + beta_{t-1}
    with the convention that the boundary windows lack one coupling term.
    """
    b = state.n_windows
    if not 0 <= t < b:
        raise IndexError(f"window index {t} outside 0..{b - 1}")
    x_t = state.x[t]
    n = x_t.shape[0]
    i_idx, j_idx = edge_pairs(n)
    grad = cfg.gamma * _kernels.pairwise_sq_dists(x_t)
    if cfg.eta != 0.0:
        row_energy = np.einsum("ns,ns->n", x_t, x_t)
        grad = grad - cfg.eta * (row_energy[i_idx] + row_energy[j_idx])
    if t < b - 1:
        grad = grad - state.beta[t]
    if t > 0:
        grad = grad + state.beta[t - 1]
    return grad


def _residual(state: SolverState) -> float:
    if state.n_windows < 2:
        return 0.0
    gap = state.z - (state.w[:-1] - state.w[1:])
    return float(np.abs(gap).max())


def step(state: SolverState, y_windows, cfg: SolverConfig) -> SolverState:
    """One full iteration over all windows; returns the advanced state."""
    b = state.n_windows
    x_new = np.empty_like(state.x)
    for t in range(b):
        x_new[t] = update_x(y_windows[t], state.w[t], cfg.gamma, cfg.eta, window=t)

    interim = SolverState(
        x=x_new, w=state.w, z=state.z, beta=state.beta, iteration=state.iteration
    )
    w_new = np.empty_like(state.w)
    kappa = np.empty(b)
    for t in range(b):
        raw = state.w[t] - cfg.tau1 * grad_w(t, interim, cfg)
        start = None if state.kappa is None else state.kappa[t]
        proj = project_capped_simplex(raw, cfg.k_budget, start=start)
        w_new[t] = proj.projected
        kappa[t] = proj.kappa

    if b > 1:
        diff = w_new[:-1] - w_new[1:]
        anchor = diff if cfg.z_update_mode == "anchored" else state.z
        z_new = prox_l1_linear(anchor, cfg.alpha, state.beta, cfg.lam)
        gap = z_new - diff
        sign = 1.0 if cfg.dual_sign == "ascent" else -1.0
        beta_new = state.beta + sign * cfg.tau2 * gap
    else:
        z_new = state.z.copy()
        beta_new = state.beta.copy()

    obj = objective(
        y_windows, x_new, w_new, gamma=cfg.gamma, eta=cfg.eta, alpha=cfg.alpha
    )
    if not np.isfinite(obj):
        raise DivergenceError(
            f"objective became non-finite at iteration "
            f"{state.iteration + 1}; reduce tau1"
        )

    new_state = SolverState(
        x=x_new,
        w=w_new,
        z=z_new,
        beta=beta_new,
        iteration=state.iteration + 1,
        obj_history=state.obj_history + [obj],
        kappa=kappa,
    )
    new_state.residual = _residual(new_state)
    return new_state


def _initial_state(y_windows, cfg: SolverConfig) -> SolverState:
    b, n, _ = y_windows.shape
    m = n_edges(n)
    w0 = np.full((b, m), cfg.k_budget / m)
    state = SolverState(
        x=y_windows.copy(),
        w=w0,
        z=np.zeros((max(b - 1, 0), m)),
        beta=np.zeros((max(b - 1, 0), m)),
    )
    obj0 = objective(
        y_windows, state.x, state.w, gamma=cfg.gamma, eta=cfg.eta, alpha=cfg.alpha
    )
    if not np.isfinite(obj0):
        raise DivergenceError(
            "objective is non-finite at initialization; rescale the input"
        )
    state.obj_history.append(obj0)
    state.residual = _residual(state)
    return state


def _converged(state: SolverState, cfg: SolverConfig) -> bool:
    hist = state.obj_history
    if len(hist) < 2:
        return False
    obj_change = abs(hist[-1] - hist[-2])
    return (
        obj_change <= cfg.tol_obj * max(1.0, abs(hist[-2]))
        and state.residual <= cfg.tol_residual
    )


def _run(y_windows, cfg: SolverConfig) -> tuple[SolverState, FitReport]:
    state = _initial_state(y_windows, cfg)
    converged = False
    while state.iteration < cfg.max_iter:
        state = step(state, y_windows, cfg)
        if _converged(state, cfg):
            converged = True
            break
    changes = temporal_variation(state.w) if state.n_windows > 1 else np.empty(0)
    report = FitReport(
        converged=converged,
        iterations=state.iteration,
        final_objective=state.obj_history[-1],
        final_residual=state.residual,
        per_window_change=tuple(float(c) for c in changes),
    )
    return state, report


def fit_dynamic(y, cfg: SolverConfig):
    """Learn one graph per window of a signal record.

    Parameters
    ----------
    y : array_like, shape (n_nodes, n_samples)
        Noisy observations, one row per node.
    cfg : SolverConfig
        Must carry a ``window_len``.

    Returns
    -------
    (w_seq, x_windows, report)
        ``w_seq`` is the (n_windows, n_edges) feasible graph sequence,
        ``x_windows`` the (n_windows, n_nodes, window_len) denoised
        signals, ``report`` a :class:`FitReport`.
    """
    y = as_signal_matrix(y)
    if cfg.window_len is None:
        raise ValueError("fit_dynamic needs cfg.window_len")
    cfg.validate_for(y.shape[0])
    y_windows = window_signals(y, cfg.window_len)
    state, report = _run(y_windows, cfg)
    return state.w, state.x, report


def fit_static(y, cfg: SolverConfig):
    """Learn a single graph over the whole record.

    The record is treated as one window, so the temporal coupling never
    appears.  Returns (weights, x, report) with ``weights`` of shape
    (n_edges,) and ``x`` the denoised (n_nodes, n_samples) record.
    """
    y = as_signal_matrix(y)
    cfg.validate_for(y.shape[0])
    whole = replace(cfg, window_len=y.shape[1])
    y_windows = window_signals(y, whole.window_len)
    state, report = _run(y_windows, whole)
    return state.w[0], state.x[0], report
