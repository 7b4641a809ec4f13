"""Alternating solver for the dynamic and static graph learning problems.

Each iteration runs, in order and for every window: a closed-form update of
the denoised signals X_t, a projected gradient step on the edge weights W_t
(the gradients of all windows come from one call, and their steps are
projected in one call), the objective at the new X and W, a proximal update
of the splitting variables Z_t that stand in for W_t - W_{t+1}, and a dual
ascent step on the multipliers beta_t.
A static fit is a dynamic fit on a single window, whose Z and beta stacks are
empty.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np
import scipy

from .errors import DivergenceError, SingularSystemError
from .errors import as_float_array, check_budget, check_finite, check_integer
from .graphs import (
    _edge_energy_stack,
    _sq_dist_stack,
    as_signal_matrix,
    change_profile,
    n_edges,
    n_nodes_for_edges,
    objective,
    weight_matrix,
    window_signals,
)
from .projection import is_feasible, project_capped_simplex
from .proximal import prox_l1_linear


def _load_lapack():
    """scipy's LAPACK extension, the one behind ``scipy.linalg.lapack``, loaded
    from its file: importing ``scipy.linalg`` would load most of scipy.  The
    light ``import scipy`` sets up the libraries some platforms need first;
    the name must end in ``_flapack``, as the loader calls ``PyInit__flapack``."""
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("tvglearn._flapack", path)
            spec = importlib.util.spec_from_loader(loader.name, loader, origin=path)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}")


lapack = _load_lapack()

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

# An unset step is sized from S, the mean over windows of the spread
# max(G_t) - min(G_t) of the first W-gradient: tau1 = C1 / S and
# tau2 = min(C2 * S, 1 / lam).  beta is in gradient units and the weights
# are in [0, 1], so the rule takes the same W steps on c*Y as on Y.  Tuned
# on the reference scenario's seeds 0-6 and 8-24 at signal scales 0.3, 1
# and 3: every fit converges, in at most 403 iterations; C1 = 50 left 21
# of the 72 fits at max_iter, and smaller C1 converge more slowly.
C1 = 20.0
C2 = 0.02


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
    tau1, tau2 : float or None
        Primal (W) and dual (beta) step sizes.  None (the default) sizes
        the step from the fit's own gradient scale on its first iteration:
        with S the mean over windows of max(G_t) - min(G_t) of the first
        W-gradient, tau1 = C1 / S and tau2 = min(C2 * S, 1 / lam) (C1
        and C2 are module constants).  An explicit tau2 must satisfy
        tau2 * lam < 2, the bound past which the dual ascent step stops
        contracting.  The report carries the steps a fit used.
    max_iter : int
        Iteration cap.
    tol_obj : float
        Relative objective-change tolerance.
    tol_residual : float
        Tolerance on max_t ||Z_t - W_t + W_{t+1}||_inf.
    window_len : int or None
        Samples per window (at least 1) for dynamic fits; ignored by
        static fits.
    """

    k_budget: float
    gamma: float = 1.0
    eta: float = 0.0
    alpha: float = 0.1
    lam: float = 1.0
    tau1: float | None = None
    tau2: float | None = None
    max_iter: int = 5000
    tol_obj: float = 1e-6
    tol_residual: float = 1e-4
    window_len: int | None = None

    def __post_init__(self):
        check_integer("max_iter", self.max_iter, 1)
        if self.window_len is not None:  # None: static fits span the record
            check_integer("window_len", self.window_len, 1)
        check_budget("k_budget", self.k_budget)
        for name in ("gamma", "eta", "alpha"):
            check_finite(name, getattr(self, name))
        for name in ("lam", "tau1", "tau2", "tol_obj", "tol_residual"):
            value = getattr(self, name)
            if value is not None:  # None: a tau sized from the first gradient
                check_finite(name, value, bound="positive")
        if self.tau2 is not None and self.tau2 * self.lam >= 2.0:
            # once |beta| is large, a dual step scales it by about
            # 1 - tau2 * lam, which grows without bound past this point
            raise ValueError(
                f"tau2 * lambda must be below 2, got tau2={self.tau2}, "
                f"lambda={self.lam}"
            )


@dataclass
class SolverState:
    """Primal, splitting and dual variables plus iteration diagnostics.

    :func:`step` checks the fields it reads, ``w``, ``beta``, ``kappa``,
    ``steps`` and ``iteration``, each under its own name (``state.w``, ...).
    """

    # z is None only inside _run, between steps: step reads neither x nor z,
    # and dropping z lets the next step reuse its memory
    x: np.ndarray | None  # (b, n, s) denoised signals
    w: np.ndarray  # (b, m) edge weights
    z: np.ndarray | None  # (b-1, m) splitting variables
    beta: np.ndarray  # (b-1, m) dual variables
    iteration: int = 0
    objective: float = math.nan  # at the current iterate; NaN until evaluated
    residual: float = 0.0  # max |Z - W_t + W_{t+1}|; 0 at the start (Z = 0, W_t equal)
    kappa: np.ndarray | None = None  # (b,) last projection shifts, or None
    steps: tuple | None = None  # (tau1, tau2) in use; the first step sets it


@dataclass(frozen=True)
class FitReport:
    """Outcome summary of a fit."""

    converged: bool
    iterations: int
    final_objective: float
    final_residual: float
    per_window_change: tuple
    tau1: float | None = None  # the steps the fit used
    tau2: float | None = None

    @property
    def stop_reason(self) -> str:
        """Why the loop ended: ``"tolerance"`` (both stopping criteria met)
        or ``"max_iter"`` (the iteration cap); a diverging fit raises."""
        return "tolerance" if self.converged else "max_iter"

    def to_dict(self) -> dict:
        """Field values by name plus ``stop_reason``, as JSON-ready values."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["per_window_change"] = list(self.per_window_change)
        out["stop_reason"] = self.stop_reason
        return out


def update_x(y_block, weights, gamma: float, eta: float, window: int | None = None):
    """Exact minimizer of the objective in one window's denoised signals.

    Solves (I + gamma*L(W) - eta*D(W)) X = Y with the Cholesky factor
    A = C C^T as X = (C^-T C^-1) Y: the small (n, n) inverse is formed first,
    so the (n, s) signals go through one product.  The system matrix must be
    positive definite; the SingularSystemError raised otherwise names
    ``window`` when one is given.  Raises ValueError on a non-real or
    non-finite gamma, eta, weight or signal, on a block that is not (n, s)
    for the graph's n nodes, and on a system whose assembly would overflow.
    """
    check_finite("gamma", gamma, bound=None)
    check_finite("eta", eta, bound=None)
    a = weight_matrix(weights)  # converts the weights, checks their shape and count
    y_block = as_float_array("y_block", y_block, (a.shape[0], None), finite=True)
    # no entry of the system, nor a degree, exceeds this bound in size, so the
    # assembly overflows only if it does; a NaN or inf weight fails it too, and
    # fabs keeps it in Python floats, which raise no floating-point warning.
    # The diagonal of a is still 0, so its largest |entry| is the largest |weight|
    if not math.isfinite(
        (1.0 + math.fabs(gamma) + math.fabs(eta)) * float(np.abs(a).max()) * a.shape[0]
    ):
        raise ValueError(
            "the weights must be finite and I + gamma*L - eta*D must not overflow"
        )
    deg = a.sum(axis=1)
    a *= -gamma
    a.flat[:: a.shape[0] + 1] = gamma * deg + (1.0 - eta * deg)
    # a is symmetric, so its transpose is the same matrix in Fortran order
    factor, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info > 0:
        where = "" if window is None else f"window {window}: "
        # at eta = 0 the exact system is positive definite, so only a gamma
        # large enough to round away the identity makes it singular
        hint = "gamma" if eta == 0.0 else "eta"
        raise SingularSystemError(
            f"{where}I + gamma*L - eta*D is not positive definite "
            f"(try a smaller {hint})",
            window=window,
        )
    inv_factor, _ = lapack.dtrtri(factor, lower=1, overwrite_c=1)
    return (inv_factor.T @ inv_factor) @ y_block


def grad_w(x, beta, cfg: SolverConfig) -> np.ndarray:
    """Gradient of the Lagrangian in the edge weights of every window.

    Given the (b, n, s) signals ``x`` and the (b-1, m) duals ``beta``, row t
    of the (b, m) result holds, per edge (i, j):
        gamma*||x_i - x_j||^2 - eta*(||x_i||^2 + ||x_j||^2)
        - beta_t + beta_{t-1}
    with the convention that the boundary windows lack one coupling term.
    """
    x = as_float_array("x", x, (None, None, None))
    b = check_integer("windows of x", x.shape[0], 1)
    beta = as_float_array("beta", beta, (b - 1, n_edges(x.shape[1])))
    grad = _sq_dist_stack(x)
    grad *= cfg.gamma
    if cfg.eta != 0.0:
        grad -= cfg.eta * _edge_energy_stack(x)
    grad[:-1] -= beta
    grad[1:] += beta
    return grad


def _resolve_steps(grads: np.ndarray, cfg: SolverConfig) -> tuple[float, float]:
    """The (tau1, tau2) of a fit whose first W-gradient stack is ``grads``.

    A configured step is kept as it is.  An unset one follows the rule
    tau1 = C1 / S, tau2 = min(C2 * S, 1 / lam), where S is the mean over
    windows of max(G_t) - min(G_t).  A spread that is zero (a flat gradient
    moves no weight whatever the step), not finite, or so small that C1 / S
    overflows falls back to S = 1.  The cap keeps the dual iteration stable:
    once |beta| is large, an ascent step scales it by about 1 - tau2 * lam.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.mean(np.ptp(grads, axis=1)))
    if not (0.0 < spread < math.inf and math.isfinite(C1 / spread)):
        spread = 1.0
    return (
        C1 / spread if cfg.tau1 is None else cfg.tau1,
        min(C2 * spread, 1.0 / cfg.lam) if cfg.tau2 is None else cfg.tau2,
    )


def step(state: SolverState, y_windows, cfg: SolverConfig, *, x_out=None) -> SolverState:
    """One full iteration over all windows; returns the advanced state.

    The new X depends on Y and W alone, and the new Z on W and beta, so
    neither ``state.x`` nor ``state.z`` is read; either may be None.
    ``y_windows`` is the (b, n, s) record, one window per row of ``state.w``.
    The new X is written into ``x_out`` when one is given (it may be
    ``state.x``), and into a new array otherwise.

    Before any work, each field read is checked under its own name:
    ``state.w`` is (b, m) with b >= 1 and m = n*(n-1)/2 edges,
    ``state.beta`` (b-1, m), ``state.kappa`` None or (b,), ``state.steps``
    None or two positive finite reals, and ``state.iteration`` a
    non-negative count; then ``y_windows`` is checked as (b, n, s), and
    ``x_out`` must be a writable float64 array of the record's shape that
    shares no memory with ``y_windows`` or the state's w, beta and kappa.
    """
    w = as_float_array("state.w", state.w, (None, None))
    b = check_integer("windows of state.w", w.shape[0], 1)
    n = n_nodes_for_edges(w.shape[1], "edges of state.w")
    beta = as_float_array("state.beta", state.beta, (b - 1, w.shape[1]))
    kappa = state.kappa
    if kappa is not None:
        kappa = as_float_array("state.kappa", kappa, (b,))
    steps = state.steps
    if steps is not None:
        as_float_array("state.steps", steps, (2,))  # a tau1 and a tau2
        for tau in steps:
            check_finite("state.steps", tau, bound="positive")
    iteration = check_integer("state.iteration", state.iteration, 0)
    y_windows = as_float_array("y_windows", y_windows, (b, n, None))
    x_new = (np.empty(y_windows.shape) if x_out is None
             else _check_x_out(x_out, y_windows, w, beta, kappa))
    for t in range(b):
        x_new[t] = update_x(y_windows[t], w[t], cfg.gamma, cfg.eta, window=t)
    raw = grad_w(x_new, beta, cfg)
    tau1, tau2 = _resolve_steps(raw, cfg) if steps is None else steps
    # tau1 can be large next to the gradient's offset (C1 / S for a
    # spread of rounding noise); the kappa of each row absorbs a shift of
    # that row, so drop the offset to keep W - tau1 * G resolvable
    raw -= raw.min(axis=1, keepdims=True)
    raw *= tau1
    np.subtract(w, raw, out=raw)  # W - tau1 * G, in place
    if not np.isfinite(raw).all():
        raise DivergenceError(
            f"the W-gradient step became non-finite at iteration "
            f"{iteration + 1}; {_divergence_hint(cfg)}"
        )
    proj = project_capped_simplex(raw, cfg.k_budget, start=kappa)
    w_new, kappa = proj.projected, proj.kappa
    del raw, proj  # spent; freeing them lowers the step's peak memory
    # the objective reads Y, X and W alone: evaluated right after the
    # projection, before the new Z and beta exist, its temporaries never
    # meet two generations of them
    obj = _finite_objective(y_windows, x_new, w_new, cfg, iteration + 1)

    diff = w_new[:-1] - w_new[1:]  # (b-1, m); empty for one window
    z_new = prox_l1_linear(diff, cfg.alpha, beta, cfg.lam)
    # the splitting residual Z - (W_t - W_{t+1}), in the spent diff's buffer;
    # max |gap| is the larger of |max gap| and |min gap|, so the residual
    # leaves gap unwritten for the dual step
    gap = np.subtract(z_new, diff, out=diff)
    residual = float(max(abs(gap.max(initial=0.0)), abs(gap.min(initial=0.0))))
    beta_new = np.multiply(gap, tau2, out=gap)  # the dual ascent, in gap's buffer
    beta_new += beta

    return SolverState(
        x=x_new,
        w=w_new,
        z=z_new,
        beta=beta_new,
        iteration=iteration + 1,
        objective=obj,
        residual=residual,
        kappa=kappa,
        steps=(tau1, tau2),
    )


def _check_x_out(x_out, y_windows, w, beta, kappa) -> np.ndarray:
    """``x_out`` itself if :func:`step` may write the new X into it."""
    if as_float_array("x_out", x_out, y_windows.shape) is not x_out:  # converted
        got = type(x_out).__name__
        if isinstance(x_out, np.ndarray):
            got += f" of {x_out.dtype}"
        raise ValueError(f"x_out must be a float64 numpy.ndarray, got {got}")
    if not x_out.flags.writeable:
        raise ValueError("x_out must be writable")
    # the step reads these after it writes X
    for name, read in (("y_windows", y_windows), ("state.w", w), ("state.beta", beta),
                       ("state.kappa", kappa)):
        if read is not None and np.may_share_memory(x_out, read):
            raise ValueError(f"x_out must not share memory with {name}")
    return x_out


def _divergence_hint(cfg: SolverConfig) -> str:
    """Remedies for a divergence; a rule-sized tau1 follows the input's scale."""
    eta = " or reduce eta" if cfg.eta > 0 else ""
    tau1 = " or set a smaller tau1" if cfg.tau1 is not None else ""
    return f"rescale the input{eta}{tau1}"


def _finite_objective(
    y_windows, x_windows, w_seq, cfg: SolverConfig, iteration: int
) -> float:
    """The objective at the iterate ``iteration`` (0 for the starting point);
    DivergenceError if it is not finite."""
    obj = objective(
        y_windows, x_windows, w_seq, gamma=cfg.gamma, eta=cfg.eta, alpha=cfg.alpha
    )
    if not math.isfinite(obj):
        raise DivergenceError(
            "objective is non-finite at initialization; rescale the input"
            if iteration == 0
            else f"objective became non-finite at iteration {iteration}; "
            f"{_divergence_hint(cfg)}"
        )
    return obj


def _initial_state(y_windows, cfg: SolverConfig) -> SolverState:
    b, n, _ = y_windows.shape
    m = n_edges(n)
    w0 = np.full((b, m), cfg.k_budget / m)
    obj0 = _finite_objective(y_windows, y_windows, w0, cfg, 0)
    # X starts at Y itself: no step writes into the X it is given
    return SolverState(
        x=y_windows,
        w=w0,
        z=np.zeros((b - 1, m)),
        beta=np.zeros((b - 1, m)),
        objective=obj0,
    )


def _run(y_windows, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray, FitReport]:
    n = y_windows.shape[1]
    check_budget("k_budget", cfg.k_budget, n_edges(n))
    if cfg.eta > 0 and cfg.eta * (n - 1) >= 1.0:
        # stacklevel 3 names the line that called fit_dynamic or fit_static
        warnings.warn(
            f"eta={cfg.eta} violates the sufficient bound "
            f"eta*(n-1) < 1; the X update may lose positive definiteness",
            stacklevel=3,
        )
    converged = False
    # a record near 1e153 overflows the objective, the X-update, the
    # gradient or the W step; the finiteness checks report that as one
    # typed error, without a floating-point warning first
    with np.errstate(over="ignore", invalid="ignore"):
        state = _initial_state(y_windows, cfg)
        # one X stack for the whole fit: a new one per step would free and
        # fault in that much memory on every iteration
        x_out = np.empty(y_windows.shape)
        while state.iteration < cfg.max_iter:
            previous = state.objective
            # step reads no Z; freed, its memory is reused
            state.z = None
            state = step(state, y_windows, cfg, x_out=x_out)
            # the stop rule; max(1, ...) keeps the objective test absolute near 0
            if (
                abs(state.objective - previous) <= cfg.tol_obj * max(1.0, abs(previous))
                and state.residual <= cfg.tol_residual
            ):
                converged = True
                break
    for t, w in enumerate(state.w):
        if not is_feasible(w, cfg.k_budget):
            # the projection cannot meet the budget once W - tau1 * G spans
            # more than a float resolves (X blown up by a near-singular system)
            raise DivergenceError(
                f"window {t} misses the edge budget after iteration "
                f"{state.iteration}: the iterates outgrew floating point "
                f"(largest |x| {np.abs(state.x).max():.3g}); {_divergence_hint(cfg)}"
            )
    report = FitReport(
        converged=converged,
        iterations=state.iteration,
        final_objective=state.objective,
        final_residual=state.residual,
        per_window_change=tuple(float(c) for c in change_profile(state.w)),
        tau1=state.steps[0],
        tau2=state.steps[1],
    )
    return state.w, state.x, report


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
    return _run(window_signals(y, cfg.window_len), cfg)


def fit_static(y, cfg: SolverConfig):
    """Learn a single graph over the whole record.

    The solver loop runs on one window that spans the record
    (``cfg.window_len`` is ignored), so the temporal coupling never appears.
    Returns (weights, x, report) with ``weights`` of shape (n_edges,) and
    ``x`` the denoised (n_nodes, n_samples) record.
    """
    w_seq, x_windows, report = _run(as_signal_matrix(y)[np.newaxis], cfg)
    return w_seq[0], x_windows[0], report
