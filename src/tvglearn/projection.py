"""Euclidean projection onto the capped simplex {0 <= w <= 1, sum(w) = K}.

The projected point is clip(w - kappa, 0, 1) for the scalar shift kappa that
makes the sum constraint hold; kappa is found by safeguarded Newton steps on
the piecewise-linear clipped sum, with bisection of a bracket on kappa as the
fallback.  A guess for kappa, such as the previous iteration's, can start the
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InfeasibleBudgetError

__all__ = ["ProjectionResult", "project_capped_simplex", "is_feasible"]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionResult:
    """Feasible point, the shift that produced it, and root-finding steps."""

    projected: np.ndarray
    kappa: float
    iterations: int


def project_capped_simplex(
    raw, k: float, tol: float = DEFAULT_TOL, start: float | None = None
) -> ProjectionResult:
    """Project a raw edge vector onto {0 <= w <= 1, sum(w) = k}.

    Parameters
    ----------
    raw : array_like, shape (m,)
        Unconstrained edge weights (for example after a gradient step).
    k : float
        Required total weight, 0 < k <= m.
    tol : float
        Root-finding stop tolerance on |sum(projected) - k|.
    start : float or None
        First kappa to evaluate, for example the shift of the previous
        projection of a nearby vector.  Ignored unless it lies strictly
        inside the bracket [min(raw) - 1, max(raw)]; the projected point
        does not depend on it beyond the root-finding tolerance.

    Returns
    -------
    ProjectionResult
        ``projected`` sums to ``k`` within ``tol`` (typically much tighter)
        and sits exactly inside the box.
    """
    w = np.ascontiguousarray(raw, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("raw edge vector must be 1-D")
    if not np.isfinite(w).all():
        raise ValueError("cannot project a vector with non-finite entries")
    m = w.shape[0]
    if not 0.0 < k <= m:
        raise InfeasibleBudgetError(
            f"edge budget k={k} outside the feasible range (0, {m}]"
        )
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    projected, kappa, iters = _kernels.capped_simplex_project(
        w, float(k), float(tol), start
    )
    return ProjectionResult(projected=projected, kappa=kappa, iterations=iters)


def is_feasible(edges, k: float, tol: float = 1e-6) -> bool:
    """True iff every weight is in [-tol, 1 + tol] and |sum - k| <= tol."""
    w = np.asarray(edges, dtype=np.float64)
    if not np.isfinite(w).all():
        return False
    if w.min(initial=0.0) < -tol or w.max(initial=0.0) > 1.0 + tol:
        return False
    return abs(float(w.sum()) - k) <= tol
