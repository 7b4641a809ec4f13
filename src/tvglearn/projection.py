"""Euclidean projection onto the capped simplex {0 <= w <= 1, sum(w) = K}.

The projected point is clip(w - kappa, 0, 1) for the scalar shift kappa that
makes the sum constraint hold; kappa is found by safeguarded Newton steps on
the piecewise-linear clipped sum, with bisection of a bracket on kappa as the
fallback.  A guess for kappa, such as the previous iteration's, can start the
search.  A (b, m) stack of vectors is projected row by row in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import as_float_array, check_budget, check_finite, check_integer

__all__ = ["ProjectionResult", "project_capped_simplex", "is_feasible"]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionResult:
    """Feasible point(s), the shift(s) that produced them, and root-finding steps.

    The root finding stops once |sum(projected) - k| <= ``DEFAULT_TOL``, a
    fixed tolerance.  For a (b, m) stack, ``kappa`` is a (b,) array and
    ``iterations`` the total over the rows; every step evaluates the whole
    stack.  Where the sum constraint is met on a whole flat stretch of
    shifts, ``kappa`` is the stretch's midpoint.  A row stopped by the step
    cap lies in the box but may miss k: at a cap of 2 steps, rows of the
    tests' hard inputs missed it by up to 9.
    """

    projected: np.ndarray
    kappa: float | np.ndarray
    iterations: int


def project_capped_simplex(raw, k: float, start=None) -> ProjectionResult:
    """Project an edge vector, or each row of a stack, onto the capped simplex.

    The capped simplex is {0 <= w <= 1, sum(w) = k}.

    Parameters
    ----------
    raw : array_like, shape (m,) or (b, m)
        Unconstrained edge weights (for example after a gradient step), one
        vector or one per window.
    k : float
        Required total weight, 0 < k <= m.
    start : None, float or array_like of shape (b,)
        First kappa to evaluate, for example the shift of the previous
        projection of a nearby vector; a stack takes one float for every row
        or one value per row.  A row's start is ignored unless it lies
        strictly inside the bracket [min(row) - 1, max(row)]; the projected
        point does not depend on it beyond the root-finding tolerance.

    Returns
    -------
    ProjectionResult
        ``projected`` has the shape of ``raw``; each row sums to ``k``
        within the fixed root-finding tolerance ``DEFAULT_TOL`` (typically
        much tighter) and sits exactly inside the box.  Each row comes out
        exactly as its own 1-D projection would.
    """
    w = as_float_array("raw", raw, finite=True)
    rank = 2 if w.ndim > 1 else 1  # one edge vector, or a (b, m) stack of them
    w = np.ascontiguousarray(as_float_array("raw", w, (None,) * rank))
    if w.ndim == 2:
        check_integer("rows of raw", w.shape[0], 1)
    check_budget("k", k, w.shape[-1])
    if start is not None:  # one kappa for every row, or one per row of a stack
        start = as_float_array("start", start)
        start = as_float_array("start", start, w.shape[:1] if start.ndim and rank == 2 else ())

    projected, kappa, iters = _kernels.capped_simplex_project(
        w, float(k), DEFAULT_TOL, start
    )
    return ProjectionResult(projected=projected, kappa=kappa, iterations=iters)


def is_feasible(edges, k: float, tol: float = 1e-6) -> bool:
    """True iff each weight of 1-D ``edges`` is in [-tol, 1 + tol] and |sum - k| <= tol."""
    check_finite("k", k, bound=None)
    check_finite("tol", tol)
    w = as_float_array("edges", edges, (None,))
    return bool(np.isfinite(w).all() and -tol <= w.min(initial=0.0)
                and w.max(initial=0.0) <= 1.0 + tol and abs(float(w.sum()) - k) <= tol)
