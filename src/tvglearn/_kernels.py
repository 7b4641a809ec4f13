"""Hot numeric kernels: pairwise squared distances and capped-simplex projection."""

import numpy as np

__all__ = ["pairwise_sq_dists", "capped_simplex_project"]

# There is no compiled kernel path.  The flags stay because benchmark runs
# record them alongside their results.
USING_NUMBA = _HAVE_NUMBA = False

_MAX_BISECT = 200
_WIDTH_EPS = 1e-14  # stop once the kappa bracket collapses to this width


def pairwise_sq_dists(x):
    """Squared distances ||x_i - x_j||^2 for all node pairs i < j.

    Pairs follow row-major upper-triangular order; ``x`` is the (n, s) block
    of per-node signal rows.
    """
    n = x.shape[0]
    i_idx, j_idx = np.triu_indices(n, k=1)
    d = x[i_idx] - x[j_idx]
    return np.einsum("es,es->e", d, d)


def capped_simplex_project(w, k, tol):
    """Project ``w`` onto {0 <= v <= 1, sum(v) = k} by bisection on kappa."""
    lo = float(w.min()) - 1.0
    hi = float(w.max())
    kappa = 0.5 * (lo + hi)
    iters = 0
    while iters < _MAX_BISECT:
        kappa = 0.5 * (lo + hi)
        g = np.clip(w - kappa, 0.0, 1.0).sum() - k
        iters += 1
        if abs(g) <= tol or (hi - lo) <= _WIDTH_EPS:
            break
        if g > 0.0:
            lo = kappa
        else:
            hi = kappa

    v = w - kappa
    interior = (v > 0.0) & (v < 1.0)
    n_interior = int(interior.sum())
    if n_interior == 0:
        # No coordinate is strictly inside (0, 1): the root is a whole
        # interval between the nearest breakpoints; take its midpoint (the
        # projected point is the same anywhere on the flat).
        low_max = w[v <= 0.0].max() if np.any(v <= 0.0) else w.min() - 1.0
        high = w[v >= 1.0]
        right = high.min() - 1.0 if high.size else kappa
        kappa = 0.5 * (low_max + right)
        v = w - kappa
        interior = (v > 0.0) & (v < 1.0)
        n_interior = int(interior.sum())

    out = np.clip(v, 0.0, 1.0)
    if n_interior > 0:
        # Spread the leftover bisection residual over the interior
        # coordinates; this is an exact shift of kappa in disguise.
        out[interior] = np.clip(out[interior] + (k - out.sum()) / n_interior, 0.0, 1.0)
    return out, float(kappa), iters
