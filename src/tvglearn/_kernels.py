"""Hot numeric kernels: pairwise squared distances and capped-simplex projection."""

from functools import lru_cache

import numpy as np

__all__ = ["pairwise_sq_dists", "capped_simplex_project"]

# There is no compiled kernel path.  The flags stay because benchmark runs
# record them alongside their results.
USING_NUMBA = _HAVE_NUMBA = False

_MAX_STEPS = 200  # cap on root-finding steps per projection
_WIDTH_EPS = 1e-14  # stop once the kappa bracket collapses to this width


@lru_cache(maxsize=128)
def triu_pairs(n_nodes):
    """Read-only (i_idx, j_idx) of the row-major upper-triangular pairs i < j."""
    i_idx, j_idx = np.triu_indices(n_nodes, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


@lru_cache(maxsize=128)
def triu_flat(n_nodes):
    """Read-only flat index ``i*n + j`` into an (n, n) matrix of each pair."""
    i_idx, j_idx = triu_pairs(n_nodes)
    flat = i_idx * n_nodes + j_idx
    flat.setflags(write=False)
    return flat


def pairwise_sq_dists(x):
    """Squared distances ||x_i - x_j||^2 for all node pairs i < j.

    Pairs follow row-major upper-triangular order; ``x`` is the (n, s) block
    of per-node signal rows.  The distances come from the Gram matrix,
    ``G_ii + G_jj - 2 G_ij``, of the centred block.  A common shift leaves
    the distances unchanged, and centring keeps the cancellation error
    relative to the spread of the rows rather than to their offset.  The
    block is shifted by its first row before its across-node mean, so rows
    equal to the first centre to exact zeros at any scale.
    """
    i_idx, j_idx = triu_pairs(x.shape[0])
    xc = x - x[0]
    xc -= xc.mean(axis=0)
    gram = xc @ xc.T
    sq = gram.diagonal()
    d = sq[i_idx] + sq[j_idx]
    d -= 2.0 * gram[i_idx, j_idx]
    return np.maximum(d, 0.0, out=d)


def _clip01(v):
    # np.clip costs about twice as much per call on a few hundred entries
    return np.minimum(np.maximum(v, 0.0), 1.0)


def capped_simplex_project(w, k, tol, start=None):
    """Project ``w`` onto {0 <= v <= 1, sum(v) = k}.

    Finds the shift kappa with sum(clip(w - kappa, 0, 1)) = k by safeguarded
    Newton steps on that piecewise-linear sum: a Newton step is taken when it
    lands strictly inside the current bracket on kappa, and the bracket is
    bisected otherwise.  Where the sum is flat (no coordinate strictly inside
    (0, 1)) the bracket end first moves to the end of the flat stretch.  The
    first step evaluates ``start`` when it lies strictly inside the initial
    bracket [min(w) - 1, max(w)], and the bracket midpoint otherwise.
    Returns the projected point, kappa and the number of root-finding steps
    (at least 1).
    """
    lo = float(w.min()) - 1.0
    hi = float(w.max())
    if start is not None and lo < start < hi:
        kappa = float(start)
    else:
        kappa = 0.5 * (lo + hi)
    iters = 0
    while iters < _MAX_STEPS:
        v = w - kappa
        out = _clip01(v)
        evaluated = kappa
        g = out.sum() - k
        iters += 1
        if abs(g) <= tol or (hi - lo) <= _WIDTH_EPS:
            break
        if g > 0.0:
            lo = kappa
        else:
            hi = kappa
        # g falls with slope -n_interior between breakpoints
        n_interior = np.count_nonzero((v > 0.0) & (v < 1.0))
        if n_interior:
            newton = kappa + g / n_interior
            if lo < newton < hi:
                kappa = newton
                continue
        elif g > 0.0:
            # g is flat, and keeps its sign, up to the nearest breakpoint
            # toward the root; move that bracket end there
            lo = float(w[v >= 1.0].min()) - 1.0
        else:
            hi = float(w[v <= 0.0].max())
        kappa = 0.5 * (lo + hi)

    if kappa != evaluated:  # the step cap ended the loop after a move
        v = w - kappa
        out = _clip01(v)
    interior = (v > 0.0) & (v < 1.0)
    n_interior = np.count_nonzero(interior)
    if n_interior == 0:
        # No coordinate is strictly inside (0, 1): the root is a whole
        # interval between the nearest breakpoints; take its midpoint (the
        # projected point is the same anywhere on the flat).
        low_max = w[v <= 0.0].max() if np.any(v <= 0.0) else w.min() - 1.0
        high = w[v >= 1.0]
        right = high.min() - 1.0 if high.size else kappa
        kappa = 0.5 * (low_max + right)
        v = w - kappa
        out = _clip01(v)
        interior = (v > 0.0) & (v < 1.0)
        n_interior = np.count_nonzero(interior)

    if n_interior > 0:
        # Spread the leftover root-finding residual over the interior
        # coordinates; this is an exact shift of kappa in disguise.
        out[interior] = _clip01(out[interior] + (k - out.sum()) / n_interior)
    return out, float(kappa), iters
