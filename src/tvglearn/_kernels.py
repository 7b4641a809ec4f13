"""Hot numeric kernels: pairwise squared distances and capped-simplex projection."""

from functools import lru_cache

import numpy as np

__all__ = ["pairwise_sq_dists", "capped_simplex_project"]

# There is no compiled kernel path.  The flags stay because benchmark runs
# record them alongside their results.
USING_NUMBA = _HAVE_NUMBA = False

_MAX_STEPS = 200  # cap on root-finding steps per projection
_WIDTH_EPS = 1e-14  # stop once the kappa bracket shrinks to this relative width


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
    ``G_ii + G_jj - 2 G_ij``, of the block shifted by its first row.  A
    common shift leaves the distances unchanged, so a shared offset costs no
    accuracy, rows equal to the first shift to exact zeros at any scale, and
    rows huge only through a shared offset do not overflow.  The
    cancellation error scales with ``max_k ||x_k - x_0||^2``, at most the
    block's squared diameter.  Centring on the across-node mean as well
    would scale it with ``max_k ||x_k - mean||^2``, a gain only when the
    first row is an outlier, for one more pass over the block per call.
    """
    n = x.shape[0]
    i_idx, j_idx = triu_pairs(n)
    xc = x - x[0]
    gram = xc @ xc.T
    sq = gram.diagonal()
    d = sq[i_idx] + sq[j_idx]
    d -= 2.0 * gram.ravel()[triu_flat(n)]
    return np.maximum(d, 0.0, out=d)


def _clip01(v, out=None):
    # np.clip costs about twice as much per call on a few hundred entries
    out = np.maximum(v, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def capped_simplex_project(w, k, tol, start=None):
    """Project each row of ``w`` onto {0 <= v <= 1, sum(v) = k}.

    ``w`` is one (m,) vector or a (b, m) stack of them.  For each row, finds
    the shift kappa with sum(clip(w - kappa, 0, 1)) = k by safeguarded Newton
    steps on that piecewise-linear sum: a Newton step is taken when it lands
    strictly inside the row's current bracket on kappa, and the bracket is
    bisected otherwise.  Where the sum is flat (no coordinate strictly inside
    (0, 1)) the bracket end first moves to the end of the flat stretch.  The
    first step evaluates the row's ``start`` (None, one float, or one per
    row) when it lies strictly inside the initial bracket
    [min(w) - 1, max(w)], and the bracket midpoint otherwise.

    Every step evaluates the shift and the clip on the whole stack, in one
    stack-sized buffer that becomes the result (the last spread of the
    residual over the interior adds a second one); a row that has stopped
    keeps its kappa, so its values recompute to the same bits.  Each row's
    bracket bookkeeping runs on Python floats, so every row comes out as it
    would alone.  When the coordinates at the cap, or those above 0, alone
    meet the budget, the root is a whole flat stretch and kappa is its
    midpoint.  A row stopped by the step cap may miss k.
    Returns the projected point(s), kappa (a float, or a (b,) array for a
    stack) and the total number of root-finding steps over all rows (at
    least 1 per row).
    """
    stack = w if w.ndim == 2 else w.reshape(1, -1)
    b = stack.shape[0]
    lo = [low - 1.0 for low in np.minimum.reduce(stack, 1).tolist()]
    hi = np.maximum.reduce(stack, 1).tolist()
    # np.full broadcasts a float or a (b,) start; NaN fails the bracket test
    starts = np.full(b, np.nan if start is None else start).tolist()
    kappa = [
        s if lo_r < s < hi_r else 0.5 * (lo_r + hi_r)
        for s, lo_r, hi_r in zip(starts, lo, hi)
    ]

    rows = list(range(b))  # rows still searching
    shift = np.array(kappa)[:, np.newaxis]  # (b, 1), kept in step with kappa
    # the one stack-sized buffer of the search: stack - shift, clipped in
    # place; every test on the unclipped v = stack - shift has an exact
    # twin on it (v > 0 iff out > 0, v < 1 iff out < 1, v >= 1 iff
    # out >= 1, v <= 0 iff out <= 0)
    out = np.empty_like(stack)
    steps = total = 0
    while True:
        _clip01(np.subtract(stack, shift, out=out), out=out)
        if steps == _MAX_STEPS:  # the step cap ends the search after a move
            break
        steps += 1
        total += len(rows)
        g = np.add.reduce(out, 1).tolist()
        searching, rows = rows, []
        for r in searching:
            g[r] -= k
            # the width stop is relative to max(1, |lo|, |hi|), as lo < hi
            if abs(g[r]) <= tol or (
                hi[r] - lo[r] <= _WIDTH_EPS * max(1.0, -lo[r], hi[r])
            ):
                continue
            rows.append(r)
            if g[r] > 0.0:
                lo[r] = kappa[r]
            else:
                hi[r] = kappa[r]
        if not rows:
            break
        # g falls with slope -n_interior between breakpoints
        n_interior = np.add.reduce((out > 0.0) & (out < 1.0), 1).tolist()
        for r in rows:
            if n_interior[r]:
                newton = kappa[r] + g[r] / n_interior[r]
                if lo[r] < newton < hi[r]:
                    kappa[r] = shift[r, 0] = newton
                    continue
            elif g[r] > 0.0:
                # g is flat, and keeps its sign, up to the nearest
                # breakpoint toward the root; move that bracket end there
                lo[r] = float(stack[r][out[r] >= 1.0].min()) - 1.0
            else:
                hi[r] = float(stack[r][out[r] <= 0.0].max())
            kappa[r] = shift[r, 0] = 0.5 * (lo[r] + hi[r])

    capped = out >= 1.0
    interior = (out > 0.0) ^ capped  # every capped coordinate is above 0
    n_interior = np.add.reduce(interior, 1).tolist()
    n_capped = np.add.reduce(capped, 1).tolist()
    total_w = np.add.reduce(out, 1).tolist()
    spread = []
    for r, count in enumerate(n_interior):
        if k in (n_capped[r], n_capped[r] + count):
            # The coordinates at the cap, or those above 0, alone meet the
            # budget: the root is a whole interval between the nearest
            # breakpoints; take its midpoint (the projected point is the
            # same anywhere on it).
            w_r, out_r = stack[r], out[r]
            high = capped[r] if n_capped[r] == k else out_r > 0.0
            low_max = w_r[~high].max(initial=w_r.min() - 1.0)
            kappa[r] = float(0.5 * (low_max + w_r[high].min() - 1.0))
            _clip01(np.subtract(w_r, kappa[r], out=out_r), out=out_r)
            interior[r] = (out_r > 0.0) & (out_r < 1.0)
            count = np.count_nonzero(interior[r])
            total_w[r] = out[r].sum()
        # Spread the leftover root-finding residual over the interior
        # coordinates; this is an exact shift of kappa in disguise.
        spread.append((k - total_w[r]) / count if count else 0.0)
    moved = out + np.array(spread)[:, np.newaxis]
    np.copyto(out, _clip01(moved, out=moved), where=interior)
    if w.ndim == 1:
        return out[0], float(kappa[0]), total
    return out, np.array(kappa), total
