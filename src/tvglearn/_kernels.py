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
    n = x.shape[0]
    i_idx, j_idx = triu_pairs(n)
    xc = x - x[0]
    xc -= np.add.reduce(xc, 0) / n  # the mean, without ndarray.mean's wrapper
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

    The array work of a step runs once on the stack of rows still searching;
    each row's bracket bookkeeping runs on Python floats, so every row comes
    out as it would alone.  Returns the projected point(s), kappa (a float,
    or a (b,) array for a stack) and the total number of root-finding steps
    over all rows (at least 1 per row).
    """
    stack = w if w.ndim == 2 else w.reshape(1, -1)
    b = stack.shape[0]
    lo = [low - 1.0 for low in np.minimum.reduce(stack, 1).tolist()]
    hi = np.maximum.reduce(stack, 1).tolist()
    if start is None:
        starts = [None] * b
    elif isinstance(start, float):
        starts = [start] * b
    else:
        starts = np.asarray(start, dtype=np.float64).tolist()
    kappa = [
        s if s is not None and lo_r < s < hi_r else 0.5 * (lo_r + hi_r)
        for s, lo_r, hi_r in zip(starts, lo, hi)
    ]

    rows = list(range(b))  # rows still searching, in the order of ``sub``
    sub = stack
    shift = np.array(kappa)[:, np.newaxis]  # (rows, 1), kept in step with kappa
    # every step writes into the leading rows of two stack-sized buffers
    v_buf, out_buf = np.empty_like(stack), np.empty_like(stack)
    steps = total = 0
    while rows:
        v = np.subtract(sub, shift, out=v_buf[: len(rows)])
        out = _clip01(v, out=out_buf[: len(rows)])
        if steps == _MAX_STEPS:  # the step cap ends the search after a move
            stop, go = rows, []
        else:
            steps += 1
            total += len(rows)
            g = np.add.reduce(out, 1).tolist()
            stop, go = [], []
            for a, r in enumerate(rows):
                g[a] -= k
                if abs(g[a]) <= tol or (hi[r] - lo[r]) <= _WIDTH_EPS:
                    stop.append(a)
                    continue
                go.append(a)
                if g[a] > 0.0:
                    lo[r] = kappa[r]
                else:
                    hi[r] = kappa[r]
        if go:
            v_go = v if not stop else v[go]
            # g falls with slope -n_interior between breakpoints
            n_interior = np.add.reduce((v_go > 0.0) & (v_go < 1.0), 1).tolist()
            for c, a in enumerate(go):
                r = rows[a]
                if n_interior[c]:
                    newton = kappa[r] + g[a] / n_interior[c]
                    if lo[r] < newton < hi[r]:
                        kappa[r] = shift[a, 0] = newton
                        continue
                elif g[a] > 0.0:
                    # g is flat, and keeps its sign, up to the nearest
                    # breakpoint toward the root; move that bracket end there
                    lo[r] = float(stack[r][v_go[c] >= 1.0].min()) - 1.0
                else:
                    hi[r] = float(stack[r][v_go[c] <= 0.0].max())
                kappa[r] = shift[a, 0] = 0.5 * (lo[r] + hi[r])
            if stop:
                rows = [rows[a] for a in go]
                sub = stack[rows]
                shift = shift[go]
        else:
            rows = []
    if len(stop) != b:
        # Rows stopped on different steps: evaluate each at the kappa it
        # stopped on, which reproduces its last v and clipped v exactly.
        v = np.subtract(stack, np.array(kappa)[:, np.newaxis], out=v_buf)
        out = _clip01(v, out=out_buf)

    interior = (v > 0.0) & (v < 1.0)
    n_interior = np.add.reduce(interior, 1).tolist()
    total_w = np.add.reduce(out, 1).tolist()
    spread = []
    for r, count in enumerate(n_interior):
        if count == 0:
            # No coordinate is strictly inside (0, 1): the root is a whole
            # interval between the nearest breakpoints; take its midpoint
            # (the projected point is the same anywhere on the flat).
            w_r, v_r = stack[r], v[r]
            low = v_r <= 0.0
            low_max = w_r[low].max() if low.any() else w_r.min() - 1.0
            high = w_r[v_r >= 1.0]
            right = high.min() - 1.0 if high.size else kappa[r]
            kappa[r] = float(0.5 * (low_max + right))
            np.subtract(w_r, kappa[r], out=v_r)
            out[r] = _clip01(v_r)
            interior[r] = (v_r > 0.0) & (v_r < 1.0)
            count = np.count_nonzero(interior[r])
            total_w[r] = out[r].sum()
        # Spread the leftover root-finding residual over the interior
        # coordinates; this is an exact shift of kappa in disguise.
        spread.append((k - total_w[r]) / count if count else 0.0)
    moved = np.add(out, np.array(spread)[:, np.newaxis], out=v)  # v is spent
    np.copyto(out, _clip01(moved, out=moved), where=interior)
    if w.ndim == 1:
        return out[0], float(kappa[0]), total
    return out, np.array(kappa), total
