"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (loops, dense
matrices, exhaustive enumeration) and never calls into the code paths it is
meant to verify.
"""

import itertools
from functools import lru_cache

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=16)
def _patterns(m):
    # all assignments of {lower, upper, interior} to m coordinates, as masks
    pats = np.array(list(itertools.product((0, 1, 2), repeat=m)), dtype=np.int8)
    lower = pats == 0
    upper = pats == 1
    interior = pats == 2
    return (
        lower,
        upper,
        interior,
        interior.sum(axis=1),
        upper.sum(axis=1),
        interior.astype(np.float64),
    )


def kkt_projection(w, k, slack=1e-9):
    """Projection onto {0 <= v <= 1, sum v = k} by active-set enumeration.

    Tries every lower/upper/interior classification of the coordinates and
    returns the first one whose KKT conditions hold.  Exponential in len(w);
    meant for m <= 10.
    """
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    lower, upper, interior, n_int, n_up, interior_f = _patterns(m)

    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (interior_f @ w + n_up - k) / n_int

    # one fused pass: interior coords must land in [0, 1], lower coords at or
    # below 0, upper coords at or above 1
    shifted = w[np.newaxis, :] - kappa[:, np.newaxis]
    elem_ok = (
        (interior & (shifted >= -slack) & (shifted <= 1.0 + slack))
        | (lower & (shifted <= slack))
        | (upper & (shifted >= 1.0 - slack))
    )
    ok = (n_int > 0) & elem_ok.all(axis=1)

    # rows with no interior coordinate: need n_up == k and a nonempty kappa
    # interval [max lower w, min upper w - 1]; kappa is its midpoint
    flat = n_int == 0
    if not ok.any() and flat.any():
        low_bound = np.where(lower, w[np.newaxis, :], -np.inf).max(axis=1)
        up_bound = np.where(upper, w[np.newaxis, :] - 1.0, np.inf).min(axis=1)
        low_bound = np.where(np.isfinite(low_bound), low_bound, w.min() - 1.0)
        ok_flat = flat & (np.abs(n_up - k) <= slack) & (low_bound <= up_bound + slack)
        kappa = np.where(flat, (low_bound + np.minimum(up_bound, w.max())) / 2.0, kappa)
        ok |= ok_flat

    idx = np.flatnonzero(ok)
    if idx.size == 0:
        raise AssertionError("no KKT pattern found; enumeration bug or bad input")
    best = idx[0]
    out = np.where(
        interior[best], w - kappa[best], np.where(upper[best], 1.0, 0.0)
    )
    return np.clip(out, 0.0, 1.0), float(kappa[best])


def breakpoint_projection(w, k):
    """Exact capped-simplex projection via the sorted breakpoints of the
    clipped-sum function g(kappa) = sum clip(w - kappa, 0, 1)."""
    w = np.asarray(w, dtype=np.float64)
    bps = np.unique(np.concatenate([w, w - 1.0]))

    def g(kappa):
        return float(np.clip(w - kappa, 0.0, 1.0).sum())

    values = np.array([g(b) for b in bps])
    # g decreases from len(w) at bps[0] to 0 at bps[-1]; the level set
    # {g = k} is a point or a closed interval spanning whole flat segments,
    # so collect every segment's contribution and midpoint the union
    roots = []
    for a in range(len(bps) - 1):
        ga, gb = values[a], values[a + 1]
        if not ga >= k >= gb:
            continue
        if ga == gb:
            roots.extend((bps[a], bps[a + 1]))
        else:
            slope = (gb - ga) / (bps[a + 1] - bps[a])
            roots.append(bps[a] + (k - ga) / slope)
    if not roots:  # k == len(w): every coordinate clamps to 1 at bps[0]
        roots = [bps[0]]
    kappa = 0.5 * (min(roots) + max(roots))
    return np.clip(w - kappa, 0.0, 1.0), float(kappa)


def pairwise_sq_dists_loops(x):
    """Squared row distances ||x_i - x_j||^2 for i < j, one pair at a time,
    in row-major upper-triangular order."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = x[i] - x[j]
            out.append(float(diff @ diff))
    return np.array(out)


def golden_min(fn, lo, hi, iters=200):
    """Golden-section minimizer of a unimodal scalar function."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def dense_weight_matrix(w_vec):
    """Edge vector to symmetric weight matrix, by explicit index walking."""
    w_vec = np.asarray(w_vec, dtype=np.float64)
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * w_vec.size)) / 2.0))
    mat = np.zeros((n, n))
    e = 0
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = w_vec[e]
            e += 1
    return mat


def dense_laplacian(w_vec):
    mat = dense_weight_matrix(w_vec)
    return np.diag(mat.sum(axis=1)) - mat


def lagrangian_value(y_windows, x_windows, w_seq, z, beta, gamma, eta, alpha):
    """Value of the split-variable Lagrangian, assembled densely."""
    total = 0.0
    b = w_seq.shape[0]
    for t in range(b):
        resid = y_windows[t] - x_windows[t]
        total += float((resid * resid).sum())
        lap = dense_laplacian(w_seq[t])
        deg = np.diag(np.diag(lap))
        total += float(np.trace(x_windows[t].T @ (gamma * lap - eta * deg) @ x_windows[t]))
    for t in range(b - 1):
        total += alpha * float(np.abs(z[t]).sum())
        total += float(beta[t] @ (z[t] - w_seq[t] + w_seq[t + 1]))
    return total


def pearson(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    du = u - u.mean()
    dv = v - v.mean()
    denom = np.sqrt((du * du).sum() * (dv * dv).sum())
    if denom == 0.0:
        return np.nan
    return float((du * dv).sum() / denom)
