"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (loops, dense
matrices, exhaustive enumeration) and never calls into the code paths it is
meant to verify.  The one exception is :func:`step_per_window`, which runs the
solver's own X-update, projection, prox and objective one window at a time,
in the order the batched ``step`` replaced, so the two can be compared
iteration by iteration; its W-gradient and its residual are its own.
"""

import itertools
import math
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
    # a breakpoint whose sum reads k up to rounding lies on the level set;
    # without the snap a flat stretch at k can lose one of its ends
    values[np.abs(values - k) <= 1e-12 * len(w)] = k
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


def smoothness_term_dense(w_vec, x):
    """tr(x^T L(W) x) assembled through the dense Laplacian."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.trace(x.T @ dense_laplacian(w_vec) @ x))


def energy_penalty_term_pairwise(w_vec, x):
    """sum_(i<j) w_ij (||x_i||^2 + ||x_j||^2), one edge at a time."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    total = 0.0
    e = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += float(w_vec[e]) * float(x[i] @ x[i] + x[j] @ x[j])
            e += 1
    return total


def soft_threshold_sign(a, s):
    """sign(a) * max(|a| - s, 0), written out as that formula."""
    a = np.asarray(a, dtype=np.float64)
    return np.sign(a) * np.maximum(np.abs(a) - s, 0.0)


def grad_w_window(x, beta, t, gamma, eta):
    """Gradient of the Lagrangian in window t's weights, edge by edge:
    gamma*||x_i - x_j||^2 - eta*(||x_i||^2 + ||x_j||^2) - beta_t + beta_{t-1},
    where the first and last windows lack one coupling term."""
    x_t = np.asarray(x[t], dtype=np.float64)
    n = x_t.shape[0]
    energy = np.array([float(row @ row) for row in x_t])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grad = gamma * pairwise_sq_dists_loops(x_t)
    grad -= eta * np.array([energy[i] + energy[j] for i, j in pairs])
    if t < len(x) - 1:
        grad -= beta[t]
    if t > 0:
        grad += beta[t - 1]
    return grad


def objective_per_window(y_windows, x_windows, w_seq, gamma, eta, alpha):
    """The model objective, one window at a time, from loop distances and
    dense degrees."""
    total = 0.0
    b = w_seq.shape[0]
    for t in range(b):
        x = x_windows[t]
        resid = y_windows[t] - x
        total += float((resid * resid).sum())
        total += gamma * float(w_seq[t] @ pairwise_sq_dists_loops(x))
        deg = dense_weight_matrix(w_seq[t]).sum(axis=1)
        total -= eta * float(deg @ (x * x).sum(axis=1))
    for t in range(b - 1):
        total += alpha * float(np.abs(w_seq[t] - w_seq[t + 1]).sum())
    return total


def w_block_costs(x_windows, gamma, eta):
    """The (b, m) linear cost of the weights at fixed signals, edge by edge:
    gamma*||x_i - x_j||^2 - eta*(||x_i||^2 + ||x_j||^2), which is the
    W-gradient at zero duals."""
    b, n, _ = x_windows.shape
    beta = np.zeros((b - 1, n * (n - 1) // 2))
    return np.stack([grad_w_window(x_windows, beta, t, gamma, eta) for t in range(b)])


def w_block_value(costs, w_seq, alpha):
    """The W-dependent part of the objective at fixed signals: the linear
    costs plus alpha times the l1 change between consecutive windows."""
    w_seq = np.asarray(w_seq, dtype=np.float64)
    coupling = sum(float(np.abs(w_seq[t] - w_seq[t + 1]).sum())
                   for t in range(len(w_seq) - 1))
    return float((costs * w_seq).sum()) + alpha * coupling


def w_block_lp(costs, k, alpha):
    """Minimum of :func:`w_block_value` over feasible graph sequences.

    With X fixed, the objective is linear in W plus an l1 coupling, over one
    capped simplex {0 <= w_t <= 1, sum(w_t) = k} per window: a linear
    program once each coupling term |w_t,e - w_{t+1},e| gets an auxiliary
    u_t,e >= 0 bounded below by both signs of the difference.  Solved with
    HiGHS on sparse constraints.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    b, m = costs.shape
    # D maps the stacked W to the (b-1)*m differences w_t - w_{t+1}
    diff = sparse.kron(sparse.eye(b - 1, b) - sparse.eye(b - 1, b, k=1),
                       sparse.eye(m))
    minus_u = -sparse.eye((b - 1) * m)
    a_ub = sparse.vstack([sparse.hstack([diff, minus_u]),
                          sparse.hstack([-diff, minus_u])])
    a_eq = sparse.hstack([sparse.kron(sparse.eye(b), np.ones((1, m))),
                          sparse.csr_matrix((b, (b - 1) * m))])
    res = linprog(
        np.concatenate([costs.ravel(), np.full((b - 1) * m, alpha)]),
        A_ub=a_ub.tocsr(), b_ub=np.zeros(2 * (b - 1) * m),
        A_eq=a_eq.tocsr(), b_eq=np.full(b, float(k)),
        bounds=[(0.0, 1.0)] * (b * m) + [(0.0, None)] * ((b - 1) * m),
        method="highs",
    )
    if res.status != 0:
        raise AssertionError(f"W-block LP failed: {res.message}")
    return float(res.fun)


# The Viterbi pass below holds two (V, V) float arrays for V edge sets per
# window; C(15, 5) = 3003, every 5-edge graph on 6 nodes, is the largest case
# it is meant for, and this bound keeps those near 150 MB.
MAX_EDGE_SETS = 3003


def global_optimum(y_windows, k, gamma, eta, alpha):
    """Exact minimum of the model objective over both X and W.

    For fixed signals the W-block has a 0/1 minimiser when K is an integer,
    so the optimum is a sequence of K-edge sets S_1, ..., S_b.  At a fixed set
    the best X_t is A_S^-1 Y_t, with A_S = I + gamma*L_S - eta*D_S, which
    leaves the window cost h_t(S) = ||Y_t||^2 - tr(Y_t^T A_S^-1 Y_t);
    consecutive sets add alpha*|S_t symmetric-difference S_{t+1}|.  A Viterbi
    pass over that chain finds the best sequence; every h_t comes from one
    batched inverse of the A_S.

    Returns (value, w_seq), w_seq the (b, m) 0/1 edge vectors in row-major
    upper-triangular order.  ValueError unless K is an integer in [1, m], the
    C(m, K) sets number at most MAX_EDGE_SETS, and eta*(n-1) < 1 (which keeps
    every A_S positive definite).
    """
    y_windows = np.asarray(y_windows, dtype=np.float64)
    b, n, _ = y_windows.shape
    i_idx, j_idx = np.array(list(itertools.combinations(range(n), 2))).T
    m = i_idx.size
    if k != int(k) or not 1 <= k <= m:
        raise ValueError(f"k must be an integer in [1, {m}], got {k}")
    k = int(k)
    n_sets = math.comb(m, k)
    if n_sets > MAX_EDGE_SETS:
        raise ValueError(f"C({m}, {k}) = {n_sets} edge sets exceed {MAX_EDGE_SETS}")
    if eta * (n - 1) >= 1.0:
        raise ValueError(f"eta*(n-1) must be below 1, got {eta * (n - 1)}")
    sets = np.zeros((n_sets, m))
    for row, edges in enumerate(itertools.combinations(range(m), k)):
        sets[row, list(edges)] = 1.0
    adj = np.zeros((n_sets, n, n))
    adj[:, i_idx, j_idx] = adj[:, j_idx, i_idx] = sets
    system = -gamma * adj
    diag = np.arange(n)
    system[:, diag, diag] += 1.0 + (gamma - eta) * adj.sum(axis=2)
    cov = np.einsum("tis,tjs->tij", y_windows, y_windows)  # Y_t Y_t^T
    h = np.einsum("tii->t", cov)[:, np.newaxis] - np.einsum(
        "vij,tji->tv", np.linalg.inv(system), cov
    )

    # alpha*|S symmetric-difference S'| = -2*alpha*(|S intersect S'| - K)
    coupling = sets @ sets.T
    coupling -= k
    coupling *= -2.0 * alpha
    cost = h[0]
    back = np.empty((b - 1, n_sets), dtype=np.intp)
    for t in range(1, b):
        total = coupling + cost[:, np.newaxis]  # (previous set, current set)
        back[t - 1] = total.argmin(axis=0)
        cost = total[back[t - 1], np.arange(n_sets)] + h[t]
    path = [int(cost.argmin())]
    for t in range(b - 2, -1, -1):
        path.append(int(back[t, path[-1]]))
    return float(cost.min()), sets[path[::-1]]


def step_per_window(state, y_windows, cfg):
    """One solver iteration with a gradient step and a projection per window.

    The solver's ``step`` from before it built the gradient and projected
    the whole (b, m) stack in one call each.  The gradient comes from
    :func:`grad_w_window`; the other layers are the library's per-window
    calls.  Unset steps are sized here, from the per-window gradients, by
    the rule the solver documents.
    """
    from tvglearn.errors import DivergenceError
    from tvglearn.graphs import objective
    from tvglearn.projection import project_capped_simplex
    from tvglearn.proximal import prox_l1_linear
    from tvglearn.solver import C1, C2, SolverState, update_x

    b = len(state.w)
    x_new = np.empty_like(state.x)
    for t in range(b):
        x_new[t] = update_x(y_windows[t], state.w[t], cfg.gamma, cfg.eta, window=t)

    grads = [grad_w_window(x_new, state.beta, t, cfg.gamma, cfg.eta) for t in range(b)]
    if state.steps is not None:
        tau1, tau2 = state.steps
    else:
        spread = np.mean([g.max() - g.min() for g in grads])
        if not (0.0 < spread < np.inf and np.isfinite(C1 / spread)):
            spread = 1.0
        tau1 = C1 / spread if cfg.tau1 is None else cfg.tau1
        tau2 = min(C2 * spread, 1.0 / cfg.lam) if cfg.tau2 is None else cfg.tau2
    grads = [g - g.min() for g in grads]  # each row's kappa absorbs its offset
    w_new = np.empty_like(state.w)
    kappa = np.empty(b)
    for t in range(b):
        raw = state.w[t] - tau1 * grads[t]
        start = None if state.kappa is None else state.kappa[t]
        proj = project_capped_simplex(raw, cfg.k_budget, start=start)
        w_new[t] = proj.projected
        kappa[t] = proj.kappa

    if b > 1:
        diff = w_new[:-1] - w_new[1:]
        z_new = prox_l1_linear(diff, cfg.alpha, state.beta, cfg.lam)
        beta_new = state.beta + tau2 * (z_new - diff)
    else:
        z_new = state.z.copy()
        beta_new = state.beta.copy()

    obj = objective(
        y_windows, x_new, w_new, gamma=cfg.gamma, eta=cfg.eta, alpha=cfg.alpha
    )
    if not np.isfinite(obj):
        raise DivergenceError(
            f"objective became non-finite at iteration {state.iteration + 1}"
        )

    return SolverState(
        x=x_new,
        w=w_new,
        z=z_new,
        beta=beta_new,
        iteration=state.iteration + 1,
        objective=obj,
        residual=max((float(np.abs(z_new[t] - w_new[t] + w_new[t + 1]).max())
                      for t in range(b - 1)), default=0.0),
        kappa=kappa,
        steps=(tau1, tau2),
    )


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
