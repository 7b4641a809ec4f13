"""Closed-form proximal operator for f(z) = alpha*||z||_1 + <beta, z>."""

from __future__ import annotations

import numpy as np

from .errors import check_finite

__all__ = ["soft_threshold", "prox_l1_linear"]


def soft_threshold(a, s):
    """Shrink ``a`` toward zero by ``s >= 0``: sign(a) * max(|a| - s, 0).

    Evaluated as a minus its clip to [-s, s]: the same values up to the sign
    of zeros, in three array passes over one new buffer; ``a`` is not
    written.
    """
    check_finite("threshold s", s)
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)  # an array even for a scalar ``a``, so out= works
    np.maximum(a, -s, out=out)
    np.minimum(out, s, out=out)
    np.subtract(a, out, out=out)
    return out[()]  # a scalar for a scalar ``a``, as a ufunc returns


def prox_l1_linear(v, alpha: float, beta, lam: float):
    """prox_{lam*f}(v) for f(z) = alpha*||z||_1 + <beta, z>.

    The linear term shifts the argument, after which the l1 part separates
    into per-coordinate soft thresholding:

        prox(v) = soft(v - lam*beta, lam*alpha)

    Exact in closed form; no inner iteration.
    """
    check_finite("lam", lam, positive=True)
    check_finite("alpha", alpha)
    v = np.asarray(v, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != v.shape:
        raise ValueError(f"beta shape {beta.shape} does not match v {v.shape}")
    shifted = np.empty_like(v)  # the one buffer; v and beta are not written
    np.multiply(beta, lam, out=shifted)
    np.subtract(v, shifted, out=shifted)
    return soft_threshold(shifted, lam * alpha)
