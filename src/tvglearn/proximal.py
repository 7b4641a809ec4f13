"""Closed-form proximal operator for f(z) = alpha*||z||_1 + <beta, z>."""

from __future__ import annotations

import numpy as np

from .errors import check_finite

__all__ = ["prox_l1_linear"]


_CHUNK = 8192  # scratch entries per pass of the in-place threshold (64 KiB)


def prox_l1_linear(v, alpha: float, beta, lam: float):
    """prox_{lam*f}(v) for f(z) = alpha*||z||_1 + <beta, z>.

    The linear term shifts the argument, after which the l1 part separates
    into per-coordinate soft thresholding:

        prox(v) = soft(v - lam*beta, lam*alpha)

    Exact in closed form; no inner iteration.  With ``beta = 0`` and
    ``lam = 1`` it is the soft threshold sign(v) * max(|v| - alpha, 0).

    The threshold is evaluated as the shifted argument minus its clip to
    [-lam*alpha, lam*alpha]: the same values up to the sign of zeros (every
    zeroed entry is +0.0).  The shift and its threshold share one new
    buffer, and the clip goes through a scratch of at most _CHUNK entries;
    ``v`` and ``beta`` are not written.
    """
    check_finite("lam", lam, positive=True)
    check_finite("alpha", alpha)
    v = np.asarray(v, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != v.shape:
        raise ValueError(f"beta shape {beta.shape} does not match v {v.shape}")
    s = lam * alpha
    check_finite("lam * alpha", s)
    out = np.empty(v.shape)  # C-ordered, so its flat view is the buffer itself
    np.multiply(beta, lam, out=out)
    np.subtract(v, out, out=out)
    flat = out.reshape(-1)
    clip = np.empty(min(flat.size, _CHUNK))
    for start in range(0, flat.size, _CHUNK):
        part = flat[start : start + _CHUNK]
        part_clip = clip[: part.size]
        np.maximum(part, -s, out=part_clip)
        np.minimum(part_clip, s, out=part_clip)
        np.subtract(part, part_clip, out=part)
    return out[()]  # a scalar for a scalar ``v``, as a ufunc returns
