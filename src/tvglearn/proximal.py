"""Closed-form proximal operator for f(z) = alpha*||z||_1 + <beta, z>."""

from __future__ import annotations

import numpy as np

from .errors import check_finite

__all__ = ["soft_threshold", "prox_l1_linear"]


_CHUNK = 8192  # scratch entries per pass of the in-place threshold (64 KiB)


def soft_threshold(a, s):
    """Shrink ``a`` toward zero by ``s >= 0``: sign(a) * max(|a| - s, 0).

    Evaluated as a minus its clip to [-s, s]: the same values up to the sign
    of zeros (every zeroed entry is +0.0), in one new buffer; ``a`` is not
    written.
    """
    check_finite("threshold s", s)
    # a C-ordered copy, so that its flat view is the buffer itself; an
    # array even for a scalar ``a``
    out = np.array(a, dtype=np.float64, order="C")
    _shrink(out, s)
    return out[()]  # a scalar for a scalar ``a``, as a ufunc returns


def _shrink(buf, s):
    """Soft-threshold the C-ordered ``buf`` in place: buf - clip(buf, -s, s).

    The clip goes through a scratch of at most _CHUNK entries, so the
    threshold adds no buffer the size of ``buf``.
    """
    flat = buf.reshape(-1)  # a view: buf is C-ordered
    clip = np.empty(min(flat.size, _CHUNK))
    for start in range(0, flat.size, _CHUNK):
        part = flat[start : start + _CHUNK]
        part_clip = clip[: part.size]
        np.maximum(part, -s, out=part_clip)
        np.minimum(part_clip, s, out=part_clip)
        np.subtract(part, part_clip, out=part)


def prox_l1_linear(v, alpha: float, beta, lam: float):
    """prox_{lam*f}(v) for f(z) = alpha*||z||_1 + <beta, z>.

    The linear term shifts the argument, after which the l1 part separates
    into per-coordinate soft thresholding:

        prox(v) = soft(v - lam*beta, lam*alpha)

    Exact in closed form; no inner iteration.  The shift and its threshold
    share one new buffer; ``v`` and ``beta`` are not written.
    """
    check_finite("lam", lam, positive=True)
    check_finite("alpha", alpha)
    v = np.asarray(v, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != v.shape:
        raise ValueError(f"beta shape {beta.shape} does not match v {v.shape}")
    threshold = lam * alpha
    check_finite("threshold s", threshold)
    out = np.empty(v.shape)  # C-ordered, as _shrink needs
    np.multiply(beta, lam, out=out)
    np.subtract(v, out, out=out)
    _shrink(out, threshold)
    return out[()]
