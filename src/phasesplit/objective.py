"""Objectives and Wirtinger gradients for the split and quartic formulations.

The split loss couples two copies of the unknown through a bilinear residual
r_n = (f_n^* x)^conj (f_n^* y) - b_n plus a proximity penalty lam*||x - y||^2;
it is quadratic in each variable separately. The quartic loss is the classic
intensity least squares driven by Wirtinger flow. Gradients follow the
convention grad = 2 d/d(conjugate), so real inputs reproduce ordinary
gradients and the closed-form step sizes below hold verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import l2_norm
from .measurement import adjoint, forward

__all__ = [
    "Residuals",
    "residuals",
    "wf_residuals",
    "split_loss",
    "split_grad",
    "split_grad_x",
    "split_grad_y",
    "wf_loss",
    "wf_grad",
    "split_quad_form",
    "wf_quad_form",
]


@dataclass
class Residuals:
    """Forward products and the residual at a point, plus scratch arrays that the
    formulas reading them write into (None: numpy allocates; a solve allocates all once).
    Those formulas pass ufunc outputs positionally: an out= keyword costs ~0.2 us a call."""

    r: np.ndarray | None
    fx: np.ndarray | None
    fy: np.ndarray | None
    weights: np.ndarray | None = None  # N: a gradient's adjoint input
    sq: np.ndarray | None = None  # N, real: the squared terms of a loss
    sq2: np.ndarray | None = None
    diff: np.ndarray | None = None  # d: a difference of the split iterates


def _check_pair(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"split point dimensions differ: {x.shape} vs {y.shape}")
    return x, y


def _check_lam(lam):
    # validates without coercing: the solvers pass numpy lams from
    # coupling_schedule, and the losses they record keep that scalar type
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return lam


def residuals(e, x, y, b, fx=None, fy=None, out=None):
    """r_n = conj(f_n^* x) (f_n^* y) - b_n with the forwards cached; refills ``out``."""
    x, y = _check_pair(x, y)
    res = Residuals(None, None, None) if out is None else out
    res.fx = forward(e, x, res.fx) if fx is None else fx
    res.fy = forward(e, y, res.fy) if fy is None else fy
    r = res.r = np.conj(res.fx, res.r)
    np.subtract(np.multiply(r, res.fy, r), b, r)
    return res


def wf_residuals(e, z, b, fz=None, out=None):
    """r_n = |f_n^* z|^2 - b_n with fx = fy = f^* z cached (``fz`` if given), read by wf_loss and wf_grad."""
    res = Residuals(None, None, None) if out is None else out
    res.fx = res.fy = fz = forward(e, z, res.fx) if fz is None else fz
    r = res.r = np.square(fz.real, res.r)
    np.subtract(np.add(r, np.square(fz.imag, res.sq), r), b, r)
    return res


def split_loss(e, x, y, b, lam, res=None):
    """(1/N) sum_n |conj(f_n^* x)(f_n^* y) - b_n|^2 + lam ||x - y||^2."""
    lam = _check_lam(lam)
    x, y = _check_pair(x, y)
    if res is None:
        res = residuals(e, x, y, b)
    sq = np.square(res.r.real, res.sq)
    data = float(np.add(sq, np.square(res.r.imag, res.sq2), sq).sum()) / e.N
    return data + lam * l2_norm(np.subtract(x, y, res.diff)) ** 2


def _block_grad(e, res, weights, a, c, lam, out):
    # (2/N) F weights + (2 lam)(a - c), one operation at a time in this order
    g = np.multiply(2.0 / e.N, adjoint(e, weights, out), out)
    diff = np.multiply(2.0 * lam, np.subtract(a, c, res.diff), res.diff)
    return np.add(g, diff, g)


def split_grad_x(e, res, x, y, lam, out=None):
    """Gradient of the split loss in x at fixed y, from cached residuals."""
    weights = np.multiply(np.conj(res.r, res.weights), res.fy, res.weights)
    return _block_grad(e, res, weights, x, y, lam, out)


def split_grad_y(e, res, x, y, lam, out=None):
    """Gradient of the split loss in y at fixed x, from cached residuals."""
    return _block_grad(e, res, np.multiply(res.r, res.fx, res.weights), y, x, lam, out)


def split_grad(e, x, y, b, lam):
    """Both block gradients of the split loss at (x, y)."""
    lam = _check_lam(lam)
    x, y = _check_pair(x, y)
    res = residuals(e, x, y, b)
    return split_grad_x(e, res, x, y, lam), split_grad_y(e, res, x, y, lam)


def wf_loss(e, z, b, res=None):
    """(1/N) sum_n (|f_n^* z|^2 - b_n)^2."""
    res = wf_residuals(e, z, b) if res is None else res
    return float(np.multiply(res.r, res.r, res.sq).sum()) / e.N


def wf_grad(e, z, b, res=None, out=None):
    """(4/N) sum_n (|f_n^* z|^2 - b_n) f_n (f_n^* z)."""
    res = wf_residuals(e, z, b) if res is None else res
    return np.multiply(4.0 / e.N, adjoint(e, np.multiply(res.r, res.fx, res.weights), out), out)


def split_quad_form(e, anchor, v, lam, f_anchor=None):
    """v^* H v for the one-block curvature H of the split loss.

    H = (1/N) sum_n |f_n^* anchor|^2 f_n f_n^* + lam I, evaluated matrix-free
    as (1/N)||conj(f_anchor) . f_v||^2 + lam ||v||^2. The x-update uses
    anchor = y (and the y-update anchor = x).
    """
    lam = _check_lam(lam)
    if f_anchor is None:
        f_anchor = forward(e, anchor)
    fv = forward(e, v)
    val = float(((f_anchor.real**2 + f_anchor.imag**2) * (fv.real**2 + fv.imag**2)).sum()) / e.N
    if lam != 0.0:
        val += lam * l2_norm(v) ** 2
    return val


def wf_quad_form(e, z, v, fz=None):
    """Quadratic form of the quartic loss's near-solution curvature model.

    Re(v^* H11 v) + Re(v^T H21 v) with H11 = (4/N) sum |f^* z|^2 f f^* and
    H21 = (2/N) sum conj(f f^* z) z^* f f^*; in the real case this reduces to
    (6/N) sum (f^T z)^2 (f^T v)^2. Used by the locally optimal flow step and
    the step-size speedup diagnostic.
    """
    if fz is None:
        fz = forward(e, z)
    fv = forward(e, v)
    abs_fz2 = fz.real**2 + fz.imag**2
    abs_fv2 = fv.real**2 + fv.imag**2
    h11 = 4.0 * float((abs_fz2 * abs_fv2).sum())
    h21 = 2.0 * float((np.conj(fz) ** 2 * fv**2).real.sum())
    return (h11 + h21) / e.N
