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

from .measurement import adjoint, forward

__all__ = [
    "Residuals",
    "residuals",
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
    """Cached forward products and the bilinear residual at a split point."""

    r: np.ndarray
    fx: np.ndarray
    fy: np.ndarray


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


def residuals(e, x, y, b, fx=None, fy=None):
    """r_n = conj(f_n^* x) (f_n^* y) - b_n with the forwards cached."""
    x, y = _check_pair(x, y)
    if fx is None:
        fx = forward(e, x)
    if fy is None:
        fy = forward(e, y)
    return Residuals(r=np.conj(fx) * fy - b, fx=fx, fy=fy)


def split_loss(e, x, y, b, lam, res=None):
    """(1/N) sum_n |conj(f_n^* x)(f_n^* y) - b_n|^2 + lam ||x - y||^2."""
    lam = _check_lam(lam)
    x, y = _check_pair(x, y)
    if res is None:
        res = residuals(e, x, y, b)
    data = float(np.sum(res.r.real**2 + res.r.imag**2)) / e.N
    return data + lam * float(np.linalg.norm(x - y) ** 2)


def split_grad_x(e, res, x, y, lam):
    """Gradient of the split loss in x at fixed y, from cached residuals."""
    return (2.0 / e.N) * adjoint(e, np.conj(res.r) * res.fy) + (2.0 * lam) * (x - y)


def split_grad_y(e, res, x, y, lam):
    """Gradient of the split loss in y at fixed x, from cached residuals."""
    return (2.0 / e.N) * adjoint(e, res.r * res.fx) + (2.0 * lam) * (y - x)


def split_grad(e, x, y, b, lam):
    """Both block gradients of the split loss at (x, y)."""
    lam = _check_lam(lam)
    x, y = _check_pair(x, y)
    res = residuals(e, x, y, b)
    return split_grad_x(e, res, x, y, lam), split_grad_y(e, res, x, y, lam)


def wf_loss(e, z, b, fz=None):
    """(1/N) sum_n (|f_n^* z|^2 - b_n)^2."""
    if fz is None:
        fz = forward(e, z)
    r = fz.real**2 + fz.imag**2 - b
    return float(np.sum(r * r)) / e.N


def wf_grad(e, z, b, fz=None):
    """(4/N) sum_n (|f_n^* z|^2 - b_n) f_n (f_n^* z)."""
    if fz is None:
        fz = forward(e, z)
    r = fz.real**2 + fz.imag**2 - b
    return (4.0 / e.N) * adjoint(e, r * fz)


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
    val = float(np.sum((f_anchor.real**2 + f_anchor.imag**2) * (fv.real**2 + fv.imag**2))) / e.N
    if lam != 0.0:
        val += lam * float(np.linalg.norm(v) ** 2)
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
    h11 = 4.0 * float(np.sum(abs_fz2 * abs_fv2))
    h21 = 2.0 * float(np.sum((np.conj(fz) ** 2 * fv**2).real))
    return (h11 + h21) / e.N
