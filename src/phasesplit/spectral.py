"""Spectral initialization: scaled leading eigenvector of the data covariance.

The start point for both solvers is the top eigenvector of
Y = (1/N) sum_n b_n f_n f_n^*, found by power iteration and rescaled so its
norm matches the energy estimate theta^2 = d * sum(b) / sum ||f_n||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_count, l2_norm
from .measurement import adjoint, check_intensities, forward, random_vector, sum_column_norms_sq

__all__ = ["InitResult", "apply_spectral_matrix", "power_iteration", "spectral_init"]


@dataclass
class InitResult:
    z0: np.ndarray
    theta: float
    rayleigh_trace: np.ndarray


def apply_spectral_matrix(e, b, v):
    """Matrix-free Y v = (1/N) sum_n b_n f_n (f_n^* v)."""
    return adjoint(e, b * forward(e, v)) / e.N


def power_iteration(apply, v, iters):
    """Power iteration ``v -> apply(v) / ||apply(v)||`` from ``v``, normalized first.

    Returns the Rayleigh quotients v^* apply(v), one per application, and
    the last unit iterate. Stops early when ``apply(v)`` vanishes: its
    quotient is then 0 and ``v`` is kept.
    """
    check_count(iters, "iters")
    v = v / l2_norm(v)
    rayleigh = []
    for _ in range(iters):
        w = apply(v)
        rayleigh.append(float(np.real(np.vdot(v, w))))
        nrm = l2_norm(w)
        if nrm == 0.0:
            break
        v = w / nrm
    return rayleigh, v


def spectral_init(e, b, iters=50, *, rng):
    """Power iteration on the data covariance, scaled to norm theta.

    ``rng`` draws the random start vector; the caller seeds it.
    """
    b = check_intensities(e, b)
    if not np.any(b > 0):
        raise ValueError("all-zero intensities carry no direction information")
    rayleigh, v = power_iteration(lambda u: apply_spectral_matrix(e, b, u), random_vector(e, rng), iters)
    theta = float(np.sqrt(e.d * float(np.sum(b)) / sum_column_norms_sq(e)))
    return InitResult(
        z0=theta * v,
        theta=theta,
        rayleigh_trace=np.array(rayleigh),
    )
