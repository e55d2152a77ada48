"""Complex-vector primitives shared by every other module.

Signals are plain 1-D numpy arrays (complex128 or float64). All randomness
flows through :func:`rng_stream`, which pins the generator to PCG64 so that a
seed reproduces the same draws byte-for-byte on every platform.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "check_count",
    "rng_stream",
    "derive_seed",
    "phase_dist",
    "best_phase",
    "relative_error",
    "l2_norm",
]


def check_count(value, name, minimum=1):
    """ValueError unless ``value`` is an integer >= ``minimum``: numpy's pass, a bool or a whole float does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, not {value!r}")


def rng_stream(seed, *key):
    """Deterministic PCG64 generator for ``seed``.

    Extra integers in ``key`` derive statistically independent substreams
    (one per trial / worker), so parallel experiments never share a stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed, *key):
    """Fold ``(seed, *key)`` into a single reproducible 64-bit child seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_same_dim(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("signals must be 1-D vectors")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x, y


def l2_norm(v):
    """np.linalg.norm(v) without its dispatch: the same dots in the same order, so the same bits."""
    v = (v if v.dtype.kind in "fc" else v.astype(float)).ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


_TINY = np.finfo(float).tiny


def _best_phase(x, y):
    ip = np.vdot(y, x)
    a = abs(ip)
    if a == 0.0:
        return 1.0 + 0.0j
    if a < _TINY:
        # numpy's complex division multiplies by 1/a, which overflows to NaN
        # when a is subnormal; the parts divided one by one stay finite
        return complex(ip.real / a, ip.imag / a)
    return ip / a


def _phase_dist(x, y):
    return l2_norm(x - _best_phase(x, y) * y)


def best_phase(x, y):
    """Unimodular c minimizing ||x - c*y||, i.e. the phase of <y, x>.

    Returns 1.0 when the inner product vanishes (every phase is equally good).
    """
    return _best_phase(*_check_same_dim(x, y))


def phase_dist(x, y):
    """min over |c|=1 of ||x - c*y||: the distance modulo global phase.

    Computed by aligning y with the optimal phase and subtracting directly.
    This is exactly the closed form sqrt(||x||^2 + ||y||^2 - 2|<x,y>|) but
    does not lose the ~sqrt(eps) digits that the closed form loses to
    cancellation, which matters when tracking errors down to 1e-15.
    """
    return _phase_dist(*_check_same_dim(x, y))


def relative_error(x_true, x_hat):
    """phase_dist(x_true, x_hat) / ||x_true||, the error modulo global phase."""
    x_true, x_hat = _check_same_dim(x_true, x_hat)
    scale = l2_norm(x_true)
    if scale == 0.0:
        raise ValueError("x_true must be nonzero")
    return _phase_dist(x_true, x_hat) / scale
