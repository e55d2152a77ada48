"""Verification instruments for the operators, gradients and solvers.

Everything here is an independent check of some other module: finite
differences against the analytic gradients, the frame-bound inequality on
random rank-one matrices, an exact rank-two nuclear distance, a trace
monotonicity audit, and the predicted one-step decrease ratio between the
two solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_count, l2_norm, rng_stream
from .measurement import as_field_signal, forward, frame_top_eigenpair, measure, random_vector
from .objective import (
    split_grad,
    split_loss,
    split_quad_form,
    wf_grad,
    wf_loss,
    wf_quad_form,
)

__all__ = [
    "fd_gradient_check",
    "FrameBoundReport",
    "frame_bound_check",
    "nuclear_dist_rank2",
    "SpeedupReport",
    "speedup_diagnostic",
    "monotonicity_audit",
]


def _fd_directions(dim, complex_mode, rng):
    dirs = []
    for _ in range(20):
        v = rng.standard_normal(dim)
        v /= l2_norm(v)
        dirs.append(v.astype(complex) if complex_mode else v)
    if complex_mode:
        dirs.extend([1j * v for v in list(dirs)])
    return dirs


def fd_gradient_check(kind, e, point, b, lam=0.0, h=1e-5, rng=None):
    """Max deviation between analytic and central-difference derivatives.

    ``kind`` selects the gradient under test: "split_x", "split_y" or "wf".
    Directional derivatives are compared along 20 random real directions
    (plus 20 imaginary ones for complex signals); the deviation is relative
    where the derivatives are O(1) or larger and absolute near a critical
    point. A NaN deviation makes the result NaN.
    """
    if not 0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    if rng is None:
        rng = rng_stream(0, 0xFD)

    if kind == "wf":
        z = np.asarray(point)
        grad = wf_grad(e, z, b)

        def value(v):
            return wf_loss(e, v, b)

        base = z
    elif kind in ("split_x", "split_y"):
        x, y = (np.asarray(point[0]), np.asarray(point[1]))
        gx, gy = split_grad(e, x, y, b, lam)
        if kind == "split_x":
            grad, base = gx, x

            def value(v):
                return split_loss(e, v, y, b, lam)

        else:
            grad, base = gy, y

            def value(v):
                return split_loss(e, x, v, b, lam)

    else:
        raise ValueError(f"unknown gradient kind {kind!r}")

    complex_mode = np.iscomplexobj(base)
    deviations = []
    for direction in _fd_directions(base.shape[0], complex_mode, rng):
        numeric = (value(base + h * direction) - value(base - h * direction)) / (2.0 * h)
        analytic = float(np.real(np.vdot(grad, direction)))
        deviations.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0))
    return float(np.max(deviations))


@dataclass
class FrameBoundReport:
    bound: float  # largest eigenvalue of F F^*
    worst_slack: float  # max over trials of lhs - bound*||u|| ||v|| (<= 0 when ok; NaN if any is)
    violations: int  # trials where the slack was not <= 1e-8 (NaN counts)
    equality_gap: float  # relative gap at the top eigenvector (tight case)


def frame_bound_check(e, trials, rng=None):
    """Check sum_n |f_n^* u||f_n^* v| <= C ||u|| ||v|| on random rank-one tests.

    C is the upper frame bound; the inequality is tight for u = v = top
    eigenvector of F F^*, which is verified as well.
    """
    check_count(trials, "trials")
    if rng is None:
        rng = rng_stream(0, 0xFB)
    bound, top = frame_top_eigenpair(e)

    slacks = []
    for _ in range(trials):
        u = random_vector(e, rng)
        v = random_vector(e, rng)
        lhs = float(np.sum(np.abs(forward(e, u)) * np.abs(forward(e, v))))
        slacks.append(lhs - bound * (l2_norm(u) * l2_norm(v)))
    worst = float(np.max(slacks))
    violations = sum(not slack <= 1e-8 for slack in slacks)

    tight_lhs = float(np.sum(np.abs(forward(e, top)) ** 2))  # ||top|| = 1
    equality_gap = abs(tight_lhs - bound) / bound
    return FrameBoundReport(
        bound=bound, worst_slack=worst, violations=violations, equality_gap=equality_gap
    )


def nuclear_dist_rank2(x, z):
    """Nuclear norm of z z^* - x x^*, exactly via the rank-2 reduction.

    The difference acts only on span{x, z}, so its nonzero eigenvalues are
    those of the 2x2 matrix expressed in an orthonormal basis of that span.
    """
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise ValueError("signals must have equal dimension")
    basis = np.stack([x, z], axis=1)
    _, r = np.linalg.qr(basis)
    xq, zq = r[:, 0], r[:, 1]
    small = np.outer(zq, np.conj(zq)) - np.outer(xq, np.conj(xq))
    return float(np.sum(np.abs(np.linalg.eigvalsh(small))))


@dataclass
class SpeedupReport:
    """Model-predicted one-step objective decreases near a solution."""

    predicted_E_decrease: float  # -||gx||^4 / (2 gx^* H gx): twice an exact x-step's decrease
    predicted_G_decrease: float  # -||g||^4 / (2 wf_quad_form): 4/3 of an exact flow step's on real frames
    ratio: float  # G over E prediction: (4/3) / 2 = 2/3 on real frames near x ~ y
    proximity: float


def speedup_diagnostic(e, x0, perturbation, rng=None):
    """Compare predicted per-step decreases of the two objectives.

    Evaluated at x = y = x0 + delta, delta in the frame's field with ||delta||
    = perturbation * ||x0||, exact intensities from x0 and no coupling. Both
    predictions use the near-solution quadratic models behind the optimal
    steps. On real frames the ratio nears 2/3, the product of the formulas'
    normalizations (2 for the split, 4/3 for the flow), and the exact
    one-step decreases agree; complex and CDP frames give about 0.83.
    """
    if not 0 < perturbation <= 1e-3:
        raise ValueError("perturbation must be in (0, 1e-3]")
    if rng is None:
        rng = rng_stream(0, 0x5D)
    x0 = as_field_signal(e, x0, "x0")
    delta = random_vector(e, rng)
    delta *= perturbation * l2_norm(x0) / l2_norm(delta)
    point = x0 + delta
    b = measure(e, x0)

    gx, _ = split_grad(e, point, point, b, 0.0)
    sq = l2_norm(gx) ** 2
    if sq == 0.0:
        raise ValueError("zero gradient: the point is critical, no ratio defined")
    q = split_quad_form(e, point, gx, 0.0)
    dec_split = -(sq * sq) / (2.0 * q)

    g = wf_grad(e, point, b)
    sq_g = l2_norm(g) ** 2
    wq = wf_quad_form(e, point, g)
    dec_flow = -(sq_g * sq_g) / (2.0 * wq)

    return SpeedupReport(
        predicted_E_decrease=dec_split,
        predicted_G_decrease=dec_flow,
        ratio=dec_flow / dec_split,
        proximity=l2_norm(delta) / l2_norm(x0),
    )


def monotonicity_audit(trace):
    """Scan objective values for an uptick beyond 1e-12 * (1 + |value|).

    Accepts a solve result or any sequence of objective values. Returns
    ``(ok, first_violation_index)`` with the index of the first entry that is
    not ``<=`` its allowed bound (a NaN on either side is one), or
    ``(True, None)`` for a clean trace.
    """
    if hasattr(trace, "trace"):
        values = [row.objective for row in trace.trace]
    else:
        values = list(trace)
    for i in range(1, len(values)):
        allowed = values[i - 1] + 1e-12 * (1.0 + abs(values[i - 1]))
        if not values[i] <= allowed:
            return False, i
    return True, None
