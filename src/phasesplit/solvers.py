"""Alternating gradient descent on the split loss, and the Wirtinger-flow
baseline on the quartic loss.

One alternating round is a gradient step in x followed by a gradient step in
y *at the updated x* (Gauss-Seidel ordering), so a round costs two iterations
when budgets are matched against the single-variable flow. Steps follow either
the ramped schedule min(1 - e^{-tau/tau0}, mu_max) divided by ||z0||^2, or an
exact line search using the one-block quadratic form, which is exact because
the split loss is quadratic in each variable separately.

Scheduled steps multiply the plain Wirtinger derivative (d/d conjugate), the
normalization under which the flow baseline's step sizes are conventionally
quoted; that is half of the gradients exported by :mod:`.objective` for the
split loss and a quarter for the quartic loss, whose value is twice the
conventional half-squared misfit. Line-search steps are invariant to this
choice since the step is computed for the ray actually used.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import l2_norm, relative_error
# adjoint is unused here but stays a module attribute: instrumentation
# (phasebench/tracer.py) patches forward and adjoint in every namespace
from .measurement import Ensemble, adjoint, check_intensities, forward, upper_frame_bound  # noqa: F401
from .objective import (
    Residuals,
    residuals,
    split_grad_x,
    split_grad_y,
    split_loss,
    split_quad_form,
    wf_grad,
    wf_loss,
    wf_quad_form,
    wf_residuals,
)

__all__ = [
    "Schedules",
    "SolverConfig",
    "TraceRow",
    "SolveResult",
    "step_schedule",
    "coupling_schedule",
    "fixed_step",
    "altmin_solve",
    "wf_solve",
    "trace_to_csv",
    "TRACE_CSV_HEADER",
]


@dataclass(frozen=True)
class Schedules:
    """Step ramp and coupling decay controlling one solver run.

    step at round tau:      min(1 - e^{-tau/tau0}, mu_max), divided by
                            ||z0||^2 when step_scaling == "by_theta_squared"
    coupling at round tau:  lam0 * e^{-lam_decay * tau}
    """

    tau0: float
    mu_max: float  # in (0, 1]: the ramp never exceeds 1
    lam0: float = 0.0
    lam_decay: float = 0.0
    step_scaling: str = "by_theta_squared"  # or "raw"

    def __post_init__(self):
        if not np.all(np.isfinite([self.tau0, self.mu_max, self.lam0, self.lam_decay])):
            raise ValueError("tau0, mu_max, lam0 and lam_decay must be finite")
        if self.tau0 <= 0 or self.mu_max <= 0:
            raise ValueError("tau0 and mu_max must be positive")
        if self.mu_max > 1:
            raise ValueError(f"mu_max {self.mu_max!r} exceeds 1, which the step ramp never reaches")
        if self.lam0 < 0 or self.lam_decay < 0:
            raise ValueError("lam0 and lam_decay must be nonnegative")
        if self.step_scaling not in ("by_theta_squared", "raw"):
            raise ValueError(f"unknown step_scaling {self.step_scaling!r}")


@dataclass(frozen=True)
class SolverConfig:
    max_rounds: int
    schedules: Schedules
    mode: str = "fixed_schedule"  # or "exact_linesearch"
    stop_tolerance: float | None = None  # None: always run the full budget
    precision: str = "double"  # or "mixed": single-precision rounds down to their floor first

    def __post_init__(self):
        if not isinstance(self.max_rounds, (int, np.integer)) or self.max_rounds < 1:
            raise ValueError("max_rounds must be an integer >= 1")
        if self.mode not in ("fixed_schedule", "exact_linesearch"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.precision not in ("double", "mixed"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.precision == "mixed" and self.mode == "exact_linesearch":
            # near the switch the single-precision loss is noise as large as
            # itself, so line-search traces would no longer be monotone
            raise ValueError("mixed precision runs scheduled steps only, not exact_linesearch")
        tol = self.stop_tolerance
        if tol is not None and not (np.isfinite(tol) and tol >= 0):
            raise ValueError("stop_tolerance must be nonnegative and finite")


@dataclass
class TraceRow:
    round: int
    objective: float  # split loss E(x, y) on alternating runs, quartic loss G(z) on flow runs
    mu: float  # step size actually applied to the x (or flow) update
    lam: float
    rel_error: float | None


@dataclass
class SolveResult:
    x_final: np.ndarray
    y_final: np.ndarray
    z_final: np.ndarray  # (x + y) / 2, the reported estimate
    trace: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    rounds_used: int = 0
    diverged: bool = False


def step_schedule(tau, tau0, mu_max):
    """Ramped step size min(1 - e^{-tau/tau0}, mu_max)."""
    return min(1.0 - np.exp(-tau / tau0), mu_max)


def coupling_schedule(tau, lam0, lam_decay):
    """Exponentially decaying proximity weight lam0 * e^{-lam_decay * tau}."""
    return lam0 * np.exp(-lam_decay * tau)


def fixed_step(e, z0, lam):
    """The constant step 1/(3 ((C/N) max_n |f_n^* z0|^2 + lam)).

    C is the upper frame bound. Alternating rounds at this step with the
    coupling held at ``lam`` decrease the split loss monotonically from z0.
    """
    curvature = (upper_frame_bound(e) / e.N) * float(np.max(np.abs(forward(e, z0)) ** 2)) + lam
    return 1.0 / (3.0 * curvature)


def _step_scale(schedules, z0):
    if schedules.step_scaling == "raw":
        return 1.0
    scale = l2_norm(z0) ** 2
    if scale == 0.0:
        raise ValueError("steps scale by ||z0||^2, so z0 must be nonzero")
    return scale


def _linesearch_step(sq_grad_norm, quad_form_value):
    # argmin of the exact one-block quadratic model; 0 at a critical point
    if sq_grad_norm == 0.0 or quad_form_value == 0.0:
        return 0.0
    return sq_grad_norm / (2.0 * quad_form_value)


# A single-precision loss bottoms out near eps32^2 mean(b^2) (1.4-1.6e-14 of
# mean(b^2) at d = 128). Ten times that is where its rounds still descend
# like double precision's and the switch lands near relative error 1e-6.
_KAPPA = 10.0
_EPS32 = float(np.finfo(np.float32).eps)
# float32 must hold the squares of residuals up to 1e3 times the largest intensity
_HEADROOM = 1e6
_SINGLE = {"c": np.complex64, "f": np.float32}
_DOUBLE = {"c": np.complex128, "f": np.float64}


def _single_floor(e, b):
    """The loss at which a mixed solve leaves single precision, or None when
    it runs in double precision throughout: on CDP ensembles, whose
    complex64 FFTs are no faster, and where float32 cannot hold the squared
    residuals."""
    if e.masks is None:
        f32 = np.finfo(np.float32)
        peak = float(np.max(b))
        level = _KAPPA * _EPS32**2 * float(np.mean(np.square(b)))
        if peak <= math.sqrt(f32.max / _HEADROOM) and level >= f32.tiny:
            return level
    return None


def _cast(arrays, table):
    """Copies of ``arrays`` at the precision ``table`` maps each kind to; None stays None."""
    return [None if a is None else a.astype(table[a.dtype.kind]) for a in arrays]


class _Precision:
    """When a mixed solve changes precision, read off the last round's loss.

    After row 0 the rounds go down to single precision unless the loss is
    already at ``level`` (None: never); once it reaches it they come back to
    double precision for good. A change casts the round's arrays, keeping
    their values, so it costs no matvec.
    """

    def __init__(self, e, b, level):
        self.e, self.b, self.level = e, b, level
        self.single = None  # the single-precision ensemble, once built

    def due(self, value):
        """Whether the round after one that ended at loss ``value`` changes precision."""
        if self.level is None:
            return False
        if self.single is None:  # row 0
            if value > self.level:
                return True
            self.level = None  # the start is already at the floor
            return False
        return value <= self.level

    def cast(self, arrays):
        """(ensemble, intensities, arrays) for the next round."""
        if self.single is None:
            self.single = Ensemble(frame=self.e.frame.astype(_SINGLE[self.e.frame.dtype.kind]))
            return self.single, self.b.astype(_SINGLE[self.b.dtype.kind]), _cast(arrays, _SINGLE)
        self.level = None
        return self.e, self.b, _cast(arrays, _DOUBLE)


def _alt_rounds(e, b, z, cfg, scale, level):
    """Alternating rounds from x = y = z (4 matvecs each, 6 with line search)."""
    sched = cfg.schedules
    x, y = z, z.copy()
    gx, gy, update, mid, diff = (np.empty_like(z) for _ in range(5))
    r, fx, fy, weights = (np.empty(e.N, z.dtype) for _ in range(4))
    b = b.astype(z.dtype)  # cast once here rather than by every r - b: the same values
    res = residuals(e, x, y, b, out=Residuals(r, fx, fy, weights, np.empty(e.N), np.empty(e.N), diff))
    lam = coupling_schedule(1, sched.lam0, sched.lam_decay)
    value = split_loss(e, x, y, b, lam, res=res)
    yield TraceRow(0, value, 0.0, lam, None)
    precision = _Precision(e, b, level)
    for tau in itertools.count(1):
        if precision.due(value):
            e, b, (x, y, gx, gy, update, mid, *parts) = precision.cast((x, y, gx, gy, update, mid, *vars(res).values()))
            res = Residuals(*parts)
        lam = coupling_schedule(tau, sched.lam0, sched.lam_decay)
        split_grad_x(e, res, x, y, lam, out=gx)
        if cfg.mode == "exact_linesearch":
            q = split_quad_form(e, y, gx, lam, f_anchor=res.fy)
            alpha = _linesearch_step(l2_norm(gx) ** 2, q)
        else:
            # mu multiplies the Wirtinger derivative = gx / 2
            alpha = beta = step_schedule(tau, sched.tau0, sched.mu_max) / (2.0 * scale)
        np.subtract(x, np.multiply(alpha, gx, update), x)
        residuals(e, x, y, b, fy=res.fy, out=res)
        split_grad_y(e, res, x, y, lam, out=gy)
        if cfg.mode == "exact_linesearch":
            q = split_quad_form(e, x, gy, lam, f_anchor=res.fx)
            beta = _linesearch_step(l2_norm(gy) ** 2, q)
        np.subtract(y, np.multiply(beta, gy, update), y)
        residuals(e, x, y, b, fx=res.fx, out=res)
        value = split_loss(e, x, y, b, lam, res=res)
        np.divide(np.add(x, y, mid), 2.0, mid)
        yield TraceRow(tau, value, alpha, lam, None), (gx, gy), (x, y, mid)


def _wf_rounds(e, b, z, cfg, scale, level):
    """Flow iterations from z (2 matvecs each, 3 with line search)."""
    sched = cfg.schedules
    g, update = np.empty_like(z), np.empty_like(z)
    res = Residuals(np.empty(e.N), np.empty(e.N, z.dtype), None, np.empty(e.N, z.dtype), np.empty(e.N))
    wf_residuals(e, z, b, out=res)
    value = wf_loss(e, z, b, res=res)
    yield TraceRow(0, value, 0.0, 0.0, None)
    precision = _Precision(e, b, level)
    for tau in itertools.count(1):
        if precision.due(value):
            e, b, (z, g, update, *parts) = precision.cast((z, g, update, *vars(res).values()))
            res = Residuals(*parts)
        wf_grad(e, z, b, res=res, out=g)
        if cfg.mode == "exact_linesearch":
            # step ||g||^2 / q, the minimizer of the flow's curvature model along g
            delta = _linesearch_step(l2_norm(g) ** 2, wf_quad_form(e, z, g, fz=res.fx) / 2.0)
        else:
            # mu multiplies the reference-convention derivative = g / 4
            delta = step_schedule(tau, sched.tau0, sched.mu_max) / (4.0 * scale)
        np.subtract(z, np.multiply(delta, g, update), z)
        wf_residuals(e, z, b, out=res)
        value = wf_loss(e, z, b, res=res)
        yield TraceRow(tau, value, delta, 0.0, None), (g,), (z, z, z)


def _solve(e, b, z0, cfg, truth, rounds):
    """The loop both solvers share: trace, divergence flag and stop rule.

    ``rounds(e, b, z, cfg, scale, level)`` yields the trace row of the start,
    then per round its row, the gradients it took and the (x, y, estimate) it
    reached; rows come without their error, which is filled in here. Under
    mixed precision ``level`` is the loss at which single-precision rounds
    end (None: double precision throughout).
    """
    b = check_intensities(e, b)
    z0 = np.asarray(z0)
    if not np.all(np.isfinite(z0)):
        raise ValueError("z0 must be finite")
    if truth is not None and not np.all(np.isfinite(truth)):
        raise ValueError("truth must be finite")
    if not e.is_complex and np.any(np.imag(z0)):
        raise ValueError("z0 has a nonzero imaginary part, but the frame is real")
    if e.maybe_rank_deficient:
        warnings.warn(
            f"frame has N={e.N} < d={e.d}; the split loss is not coercive "
            "for rank-deficient frames and the solver may not converge",
            stacklevel=3,
        )
    z = (z0 if e.is_complex else z0.real).astype(complex if e.is_complex else float, copy=True)
    level = _single_floor(e, b) if cfg.precision == "mixed" else None
    steps = rounds(e, b, z, cfg, _step_scale(cfg.schedules, z0), level)

    def rel(zv):
        return None if truth is None else relative_error(truth, zv)

    trace = [next(steps)]
    trace[0].rel_error = rel(z0)
    converged = False
    diverged = False
    rounds_used = 0

    # overflow here means divergence, which is reported via the flag
    with np.errstate(over="ignore", invalid="ignore"):
        for tau, (row, grads, (x, y, z)) in zip(range(1, cfg.max_rounds + 1), steps):
            rounds_used = tau
            if not math.isfinite(row.objective):
                diverged = True
                break
            row.rel_error = rel(z)
            trace.append(row)

            if cfg.stop_tolerance is not None:
                if truth is not None:
                    if row.rel_error <= cfg.stop_tolerance:
                        converged = True
                        break
                elif max(l2_norm(g) for g in grads) <= cfg.stop_tolerance:
                    converged = True
                    break

    if z.dtype != _DOUBLE[z.dtype.kind]:  # stopped in single precision: cast each array once
        double = {id(a): a.astype(_DOUBLE[a.dtype.kind]) for a in (x, y, z)}
        x, y, z = (double[id(a)] for a in (x, y, z))
    return SolveResult(
        x_final=x,
        y_final=y,
        z_final=z,
        trace=trace,
        converged=converged,
        rounds_used=rounds_used,
        diverged=diverged,
    )


def altmin_solve(e, b, z0, cfg, truth=None):
    """Run the alternating solver from x0 = y0 = z0.

    The trace records the split objective after every round (row 0 holds the
    starting point). A non-finite objective aborts the run with the
    ``diverged`` flag set instead of raising.
    """
    return _solve(e, b, z0, cfg, truth, _alt_rounds)


def wf_solve(e, b, z0, cfg, truth=None):
    """Gradient flow on the quartic loss; ``cfg.max_rounds`` counts iterations.

    Matched-budget comparisons give the flow twice the alternating round
    count, since each alternating round performs two block updates.
    """
    return _solve(e, b, z0, cfg, truth, _wf_rounds)


TRACE_CSV_HEADER = "round,objective,mu,lambda,rel_error"


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def trace_to_csv(result):
    """Serialize a solve trace; identical runs produce identical bytes."""
    lines = [TRACE_CSV_HEADER]
    for row in result.trace:
        lines.append(
            f"{row.round},{_fmt(row.objective)},{_fmt(row.mu)},{_fmt(row.lam)},{_fmt(row.rel_error)}"
        )
    return "\n".join(lines) + "\n"
