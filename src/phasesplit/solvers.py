"""Alternating gradient descent on the split loss, and the Wirtinger-flow
baseline on the quartic loss.

One alternating round is a gradient step in x followed by a gradient step in
y *at the updated x* (Gauss-Seidel ordering), so a round costs two iterations
when budgets are matched against the single-variable flow. ``Schedules.step``
picks the step: the ramp min(1 - e^{-tau/tau0}, mu_max) divided by ||z0||^2,
a constant, or an exact line search using the one-block quadratic form, which
is exact because the split loss is quadratic in each variable separately.

Scheduled steps (the ramp and a constant) multiply the plain Wirtinger
derivative (d/d conjugate), the normalization under which the flow
baseline's step sizes are conventionally quoted; that is half of the
gradients exported by :mod:`.objective` for the split loss and a quarter for
the quartic loss, whose value is twice the conventional half-squared misfit.
Line-search steps are invariant to this choice since the step is computed
for the ray actually used.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
    """Step policy and coupling decay controlling one solver run.

    step None (default):    the ramp min(1 - e^{-tau/tau0}, mu_max) / ||z0||^2
    step gamma > 0:         gamma at every round, no cap and no ||z0||^2 scale
    step "exact":           the exact line search along each block gradient
    coupling at round tau:  lam0 * e^{-lam_decay * tau}

    tau0 and mu_max belong to the ramp and stay None for the other kinds. A
    constant keeps the ramp's unit, the Wirtinger derivative: it is applied
    as gamma / 2 to ``split_grad_x`` and ``split_grad_y`` and gamma / 4 to
    ``wf_grad``, so ``fixed_step``'s value is passed as it is.
    """

    tau0: float | None = None
    mu_max: float | None = None  # in (0, 1]: the ramp never exceeds 1
    lam0: float = 0.0
    lam_decay: float = 0.0
    step: float | str | None = None

    def __post_init__(self):
        if not np.all(np.isfinite([v for v in (self.tau0, self.mu_max, self.lam0, self.lam_decay) if v is not None])):
            raise ValueError("tau0, mu_max, lam0 and lam_decay must be finite")
        if self.lam0 < 0 or self.lam_decay < 0:
            raise ValueError("lam0 and lam_decay must be nonnegative")
        if self.step is None:
            if self.tau0 is None or self.mu_max is None:
                raise ValueError("the step ramp needs tau0 and mu_max")
            if self.tau0 <= 0 or self.mu_max <= 0:
                raise ValueError("tau0 and mu_max must be positive")
            if self.mu_max > 1:
                raise ValueError(f"mu_max {self.mu_max!r} exceeds 1, which the step ramp never reaches")
        elif self.tau0 is not None or self.mu_max is not None:
            raise ValueError(f"tau0 and mu_max belong to the step ramp, not to step={self.step!r}")
        elif self.step != "exact" and not (isinstance(self.step, numbers.Real) and 0 < self.step < math.inf):
            raise ValueError(f"step must be None, 'exact' or a positive finite constant, not {self.step!r}")


@dataclass(frozen=True)
class SolverConfig:
    max_rounds: int
    schedules: Schedules
    stop_tolerance: float | None = None  # None: always run the full budget
    precision: str = "double"  # or "mixed": single-precision rounds down to their floor first

    def __post_init__(self):
        if not isinstance(self.max_rounds, (int, np.integer)) or self.max_rounds < 1:
            raise ValueError("max_rounds must be an integer >= 1")
        if self.precision not in ("double", "mixed"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.precision == "mixed" and self.schedules.step == "exact":
            # near the switch the single-precision loss is noise as large as
            # itself, so line-search traces would no longer be monotone
            raise ValueError("mixed precision runs scheduled steps only, not step='exact'")
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
    """The constant step 1/(3 ((C/N) max_n |f_n^* z0|^2 + lam)), C the upper frame bound.

    Alternating rounds at this step, ``Schedules(lam0=lam, step=...)``, descend
    monotonically from a spectral start z0 (gate 4). The bound reads only the
    start's forwards, so it promises nothing from an arbitrary start: from 0.01
    times the truth at d = 16, N = 96 (seed 3) and lam = 0, the objective
    rises at round 1 and the solve diverges by round 4.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be nonnegative and finite")
    if not np.all(np.isfinite(z0)):
        raise ValueError("z0 must be finite")
    curvature = (upper_frame_bound(e) / e.N) * float(np.max(np.abs(forward(e, z0)) ** 2)) + lam
    if curvature == 0.0:
        raise ValueError("z0 = 0 with lam = 0 leaves the step unbounded")
    return 1.0 / (3.0 * curvature)


def _scheduled(schedules, sq_norm, unit):
    """The step of one solve, read once from ``schedules``: the multiplier of
    an exported gradient that is ``unit`` times the Wirtinger derivative, as a
    function of the round, or None under the exact line search."""
    if schedules.step is None:
        tau0, mu_max, divisor = schedules.tau0, schedules.mu_max, unit * sq_norm
        return lambda tau: step_schedule(tau, tau0, mu_max) / divisor
    if schedules.step == "exact":
        return None
    constant = schedules.step / unit
    return lambda tau: constant


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


class _Precision:
    """When and how a solve changes precision, read off each round's loss.

    Under ``cfg.precision == "mixed"`` the rounds after row 0 run in single
    precision down to the floor ``_KAPPA * eps32^2 * mean(b^2)`` of the real
    intensities ``b``, unless the start is already there, then in double
    precision for good. CDP ensembles (whose complex64 FFTs are no faster)
    stay double, as do intensities whose squared residuals or floor float32
    cannot hold. A change casts the round's arrays, keeping their values, so
    it costs no matvec.
    """

    def __init__(self, cfg, e, b):
        self.level = None  # the floor while a change is still ahead, else None
        self.double = None  # the double-precision (ensemble, intensities) while single rounds run
        if cfg.precision == "mixed" and e.masks is None:
            f32 = np.finfo(np.float32)
            level = _KAPPA * _EPS32**2 * float(np.mean(np.square(b)))
            if float(np.max(b)) <= math.sqrt(f32.max / _HEADROOM) and level >= f32.tiny:
                self.level = level

    def due(self, value):
        """Whether the round after one that ended at loss ``value`` changes precision."""
        if self.level is None:
            return False
        if self.double is None:  # row 0
            if value > self.level:
                return True
            self.level = None  # the start is already at the floor
            return False
        return value <= self.level

    def cast(self, e, b, arrays):
        """(ensemble, intensities, arrays) for the next round, from the current ones."""
        if self.double is None:
            self.double, table = (e, b), _SINGLE
            e, b = Ensemble(frame=e.frame.astype(_SINGLE[e.frame.dtype.kind])), b.astype(_SINGLE[b.dtype.kind])
        else:  # back to the double-precision pair, for good
            (e, b), table = self.double, _DOUBLE
            self.double = self.level = None
        return e, b, [None if a is None else a.astype(table[a.dtype.kind]) for a in arrays]

    def finish(self, arrays):
        """``arrays`` in double precision, each cast once so that aliases stay aliases."""
        if self.double is None:  # no single-precision round is running
            return arrays
        double = {id(a): a.astype(_DOUBLE[a.dtype.kind]) for a in arrays}
        return [double[id(a)] for a in arrays]


def _alt_rounds(e, b, z, cfg, sq_norm, precision):
    """Alternating rounds from x = y = z (4 matvecs each, 6 with line search)."""
    sched = cfg.schedules
    scheduled = _scheduled(sched, sq_norm, 2.0)  # mu multiplies the Wirtinger derivative = gx / 2
    x, y = z, z.copy()
    gx, gy, update, mid, diff = (np.empty_like(z) for _ in range(5))
    r, fx, fy, weights = (np.empty(e.N, z.dtype) for _ in range(4))
    b = b.astype(z.dtype)  # cast once here rather than by every r - b: the same values
    res = residuals(e, x, y, b, out=Residuals(r, fx, fy, weights, np.empty(e.N), np.empty(e.N), diff))
    lam = coupling_schedule(1, sched.lam0, sched.lam_decay)
    value = split_loss(e, x, y, b, lam, res=res)
    yield TraceRow(0, value, 0.0, lam, None)
    for tau in itertools.count(1):
        if precision.due(value):
            e, b, (x, y, gx, gy, update, mid, *parts) = precision.cast(e, b, (x, y, gx, gy, update, mid, *vars(res).values()))
            res = Residuals(*parts)
        lam = coupling_schedule(tau, sched.lam0, sched.lam_decay)
        split_grad_x(e, res, x, y, lam, out=gx)
        if scheduled is None:
            q = split_quad_form(e, y, gx, lam, f_anchor=res.fy)
            alpha = _linesearch_step(l2_norm(gx) ** 2, q)
        else:
            alpha = beta = scheduled(tau)
        np.subtract(x, np.multiply(alpha, gx, update), x)
        residuals(e, x, y, b, fy=res.fy, out=res)
        split_grad_y(e, res, x, y, lam, out=gy)
        if scheduled is None:
            q = split_quad_form(e, x, gy, lam, f_anchor=res.fx)
            beta = _linesearch_step(l2_norm(gy) ** 2, q)
        np.subtract(y, np.multiply(beta, gy, update), y)
        residuals(e, x, y, b, fx=res.fx, out=res)
        value = split_loss(e, x, y, b, lam, res=res)
        np.divide(np.add(x, y, mid), 2.0, mid)
        yield TraceRow(tau, value, alpha, lam, None), (gx, gy), (x, y, mid)


def _wf_rounds(e, b, z, cfg, sq_norm, precision):
    """Flow iterations from z (2 matvecs each, 3 with line search)."""
    scheduled = _scheduled(cfg.schedules, sq_norm, 4.0)  # mu multiplies the reference-convention derivative = g / 4
    g, update = np.empty_like(z), np.empty_like(z)
    res = Residuals(np.empty(e.N), np.empty(e.N, z.dtype), None, np.empty(e.N, z.dtype), np.empty(e.N))
    wf_residuals(e, z, b, out=res)
    value = wf_loss(e, z, b, res=res)
    yield TraceRow(0, value, 0.0, 0.0, None)
    for tau in itertools.count(1):
        if precision.due(value):
            e, b, (z, g, update, *parts) = precision.cast(e, b, (z, g, update, *vars(res).values()))
            res = Residuals(*parts)
        wf_grad(e, z, b, res=res, out=g)
        if scheduled is None:
            # step ||g||^2 / q, the minimizer of the flow's curvature model along g
            delta = _linesearch_step(l2_norm(g) ** 2, wf_quad_form(e, z, g, fz=res.fx) / 2.0)
        else:
            delta = scheduled(tau)
        np.subtract(z, np.multiply(delta, g, update), z)
        wf_residuals(e, z, b, out=res)
        value = wf_loss(e, z, b, res=res)
        yield TraceRow(tau, value, delta, 0.0, None), (g,), (z, z, z)


def _solve(e, b, z0, cfg, truth, rounds):
    """The loop both solvers share: trace, divergence flag and stop rule.

    ``rounds(e, b, z, cfg, ||z0||^2, precision)`` yields the start's trace
    row, then per round its row, the gradients it took and the (x, y,
    estimate) it reached; the error of each row is filled in here.
    """
    b = check_intensities(e, b)
    z0 = np.asarray(z0)
    if not np.all(np.isfinite(z0)):
        raise ValueError("z0 must be finite")
    sq_norm = l2_norm(z0) ** 2
    if sq_norm == 0.0:
        raise ValueError("z0 must be nonzero: x = y = 0 is a critical point of both losses, so no step moves it")
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
    precision = _Precision(cfg, e, b)
    steps = rounds(e, b, z, cfg, sq_norm, precision)

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

    x, y, z = precision.finish((x, y, z))
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
    """A float field of every CSV the package writes: repr(float), empty for None."""
    return "" if value is None else repr(float(value))


def trace_to_csv(result):
    """Serialize a solve trace; identical runs produce identical bytes."""
    lines = [TRACE_CSV_HEADER]
    for row in result.trace:
        lines.append(
            f"{row.round},{_fmt(row.objective)},{_fmt(row.mu)},{_fmt(row.lam)},{_fmt(row.rel_error)}"
        )
    return "\n".join(lines) + "\n"
