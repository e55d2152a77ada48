"""Alternating gradient descent on the split loss, and the Wirtinger-flow
baseline on the quartic loss.

One alternating round is a gradient step in x followed by a gradient step in
y *at the updated x* (Gauss-Seidel ordering), so a round costs two iterations
when budgets are matched against the single-variable flow. ``Schedules.step``
picks the step and one rule, ``_step_rule``, gives every block and every flow
iteration its step from it: the ramp min(1 - e^{-tau/tau0}, mu_max) divided
by ||z0||^2, a constant, or "exact", a line search that is exact on the split
loss's quadratic blocks but not on the flow's quartic (see :class:`Schedules`).

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

from .core import check_count, l2_norm, relative_error
# adjoint is unused here but stays a module attribute: instrumentation
# (phasebench/tracer.py) patches forward and adjoint in every namespace
from .measurement import Ensemble, adjoint, as_field_signal, check_intensities, forward, upper_frame_bound  # noqa: F401
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
    "csv_text",
    "trace_to_csv",
    "TRACE_CSV_HEADER",
]


@dataclass(frozen=True)
class Schedules:
    """Step policy and coupling decay controlling one solver run.

    step None (default):    the ramp min(1 - e^{-tau/tau0}, mu_max) / ||z0||^2
    step gamma > 0:         gamma at every round, no cap and no ||z0||^2 scale
    step "exact":           a line search, exact on each block, a model step on the flow
    coupling at round tau:  lam0 * e^{-lam_decay * tau}

    ``_step_rule`` reads the step kind once per solve, so no round body
    branches on it. tau0 and mu_max belong to the ramp and stay None for the
    other kinds. A constant keeps the ramp's unit, the Wirtinger derivative:
    it is applied as gamma / 2 to ``split_grad_x`` and ``split_grad_y`` and
    gamma / 4 to ``wf_grad``, so ``fixed_step``'s value is passed as it is.
    The flow's "exact" step ||g||^2 / wf_quad_form minimizes the quartic's
    near-solution curvature model along g, not the quartic: on real frames
    near the solution it predicts 4/3 of the exact step's decrease, and it
    promises no monotone descent. ROADMAP item 1 replaces it.
    """

    tau0: float | None = None
    mu_max: float | None = None  # in (0, 1]: the ramp never exceeds 1
    lam0: float = 0.0
    lam_decay: float = 0.0
    step: float | str | None = None

    def __post_init__(self):
        given = [v for v in (self.tau0, self.mu_max, self.lam0, self.lam_decay) if v is not None]
        if any(isinstance(v, bool) for v in given) or not np.all(np.isfinite(given)):
            raise ValueError("tau0, mu_max, lam0 and lam_decay must be finite numbers, not bools")
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
        elif self.step != "exact" and not (
            isinstance(self.step, numbers.Real) and not isinstance(self.step, bool) and 0 < self.step < math.inf
        ):
            raise ValueError(f"step must be None, 'exact' or a positive finite constant, not {self.step!r}")


@dataclass(frozen=True)
class SolverConfig:
    max_rounds: int
    schedules: Schedules
    stop_tolerance: float | None = None  # None: always run the full budget
    precision: str = "double"  # or "mixed": single-precision rounds down to their floor first

    def __post_init__(self):
        check_count(self.max_rounds, "max_rounds")
        if self.precision not in ("double", "mixed"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.precision == "mixed" and self.schedules.step == "exact":
            # near the switch the single-precision loss is noise as large as
            # itself, so line-search traces would no longer be monotone
            raise ValueError("mixed precision runs scheduled steps only, not step='exact'")
        tol = self.stop_tolerance
        if tol is not None and (isinstance(tol, bool) or not (np.isfinite(tol) and tol >= 0)):
            raise ValueError(f"stop_tolerance must be a nonnegative finite number, not {tol!r}")


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
    z0 = as_field_signal(e, z0, "z0")
    curvature = (upper_frame_bound(e) / e.N) * float(np.max(np.abs(forward(e, z0)) ** 2)) + lam
    if curvature == 0.0:
        raise ValueError("z0 = 0 with lam = 0 leaves the step unbounded")
    return 1.0 / (3.0 * curvature)


def _step_rule(schedules, sq_norm, unit):
    """The step of one solve, read once from ``schedules``: ``step(tau, g,
    curvature)`` multiplies the exported gradient ``g``, ``unit`` times the
    Wirtinger derivative, at round ``tau``. The ramp and the constant ignore
    ``curvature``; the line search calls it for the quadratic form q along g
    and returns ||g||^2 / (2 q), the argmin of the one-block quadratic model,
    or 0.0 at a critical point."""
    if schedules.step == "exact":
        def step(tau, g, curvature):
            q, sq_grad_norm = curvature(), l2_norm(g) ** 2
            return 0.0 if sq_grad_norm == 0.0 or q == 0.0 else sq_grad_norm / (2.0 * q)

        return step
    if schedules.step is None:
        tau0, mu_max, divisor = schedules.tau0, schedules.mu_max, unit * sq_norm
        return lambda tau, g, curvature: step_schedule(tau, tau0, mu_max) / divisor
    constant = schedules.step / unit
    return lambda tau, g, curvature: constant


# A single-precision loss bottoms out near eps32^2 mean(b^2) (1.4-1.6e-14 of
# mean(b^2) at d = 128). Ten times that is where its rounds still descend
# like double precision's and the switch lands near relative error 1e-6.
_KAPPA = 10.0
# Past that floor a block's cached forward is refreshed in double precision
# every _REFRESH rounds: the longest period that kept every final error of the
# 40 convergence curves of seeds 1 and 7 within 1.5x of all-double solves.
_REFRESH = 17
_EPS32 = float(np.finfo(np.float32).eps)
# float32 must hold the squares of residuals up to 1e3 times the largest intensity
_HEADROOM = 1e6
_SINGLE = {"c": np.complex64, "f": np.float32}
_DOUBLE = {"c": np.complex128, "f": np.float64}


def _cast(arrays, table, keep=()):
    """``arrays`` in the precision ``table`` gives each kind, but for those in
    ``keep``; each is cast once, so that aliases stay aliases, and an array
    already in its precision is kept, not copied."""
    kept = {id(a) for a in keep}
    new = {id(a): a if id(a) in kept else a.astype(table[a.dtype.kind], copy=False) for a in arrays if a is not None}
    return [None if a is None else new[id(a)] for a in arrays]


class _Precision:
    """When and how a solve changes precision, read off each round's loss.

    Under ``cfg.precision == "mixed"`` the rounds after row 0 run on a
    single-precision copy of the frame down to the floor
    ``_KAPPA * eps32^2 * mean(b^2)`` of the real intensities ``b``, unless the
    start is already there. From the floor on the solve refines: the
    iterates, the cached forwards, the residual and the loss are double
    precision, while the gradients' adjoints and the forwards of the
    gradients stay on the single copy. A block that moves v by -s g updates
    its cached forward linearly, F^*v - s F^*g, except every ``_REFRESH``-th
    round from the floor's, when it recomputes F^*v on the double frame: the
    floor's round opens with a refresh because the forwards cast up from
    single precision still carry its error. CDP ensembles (whose complex64
    FFTs are no faster) stay double, as do intensities whose squared
    residuals or floor float32 cannot hold. A change casts the round's
    arrays, keeping their values, and no round costs more matvecs than in
    double precision.
    """

    def __init__(self, cfg, e, b):
        self.level = None  # the floor while a change is still ahead, else None
        self.double = None  # the double-precision (ensemble, intensities) once single rounds run
        self.opened = None  # the round the refinement opened at
        self.scratch = None  # past the floor: the single-precision forward of a gradient
        if cfg.precision == "mixed" and e.masks is None:
            f32 = np.finfo(np.float32)
            level = _KAPPA * _EPS32**2 * float(np.mean(np.square(b)))
            if float(np.max(b)) <= math.sqrt(f32.max / _HEADROOM) and level >= f32.tiny:
                self.level = level

    def due(self, tau, value):
        """Whether round ``tau``, after one that ended at loss ``value``, changes
        precision; at the floor, ``tau`` is the round the refinement opens at."""
        if self.level is None:
            return False
        if self.double is None:  # row 0
            if value > self.level:
                return True
            self.level = None  # the start is already at the floor
            return False
        if value > self.level:
            return False
        self.opened = tau
        return True

    def cast(self, e, b, arrays, matvec):
        """(ensemble, intensities, arrays) for the round that changes precision.

        Going down, every array is cast to single precision. At the floor
        they go back to double but for ``matvec``, the gradients and the
        adjoint's input, which stay single with the ensemble: the
        single-precision matvecs write and read them.
        """
        if self.double is None:
            self.double = (e, b)
            e, b = Ensemble(frame=e.frame.astype(_SINGLE[e.frame.dtype.kind])), b.astype(_SINGLE[b.dtype.kind])
            return e, b, _cast(arrays, _SINGLE)
        self.level = None
        self.scratch = np.empty(e.N, e.frame.dtype)
        return e, self.double[1], _cast(arrays, _DOUBLE, keep=matvec)

    def forward(self, e, tau, v, f, step, g):
        """F^* v into ``f``, which holds F^* v from before round ``tau`` moved v
        by -``step`` * ``g``: a matvec on ``e`` until the floor, then the
        linear update but in refresh rounds."""
        if self.opened is None:
            return forward(e, v, f)
        if (tau - self.opened) % _REFRESH == 0:
            return forward(self.double[0], v, f)
        return np.subtract(f, np.multiply(step, forward(e, g, self.scratch), self.scratch), f)


def _alt_rounds(e, b, z, cfg, sq_norm, precision):
    """Alternating rounds from x = y = z (4 matvecs each, 6 with line search)."""
    sched = cfg.schedules
    step = _step_rule(sched, sq_norm, 2.0)  # mu multiplies the Wirtinger derivative = gx / 2
    x, y = z, z.copy()
    gx, gy, update, mid, diff = (np.empty_like(z) for _ in range(5))
    r, fx, fy, weights = (np.empty(e.N, z.dtype) for _ in range(4))
    b = b.astype(z.dtype)  # cast once here rather than by every r - b: the same values
    res = residuals(e, x, y, b, out=Residuals(r, fx, fy, weights, np.empty(e.N), np.empty(e.N), diff))
    lam = coupling_schedule(1, sched.lam0, sched.lam_decay)
    value = split_loss(e, x, y, b, lam, res=res)
    yield TraceRow(0, value, 0.0, lam, None)
    for tau in itertools.count(1):
        if precision.due(tau, value):
            arrays = (x, y, gx, gy, update, mid, *vars(res).values())
            e, b, (x, y, gx, gy, update, mid, *parts) = precision.cast(e, b, arrays, (gx, gy, res.weights))
            res = Residuals(*parts)
        lam = coupling_schedule(tau, sched.lam0, sched.lam_decay)
        split_grad_x(e, res, x, y, lam, out=gx)
        alpha = step(tau, gx, lambda: split_quad_form(e, y, gx, lam, f_anchor=res.fy))
        np.subtract(x, np.multiply(alpha, gx, update), x)
        fx = precision.forward(e, tau, x, res.fx, alpha, gx)
        residuals(e, x, y, b, fx=fx, fy=res.fy, out=res)
        split_grad_y(e, res, x, y, lam, out=gy)
        beta = step(tau, gy, lambda: split_quad_form(e, x, gy, lam, f_anchor=res.fx))
        np.subtract(y, np.multiply(beta, gy, update), y)
        fy = precision.forward(e, tau, y, res.fy, beta, gy)
        residuals(e, x, y, b, fx=res.fx, fy=fy, out=res)
        value = split_loss(e, x, y, b, lam, res=res)
        np.divide(np.add(x, y, mid), 2.0, mid)
        yield TraceRow(tau, value, alpha, lam, None), (gx, gy), (x, y, mid)


def _wf_rounds(e, b, z, cfg, sq_norm, precision):
    """Flow iterations from z (2 matvecs each, 3 with line search)."""
    step = _step_rule(cfg.schedules, sq_norm, 4.0)  # mu multiplies the reference-convention derivative = g / 4
    g, update = np.empty_like(z), np.empty_like(z)
    res = Residuals(np.empty(e.N), np.empty(e.N, z.dtype), None, np.empty(e.N, z.dtype), np.empty(e.N))
    wf_residuals(e, z, b, out=res)
    value = wf_loss(e, z, b, res=res)
    yield TraceRow(0, value, 0.0, 0.0, None)
    for tau in itertools.count(1):
        if precision.due(tau, value):
            e, b, (z, g, update, *parts) = precision.cast(e, b, (z, g, update, *vars(res).values()), (g, res.weights))
            res = Residuals(*parts)
        wf_grad(e, z, b, res=res, out=g)
        # the line search's step ||g||^2 / q minimizes the flow's curvature model along g
        delta = step(tau, g, lambda: wf_quad_form(e, z, g, fz=res.fx) / 2.0)
        np.subtract(z, np.multiply(delta, g, update), z)
        wf_residuals(e, z, b, fz=precision.forward(e, tau, z, res.fx, delta, g), out=res)
        value = wf_loss(e, z, b, res=res)
        yield TraceRow(tau, value, delta, 0.0, None), (g,), (z, z, z)


def _solve(e, b, z0, cfg, truth, rounds):
    """The loop both solvers share: trace, divergence flag and stop rule.

    ``rounds(e, b, z, cfg, ||z0||^2, precision)`` yields the start's trace
    row, then per round its row, the gradients it took and the (x, y,
    estimate) it reached; the error of each row is filled in here.
    """
    b = check_intensities(e, b)
    z = as_field_signal(e, z0, "z0")
    sq_norm = l2_norm(z) ** 2  # the field copy, like the row-0 error: a complex z0 runs as its real part on a real frame
    if sq_norm == 0.0:
        raise ValueError("z0 must be nonzero: x = y = 0 is a critical point of both losses, so no step moves it")
    if truth is not None and not np.all(np.isfinite(truth)):
        raise ValueError("truth must be finite")
    if e.maybe_rank_deficient:
        warnings.warn(
            f"frame has N={e.N} < d={e.d}; the split loss is not coercive "
            "for rank-deficient frames and the solver may not converge",
            stacklevel=3,
        )
    precision = _Precision(cfg, e, b)
    steps = rounds(e, b, z, cfg, sq_norm, precision)

    def rel(zv):
        return None if truth is None else relative_error(truth, zv)

    trace = [next(steps)]
    trace[0].rel_error = rel(z)
    converged = diverged = False
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

    x, y, z = _cast((x, y, z), _DOUBLE)
    return SolveResult(x_final=x, y_final=y, z_final=z, trace=trace, converged=converged,
                       rounds_used=rounds_used, diverged=diverged)


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
    count, since each alternating round performs two block updates. The
    quartic loss has no coupling, so a nonzero ``lam0`` or ``lam_decay``
    warns that it is ignored.
    """
    if cfg.schedules.lam0 or cfg.schedules.lam_decay:
        warnings.warn("the quartic loss has no coupling: wf_solve ignores lam0 and lam_decay", stacklevel=2)
    return _solve(e, b, z0, cfg, truth, _wf_rounds)


TRACE_CSV_HEADER = "round,objective,mu,lambda,rel_error"


def csv_text(header, rows):
    """Every CSV the package writes, by one field rule: a float as repr(float), None as empty, else str."""
    def field(v):
        return "" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    return "\n".join([header, *(",".join(map(field, row)) for row in rows)]) + "\n"


def trace_to_csv(result):
    """Serialize a solve trace; identical runs produce identical bytes."""
    return csv_text(TRACE_CSV_HEADER, ((r.round, r.objective, r.mu, r.lam, r.rel_error) for r in result.trace))
