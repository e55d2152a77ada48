import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesplit import objective, solvers
from phasesplit.analysis import monotonicity_audit
from phasesplit.core import phase_dist, rng_stream
from phasesplit.measurement import (
    cdp_ensemble,
    forward,
    gaussian_ensemble,
    measure,
    upper_frame_bound,
)
from phasesplit.objective import (
    residuals,
    split_grad,
    split_grad_x,
    split_grad_y,
    split_loss,
    split_quad_form,
    wf_grad,
    wf_loss,
    wf_quad_form,
)
from phasesplit.signals import random_gaussian_signal
from phasesplit.solvers import (
    Schedules,
    SolveResult,
    SolverConfig,
    TraceRow,
    altmin_solve,
    coupling_schedule,
    fixed_step,
    step_schedule,
    trace_to_csv,
    wf_solve,
)
from phasesplit.spectral import spectral_init

ALT = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.15 / 330)
WF = Schedules(tau0=330.0, mu_max=0.2)
STEP_KINDS = ["ramp", "constant", "exact"]
# converges on every frame of _frame_instance, alternating and flow
CONSTANT_STEP = 0.003


def with_step(sched, kind):
    """``sched``'s coupling under the step ``kind``: its own ramp,
    ``CONSTANT_STEP`` or the exact line search."""
    if kind == "ramp":
        return sched
    return replace(sched, tau0=None, mu_max=None, step=CONSTANT_STEP if kind == "constant" else "exact")


ALT_EXACT = with_step(ALT, "exact")
WF_EXACT = with_step(WF, "exact")
# each solver's own schedule: the flow's quartic loss takes no coupling
SCHEDULE_OF = {altmin_solve: ALT, wf_solve: WF}


def instance(seed, d=32, oversampling=6):
    e = gaussian_ensemble(d, oversampling * d, seed=seed)
    x0 = random_gaussian_signal(d, rng_stream(seed, 1))
    b = measure(e, x0)
    init = spectral_init(e, b, rng=rng_stream(seed, 2))
    return e, x0, b, init


def one_round(e, b, z0, step, lam):
    """One alternating round from x = y = z0 with both steps equal to ``step``.

    A constant gamma multiplies the Wirtinger derivative, half the exported
    block gradient, so the x and y steps are gamma / 2.
    """
    sched = Schedules(lam0=lam, step=2.0 * step)
    return altmin_solve(e, b, z0, SolverConfig(max_rounds=1, schedules=sched))


class TestSchedules:
    def test_step_saturates(self):
        assert step_schedule(10**9, 330.0, 0.2) == pytest.approx(0.2)

    def test_step_at_tau0(self):
        # 1 - 1/e is above the cap
        assert step_schedule(330, 330.0, 0.2) == pytest.approx(0.2)

    def test_step_early_value(self):
        assert step_schedule(1, 330.0, 0.2) == pytest.approx(0.003026, abs=1e-6)

    def test_coupling_constant_when_undecayed(self):
        for tau in (1, 10, 1000):
            assert coupling_schedule(tau, 7.0, 0.0) == 7.0

    def test_coupling_hand_value(self):
        assert coupling_schedule(330, 300.0, 0.15 / 330) == pytest.approx(258.21, abs=0.01)

    def test_coupling_zero_start(self):
        assert coupling_schedule(55, 0.0, 0.3) == 0.0

    @given(
        st.integers(1, 10**6),
        st.floats(1e-3, 1e4, allow_nan=False),
        st.floats(1e-3, 1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_step_stays_in_range(self, tau, tau0, mu_max):
        mu = step_schedule(tau, tau0, mu_max)
        assert 0.0 < mu <= mu_max

    @given(
        st.integers(1, 10**4),
        st.integers(1, 10**4),
        st.floats(0.0, 1e4, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_coupling_nonincreasing(self, tau, gap, lam0, decay):
        assert coupling_schedule(tau + gap, lam0, decay) <= coupling_schedule(tau, lam0, decay)

    @pytest.mark.parametrize("name", ["tau0", "mu_max", "lam0", "lam_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, True])
    def test_rejects_nonfinite(self, name, value):
        numbers = dict(tau0=1.0, mu_max=0.2, lam0=1.0, lam_decay=0.0)
        numbers[name] = value
        with pytest.raises(ValueError, match="finite"):
            Schedules(**numbers)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedules(tau0=0.0, mu_max=0.2)
        with pytest.raises(ValueError):
            Schedules(tau0=1.0, mu_max=0.2, lam0=-1.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            Schedules(tau0=1.0, mu_max=1.5)
        Schedules(tau0=1.0, mu_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_rounds=0, schedules=WF)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf, -np.inf, "weird", True])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError, match="step must be"):
            Schedules(step=step)

    @pytest.mark.parametrize("ramp", [{}, dict(tau0=1.0), dict(mu_max=0.2)])
    def test_ramp_needs_tau0_and_mu_max(self, ramp):
        with pytest.raises(ValueError, match="needs tau0 and mu_max"):
            Schedules(lam0=1.0, **ramp)

    @pytest.mark.parametrize("step", [0.5, "exact"])
    @pytest.mark.parametrize("ramp", [dict(tau0=1.0), dict(mu_max=0.2), dict(tau0=1.0, mu_max=0.2)])
    def test_constant_and_exact_take_no_ramp(self, step, ramp):
        with pytest.raises(ValueError, match="belong to the step ramp"):
            Schedules(step=step, **ramp)

    def test_constant_has_no_cap(self):
        # the ramp's mu_max stops at 1; a constant is not a ramp
        assert Schedules(step=7.0).step == 7.0

    @pytest.mark.parametrize("bad", [
        dict(max_rounds=2.5),
        dict(max_rounds=5, stop_tolerance=float("nan")),
        dict(max_rounds=5, stop_tolerance=float("inf")),
        dict(max_rounds=True),
        dict(max_rounds=5, stop_tolerance=True),
    ])
    def test_solver_config_rejects(self, bad):
        with pytest.raises(ValueError, match="max_rounds|stop_tolerance"):
            SolverConfig(schedules=WF, **bad)


class TestAltminStep:
    """One alternating round, run as altmin_solve with max_rounds=1."""

    def test_fixed_point_at_truth(self):
        e, x0, b, _ = instance(1)
        res = one_round(e, b, x0, 1e-4, 5.0)
        scale = np.linalg.norm(x0)
        assert phase_dist(res.x_final, x0) <= 1e-12 * scale
        assert phase_dist(res.y_final, x0) <= 1e-12 * scale

    def test_descent_from_perturbed_point(self):
        e, x0, b, _ = instance(2)
        z0 = x0 + 1e-3 * rng_stream(2, 3).standard_normal(32)
        lam = 1.0
        before = split_loss(e, z0, z0, b, lam)
        res = one_round(e, b, z0, 1e-5, lam)
        after = split_loss(e, res.x_final, res.y_final, b, lam)
        assert after < before

    def test_y_update_sees_new_x(self):
        # a deliberately wrong ordering (y-gradient at the stale x) must differ
        e, x0, b, _ = instance(3)
        z0 = x0 + 0.1 * rng_stream(3, 3).standard_normal(32)
        step = 1e-4
        lam = 2.0
        res = one_round(e, b, z0, step, lam)

        gx, gy_stale = split_grad(e, z0, z0, b, lam)
        x_new = z0 - step * gx
        y_wrong = z0 - step * gy_stale
        assert np.allclose(res.x_final, x_new, rtol=1e-12)
        assert not np.allclose(res.y_final, y_wrong, rtol=1e-8)

        _, gy_fresh = split_grad(e, x_new, z0, b, lam)
        assert np.allclose(res.y_final, z0 - step * gy_fresh, rtol=1e-12)


class TestAltminSolve:
    def test_exact_start_converges_immediately(self):
        e, x0, b, _ = instance(5)
        cfg = SolverConfig(max_rounds=50, schedules=ALT, stop_tolerance=1e-14)
        res = altmin_solve(e, b, x0, cfg, truth=x0)
        assert res.converged and res.rounds_used == 1
        assert res.trace[-1].rel_error <= 1e-14

    def test_exact_start_stays_for_100_rounds(self):
        e, x0, b, _ = instance(6)
        cfg = SolverConfig(max_rounds=100, schedules=ALT)
        res = altmin_solve(e, b, x0, cfg, truth=x0)
        assert res.rounds_used == 100
        assert max(r.rel_error for r in res.trace) <= 1e-14

    def test_solver_matches_manual_steps(self):
        e, x0, b, init = instance(7)
        lam = 2.5
        gamma = 1e-5
        sched = Schedules(lam0=lam, step=gamma)
        res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=3, schedules=sched))
        x, y = init.z0.copy(), init.z0.copy()
        for _ in range(3):
            gx, _ = split_grad(e, x, y, b, lam)
            x = x - gamma / 2.0 * gx
            _, gy = split_grad(e, x, y, b, lam)
            y = y - gamma / 2.0 * gy
        assert np.allclose(res.x_final, x, rtol=1e-12)
        assert np.allclose(res.y_final, y, rtol=1e-12)

    def test_global_phase_equivariance(self):
        e, x0, b, init = instance(8)
        c = np.exp(1.1j)
        cfg = SolverConfig(max_rounds=10, schedules=ALT)
        res1 = altmin_solve(e, b, init.z0, cfg)
        res2 = altmin_solve(e, b, c * init.z0, cfg)
        assert phase_dist(res1.z_final, res2.z_final) <= 1e-8 * np.linalg.norm(res1.z_final)

    def test_linesearch_monotone_and_optimal(self):
        e, x0, b, init = instance(9)
        cfg = SolverConfig(max_rounds=200, schedules=ALT_EXACT)
        res = altmin_solve(e, b, init.z0, cfg, truth=x0)
        ok, idx = monotonicity_audit(res)
        assert ok, f"objective rose at round {idx}"
        # recorded x-step equals the closed form at the starting state
        lam1 = coupling_schedule(1, ALT.lam0, ALT.lam_decay)
        gx, _ = split_grad(e, init.z0, init.z0, b, lam1)
        expected = np.linalg.norm(gx) ** 2 / (
            2.0 * split_quad_form(e, init.z0, gx, lam1)
        )
        assert res.trace[1].mu == pytest.approx(expected, rel=1e-12)

    def test_fixed_step_fixed_coupling_monotone(self):
        e, x0, b, init = instance(10)
        lam = 1.0
        sched = Schedules(lam0=lam, step=fixed_step(e, init.z0, lam))
        res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=300, schedules=sched))
        ok, idx = monotonicity_audit(res)
        assert ok, f"objective rose at round {idx}"

    def test_divergence_is_reported_not_raised(self):
        e, x0, b, init = instance(11)
        wild = Schedules(step=1.0)
        res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=200, schedules=wild))
        assert res.diverged and not res.converged
        assert all(np.isfinite(row.objective) for row in res.trace)

    def test_rank_deficient_frame_warns(self):
        e = gaussian_ensemble(16, 8, seed=12)
        x0 = rng_stream(12, 1).standard_normal(16)
        b = measure(e, x0)
        with pytest.warns(UserWarning, match="rank"):
            altmin_solve(e, b, x0, SolverConfig(max_rounds=2, schedules=ALT))

    def test_gradient_norm_stopping_without_truth(self):
        e, x0, b, init = instance(13)
        cfg = SolverConfig(max_rounds=2000, schedules=ALT_EXACT, stop_tolerance=1e-9)
        res = altmin_solve(e, b, init.z0, cfg)
        assert res.converged
        assert res.rounds_used < 2000


class TestFixedStep:
    def test_matches_gate_4_formula(self):
        # gate 4's instance and its written-out step (tests/test_acceptance.py)
        d = 32
        e = gaussian_ensemble(d, 6 * d, seed=1006)
        x0 = random_gaussian_signal(d, rng_stream(1006, 1))
        b = measure(e, x0)
        init = spectral_init(e, b, rng=rng_stream(1006, 2))
        lam = 1.0
        curvature = (upper_frame_bound(e) / e.N) * float(
            np.max(np.abs(forward(e, init.z0)) ** 2)
        ) + lam
        assert fixed_step(e, init.z0, lam) == 1.0 / (3.0 * curvature)

    @staticmethod
    def _small_start():
        """d = 16, N = 96 at seed 3, and a start at 0.01 times the truth."""
        e = gaussian_ensemble(16, 96, seed=3)
        x = random_gaussian_signal(16, rng_stream(3, 1))
        return e, x, measure(e, x), 0.01 * x

    def test_constant_above_one_runs(self):
        # a ramp stops at 1, so a constant written as a saturated ramp could not run this step
        e, _, b, z0 = self._small_start()
        gamma = fixed_step(e, z0, 0.0)
        assert gamma == pytest.approx(7.008, abs=1e-3)
        res = altmin_solve(e, b, z0, SolverConfig(max_rounds=1, schedules=Schedules(step=gamma)))
        x, y = z0.copy(), z0.copy()
        x = x - gamma / 2.0 * split_grad_x(e, residuals(e, x, y, b), x, y, 0.0)
        y = y - gamma / 2.0 * split_grad_y(e, residuals(e, x, y, b), x, y, 0.0)
        assert _same_bytes(res.x_final, x) and _same_bytes(res.y_final, y)

    @pytest.mark.parametrize("scale, lam", [(0.01, 0.0), (0.01, 1.0), (0.1, 0.0)])
    def test_no_descent_promise_from_a_small_start(self, scale, lam):
        # the bound reads only the start's forwards; gate 4 starts from a spectral start
        e, x, b, _ = self._small_start()
        z0 = scale * x
        sched = Schedules(lam0=lam, step=fixed_step(e, z0, lam))
        res = altmin_solve(e, b, z0, SolverConfig(max_rounds=10, schedules=sched))
        assert res.trace[1].objective > res.trace[0].objective
        assert res.diverged and res.rounds_used <= 4

    @pytest.mark.parametrize("bad, match", [("zero", "unbounded"), ("nan", "finite"), ("negative_lam", "lam")])
    def test_fails_loudly(self, bad, match):
        e, _, _, z0 = self._small_start()
        lam = -1.0 if bad == "negative_lam" else 0.0
        if bad == "zero":
            z0 = np.zeros_like(z0)
        elif bad == "nan":
            z0[2] = np.nan
        with pytest.raises(ValueError, match=match):
            fixed_step(e, z0, lam)

    def test_complex_start_on_real_frame_rejected(self):
        # the solvers' start rule: a real frame's step comes from a real start
        e, x0, _, _ = _frame_instance("gaussian_real", d=8)
        v = rng_stream(31, 0).standard_normal(8)
        with pytest.raises(ValueError, match="z0 has a nonzero imaginary part, but the frame is real"):
            fixed_step(e, x0 + 0.5j * v, 0.0)
        assert fixed_step(e, x0 + 0j, 0.0) == fixed_step(e, x0, 0.0)


class TestLinesearchAtCriticalPoint:
    """At the truth with exact intensities every gradient is exactly zero, so
    the line search steps 0.0. Real frames only: on complex frames the split
    residual at the truth is rounding noise, not zero."""

    @pytest.mark.parametrize("solve, lam", [(altmin_solve, 0.0), (altmin_solve, 1.0), (wf_solve, 0.0)],
                             ids=["alt-lam0", "alt-lam1", "wf"])
    def test_steps_are_zero_and_truth_keeps_its_bits(self, solve, lam):
        e = gaussian_ensemble(16, 96, field="real", seed=3)
        x0 = random_gaussian_signal(16, rng_stream(3, 1)).real.copy()
        cfg = SolverConfig(max_rounds=5, schedules=Schedules(lam0=lam, step="exact"))
        res = solve(e, measure(e, x0), x0, cfg)
        assert [row.mu for row in res.trace[1:]] == [0.0] * 5
        assert _same_bytes(res.z_final, x0)


class TestWfSolve:
    def test_exact_start_is_fixed(self):
        e, x0, b, _ = instance(14)
        res = wf_solve(e, b, x0, SolverConfig(max_rounds=100, schedules=WF), truth=x0)
        assert max(r.rel_error for r in res.trace) <= 1e-14

    def test_budget_accounting(self):
        e, x0, b, init = instance(15)
        res = wf_solve(e, b, init.z0, SolverConfig(max_rounds=37, schedules=WF), truth=x0)
        assert res.rounds_used == 37
        assert len(res.trace) == 38  # row 0 plus one per iteration

    def test_estimates_are_aliased(self):
        e, x0, b, init = instance(16)
        res = wf_solve(e, b, init.z0, SolverConfig(max_rounds=5, schedules=WF))
        assert res.x_final is res.z_final and res.y_final is res.z_final

    @pytest.mark.parametrize("coupling", [dict(lam0=300.0), dict(lam_decay=0.01)])
    def test_coupling_warns_that_it_is_ignored(self, coupling):
        e, x0, b, init = instance(3, d=16)
        coupled = Schedules(tau0=330.0, mu_max=0.2, **coupling)
        with pytest.warns(UserWarning, match="no coupling"):
            res = wf_solve(e, b, init.z0, SolverConfig(max_rounds=20, schedules=coupled))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the flow's own schedule does not warn
            plain = wf_solve(e, b, init.z0, SolverConfig(max_rounds=20, schedules=WF))
        assert np.array_equal(res.z_final, plain.z_final)
        assert all(row.lam == 0.0 for row in res.trace)

    def test_linesearch_mode_descends(self):
        e, x0, b, init = instance(17)
        cfg = SolverConfig(max_rounds=50, schedules=WF_EXACT)
        res = wf_solve(e, b, init.z0, cfg, truth=x0)
        values = [row.objective for row in res.trace]
        assert values[-1] < values[0]


class TestTraceRounds:
    """trace[i] is round i: rows are indexed by position, not by a column."""

    @pytest.mark.parametrize("solve, sched", [(altmin_solve, ALT), (wf_solve, WF)])
    @pytest.mark.parametrize("run", ["full", "early_stop", "diverged"])
    def test_row_index_is_round(self, solve, sched, run):
        e, x0, b, init = instance(20)
        if run == "full":
            cfg = SolverConfig(max_rounds=30, schedules=sched)
        elif run == "early_stop":
            cfg = SolverConfig(max_rounds=2000, schedules=with_step(sched, "exact"), stop_tolerance=1e-6)
        else:
            cfg = SolverConfig(max_rounds=200, schedules=Schedules(step=1.0))
        res = solve(e, b, init.z0, cfg, truth=x0)
        assert (run == "early_stop") == res.converged and (run == "diverged") == res.diverged
        assert [row.round for row in res.trace] == list(range(len(res.trace)))
        # a diverged round is not recorded
        assert len(res.trace) == res.rounds_used + (0 if res.diverged else 1)


class TestTraceCsv:
    def test_schema_and_determinism(self):
        e, x0, b, init = instance(18)
        cfg = SolverConfig(max_rounds=12, schedules=ALT)
        text1 = trace_to_csv(altmin_solve(e, b, init.z0, cfg, truth=x0))
        text2 = trace_to_csv(altmin_solve(e, b, init.z0, cfg, truth=x0))
        assert text1 == text2
        lines = text1.strip().splitlines()
        assert lines[0] == "round,objective,mu,lambda,rel_error"
        assert len(lines) == 14  # header + round 0 + 12 rounds

    def test_unknown_truth_leaves_rel_error_empty(self):
        e, x0, b, init = instance(19)
        res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=3, schedules=ALT))
        rows = trace_to_csv(res).strip().splitlines()[1:]
        assert all(r.endswith(",") for r in rows)


def _reference_mu(sched, tau):
    """The scheduled step at round tau: the ramp's value, or the constant."""
    return step_schedule(tau, sched.tau0, sched.mu_max) if sched.step is None else sched.step


def _reference_linesearch(g, q):
    """||g||^2 / (2 q), the argmin of the one-block quadratic model; 0 at a critical point."""
    sq = float(np.linalg.norm(g) ** 2)
    return 0.0 if sq == 0.0 or q == 0.0 else sq / (2.0 * q)


def _reference_alt_rounds(e, b, z, cfg, scale):
    """The alternating round as written before its buffers: fresh arrays
    for every result and np.linalg.norm for the line-search norms."""
    sched = cfg.schedules
    x, y = z, z.copy()
    res = residuals(e, x, y, b)
    lam = coupling_schedule(1, sched.lam0, sched.lam_decay)
    yield TraceRow(0, split_loss(e, x, y, b, lam, res=res), 0.0, lam, None)
    for tau in itertools.count(1):
        lam = coupling_schedule(tau, sched.lam0, sched.lam_decay)
        gx = split_grad_x(e, res, x, y, lam)
        if sched.step == "exact":
            q = split_quad_form(e, y, gx, lam, f_anchor=res.fy)
            alpha = _reference_linesearch(gx, q)
        else:
            alpha = beta = _reference_mu(sched, tau) / (2.0 * scale)
        x = x - alpha * gx
        res = residuals(e, x, y, b, fx=forward(e, x), fy=res.fy)
        gy = split_grad_y(e, res, x, y, lam)
        if sched.step == "exact":
            q = split_quad_form(e, x, gy, lam, f_anchor=res.fx)
            beta = _reference_linesearch(gy, q)
        y = y - beta * gy
        res = residuals(e, x, y, b, fx=res.fx, fy=forward(e, y))
        value = split_loss(e, x, y, b, lam, res=res)
        yield TraceRow(tau, value, alpha, lam, None), (gx, gy), (x, y, (x + y) / 2.0)


def _reference_wf_rounds(e, b, z, cfg, scale):
    """The flow iteration as written before: the residual is recomputed by
    both the loss and the gradient, each from its own forward."""
    sched = cfg.schedules
    yield TraceRow(0, wf_loss(e, z, b), 0.0, 0.0, None)
    for tau in itertools.count(1):
        g = wf_grad(e, z, b)
        if sched.step == "exact":
            q = wf_quad_form(e, z, g) / 2.0
            delta = _reference_linesearch(g, q)
        else:
            delta = _reference_mu(sched, tau) / (4.0 * scale)
        z = z - delta * g
        yield TraceRow(tau, wf_loss(e, z, b), delta, 0.0, None), (g,), (z, z, z)


def _reference_relative_error(x, y):
    ip = np.vdot(y, x)
    c = 1.0 + 0.0j if abs(ip) == 0.0 else ip / abs(ip)
    return float(np.linalg.norm(x - c * y)) / float(np.linalg.norm(x))


def _reference_solve(e, b, z0, cfg, truth, rounds):
    """The shared loop as written before, on np.linalg.norm throughout."""
    sched = cfg.schedules
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        z = np.asarray(z0).astype(complex if e.is_complex else float, copy=True)
    scale = float(np.linalg.norm(z) ** 2) if sched.step is None else 1.0
    steps = rounds(e, b, z, cfg, scale)

    def rel(v):
        return None if truth is None else _reference_relative_error(truth, v)

    trace = [next(steps)]
    trace[0].rel_error = rel(z)
    converged = diverged = False
    rounds_used = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for tau, (row, grads, (x, y, z)) in zip(range(1, cfg.max_rounds + 1), steps):
            rounds_used = tau
            if not np.isfinite(row.objective):
                diverged = True
                break
            row.rel_error = rel(z)
            trace.append(row)
            if cfg.stop_tolerance is not None:
                if truth is not None:
                    if row.rel_error <= cfg.stop_tolerance:
                        converged = True
                        break
                elif max(np.linalg.norm(g) for g in grads) <= cfg.stop_tolerance:
                    converged = True
                    break
    return SolveResult(x, y, z, trace, converged, rounds_used, diverged)


def _frame_instance(frame, seed=30, d=16):
    e = {
        "gaussian_complex": lambda: gaussian_ensemble(d, 6 * d, seed=seed),
        "gaussian_real": lambda: gaussian_ensemble(d, 6 * d, field="real", seed=seed),
        "cdp": lambda: cdp_ensemble(d, 6, seed=seed),
    }[frame]()
    x0 = random_gaussian_signal(d, rng_stream(seed, 1))
    if not e.is_complex:
        x0 = x0.real.copy()
    b = measure(e, x0)
    return e, x0, b, spectral_init(e, b, rng=rng_stream(seed, 2)).z0


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_result(got, want):
    # compares row by row: pytest's diff of two long unequal strings takes minutes
    rows, expected = trace_to_csv(got).splitlines(), trace_to_csv(want).splitlines()
    first = next((i for i, (a, b) in enumerate(zip(rows, expected)) if a != b), None)
    assert first is None and len(rows) == len(expected), f"traces differ from row {first}"
    assert [type(row.objective) for row in got.trace] == [type(row.objective) for row in want.trace]
    for a, b in ((got.x_final, want.x_final), (got.y_final, want.y_final), (got.z_final, want.z_final)):
        assert _same_bytes(a, b)
    assert (got.converged, got.rounds_used, got.diverged) == (want.converged, want.rounds_used, want.diverged)


SOLVERS = [
    (altmin_solve, _reference_alt_rounds, ALT),
    (wf_solve, _reference_wf_rounds, WF),
]


class TestByteIdentity:
    """The solvers reproduce their pre-buffer round bodies byte for byte."""

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    @pytest.mark.parametrize("frame", ["gaussian_complex", "gaussian_real", "cdp"])
    @pytest.mark.parametrize("kind", STEP_KINDS)
    @pytest.mark.parametrize("truth, stop", [
        ("none", None), ("given", None), ("given", 1e-3), ("none", 1e-3),
    ], ids=["no-truth", "truth-no-stop", "truth-stop", "gradient-stop"])
    def test_matches_reference(self, solve, reference, sched, frame, kind, truth, stop):
        e, x0, b, z0 = _frame_instance(frame)
        truth = x0 if truth == "given" else None
        cfg = SolverConfig(max_rounds=500, schedules=with_step(sched, kind), stop_tolerance=stop)
        got = solve(e, b, z0, cfg, truth=truth)
        _same_result(got, _reference_solve(e, b, z0, cfg, truth, reference))
        # the alternating schedule, tuned on complex frames, diverges on this real one
        assert got.diverged or (stop is not None) == got.converged

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    def test_matches_reference_when_diverging(self, solve, reference, sched):
        e, x0, b, z0 = _frame_instance("gaussian_complex")
        cfg = SolverConfig(max_rounds=200, schedules=Schedules(step=1.0))
        got = solve(e, b, z0, cfg, truth=x0)
        assert got.diverged
        with np.errstate(over="ignore", invalid="ignore"):
            _same_result(got, _reference_solve(e, b, z0, cfg, x0, reference))

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    def test_second_solve_leaves_first_result(self, solve, reference, sched):
        e, x0, b, z0 = _frame_instance("gaussian_complex")
        cfg = SolverConfig(max_rounds=20, schedules=sched)
        first = solve(e, b, z0, cfg, truth=x0)
        kept = [a.copy() for a in (first.x_final, first.y_final, first.z_final)]
        second = solve(e, b, 2.0 * z0, cfg, truth=x0)
        for a, b_ in zip((first.x_final, first.y_final, first.z_final), kept):
            assert _same_bytes(a, b_)
            assert not any(np.shares_memory(a, c) for c in (second.x_final, second.y_final, second.z_final))


class TestRealFrameStart:
    """A real frame iterates in the reals, so a complex start must be real."""

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    def test_nonzero_imaginary_part_rejected(self, solve, reference, sched):
        e, x0, b, _ = _frame_instance("gaussian_real", d=8)
        v = rng_stream(31, 0).standard_normal(8)
        with pytest.raises(ValueError, match="imaginary"):
            solve(e, b, x0 + 0.5j * v, SolverConfig(max_rounds=2, schedules=sched))

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    def test_zero_imaginary_part_runs_as_the_real_start(self, solve, reference, sched):
        e, x0, b, z0 = _frame_instance("gaussian_real")
        cfg = SolverConfig(max_rounds=30, schedules=sched)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            got = solve(e, b, z0 + 0j, cfg, truth=x0)
        _same_result(got, solve(e, b, z0, cfg, truth=x0))


@pytest.fixture
def precisions(monkeypatch):
    """The event log of a solve: (name, frame dtype) of every matvec and every
    relative error the solver records, in order."""
    log = []

    def logged(fn, name):
        def wrapper(e, *args, **kwargs):
            log.append((name, (e.frame if e.masks is None else e.masks).dtype))
            return fn(e, *args, **kwargs)

        return wrapper

    for module in (solvers, objective):
        for name in ("forward", "adjoint"):
            monkeypatch.setattr(module, name, logged(getattr(module, name), name))
    rel = solvers.relative_error

    def logged_rel(x, y):
        log.append(rel(x, y))
        return log[-1]

    monkeypatch.setattr(solvers, "relative_error", logged_rel)
    return log


def _matvec_dtypes(log, name=None):
    """The frame dtypes of the logged matvecs, or of those called ``name``."""
    return [entry[1] for entry in log if isinstance(entry, tuple) and name in (None, entry[0])]


def _switches(log):
    """(relative error before, new dtype) at each change of matvec precision."""
    changes, last, rel = [], None, None
    for entry in log:
        if not isinstance(entry, tuple):
            rel = entry
        elif entry[1] != last:
            if last is not None:
                changes.append((rel, entry[1]))
            last = entry[1]
    return changes


def _rounds(log):
    """The logged matvecs of each round, from round 1: a solve records one
    relative error after its start and one after each round."""
    rounds = [[]]
    for entry in log:
        if isinstance(entry, tuple):
            rounds[-1].append(entry)
        else:
            rounds.append([])
    return rounds[1:-1]


class TestCostModel:
    """Matvecs per round: the paper's iteration-matched budgets as counts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (solvers, objective):
            for name in ("forward", "adjoint"):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
        return calls

    @staticmethod
    def _instance(kind, d=16):
        e = gaussian_ensemble(d, 6 * d, seed=20) if kind == "gaussian" else cdp_ensemble(d, 6, seed=20)
        x0 = random_gaussian_signal(d, rng_stream(20, 1))
        b = measure(e, x0)
        return e, b, spectral_init(e, b, rng=rng_stream(20, 2))

    @pytest.mark.parametrize("kind", ["gaussian", "cdp"])
    @pytest.mark.parametrize(
        "solve, sched, step, per_round",
        [
            (altmin_solve, ALT, "ramp", 4),
            (wf_solve, WF, "ramp", 2),
            (altmin_solve, ALT, "constant", 4),
            (wf_solve, WF, "constant", 2),
            (altmin_solve, ALT, "exact", 6),
            (wf_solve, WF, "exact", 3),
        ],
        ids=["alt", "wf", "alt-constant", "wf-constant", "alt-linesearch", "wf-linesearch"],
    )
    def test_matvecs_per_round(self, calls, kind, solve, sched, step, per_round):
        e, b, init = self._instance(kind)

        def matvecs(rounds):
            calls[0] = 0
            cfg = SolverConfig(max_rounds=rounds, schedules=with_step(sched, step))
            res = solve(e, b, init.z0, cfg)
            assert res.rounds_used == rounds and not res.diverged
            return calls[0]

        # the difference cancels the forwards at the starting point
        assert matvecs(7) - matvecs(2) == 5 * per_round

    @pytest.mark.parametrize("solve, sched, per_round", [(altmin_solve, ALT, 4), (wf_solve, WF, 2)], ids=["alt", "wf"])
    def test_matvecs_per_round_across_the_precision_switch(self, calls, precisions, solve, sched, per_round):
        e, x0, b, init = instance(20)

        def matvecs(rounds):
            calls[0] = 0
            precisions.clear()
            cfg = SolverConfig(max_rounds=rounds, schedules=sched, precision="mixed")
            res = solve(e, b, init.z0, cfg)
            assert res.rounds_used == rounds and not res.diverged
            return calls[0]

        short = matvecs(2)
        assert matvecs(1500) - short == 1498 * per_round
        # the long solve went down to single precision and refined past the floor
        assert [dtype for _, dtype in _switches(precisions)][:2] == [np.complex64, np.complex128]
        assert set(_matvec_dtypes(precisions, "adjoint")) == {np.dtype(np.complex64)}


_CONTRACT_E = gaussian_ensemble(8, 48, seed=21)
_CONTRACT_X = random_gaussian_signal(8, rng_stream(21, 1))
_CONTRACT_B = measure(_CONTRACT_E, _CONTRACT_X)

ENTRY_POINTS = {
    "altmin_solve": lambda b: altmin_solve(
        _CONTRACT_E, b, _CONTRACT_X, SolverConfig(max_rounds=2, schedules=ALT)
    ),
    "wf_solve": lambda b: wf_solve(
        _CONTRACT_E, b, _CONTRACT_X, SolverConfig(max_rounds=2, schedules=WF)
    ),
    "spectral_init": lambda b: spectral_init(_CONTRACT_E, b, iters=2, rng=rng_stream(21, 2)),
}


def _with_entry(index, value):
    b = _CONTRACT_B.copy()
    b[index % b.size] = value
    return b


class TestZeroStart:
    """x = y = 0 is a critical point of both losses, so no step moves a zero
    start: an error under every step kind, not a stalled solve."""

    @pytest.mark.parametrize("solve", [altmin_solve, wf_solve], ids=["alt", "wf"])
    @pytest.mark.parametrize("kind", STEP_KINDS)
    def test_rejected(self, solve, kind):
        cfg = SolverConfig(max_rounds=2, schedules=with_step(SCHEDULE_OF[solve], kind))
        with pytest.raises(ValueError, match="nonzero"):
            solve(_CONTRACT_E, _CONTRACT_B, np.zeros(8), cfg)


class TestNonfiniteStartOrTruth:
    """A NaN or infinite start or truth is bad input, not a divergence."""

    @pytest.mark.parametrize("solve", [altmin_solve, wf_solve], ids=["alt", "wf"])
    @pytest.mark.parametrize("kind", STEP_KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_start_rejected(self, solve, kind, value):
        z0 = _CONTRACT_X.copy()
        z0[3] = value
        cfg = SolverConfig(max_rounds=2, schedules=with_step(SCHEDULE_OF[solve], kind))
        with pytest.raises(ValueError, match="z0 must be finite"):
            solve(_CONTRACT_E, _CONTRACT_B, z0, cfg)

    @pytest.mark.parametrize("solve", [altmin_solve, wf_solve], ids=["alt", "wf"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_truth_rejected(self, solve, value):
        truth = _CONTRACT_X.copy()
        truth[0] = value
        cfg = SolverConfig(max_rounds=2, schedules=SCHEDULE_OF[solve], stop_tolerance=1e-6)
        with pytest.raises(ValueError, match="truth must be finite"):
            solve(_CONTRACT_E, _CONTRACT_B, _CONTRACT_X, cfg, truth=truth)


class TestInputContract:
    """Malformed intensities are rejected at the public boundary."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_accepts_valid_intensities(self, entry):
        ENTRY_POINTS[entry](_CONTRACT_B)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @given(
        st.one_of(
            st.floats(0.0, 1e3).map(np.float64),  # scalar
            st.integers(0, 200).filter(lambda n: n != 48).map(np.ones),  # wrong length
            st.integers(1, 3).map(lambda k: np.ones((k, 48))),  # not 1-D
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_rejects_wrong_shape(self, entry, b):
        with pytest.raises(ValueError, match="shape"):
            ENTRY_POINTS[entry](b)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @given(st.integers(0, 47), st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=25, deadline=None)
    def test_rejects_nonfinite(self, entry, index, value):
        with pytest.raises(ValueError, match="finite"):
            ENTRY_POINTS[entry](_with_entry(index, value))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @given(st.integers(0, 47), st.floats(1e-300, 1e300))
    @settings(max_examples=25, deadline=None)
    def test_rejects_negative(self, entry, index, magnitude):
        with pytest.raises(ValueError, match="nonnegative"):
            ENTRY_POINTS[entry](_with_entry(index, -magnitude))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_complex(self, entry):
        with pytest.raises(ValueError, match="real"):
            ENTRY_POINTS[entry](_CONTRACT_B + 0j)


MIXED_SOLVERS = [(altmin_solve, ALT), (wf_solve, WF)]


class TestMixedPrecision:
    """precision="mixed": single-precision rounds down to their floor, then double."""

    @staticmethod
    def _config(sched, rounds=2000, stop=None):
        return SolverConfig(max_rounds=rounds, schedules=sched, stop_tolerance=stop, precision="mixed")

    @pytest.mark.parametrize("solve, sched", MIXED_SOLVERS, ids=["alt", "wf"])
    @pytest.mark.parametrize("stop", [None, 1e-3], ids=["full", "stopped-in-single"])
    def test_results_are_double(self, precisions, solve, sched, stop):
        e, x0, b, init = instance(21)
        res = solve(e, b, init.z0, self._config(sched, stop=stop), truth=x0)
        # past the start, only a solve that refines past the floor runs double forwards
        forwards = _matvec_dtypes(precisions, "forward")
        assert (stop is None) == (np.complex128 in forwards[forwards.index(np.complex64):])
        assert _matvec_dtypes(precisions, "adjoint")[-1] == np.complex64
        for a in (res.x_final, res.y_final, res.z_final):
            assert a.dtype == np.complex128
        if solve is wf_solve:
            assert res.x_final is res.z_final and res.y_final is res.z_final

    def test_real_frame_runs_float32(self, precisions):
        e, x0, b, z0 = _frame_instance("gaussian_real", d=32)
        res = wf_solve(e, b, z0, self._config(WF, stop=1e-3), truth=x0)
        assert res.converged and np.float32 in _matvec_dtypes(precisions)
        assert res.z_final.dtype == np.float64

    @pytest.mark.parametrize("solve, sched", MIXED_SOLVERS, ids=["alt", "wf"])
    def test_exact_start_stays_double(self, precisions, solve, sched):
        e, x0, b, _ = instance(22)
        res = solve(e, b, x0, self._config(sched, rounds=100), truth=x0)
        assert set(_matvec_dtypes(precisions)) == {np.dtype(np.complex128)}
        assert max(r.rel_error for r in res.trace) <= 1e-14

    @pytest.mark.parametrize("solve, reference, sched", SOLVERS, ids=["alt", "wf"])
    def test_cdp_is_unchanged(self, solve, reference, sched):
        e, x0, b, z0 = _frame_instance("cdp")
        double = SolverConfig(max_rounds=300, schedules=sched, stop_tolerance=1e-8)
        mixed = SolverConfig(max_rounds=300, schedules=sched, stop_tolerance=1e-8, precision="mixed")
        _same_result(solve(e, b, z0, mixed, truth=x0), solve(e, b, z0, double, truth=x0))

    @pytest.mark.parametrize("solve, sched", MIXED_SOLVERS, ids=["alt", "wf"])
    def test_huge_intensities_stay_double(self, precisions, solve, sched):
        e = gaussian_ensemble(32, 192, seed=23)
        x0 = 1e12 * random_gaussian_signal(32, rng_stream(23, 1))
        b = measure(e, x0)
        assert float(np.max(b)) ** 2 > float(np.finfo(np.float32).max)
        z0 = spectral_init(e, b, rng=rng_stream(23, 2)).z0
        res = solve(e, b, z0, self._config(sched, rounds=300), truth=x0)
        assert not res.diverged
        assert set(_matvec_dtypes(precisions)) == {np.dtype(np.complex128)}

    def test_floor_below_float32_tiny_stays_double(self, precisions):
        # the flow: the preset alternating schedule diverges at this scale in
        # double precision too, since lam0 is absolute and the ramp grows as 1/||z0||^2
        e = gaussian_ensemble(32, 192, seed=23)
        x0 = 1e-8 * random_gaussian_signal(32, rng_stream(23, 1))
        b = measure(e, x0)
        level = solvers._KAPPA * solvers._EPS32**2 * float(np.mean(np.square(b)))
        assert 0.0 < level < float(np.finfo(np.float32).tiny)
        z0 = spectral_init(e, b, rng=rng_stream(23, 2)).z0
        res = wf_solve(e, b, z0, self._config(WF, rounds=300), truth=x0)
        assert not res.diverged
        assert set(_matvec_dtypes(precisions)) == {np.dtype(np.complex128)}

    def test_linesearch_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            SolverConfig(max_rounds=5, schedules=ALT_EXACT, precision="mixed")
        with pytest.raises(ValueError, match="precision"):
            SolverConfig(max_rounds=5, schedules=ALT, precision="half")

    @pytest.mark.parametrize("solve, sched", MIXED_SOLVERS, ids=["alt", "wf"])
    def test_switch_near_single_precision_floor(self, precisions, solve, sched):
        # a gate-5 trial: d = 128, N = 4.5 d, run to the sweep's 1e-8 stop
        e = gaussian_ensemble(128, 576, seed=24)
        x0 = random_gaussian_signal(128, rng_stream(24, 1))
        b = measure(e, x0)
        z0 = spectral_init(e, b, rng=rng_stream(24, 2)).z0
        res = solve(e, b, z0, self._config(sched, rounds=2500, stop=1e-8), truth=x0)
        assert res.converged
        # the first double-precision matvec is the floor round's refresh
        (_, down), (rel, up) = _switches(precisions)[:2]
        assert (down, up) == (np.complex64, np.complex128)
        assert 1e-7 <= rel <= 1e-5

    @pytest.mark.parametrize("solve, sched", MIXED_SOLVERS, ids=["alt", "wf"])
    def test_refined_final_error_matches_double(self, solve, sched):
        # test_switch_near_single_precision_floor's instance, to its full budget
        e = gaussian_ensemble(128, 576, seed=24)
        x0 = random_gaussian_signal(128, rng_stream(24, 1))
        b = measure(e, x0)
        z0 = spectral_init(e, b, rng=rng_stream(24, 2)).z0
        double = SolverConfig(max_rounds=2500, schedules=sched)
        mixed = solve(e, b, z0, self._config(sched, rounds=2500), truth=x0).trace[-1].rel_error
        assert mixed <= 1.5 * solve(e, b, z0, double, truth=x0).trace[-1].rel_error
        if solve is altmin_solve:
            assert mixed <= 1e-13

    @pytest.mark.parametrize("solve, sched, blocks", [(altmin_solve, ALT, 2), (wf_solve, WF, 1)], ids=["alt", "wf"])
    def test_refresh_period_past_the_floor(self, precisions, solve, sched, blocks):
        e, x0, b, init = instance(21)
        solve(e, b, init.z0, self._config(sched), truth=x0)
        rounds = _rounds(precisions)
        assert len(rounds) == 2000
        # each round: every block's adjoint, then the forward of its move
        assert all([name for name, _ in r] == ["adjoint", "forward"] * blocks for r in rounds)
        opened = next(tau for tau, r in enumerate(rounds, 1) if np.complex128 in (dtype for _, dtype in r))
        assert all(dtype == np.complex64 for r in rounds[: opened - 1] for _, dtype in r)
        for tau, r in enumerate(rounds[opened - 1:], opened):
            assert [dtype for name, dtype in r if name == "adjoint"] == [np.complex64] * blocks
            due = (tau - opened) % solvers._REFRESH == 0
            assert [dtype for name, dtype in r if name == "forward"] == [np.complex128 if due else np.complex64] * blocks
        assert len(rounds) - opened >= 5 * solvers._REFRESH
