import numpy as np
import pytest

from phasesplit.analysis import (
    fd_gradient_check,
    frame_bound_check,
    monotonicity_audit,
    nuclear_dist_rank2,
    speedup_diagnostic,
)
from phasesplit.core import rng_stream
from phasesplit.measurement import (
    Ensemble,
    forward,
    gaussian_ensemble,
    measure,
)
from phasesplit.objective import split_grad, split_quad_form, wf_grad
from phasesplit.solvers import Schedules, SolverConfig, altmin_solve, wf_solve
from phasesplit.spectral import spectral_init


class TestFdGradientCheck:
    def test_near_critical_point_is_absolute(self):
        e = gaussian_ensemble(8, 40, seed=1)
        rng = rng_stream(1, 1)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = measure(e, x0)
        dev = fd_gradient_check("split_x", e, (x0, x0), b, lam=1.0, rng=rng)
        assert dev < 1e-8

    def test_sensitive_to_coarse_step(self):
        # the quartic objective has truncation error growing with h^2; the
        # split objective would not do (it is exactly quadratic per block)
        e = gaussian_ensemble(8, 40, seed=2)
        rng = rng_stream(2, 1)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = measure(e, x0)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        fine = fd_gradient_check("wf", e, z, b, h=1e-5, rng=rng_stream(2, 2))
        coarse = fd_gradient_check("wf", e, z, b, h=1e-1, rng=rng_stream(2, 2))
        assert coarse > 10 * fine

    def test_catches_sign_error(self):
        e = gaussian_ensemble(8, 40, field="real", seed=3)
        rng = rng_stream(3, 1)
        x0 = rng.standard_normal(8)
        b = measure(e, x0)
        z = rng.standard_normal(8)
        good = fd_gradient_check("wf", e, z, b, rng=rng_stream(3, 2))
        assert good < 1e-6
        # flipping the sign of the analytic gradient must blow the deviation up
        from phasesplit import analysis as mod

        original = mod.wf_grad
        mod.wf_grad = lambda *args, **kw: -original(*args, **kw)
        try:
            bad = fd_gradient_check("wf", e, z, b, rng=rng_stream(3, 2))
        finally:
            mod.wf_grad = original
        assert bad > 1.0

    def test_nan_gradient_is_reported_as_nan(self, monkeypatch):
        # a NaN deviation must not be lost in the running max as a perfect 0.0
        from phasesplit import analysis as mod

        e = gaussian_ensemble(8, 40, seed=1)
        rng = rng_stream(1, 1)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = measure(e, z)
        monkeypatch.setattr(mod, "wf_grad", lambda e, z, b: np.full(z.shape, np.nan + 0j))
        assert np.isnan(fd_gradient_check("wf", e, z, b, rng=rng_stream(1, 2)))

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, h):
        e = gaussian_ensemble(4, 8, seed=4)
        with pytest.raises(ValueError, match="positive and finite"):
            fd_gradient_check("wf", e, np.ones(4, dtype=complex), np.ones(8), h=h)

    def test_rejects_unknown_kind(self):
        e = gaussian_ensemble(4, 8, seed=4)
        with pytest.raises(ValueError):
            fd_gradient_check("hessian", e, np.ones(4), np.ones(8))


class TestFrameBound:
    def test_identity_frame_is_tight_everywhere(self):
        e = Ensemble(frame=np.eye(5))
        rep = frame_bound_check(e, trials=200, rng=rng_stream(5))
        assert rep.violations == 0
        assert rep.bound == pytest.approx(1.0, rel=1e-9)
        assert rep.equality_gap <= 1e-9

    def test_gaussian_thousand_rank_one_trials(self):
        rep = frame_bound_check(gaussian_ensemble(16, 64, seed=6), trials=1000)
        assert rep.violations == 0
        assert rep.worst_slack <= 1e-8
        assert rep.equality_gap <= 1e-6

    def test_rank_one_homogeneity(self):
        e = gaussian_ensemble(8, 24, seed=7)
        rng = rng_stream(7, 1)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lhs = float(np.sum(np.abs(forward(e, u)) * np.abs(forward(e, v))))
        lhs_scaled = float(np.sum(np.abs(forward(e, 7.0 * u)) * np.abs(forward(e, v))))
        assert lhs_scaled == pytest.approx(7.0 * lhs, rel=1e-12)
        # nuclear norm of the rank-one test matrix scales identically
        assert np.linalg.norm(7.0 * u) * np.linalg.norm(v) == pytest.approx(
            7.0 * np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12
        )

    def test_nan_slack_is_a_violation(self, monkeypatch):
        from phasesplit import analysis as mod

        monkeypatch.setattr(mod, "forward", lambda e, v: np.full(e.N, np.nan + 0j))
        rep = frame_bound_check(gaussian_ensemble(4, 8, seed=8), trials=5)
        assert rep.violations == 5
        assert np.isnan(rep.worst_slack)

    def test_needs_positive_trials(self):
        with pytest.raises(ValueError):
            frame_bound_check(gaussian_ensemble(4, 8, seed=8), trials=0)


class TestNuclearDist:
    def test_identical_vectors(self):
        x = rng_stream(9).standard_normal(6) + 1j * rng_stream(9, 1).standard_normal(6)
        assert nuclear_dist_rank2(x, x) <= 1e-12

    def test_global_phase_is_invisible(self):
        x = rng_stream(10).standard_normal(6) + 1j * rng_stream(10, 1).standard_normal(6)
        assert nuclear_dist_rank2(x, np.exp(0.3j) * x) <= 1e-12 * np.linalg.norm(x) ** 2

    def test_orthonormal_pair(self):
        x = np.zeros(4)
        z = np.zeros(4)
        x[0] = 1.0
        z[1] = 1.0
        assert nuclear_dist_rank2(x, z) == pytest.approx(2.0, rel=1e-12)

    def test_matches_svd_oracle(self):
        for d in (2, 5, 16):
            rng = rng_stream(11, d)
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            dense = np.outer(z, z.conj()) - np.outer(x, x.conj())
            oracle = float(np.sum(np.linalg.svd(dense, compute_uv=False)))
            assert nuclear_dist_rank2(x, z) == pytest.approx(oracle, rel=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            nuclear_dist_rank2(np.ones(3), np.ones(4))


class TestSpeedupDiagnostic:
    def test_ratio_near_two_thirds(self):
        ratios = []
        for seed in range(20):
            e = gaussian_ensemble(64, 512, field="real", seed=seed)
            x0 = rng_stream(12, seed).standard_normal(64)
            ratios.append(speedup_diagnostic(e, x0, 1e-3, rng=rng_stream(12, seed, 1)).ratio)
        assert 0.55 <= np.mean(ratios) <= 0.80

    def test_decreases_are_negative(self):
        e = gaussian_ensemble(32, 256, field="real", seed=13)
        rep = speedup_diagnostic(e, rng_stream(13, 1).standard_normal(32), 1e-3)
        assert rep.predicted_E_decrease < 0
        assert rep.predicted_G_decrease < 0
        assert rep.proximity <= 1e-3

    def test_scale_invariance(self):
        e = gaussian_ensemble(32, 256, field="real", seed=14)
        x0 = rng_stream(14, 1).standard_normal(32)
        r1 = speedup_diagnostic(e, x0, 1e-3, rng=rng_stream(14, 2))
        r2 = speedup_diagnostic(e, 3.0 * x0, 1e-3, rng=rng_stream(14, 2))
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-10)

    def test_zero_perturbation_has_zero_gradient(self):
        e = gaussian_ensemble(16, 128, field="real", seed=15)
        with pytest.raises(ValueError):
            speedup_diagnostic(e, rng_stream(15, 1).standard_normal(16), 0.0)
        # a zero signal also lands exactly on a critical point
        with pytest.raises(ValueError, match="critical"):
            speedup_diagnostic(e, np.zeros(16), 1e-3)

    def test_exact_one_step_decreases_agree_on_real_frames(self):
        # the ~2/3 is two normalizations, not a larger alternating decrease:
        # the split formula counts twice the exact x-step decrease, the flow
        # formula 4/3 of the exact flow-step decrease
        for seed in range(4000, 4005):
            e = gaussian_ensemble(64, 512, field="real", seed=seed)
            x0 = rng_stream(seed, 1).standard_normal(64)
            rep = speedup_diagnostic(e, x0, 1e-3, rng=rng_stream(seed, 2))
            delta = rng_stream(seed, 2).standard_normal(64)  # the diagnostic's own draw
            z = x0 + delta * (1e-3 * np.linalg.norm(x0) / np.linalg.norm(delta))
            b = measure(e, x0)

            gx, _ = split_grad(e, z, z, b, 0.0)
            sq = np.linalg.norm(gx) ** 2
            quad = split_quad_form(e, z, gx, 0.0)
            dec_e = sq * sq / (4.0 * quad)  # E(z - t gx, z) = E - t sq + t^2 quad exactly

            # G(z - t g) = (1/N) sum (p + q t + s t^2)^2, minimized at a real
            # root of its cubic derivative (ROADMAP item 1's coefficients)
            a, c = forward(e, z), forward(e, wf_grad(e, z, b))
            p, q, s = a * a - b, -2.0 * a * c, c * c
            cubic = [4 * (s * s).sum(), 6 * (q * s).sum(), 2 * (q * q + 2 * p * s).sum(), 2 * (p * q).sum()]

            def quartic(t):
                return ((p + q * t + s * t * t) ** 2).sum() / e.N

            dec_g = quartic(0.0) - min(quartic(t.real) for t in np.roots(cubic))
            assert dec_g == pytest.approx(dec_e, rel=0.01)
            assert rep.predicted_E_decrease == pytest.approx(-2.0 * dec_e, rel=1e-9)
            assert rep.predicted_G_decrease == pytest.approx(-4.0 / 3.0 * dec_g, rel=0.01)

    def test_complex_ensembles_rejected(self):
        e = gaussian_ensemble(16, 128, field="complex", seed=16)
        with pytest.raises(ValueError):
            speedup_diagnostic(e, rng_stream(16, 1).standard_normal(16), 1e-3)

    def test_complex_start_on_real_frame_rejected(self):
        # as in _solve: the imaginary part is not silently dropped
        e = gaussian_ensemble(16, 128, field="real", seed=16)
        x0 = rng_stream(16, 1).standard_normal(16)
        with pytest.raises(ValueError, match="nonzero imaginary part, but the frame is real"):
            speedup_diagnostic(e, x0 + 1e-3j, 1e-3)
        # a complex dtype with zero imaginary part is the real start
        real = speedup_diagnostic(e, x0, 1e-3, rng=rng_stream(16, 2))
        assert speedup_diagnostic(e, x0 + 0j, 1e-3, rng=rng_stream(16, 2)) == real

    def test_concentration_does_not_worsen_with_oversampling(self):
        # with x == y the ratio is 2/3 identically, so both spreads sit at
        # rounding level; assert the wide ensemble is no looser than tight
        def spread(oversampling):
            vals = []
            for seed in range(20):
                e = gaussian_ensemble(32, oversampling * 32, field="real", seed=seed)
                x0 = rng_stream(17, seed).standard_normal(32)
                vals.append(speedup_diagnostic(e, x0, 1e-3).ratio)
            return float(np.std(vals))

        assert spread(16) <= spread(4) + 1e-12


class TestMonotonicityAudit:
    def test_clean_trace(self):
        ok, idx = monotonicity_audit([5.0, 4.0, 3.0, 3.0, 2.9999])
        assert ok and idx is None

    def test_flags_first_uptick(self):
        ok, idx = monotonicity_audit([5.0, 4.0, 4.5, 3.0, 3.5])
        assert not ok and idx == 2

    @pytest.mark.parametrize("values, idx", [([1.0, np.nan, 2.0], 1), ([np.nan, 1.0], 1), ([3.0, 2.0, np.nan], 2)])
    def test_nan_is_an_uptick(self, values, idx):
        assert monotonicity_audit(values) == (False, idx)

    def test_tolerates_rounding_slack(self):
        ok, _ = monotonicity_audit([1.0, 1.0 + 1e-13])
        assert ok

    def test_accepts_solve_result(self):
        e = gaussian_ensemble(16, 96, seed=19)
        from phasesplit.signals import random_gaussian_signal

        x0 = random_gaussian_signal(16, rng_stream(19, 1))
        b = measure(e, x0)
        init = spectral_init(e, b, rng=rng_stream(19, 2))
        sched = Schedules(lam0=300.0, lam_decay=0.15 / 330, step="exact")
        res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=500, schedules=sched))
        ok, idx = monotonicity_audit(res)
        assert ok, f"uptick at {idx}"
        flow = wf_solve(e, b, init.z0, SolverConfig(max_rounds=500, schedules=sched))
        ok, idx = monotonicity_audit(flow)
        assert ok, f"flow uptick at {idx}"
