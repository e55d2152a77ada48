import numpy as np
import pytest

from phasesplit.analysis import fd_gradient_check
from phasesplit.core import rng_stream
from phasesplit.measurement import Ensemble, cdp_ensemble, gaussian_ensemble, measure, random_vector
from phasesplit.objective import (
    residuals,
    split_grad,
    split_grad_x,
    split_loss,
    split_quad_form,
    wf_grad,
    wf_loss,
    wf_quad_form,
)


def scalar_ensemble(f):
    frame = np.array([[float(f)]])
    return Ensemble(frame=frame)


def random_instance(seed, d=8, N=40, field="complex"):
    e = gaussian_ensemble(d, N, field=field, seed=seed)
    rng = rng_stream(seed, 1)
    if field == "complex":
        draw = lambda: rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        draw = lambda: rng.standard_normal(d)
    x0 = draw()
    return e, x0, measure(e, x0), draw, rng


def loop_split_loss(e, x, y, b, lam):
    total = 0.0
    for n in range(e.N):
        f = e.frame[:, n]
        r = np.conj(np.vdot(f, x)) * np.vdot(f, y) - b[n]
        total += abs(r) ** 2
    return total / e.N + lam * np.linalg.norm(x - y) ** 2


def loop_wf_loss(e, z, b):
    total = 0.0
    for n in range(e.N):
        total += (abs(np.vdot(e.frame[:, n], z)) ** 2 - b[n]) ** 2
    return total / e.N


class TestSplitLoss:
    def test_zero_at_truth(self):
        e, x0, b, _, _ = random_instance(1)
        assert split_loss(e, x0, x0, b, 5.0) <= 1e-20

    def test_hand_case(self):
        e = scalar_ensemble(1.0)
        val = split_loss(e, np.array([2.0]), np.array([3.0]), np.array([0.0]), 1.0)
        assert val == pytest.approx(37.0, rel=1e-14)

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_matches_naive_loop(self, field):
        e, x0, b, draw, _ = random_instance(2, field=field)
        x, y = draw(), draw()
        assert split_loss(e, x, y, b, 0.3) == pytest.approx(
            loop_split_loss(e, x, y, b, 0.3), rel=1e-12
        )

    def test_argument_swap_symmetry(self):
        e, x0, b, draw, _ = random_instance(3)
        x, y = draw(), draw()
        assert split_loss(e, x, y, b, 0.7) == pytest.approx(
            split_loss(e, y, x, b, 0.7), rel=1e-12
        )

    def test_scale_coercivity_probe(self):
        e, x0, b, draw, _ = random_instance(4)
        x, y = draw(), draw()
        values = [split_loss(e, t * x, t * y, b, 0.5) for t in (1.0, 1e2, 1e4)]
        assert values[0] < values[1] < values[2]

    def test_rejects_negative_lam(self):
        e, x0, b, draw, _ = random_instance(5)
        with pytest.raises(ValueError):
            split_loss(e, x0, x0, b, -1.0)

    def test_dim_mismatch(self):
        e, x0, b, _, _ = random_instance(6)
        with pytest.raises(ValueError):
            split_loss(e, x0, x0[:-1], b, 0.0)


class TestSplitGrad:
    def test_vanishes_at_global_minimizer(self):
        # the residual at the truth is zero up to one rounding of b itself
        e, x0, b, _, _ = random_instance(7)
        gx, gy = split_grad(e, x0, x0, b, 2.0)
        tiny = 1e-12 * (1.0 + float(b.max()))
        assert np.linalg.norm(gx) <= tiny
        assert np.linalg.norm(gy) <= tiny

    def test_finite_differences_real(self):
        e, x0, b, draw, rng = random_instance(8, field="real")
        point = (draw(), draw())
        for kind in ("split_x", "split_y"):
            assert fd_gradient_check(kind, e, point, b, lam=0.4, rng=rng) < 1e-6

    def test_finite_differences_complex_directional(self):
        e, x0, b, draw, rng = random_instance(9)
        point = (draw(), draw())
        for kind in ("split_x", "split_y"):
            assert fd_gradient_check(kind, e, point, b, lam=0.4, rng=rng) < 1e-5

    def test_residual_cache_is_consistent(self):
        e, x0, b, draw, _ = random_instance(10)
        x, y = draw(), draw()
        res = residuals(e, x, y, b)
        fresh = residuals(e, x, y, b)
        for cached, again in ((res.r, fresh.r), (res.fx, fresh.fx), (res.fy, fresh.fy)):
            assert np.allclose(cached, again, rtol=1e-12)


class TestWfObjective:
    def test_zero_at_truth(self):
        e, x0, b, _, _ = random_instance(11)
        assert wf_loss(e, x0, b) <= 1e-20

    def test_equals_diagonal_split_loss(self):
        e, x0, b, draw, _ = random_instance(12)
        z = draw()
        assert wf_loss(e, z, b) == pytest.approx(split_loss(e, z, z, b, 123.0), rel=1e-12)

    def test_matches_naive_loop(self):
        e, x0, b, draw, _ = random_instance(13)
        z = draw()
        assert wf_loss(e, z, b) == pytest.approx(loop_wf_loss(e, z, b), rel=1e-12)

    def test_gradient_zero_at_truth(self):
        e, x0, b, _, _ = random_instance(14)
        assert np.linalg.norm(wf_grad(e, x0, b)) == 0.0

    def test_gradient_finite_differences(self):
        e, x0, b, draw, rng = random_instance(15, field="real")
        assert fd_gradient_check("wf", e, draw(), b, rng=rng) < 1e-6
        ec, x0c, bc, drawc, rngc = random_instance(16)
        assert fd_gradient_check("wf", ec, drawc(), bc, rng=rngc) < 1e-5

    def test_gradient_is_diagonal_split_gradient_sum(self):
        e, x0, b, draw, _ = random_instance(17)
        z = draw()
        gx, gy = split_grad(e, z, z, b, 0.0)
        combined = gx + gy
        g = wf_grad(e, z, b)
        assert np.allclose(combined, g, rtol=1e-12, atol=1e-12 * np.linalg.norm(g))


class TestDiagonalIdentity:
    """At x = y the residual is real and the coupling vanishes: the x-block
    gradient of the split loss is half the flow's, and the losses agree."""

    @pytest.mark.parametrize("lam", [0.0, 300.0])
    @pytest.mark.parametrize("make", [
        lambda: gaussian_ensemble(16, 96, field="real", seed=19),
        lambda: gaussian_ensemble(16, 96, seed=19),
        lambda: cdp_ensemble(16, 6, seed=19),
    ], ids=["real", "complex", "cdp"])
    def test_split_meets_flow(self, make, lam):
        e = make()
        rng = rng_stream(19, 1)
        b = measure(e, random_vector(e, rng))
        z = random_vector(e, rng)
        gx = split_grad_x(e, residuals(e, z, z, b), z, z, lam)
        g = wf_grad(e, z, b)
        half = g / 2.0
        if e.is_complex:
            assert np.max(np.abs(gx - half)) <= 1e-12 * np.max(np.abs(g))
        else:
            assert gx.dtype == half.dtype and gx.tobytes() == half.tobytes()
        assert split_loss(e, z, z, b, lam) == wf_loss(e, z, b)

    def test_real_frame_hessians_differ_by_four_at_the_truth(self):
        """At x = y = truth on a real frame with lam = 0, the flow's Hessian is
        4 times the split loss's x-block: with r = 0, d wf_grad = (8/N) sum
        (f^T z)^2 (f^T v) f and d split_grad_x = (2/N) sum (f^T y)^2 (f^T v) f.
        The x-block is linear in x, so its change along v is exact, and only
        the flow's central difference carries an O(h^2) error (2e-8 here). On
        complex frames the flow's Hessian has a conjugate term that the
        x-block lacks, so the identity does not hold there: the same construction
        on a complex frame gives a relative gap of 0.69."""
        e = gaussian_ensemble(16, 96, field="real", seed=3)
        truth = random_vector(e, rng_stream(3, 1))
        b, rng, h = measure(e, truth), rng_stream(3, 2), 1e-4

        def grad_x(x):
            return split_grad_x(e, residuals(e, x, truth, b), x, truth, 0.0)

        for _ in range(5):
            v = random_vector(e, rng)
            flow = (wf_grad(e, truth + h * v, b) - wf_grad(e, truth - h * v, b)) / (2.0 * h)
            block = (grad_x(truth + h * v) - grad_x(truth - h * v)) / (2.0 * h)
            assert np.linalg.norm(flow - 4.0 * block) <= 1e-6 * np.linalg.norm(4.0 * block)


class TestQuadForms:
    def test_zero_vector(self):
        e, x0, b, draw, _ = random_instance(18)
        assert split_quad_form(e, draw(), np.zeros(8), 0.9) == 0.0
        assert wf_quad_form(e, draw(), np.zeros(8)) == 0.0

    def test_hand_case(self):
        e = scalar_ensemble(1.0)
        assert split_quad_form(e, np.array([2.0]), np.array([3.0]), 0.0) == pytest.approx(36.0)

    def test_matches_dense_curvature_matrix(self):
        e, x0, b, draw, _ = random_instance(19)
        anchor, v = draw(), draw()
        lam = 0.6
        fy = e.frame.conj().T @ anchor
        H = sum(
            np.abs(fy[n]) ** 2 * np.outer(e.frame[:, n], e.frame[:, n].conj())
            for n in range(e.N)
        ) / e.N + lam * np.eye(8)
        dense = float(np.real(np.vdot(v, H @ v)))
        assert split_quad_form(e, anchor, v, lam) == pytest.approx(dense, rel=1e-10)

    def test_dominates_coupling_term(self):
        e, x0, b, draw, _ = random_instance(20)
        for _ in range(20):
            v = draw()
            lam = 0.8
            assert split_quad_form(e, draw(), v, lam) >= lam * np.linalg.norm(v) ** 2 * (1 - 1e-12)

    def test_wf_quad_form_real_reduction(self):
        e, x0, b, draw, _ = random_instance(21, field="real")
        z, v = draw(), draw()
        loop = 6.0 / e.N * sum(
            (e.frame[:, n] @ z) ** 2 * (e.frame[:, n] @ v) ** 2 for n in range(e.N)
        )
        assert wf_quad_form(e, z, v) == pytest.approx(loop, rel=1e-10)

    def test_wf_quad_form_zero_anchor(self):
        e, x0, b, draw, _ = random_instance(22)
        assert wf_quad_form(e, np.zeros(8), draw()) == 0.0

    def test_works_on_cdp(self):
        from phasesplit.measurement import dense_frame

        e = cdp_ensemble(8, 5, seed=23)
        rng = rng_stream(23, 1)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = measure(e, x0)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        dense = Ensemble(frame=dense_frame(e))
        assert split_loss(e, x, y, b, 0.2) == pytest.approx(
            split_loss(dense, x, y, b, 0.2), rel=1e-10
        )
        gx_f, gy_f = split_grad(e, x, y, b, 0.2)
        gx_d, gy_d = split_grad(dense, x, y, b, 0.2)
        assert np.allclose(gx_f, gx_d, rtol=1e-9)
        assert np.allclose(gy_f, gy_d, rtol=1e-9)
