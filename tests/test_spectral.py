import numpy as np
import pytest

from phasesplit.core import phase_dist, relative_error, rng_stream
from phasesplit.measurement import Ensemble, gaussian_ensemble, measure, random_vector
from phasesplit.spectral import apply_spectral_matrix, power_iteration, spectral_init


def single_column_ensemble():
    frame = np.zeros((4, 1))
    frame[0, 0] = 1.0
    return Ensemble(frame=frame)


class TestApplySpectralMatrix:
    def test_zero_intensities(self):
        e = gaussian_ensemble(6, 18, seed=1)
        v = rng_stream(1, 1).standard_normal(6)
        assert np.allclose(apply_spectral_matrix(e, np.zeros(18), v), 0.0)

    def test_rank_one_case(self):
        e = single_column_ensemble()
        v = np.array([2.0, -1.0, 0.5, 3.0])
        out = apply_spectral_matrix(e, np.array([1.0]), v)
        assert np.allclose(out, [2.0, 0.0, 0.0, 0.0])

    def test_matches_dense_matrix(self):
        e = gaussian_ensemble(8, 40, seed=2)
        rng = rng_stream(2, 1)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = measure(e, x0)
        Y = sum(
            b[n] * np.outer(e.frame[:, n], e.frame[:, n].conj()) for n in range(40)
        ) / 40
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(apply_spectral_matrix(e, b, v), Y @ v, rtol=1e-10)


class TestPowerIteration:
    def test_fixed_count(self):
        m = np.diag([3.0, 1.0, 0.5])
        rayleigh, v = power_iteration(lambda u: m @ u, np.ones(3), 7)
        assert len(rayleigh) == 7
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert rayleigh[-1] == pytest.approx(3.0, rel=1e-3)

    def test_needs_one_iteration(self):
        with pytest.raises(ValueError, match="iters must be an integer >= 1"):
            power_iteration(lambda u: u, np.ones(3), 0)

    @pytest.mark.parametrize("iters", [True, 3.0])
    def test_count_is_an_integer(self, iters):
        # True would run as one iteration
        with pytest.raises(ValueError, match="iters must be an integer >= 1"):
            power_iteration(lambda u: u, np.ones(3), iters)

    def test_zero_map_keeps_last_iterate(self):
        rayleigh, v = power_iteration(lambda u: np.zeros_like(u), np.array([3.0, 4.0]), 5)
        assert rayleigh == [0.0]
        assert np.array_equal(v, [0.6, 0.8])


class TestSpectralInit:
    def test_rank_one_converges_immediately(self):
        e = single_column_ensemble()
        init = spectral_init(e, np.array([1.0]), iters=1, rng=rng_stream(3))
        direction = init.z0 / np.linalg.norm(init.z0)
        assert abs(direction[0]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_matches_theta(self):
        e = gaussian_ensemble(16, 96, seed=4)
        x0 = random_vector(e, rng_stream(4, 1)) / np.sqrt(2.0)
        init = spectral_init(e, measure(e, x0), rng=rng_stream(4, 2))
        assert np.linalg.norm(init.z0) == pytest.approx(init.theta, rel=1e-10)

    def test_theta_concentrates_for_unit_signal(self):
        e = gaussian_ensemble(16, 10_000, seed=5)
        x0 = random_vector(e, rng_stream(5, 1)) / np.sqrt(2.0)
        x0 /= np.linalg.norm(x0)
        init = spectral_init(e, measure(e, x0), rng=rng_stream(5, 2))
        assert 0.95 <= init.theta <= 1.05

    def test_beats_random_direction(self):
        d = 128
        wins = []
        for seed in range(20):
            e = gaussian_ensemble(d, 6 * d, seed=seed)
            rng = rng_stream(6, seed)
            x0 = random_vector(e, rng) / np.sqrt(2.0)
            x0 /= np.linalg.norm(x0)
            init = spectral_init(e, measure(e, x0), iters=50, rng=rng)
            guess = init.z0 / np.linalg.norm(init.z0)
            baseline = random_vector(e, rng) / np.sqrt(2.0)
            baseline /= np.linalg.norm(baseline)
            err_init = relative_error(x0, guess)
            err_rand = relative_error(x0, baseline)
            wins.append(err_init < 1.0 and err_init < err_rand)
        assert all(wins)

    def test_rayleigh_trace_nondecreasing(self):
        e = gaussian_ensemble(32, 192, seed=7)
        x0 = random_vector(e, rng_stream(7, 1)) / np.sqrt(2.0)
        x0 /= np.linalg.norm(x0)
        init = spectral_init(e, measure(e, x0), iters=60, rng=rng_stream(7, 2))
        trace = init.rayleigh_trace
        assert np.all(np.diff(trace) >= -1e-12 * (1.0 + np.abs(trace[:-1])))

    def test_direction_stable_under_more_iterations(self):
        # heavily oversampled: the top eigenvalue is well separated
        e = gaussian_ensemble(16, 10_000, seed=8)
        x0 = random_vector(e, rng_stream(8, 1)) / np.sqrt(2.0)
        x0 /= np.linalg.norm(x0)
        b = measure(e, x0)
        a = spectral_init(e, b, iters=50, rng=rng_stream(8, 2))
        c = spectral_init(e, b, iters=100, rng=rng_stream(8, 2))
        assert phase_dist(
            a.z0 / np.linalg.norm(a.z0), c.z0 / np.linalg.norm(c.z0)
        ) < 1e-6

    def test_real_ensemble_gives_real_start(self):
        e = gaussian_ensemble(12, 72, field="real", seed=9)
        x0 = rng_stream(9, 1).standard_normal(12)
        init = spectral_init(e, measure(e, x0), rng=rng_stream(9, 2))
        assert not np.iscomplexobj(init.z0)

    def test_rejects_zero_intensities(self):
        e = gaussian_ensemble(4, 12, seed=10)
        with pytest.raises(ValueError):
            spectral_init(e, np.zeros(12), rng=rng_stream(10))

    def test_rejects_zero_iterations(self):
        e = gaussian_ensemble(4, 12, seed=11)
        with pytest.raises(ValueError):
            spectral_init(e, np.ones(12), iters=0, rng=rng_stream(11))

    @pytest.mark.parametrize("iters", [2.5, 3.0, "3"])
    def test_rejects_non_integer_iterations(self, iters):
        e = gaussian_ensemble(4, 12, seed=11)
        with pytest.raises(ValueError, match="integer"):
            spectral_init(e, np.ones(12), iters=iters, rng=rng_stream(11))

    def test_start_stream_is_the_callers(self):
        e = gaussian_ensemble(4, 12, seed=12)
        b = measure(e, rng_stream(12, 1).standard_normal(4))
        with pytest.raises(TypeError):
            spectral_init(e, b)
        with pytest.raises(TypeError):
            spectral_init(e, b, 50, rng_stream(12, 2))
