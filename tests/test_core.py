import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasesplit.core import (
    check_count,
    derive_seed,
    l2_norm,
    phase_dist,
    relative_error,
    rng_stream,
)


def complex_vectors(dim):
    elem = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(elem, elem), min_size=dim, max_size=dim).map(
        lambda pairs: np.array([a + 1j * b for a, b in pairs])
    )


class TestPhaseDist:
    def test_identity_is_zero(self):
        x = rng_stream(0).standard_normal(8) + 1j * rng_stream(0, 1).standard_normal(8)
        assert phase_dist(x, x) == 0.0

    def test_sign_flip_is_zero(self):
        x = rng_stream(1).standard_normal(8) + 1j * rng_stream(1, 1).standard_normal(8)
        assert phase_dist(x, -x) == 0.0

    def test_orthogonal_real_pair(self):
        # min over unimodular c of ||(1,0) - c(0,1)|| is sqrt(2)
        assert phase_dist(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            np.sqrt(2), abs=1e-15
        )

    def test_matches_closed_form_at_moderate_separation(self):
        rng = rng_stream(2)
        for _ in range(25):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            closed = np.sqrt(
                max(
                    0.0,
                    np.linalg.norm(x) ** 2
                    + np.linalg.norm(y) ** 2
                    - 2 * abs(np.vdot(x, y)),
                )
            )
            assert phase_dist(x, y) == pytest.approx(closed, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_dist(np.ones(3), np.ones(4))

    @given(complex_vectors(4), complex_vectors(4), st.floats(0, 2 * np.pi))
    @settings(max_examples=60, deadline=None)
    def test_unimodular_invariance_and_symmetry(self, x, y, angle):
        c = np.exp(1j * angle)
        base = phase_dist(x, y)
        scale = max(np.linalg.norm(x), np.linalg.norm(y), 1.0)
        assert abs(phase_dist(c * x, y) - base) <= 1e-12 * scale
        assert abs(phase_dist(x, c * y) - base) <= 1e-12 * scale
        assert abs(phase_dist(y, x) - base) <= 1e-12 * scale

    @given(complex_vectors(4), complex_vectors(4), complex_vectors(4))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        lhs = phase_dist(x, z)
        rhs = phase_dist(x, y) + phase_dist(y, z)
        scale = max(np.linalg.norm(v) for v in (x, y, z)) + 1.0
        assert lhs <= rhs + 1e-10 * scale


class TestRelativeError:
    def test_exact_recovery(self):
        x = rng_stream(3).standard_normal(5)
        assert relative_error(x, x) == 0.0

    def test_double_scale_is_one(self):
        x = rng_stream(4).standard_normal(5) + 1j * rng_stream(4, 1).standard_normal(5)
        assert relative_error(x, 2 * x) == pytest.approx(1.0, rel=1e-12)

    def test_global_phase_is_zero(self):
        x = rng_stream(5).standard_normal(5) + 1j * rng_stream(5, 1).standard_normal(5)
        assert relative_error(x, 1j * x) <= 1e-15

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros(4), np.ones(4))

    def test_two_dimensional_signal_rejected(self):
        with pytest.raises(ValueError, match="signals must be 1-D vectors"):
            relative_error(np.ones((2, 2)), np.ones((2, 2)))


@st.composite
def _vector_pairs(draw):
    """Two vectors of one length: real, complex or integer, contiguous or
    strided (every other entry of a longer array)."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["real", "complex", "integer"]))
    strided = draw(st.booleans())
    size = 2 * n if strided else n

    def one():
        if kind == "integer":
            return draw(hnp.arrays(np.int64, size, elements=st.integers(-1000, 1000)))
        parts = hnp.arrays(np.float64, size, elements=st.floats(-1e3, 1e3, allow_subnormal=False))
        v = draw(parts)
        return v + 1j * draw(parts) if kind == "complex" else v

    x, y = one(), one()
    return (x[::2], y[::2]) if strided else (x, y)


class TestBitwiseNorms:
    """l2_norm and relative_error give np.linalg.norm's bits."""

    @staticmethod
    def reference_relative_error(x, y):
        ip = np.vdot(y, x)
        if abs(ip) == 0.0:
            c = 1.0 + 0.0j
        elif abs(ip) < np.finfo(float).tiny:  # a subnormal |<y, x>|: ip / abs(ip) overflows
            c = complex(ip.real / abs(ip), ip.imag / abs(ip))
        else:
            c = ip / abs(ip)
        return np.linalg.norm(x - c * y) / np.linalg.norm(x)

    @given(_vector_pairs())
    @example((np.array([6.69967432e-53j]), np.array([5.26801553e-262 + 0j])))  # <y, x> is subnormal
    @settings(max_examples=300, deadline=None)
    def test_relative_error_matches_linalg_norm(self, pair):
        x, y = pair
        if np.linalg.norm(x) == 0.0:  # also when the squares underflow
            with pytest.raises(ValueError, match="nonzero"):
                relative_error(x, y)
            return
        assert relative_error(x, y) == self.reference_relative_error(x, y)
        assert l2_norm(x) == np.linalg.norm(x) and l2_norm(y) == np.linalg.norm(y)

    @pytest.mark.parametrize("dtype", [float, complex, np.int64])
    def test_zero_inner_product(self, dtype):
        x = np.array([3, 0, 0, 0], dtype=dtype)
        y = np.array([0, 2, 0, 5], dtype=dtype)
        assert np.vdot(y, x) == 0
        assert relative_error(x, y) == self.reference_relative_error(x, y)


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(1), np.uint8(2)])
    def test_integers_pass(self, value):
        check_count(value, "trials")

    def test_minimum_is_inclusive(self):
        check_count(0, "seed", minimum=0)
        check_count(2, "iterations", minimum=2)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, 1.5, np.float64(2.0), "3", None, 0, -1])
    def test_rejects_and_names_the_field(self, value):
        with pytest.raises(ValueError, match=r"trials must be an integer >= 1, not "):
            check_count(value, "trials")

    def test_message_shows_minimum_and_value(self):
        with pytest.raises(ValueError, match=r"^iterations must be an integer >= 2, not 1$"):
            check_count(1, "iterations", minimum=2)


class TestRngStreams:
    def test_bitwise_reproducible(self):
        a = rng_stream(99, 1, 2).standard_normal(256)
        b = rng_stream(99, 1, 2).standard_normal(256)
        assert np.array_equal(a, b)

    def test_keys_give_distinct_streams(self):
        a = rng_stream(99, 0).standard_normal(8)
        b = rng_stream(99, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
