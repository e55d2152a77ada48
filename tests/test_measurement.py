import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasesplit.core import rng_stream
from phasesplit.measurement import (
    CDP_ATOMS,
    CDP_ATOM_PROBS,
    Ensemble,
    adjoint,
    as_field_signal,
    cdp_ensemble,
    dense_frame,
    forward,
    gaussian_ensemble,
    measure,
    random_vector,
    sum_column_norms_sq,
    upper_frame_bound,
)


def identity_ensemble(d):
    frame = np.eye(d)
    return Ensemble(frame=frame)


class TestConstruction:
    def test_gaussian_deterministic(self):
        a = gaussian_ensemble(2, 3, field="complex", seed=5)
        b = gaussian_ensemble(2, 3, field="complex", seed=5)
        assert np.array_equal(a.frame, b.frame)

    def test_cdp_deterministic(self):
        a = cdp_ensemble(16, 4, seed=5)
        b = cdp_ensemble(16, 4, seed=5)
        assert np.array_equal(a.masks, b.masks)
        assert a.N == 4 * 16

    def test_column_energy(self):
        for field in ("complex", "real"):
            e = gaussian_ensemble(16, 10_000, field=field, seed=1)
            norms = np.sum(np.abs(e.frame) ** 2, axis=0)
            assert np.mean(norms) == pytest.approx(16.0, rel=0.03)

    def test_degenerate_scalar_frame(self):
        e = gaussian_ensemble(1, 1, field="real", seed=2)
        f = e.frame[0, 0]
        x = np.array([1.7])
        assert measure(e, x)[0] == pytest.approx((f * 1.7) ** 2, rel=1e-14)

    def test_rank_deficiency_flag(self):
        assert gaussian_ensemble(8, 4, seed=0).maybe_rank_deficient
        assert not gaussian_ensemble(8, 8, seed=0).maybe_rank_deficient

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gaussian_ensemble(0, 4)
        with pytest.raises(ValueError):
            cdp_ensemble(4, 0)

    @pytest.mark.parametrize("make, name", [
        (lambda: gaussian_ensemble(16, 96.0), "N"),
        (lambda: gaussian_ensemble(16.0, 96), "d"),
        (lambda: gaussian_ensemble(True, 4), "d"),
        (lambda: cdp_ensemble(16, 6.0), "L"),
        (lambda: cdp_ensemble(16.0, 6), "d"),
        (lambda: cdp_ensemble(4, True), "L"),
    ])
    def test_sizes_are_integers(self, make, name):
        # a whole float would fail inside numpy, and True would run as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            make()

    def test_numpy_integer_sizes_keep_their_bytes(self):
        a, b = gaussian_ensemble(np.int64(16), np.int64(96), seed=4), gaussian_ensemble(16, 96, seed=4)
        assert (a.d, a.N) == (16, 96) and a.frame.tobytes() == b.frame.tobytes()
        assert cdp_ensemble(np.int64(16), np.int64(6), seed=4).masks.tobytes() == cdp_ensemble(16, 6, seed=4).masks.tobytes()

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'quaternion'"):
            gaussian_ensemble(4, 6, field="quaternion")


class TestPayloadContract:
    """An ensemble is its frame or its masks; every other attribute is read off it."""

    def test_needs_exactly_one_payload(self):
        with pytest.raises(ValueError, match="exactly one"):
            Ensemble()
        with pytest.raises(ValueError, match="exactly one"):
            Ensemble(frame=np.eye(2), masks=np.ones((1, 2)))

    @pytest.mark.parametrize("make, d, N, is_complex, L", [
        (lambda: gaussian_ensemble(6, 10, field="real", seed=1), 6, 10, False, None),
        (lambda: gaussian_ensemble(6, 10, seed=1), 6, 10, True, None),
        (lambda: cdp_ensemble(8, 3, seed=1), 8, 24, True, 3),
        (lambda: Ensemble(frame=np.eye(3) + 0j), 3, 3, True, None),
        (lambda: Ensemble(frame=np.ones((2, 5))), 2, 5, False, None),
    ])
    def test_attributes_follow_payload(self, make, d, N, is_complex, L):
        for e in (make(), pickle.loads(pickle.dumps(make()))):
            assert (e.d, e.N, e.is_complex) == (d, N, is_complex)
            if L is None:
                with pytest.raises(ValueError, match="not a CDP"):
                    e.L
            else:
                assert e.L == L

    @pytest.mark.parametrize("payload", [
        {"masks": np.ones((2, 3, 4))},
        {"masks": np.ones(3)},
        {"frame": np.ones(3)},
        {"frame": np.ones((2, 3, 4))},
        {"frame": np.float64(1.0)},
    ])
    def test_payload_must_be_two_dimensional(self, payload):
        with pytest.raises(ValueError, match=r"\(d, N\) array and masks an \(L, d\) array"):
            Ensemble(**payload)

    def test_no_tag_or_seed_is_stored(self):
        for e in (gaussian_ensemble(4, 8, seed=3), cdp_ensemble(4, 2, seed=3)):
            assert not hasattr(e, "kind") and not hasattr(e, "seed")

    def test_size_fields_are_not_constructor_values(self):
        with pytest.raises(TypeError):
            Ensemble(frame=np.eye(2), d=2, N=2)

    @pytest.mark.parametrize("shape", [(128, 384), (128, 576), (16, 64), (7, 3), (1, 3), (1, 1)])
    def test_complex_frame_bytes_match_two_draw_expression(self, shape):
        for seed in range(5):
            rng = rng_stream(seed, 0xE5)
            expected = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            e = gaussian_ensemble(*shape, seed=seed)
            assert _same_bytes(e.frame, expected)


class TestCdpMasks:
    def test_entries_in_atom_set(self):
        masks = cdp_ensemble(64, 8, seed=3).masks.ravel()
        assert all(np.any(np.isclose(v, CDP_ATOMS)) for v in masks)

    def test_atom_frequencies(self):
        masks = cdp_ensemble(1000, 100, seed=4).masks.ravel()  # 1e5 draws
        for atom, p in zip(CDP_ATOMS, CDP_ATOM_PROBS):
            freq = np.mean(np.isclose(masks, atom))
            assert freq == pytest.approx(p, abs=0.005)

    def test_unit_second_moment(self):
        masks = cdp_ensemble(1000, 100, seed=4).masks.ravel()
        assert np.mean(np.abs(masks) ** 2) == pytest.approx(1.0, abs=0.02)


class TestForwardAdjoint:
    @pytest.mark.parametrize("make", [
        lambda: gaussian_ensemble(16, 40, seed=8),
        lambda: gaussian_ensemble(16, 40, field="real", seed=8),
        lambda: cdp_ensemble(16, 3, seed=8),
    ], ids=["gaussian_complex", "gaussian_real", "cdp"])
    def test_out_gives_the_same_bytes_in_place(self, make):
        e = make()
        rng = rng_stream(8, 1)
        v, w = random_vector(e, rng), rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
        if not e.is_complex:
            w = w.real.copy()
        for op, arg, n in ((forward, v, e.N), (adjoint, w, e.d)):
            expected = op(e, arg)
            buf = np.full(n, np.nan, dtype=expected.dtype)
            got = op(e, arg, out=buf)
            assert np.shares_memory(got, buf) and _same_bytes(buf, expected)

    def test_identity_frame_copies(self):
        e = identity_ensemble(4)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(forward(e, v), v)

    def test_cdp_delta_gives_constant_blocks(self):
        e = cdp_ensemble(8, 3, seed=6)
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        out = forward(e, v).reshape(3, 8)
        for p in range(3):
            assert np.allclose(out[p], np.conj(e.masks[p, 0]))

    def test_cdp_fft_matches_dense(self):
        for d, L in ((8, 1), (16, 3), (64, 4)):
            e = cdp_ensemble(d, L, seed=7)
            dense = dense_frame(e)
            rng = rng_stream(7, d)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
            fwd_dense = dense.conj().T @ v
            assert np.linalg.norm(forward(e, v) - fwd_dense) <= 1e-10 * np.linalg.norm(fwd_dense)
            adj_dense = dense @ w
            assert np.linalg.norm(adjoint(e, w) - adj_dense) <= 1e-10 * np.linalg.norm(adj_dense)

    def test_adjoint_picks_column(self):
        e = gaussian_ensemble(6, 9, seed=8)
        w = np.zeros(9)
        w[1] = 1.0
        assert np.allclose(adjoint(e, w), e.frame[:, 1])

    def test_adjoint_of_zero(self):
        e = cdp_ensemble(8, 2, seed=9)
        assert np.allclose(adjoint(e, np.zeros(16)), 0.0)

    @pytest.mark.parametrize("make", [
        lambda: gaussian_ensemble(12, 40, seed=10),
        lambda: gaussian_ensemble(12, 40, field="real", seed=10),
        lambda: cdp_ensemble(12, 4, seed=10),
    ])
    def test_adjointness_identity(self, make):
        e = make()
        rng = rng_stream(11, e.N)
        for _ in range(100):
            v = rng.standard_normal(e.d) + 1j * rng.standard_normal(e.d)
            w = rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
            lhs = np.vdot(forward(e, v), w)
            rhs = np.vdot(v, adjoint(e, w))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(w) * np.sqrt(e.N)

    def test_dimension_mismatch(self):
        e = gaussian_ensemble(4, 6, seed=0)
        with pytest.raises(ValueError):
            forward(e, np.ones(5))
        with pytest.raises(ValueError):
            adjoint(e, np.ones(5))


def _direct_complex_ensemble(d=8, N=20):
    rng = rng_stream(21, 0)
    frame = rng.standard_normal((d, N)) + 1j * rng.standard_normal((d, N))
    return Ensemble(frame=frame)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _finite_vectors(n):
    return hnp.arrays(np.float64, n, elements=st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _frame_and_signal_parts(draw):
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    return tuple(draw(_finite_vectors(shape)) for shape in ((d, n), (d, n), d, d))


class TestConjugateFrame:
    """forward reads the frame adjoint reads and matches F^* v byte for byte."""

    @pytest.mark.parametrize("make", [
        lambda: gaussian_ensemble(128, 576, seed=17),
        lambda: gaussian_ensemble(128, 576, field="real", seed=17),
        lambda: gaussian_ensemble(64, 385, seed=18),
        lambda: gaussian_ensemble(16, 8, seed=19),
        lambda: gaussian_ensemble(16, 8, field="real", seed=19),
        lambda: gaussian_ensemble(1, 3, seed=20),
        _direct_complex_ensemble,
    ])
    def test_bit_identical_to_conjugate_transpose(self, make):
        e = make()
        rng = rng_stream(22, e.N)
        re, im = rng.standard_normal(e.d), rng.standard_normal(e.d)
        for v in (re, re + 1j * im, re + 0j, np.zeros(e.d), np.zeros(e.d, complex)):
            assert _same_bytes(forward(e, v), e.frame.conj().T @ v)

    @given(
        _frame_and_signal_parts(),
        st.sampled_from(["complex", "real"]),
        st.sampled_from(["real", "complex", "zero_imag"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_property(self, parts, field, v_kind):
        # small exact values make exact zero sums, where the sign of zero shows
        frame_re, frame_im, v_re, v_im = parts
        frame = frame_re + 1j * frame_im if field == "complex" else frame_re
        e = Ensemble(frame=frame)
        v = {"real": v_re, "complex": v_re + 1j * v_im, "zero_imag": v_re + 0j}[v_kind]
        assert _same_bytes(forward(e, v), frame.conj().T @ v)

    def test_strided_signal_matches_contiguous_copy(self):
        e = gaussian_ensemble(64, 385, seed=18)
        rng = rng_stream(23, 0)
        w = rng.standard_normal(2 * e.d) + 1j * rng.standard_normal(2 * e.d)
        for v in (w[::2], w[::-2]):
            assert _same_bytes(forward(e, v), forward(e, np.ascontiguousarray(v)))

    def test_pickle_round_trip(self):
        e = _direct_complex_ensemble()
        v = rng_stream(24, 0).standard_normal(e.d) + 0j
        expected = forward(e, v)
        clone = pickle.loads(pickle.dumps(e))
        assert _same_bytes(forward(clone, v), expected)

    def test_forward_does_not_copy_the_frame(self):
        e = gaussian_ensemble(128, 576, seed=25)
        v = rng_stream(25, 0).standard_normal(128) + 1j * rng_stream(25, 1).standard_normal(128)
        tracemalloc.start()
        try:
            forward(e, v)  # the first call on a fresh ensemble
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < e.frame.nbytes // 10

    def test_ensemble_retains_no_second_frame(self):
        e = gaussian_ensemble(128, 576, seed=26)
        v = rng_stream(26, 0).standard_normal(128) + 1j * rng_stream(26, 1).standard_normal(128)
        tracemalloc.start()
        try:
            adjoint(e, forward(e, v))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < e.frame.nbytes // 10


class TestMeasure:
    def test_zero_signal(self):
        e = gaussian_ensemble(5, 11, seed=12)
        assert np.all(measure(e, np.zeros(5)) == 0.0)

    def test_phase_invariance(self):
        e = cdp_ensemble(16, 2, seed=13)
        rng = rng_stream(13, 1)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        c = np.exp(0.73j)
        b1, b2 = measure(e, x), measure(e, c * x)
        assert np.allclose(b1, b2, rtol=1e-12, atol=1e-12 * b1.max())

    def test_nonnegative(self):
        e = gaussian_ensemble(8, 24, seed=14)
        x = rng_stream(14, 1).standard_normal(8)
        assert np.all(measure(e, x) >= 0.0)

    def test_cdp_delta_intensities(self):
        e = cdp_ensemble(8, 3, seed=15)
        v = np.zeros(8)
        v[0] = 1.0
        b = measure(e, v).reshape(3, 8)
        for p in range(3):
            expected = abs(e.masks[p, 0]) ** 2
            assert np.allclose(b[p], expected)
            assert expected == pytest.approx(0.5) or expected == pytest.approx(3.0)

    def test_noise_hook(self):
        e = gaussian_ensemble(8, 24, seed=16)
        x = rng_stream(16, 1).standard_normal(8)
        with pytest.raises(ValueError):
            measure(e, x, noise_std=0.1)
        noisy = measure(e, x, noise_std=0.1, rng=rng_stream(16, 2))
        assert np.all(noisy >= 0.0)
        assert not np.allclose(noisy, measure(e, x))

    @pytest.mark.parametrize("noise_std", [-0.5, np.nan, np.inf])
    def test_rejects_bad_noise_level(self, noise_std):
        e = gaussian_ensemble(8, 24, seed=16)
        x = rng_stream(16, 1).standard_normal(8)
        with pytest.raises(ValueError, match="noise_std"):
            measure(e, x, noise_std=noise_std, rng=rng_stream(16, 2))


class TestFrameBound:
    def test_identity(self):
        assert upper_frame_bound(identity_ensemble(5)) == pytest.approx(1.0, rel=1e-9)

    def test_repeated_column(self):
        frame = np.zeros((4, 2))
        frame[0, :] = 1.0
        e = Ensemble(frame=frame)
        assert upper_frame_bound(e) == pytest.approx(2.0, rel=1e-9)

    def test_matches_dense_eigensolver(self):
        for e in (gaussian_ensemble(8, 32, seed=17), cdp_ensemble(16, 5, seed=17)):
            frame = dense_frame(e)
            dense = np.linalg.eigvalsh(frame @ frame.conj().T)[-1]
            assert upper_frame_bound(e) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize(
        "e",
        [
            gaussian_ensemble(16, 64, seed=1009),
            gaussian_ensemble(128, 576, seed=3),
            gaussian_ensemble(20, 80, field="real", seed=4),
            cdp_ensemble(64, 14, seed=1),
        ],
        ids=["gate9", "complex_128x576", "real", "cdp"],
    )
    def test_bounds_forward_at_dense_top_eigenvector(self, e):
        # C must not undershoot: ||F^* v||^2 = lambda_max at the top eigenvector
        frame = dense_frame(e)
        top = np.linalg.eigh(frame @ frame.conj().T)[1][:, -1]
        assert np.linalg.norm(forward(e, top)) ** 2 <= upper_frame_bound(e) * (1 + 1e-12)

    def test_bounds_forward_norm(self):
        e = cdp_ensemble(16, 3, seed=18)
        c = upper_frame_bound(e)
        rng = rng_stream(18, 1)
        for _ in range(50):
            v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            assert np.linalg.norm(forward(e, v)) ** 2 <= c * np.linalg.norm(v) ** 2 * (1 + 1e-10)

    def test_cdp_column_norms(self):
        e = cdp_ensemble(8, 3, seed=19)
        dense = dense_frame(e)
        assert sum_column_norms_sq(e) == pytest.approx(np.sum(np.abs(dense) ** 2), rel=1e-12)


class TestAsFieldSignal:
    """The one start check of the solvers and the speedup diagnostic."""

    FRAMES = [gaussian_ensemble(6, 12, field="real"), gaussian_ensemble(6, 12), cdp_ensemble(6, 2)]

    @pytest.mark.parametrize("e", FRAMES, ids=["real", "complex", "cdp"])
    def test_fresh_copy_in_the_ensemble_dtype(self, e):
        v = rng_stream(3, 1).standard_normal(6)
        out = as_field_signal(e, v, "z0")
        assert out.dtype == (np.complex128 if e.is_complex else np.float64)
        assert np.array_equal(out, v) and not np.shares_memory(out, v)

    @pytest.mark.parametrize("e", FRAMES, ids=["real", "complex", "cdp"])
    @pytest.mark.parametrize("v", [np.ones(5), np.ones((6, 1)), np.float64(1.0)], ids=["short", "2-D", "scalar"])
    def test_shape_is_checked(self, e, v):
        with pytest.raises(ValueError, match="does not match d=6"):
            as_field_signal(e, v, "z0")

    @pytest.mark.parametrize("e", FRAMES, ids=["real", "complex", "cdp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_is_rejected(self, e, value):
        v = np.ones(6, dtype=complex)
        v[2] = value
        with pytest.raises(ValueError, match="x0 must be finite"):
            as_field_signal(e, v, "x0")

    def test_imaginary_part_on_a_real_frame(self):
        e, v = self.FRAMES[0], rng_stream(3, 2).standard_normal(6)
        with pytest.raises(ValueError, match="z0 has a nonzero imaginary part, but the frame is real"):
            as_field_signal(e, v + 1e-300j, "z0")
        out = as_field_signal(e, v + 0j, "z0")  # a zero imaginary part is the real signal
        assert out.dtype == np.float64 and np.array_equal(out, v)
        assert np.array_equal(as_field_signal(self.FRAMES[1], v + 1j, "z0"), v + 1j)


class TestRandomVector:
    def test_real_for_real_ensemble(self):
        v = random_vector(gaussian_ensemble(6, 12, field="real"), rng_stream(1))
        assert v.shape == (6,) and np.isrealobj(v)

    @pytest.mark.parametrize(
        "e", [gaussian_ensemble(6, 12, field="real"), gaussian_ensemble(6, 12), cdp_ensemble(6, 2)]
    )
    def test_matches_inline_draw(self, e):
        a, b = rng_stream(2, 7), rng_stream(2, 7)
        if e.is_complex:
            expected = b.standard_normal(e.d) + 1j * b.standard_normal(e.d)
        else:
            expected = b.standard_normal(e.d)
        assert np.array_equal(random_vector(e, a), expected)
