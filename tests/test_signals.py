import numpy as np
import pytest

from phasesplit.core import rng_stream
from phasesplit.signals import (
    ImageChannels,
    load_image,
    random_gaussian_signal,
    random_lowpass_signal,
    save_image,
    signal_from_modes,
)


def direct_mode_sum(d, coeffs, ks):
    """Naive double-loop evaluation of the trigonometric sum."""
    out = np.zeros(d, dtype=complex)
    for t in range(1, d + 1):
        for c, k in zip(coeffs, ks):
            out[t - 1] += c * np.exp(2j * np.pi * (k - 1) * (t - 1) / d)
    return out


class TestModeSum:
    def test_forced_coefficients_small_band(self):
        # two modes, unit real coefficients
        ks = np.array([0, 1])
        coeffs = np.ones(2, dtype=complex)
        got = signal_from_modes(16, coeffs, ks)
        assert np.allclose(got, direct_mode_sum(16, coeffs, ks), atol=1e-12)

    def test_random_coefficients_full_band(self):
        rng = rng_stream(1)
        ks = np.arange(-1, 3)  # d=4 band
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = signal_from_modes(4, coeffs, ks)
        assert np.allclose(got, direct_mode_sum(4, coeffs, ks), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            signal_from_modes(8, np.ones(2), np.arange(3))


class TestLowpass:
    def test_band_occupancy(self):
        x = random_lowpass_signal(128, rng_stream(2))
        spectrum = np.fft.fft(x) / 128
        big = np.abs(spectrum) > 1e-8 * np.abs(spectrum).max()
        assert big.sum() == 16  # M = d/8 modes
        # wrapped band: offsets k-1 for k in -(M/2-1)..M/2
        band = {(k - 1) % 128 for k in range(-7, 9)}
        assert set(np.nonzero(big)[0]) <= band

    def test_out_of_band_energy(self):
        x = random_lowpass_signal(64, rng_stream(3))
        spectrum = np.fft.fft(x) / 64
        band = [(k - 1) % 64 for k in range(-3, 5)]
        outside = np.delete(spectrum, band)
        assert np.linalg.norm(outside) <= 1e-10 * np.linalg.norm(spectrum)

    def test_deterministic(self):
        assert np.array_equal(
            random_lowpass_signal(128, rng_stream(4)), random_lowpass_signal(128, rng_stream(4))
        )

    def test_dimension_requirements(self):
        with pytest.raises(ValueError):
            random_lowpass_signal(12, rng_stream(0))  # not divisible by 8
        with pytest.raises(ValueError):
            random_lowpass_signal(24, rng_stream(0))  # d/8 odd


class TestGaussianSignal:
    def test_output_dimension(self):
        assert random_gaussian_signal(64, rng_stream(5)).shape == (64,)

    def test_small_case_against_direct_sum(self):
        x = random_gaussian_signal(4, rng_stream(6))
        coeffs = np.fft.fft(x) / 4  # recover the mode coefficients
        ks = np.arange(-1, 3)
        rotated = coeffs[(ks - 1) % 4]
        assert np.allclose(x, direct_mode_sum(4, rotated, ks), atol=1e-12)

    def test_coefficient_variance(self):
        # pool mode coefficients across seeds: parts should have variance 1/8
        d = 50
        parts = []
        for seed in range(2000):  # 1e5 coefficients
            coeffs = np.fft.fft(random_gaussian_signal(d, rng_stream(7, seed))) / d
            parts.append(coeffs)
        flat = np.concatenate(parts)
        assert np.var(flat.real) == pytest.approx(0.125, rel=0.03)
        assert np.var(flat.imag) == pytest.approx(0.125, rel=0.03)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_gaussian_signal(7, rng_stream(0))


class TestImageIO:
    def test_decode_p5(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(path)
        assert (img.width, img.height) == (2, 2)
        assert len(img.channels) == 1
        assert np.allclose(img.channels[0], [0.0, 1.0, 128 / 255, 64 / 255])

    def test_decode_p6_zeros(self, tmp_path):
        path = tmp_path / "black.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes(6))
        img = load_image(path)
        assert len(img.channels) == 3
        for ch in img.channels:
            assert np.all(ch == 0.0)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "commented.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
        img = load_image(path)
        assert (img.width, img.height) == (2, 1)

    def test_round_trip_bytes(self, tmp_path):
        rng = rng_stream(8)
        img = ImageChannels(
            width=5,
            height=3,
            channels=tuple(rng.integers(0, 256, 15) / 255.0 for _ in range(3)),
        )
        first = tmp_path / "first.ppm"
        save_image(first, img)
        second = tmp_path / "second.ppm"
        save_image(second, load_image(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_save_rejects_non_finite_values(self, tmp_path, bad):
        channel = np.full(4, 0.5)
        channel[1] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="finite"):
            save_image(path, ImageChannels(width=2, height=2, channels=(channel,)))
        assert not path.exists()

    @pytest.mark.parametrize("channels, match", [
        ((np.full(4, 0.5), np.full(4, 0.5)), "need 1 or 3 channels"),
        ((np.full(3, 0.5),), "channel length does not match width\\*height"),
    ], ids=["two-channels", "short-channel"])
    def test_save_rejects_bad_channels(self, tmp_path, channels, match):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match=match):
            save_image(path, ImageChannels(width=2, height=2, channels=channels))
        assert not path.exists()

    def test_rejects_short_header(self, tmp_path):
        path = tmp_path / "cut.pgm"
        path.write_bytes(b"P5\n4 4")
        with pytest.raises(ValueError, match="truncated image header"):
            load_image(path)

    @pytest.mark.parametrize("header, match", [
        (b"P5\n0 4\n255\n", "image width must be an integer >= 1, not 0"),
        (b"P6\n4 0\n255\n", "image height must be an integer >= 1, not 0"),
    ])
    def test_rejects_empty_dimensions(self, tmp_path, header, match):
        path = tmp_path / "empty.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=match):
            load_image(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            load_image(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            load_image(path)

    def test_rejects_zero_dimension(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(ValueError):
            load_image(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError):
            load_image(path)
