"""Synthetic test signals and binary PGM/PPM image ingestion.

Both signal families are trigonometric sums x[t] = sum_k c_k e^{2*pi*i(k-1)(t-1)/d}
over a symmetric band of modes; negative modes wrap modulo d. Images load as
per-channel real vectors scaled to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_count

__all__ = [
    "signal_from_modes",
    "check_signal_size",
    "random_lowpass_signal",
    "random_gaussian_signal",
    "ImageChannels",
    "gradient_image",
    "load_image",
    "save_image",
]


def signal_from_modes(d, coeffs, ks):
    """Evaluate x[t] = sum_j coeffs[j] e^{2 pi i (ks[j]-1)(t-1)/d} for t = 1..d.

    The 1-based (k-1)(t-1) exponent is kept as-is; mode indices wrap mod d.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    ks = np.asarray(ks, dtype=int)
    if coeffs.shape != ks.shape:
        raise ValueError("coeffs and ks must have equal length")
    bins = np.zeros(d, dtype=complex)
    np.add.at(bins, (ks - 1) % d, coeffs)
    return d * np.fft.ifft(bins)


def _mode_range(m):
    # k = -(m/2 - 1), ..., m/2: exactly m integer modes (m must be even)
    return np.arange(-(m // 2 - 1), m // 2 + 1)


def check_signal_size(kind, d):
    """Raise ValueError unless a ``kind`` ("gaussian" or "lowpass") signal can have length d."""
    if kind == "lowpass" and d % 8 != 0:
        raise ValueError(f"d must be divisible by 8, got {d}")
    if kind == "lowpass" and (d // 8) % 2 != 0:
        raise ValueError(f"d/8 must be even for a symmetric mode band, got d={d}")
    if kind == "gaussian" and d % 2 != 0:
        raise ValueError(f"d must be even, got {d}")


def random_lowpass_signal(d, rng):
    """Band-limited signal with M = d/8 Gaussian modes, unit-variance parts."""
    check_signal_size("lowpass", d)
    m = d // 8
    coeffs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return signal_from_modes(d, coeffs, _mode_range(m))


def random_gaussian_signal(d, rng):
    """Full-band signal whose d mode coefficients have N(0, 1/8) parts."""
    check_signal_size("gaussian", d)
    sigma = np.sqrt(1.0 / 8.0)
    coeffs = sigma * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return signal_from_modes(d, coeffs, _mode_range(d))


@dataclass(frozen=True)
class ImageChannels:
    """An image as flat per-channel vectors (row-major, values in [0, 1])."""

    width: int
    height: int
    channels: tuple  # 1 entry for grayscale, 3 for RGB


def gradient_image():
    """16x16 grayscale diagonal ramp (row + column, scaled to [0, 1])."""
    vals = np.add.outer(np.arange(16), np.arange(16)).astype(float)
    vals /= vals.max()
    return ImageChannels(width=16, height=16, channels=(vals.ravel(),))


def _read_header_token(data, pos):
    # skip whitespace and '#' comments, return next ASCII token
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise ValueError("truncated image header")
    return data[start:pos], pos


def load_image(path):
    """Load a binary PGM (P5) or PPM (P6) file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise ValueError("unsupported image format (need binary P5 or P6)")
    n_channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    tokens = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        tokens.append(tok)
    width, height, maxval = (int(t) for t in tokens)
    check_count(width, "image width")
    check_count(height, "image height")
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    count = width * height * n_channels
    raster = data[pos : pos + count]
    if len(raster) != count:
        raise ValueError("truncated image data")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / 255.0
    if n_channels == 1:
        channels = (pixels,)
    else:
        channels = tuple(pixels[c::3].copy() for c in range(3))
    return ImageChannels(width=width, height=height, channels=channels)


def save_image(path, image):
    """Write an :class:`ImageChannels` back out as binary PGM/PPM."""
    n_channels = len(image.channels)
    if n_channels not in (1, 3):
        raise ValueError("need 1 or 3 channels")
    count = image.width * image.height
    for ch in image.channels:
        if len(ch) != count:
            raise ValueError("channel length does not match width*height")
        if not np.all(np.isfinite(ch)):
            raise ValueError("channel values must be finite")
    magic = b"P5" if n_channels == 1 else b"P6"
    quantized = [
        np.clip(np.rint(np.asarray(ch) * 255.0), 0, 255).astype(np.uint8)
        for ch in image.channels
    ]
    if n_channels == 1:
        raster = quantized[0]
    else:
        raster = np.empty(3 * count, dtype=np.uint8)
        for c in range(3):
            raster[c::3] = quantized[c]
    header = magic + f"\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster.tobytes())
