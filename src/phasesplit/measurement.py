"""Measurement ensembles and the intensity map b_n = |f_n^* x|^2.

Two ensemble families are supported: dense Gaussian frames (real or complex
columns) and coded diffraction patterns (CDP), where each of L random masks
is applied entrywise before an unnormalized DFT. Ensembles are immutable,
re-derivable from the seed their factory draws from, and applied matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import check_count, rng_stream

__all__ = [
    "Ensemble",
    "CDP_ATOMS",
    "CDP_ATOM_PROBS",
    "gaussian_ensemble",
    "cdp_ensemble",
    "forward",
    "adjoint",
    "measure",
    "check_intensities",
    "as_field_signal",
    "dense_frame",
    "sum_column_norms_sq",
    "random_vector",
    "frame_top_eigenpair",
    "upper_frame_bound",
]

_SQRT_HALF = np.sqrt(2.0) / 2.0
_SQRT3 = np.sqrt(3.0)

# Mask entries take one of eight values: the four unimodular-ish "light"
# atoms with probability 1/5 each and the four "heavy" sqrt(3) atoms with
# probability 1/20 each, giving E|g|^2 = 1.
CDP_ATOMS = np.array(
    [
        _SQRT_HALF,
        -_SQRT_HALF,
        1j * _SQRT_HALF,
        -1j * _SQRT_HALF,
        _SQRT3,
        -_SQRT3,
        1j * _SQRT3,
        -1j * _SQRT3,
    ]
)
CDP_ATOM_PROBS = np.array([0.2, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05, 0.05])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """An immutable measurement frame of N vectors in dimension d.

    It holds one payload, a Gaussian frame matrix (columns f_1..f_N, real or
    complex) or the L CDP masks (N = L*d, via FFTs); d and N are read off it.
    """

    frame: np.ndarray | None = None  # (d, N)
    masks: np.ndarray | None = None  # (L, d)
    d: int = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        if (self.frame is None) == (self.masks is None):
            raise ValueError("an ensemble holds exactly one of frame and masks")
        if np.ndim(self.frame if self.masks is None else self.masks) != 2:
            raise ValueError("frame must be a (d, N) array and masks an (L, d) array")
        d, n = self.frame.shape if self.masks is None else (self.masks.shape[1], self.masks.size)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", n)

    @property
    def L(self):
        if self.masks is None:
            raise ValueError("not a CDP ensemble")
        return self.masks.shape[0]

    @property
    def is_complex(self):
        return self.masks is not None or np.iscomplexobj(self.frame)

    @property
    def maybe_rank_deficient(self):
        # Full column-rank of the frame matrix fails for sure when N < d;
        # degenerate random draws have probability zero and are not checked.
        return self.N < self.d


def _complex_gaussian(rng, shape):
    """The bytes of ``(A + 1j*B) / np.sqrt(2.0)`` for standard normal A then B.

    numpy divides a complex array by a real scalar as a product with
    1/sqrt(2), so each part is that product, written into the frame in
    place: B is drawn into A's buffer and no complex temporary is made.
    """
    frame = np.empty(shape, dtype=complex)
    part = rng.standard_normal(shape)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(part, scale, out=frame.real)
    rng.standard_normal(out=part)
    np.multiply(part, scale, out=frame.imag)
    return frame


def gaussian_ensemble(d, N, field="complex", seed=0):
    """Frame of N i.i.d. Gaussian columns in dimension d, fixed by ``seed``."""
    check_count(d, "d")
    check_count(N, "N")
    rng = rng_stream(seed, 0xE5)
    if field == "complex":
        frame = _complex_gaussian(rng, (d, N))
    elif field == "real":
        frame = rng.standard_normal((d, N))
    else:
        raise ValueError(f"unknown field {field!r}")
    frame.setflags(write=False)
    return Ensemble(frame=frame)


def cdp_ensemble(d, L, seed=0):
    """L random masks of length d; N = L*d intensity measurements."""
    check_count(d, "d")
    check_count(L, "L")
    rng = rng_stream(seed, 0xE5)
    idx = rng.choice(CDP_ATOMS.size, size=(L, d), p=CDP_ATOM_PROBS)
    masks = CDP_ATOMS[idx]
    masks.setflags(write=False)
    return Ensemble(masks=masks)


def _check_signal(e, v):
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] != e.d:
        raise ValueError(f"signal of dimension {v.shape} does not match d={e.d}")
    return v


def forward(e, v, out=None):
    """Inner products f_n^* v for all n (length N, complex), into ``out`` if given.

    CDP path: block p is the unnormalized DFT of conj(g_p) . v, so the whole
    map costs O(L d log d).
    """
    v = _check_signal(e, v)
    if e.masks is not None:
        blocks = None if out is None else out.reshape(e.L, e.d)
        return np.fft.fft(np.conj(e.masks) * v[None, :], axis=1, out=blocks).ravel()
    if e.frame.dtype.kind != "c":
        return np.matmul(e.frame.T, v, out)
    # conj(F^T conj(v)) runs the gemv of F^* v on sign-flipped inputs, so its
    # bytes equal those of F^* v while reading the one frame adjoint reads: a
    # second d x N copy would double the working set. The imaginary part is
    # negated as 0 - t, not -t, so an exact zero stays +0 as in F^* v. Real
    # frames skip this form, which would turn a +0 imaginary part into -0.
    out = np.matmul(e.frame.T, v.conj(), out)
    imag = out.imag
    np.subtract(0.0, imag, imag)
    return out


def adjoint(e, w, out=None):
    """Sum_n w_n f_n, the adjoint of :func:`forward`, into ``out`` if given."""
    w = np.asarray(w)
    if w.ndim != 1 or w.shape[0] != e.N:
        raise ValueError(f"weight vector of shape {w.shape} does not match N={e.N}")
    if e.masks is not None:
        blocks = w.reshape(e.L, e.d)
        return (e.masks * (e.d * np.fft.ifft(blocks, axis=1))).sum(axis=0, out=out)
    return np.matmul(e.frame, w, out)


def measure(e, x, noise_std=0.0, rng=None):
    """Intensities b = |f_n^* x|^2, optionally with clamped additive noise."""
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    fx = forward(e, x)
    b = fx.real**2 + fx.imag**2
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("noisy measurements need an rng")
        b = np.maximum(b + noise_std * rng.standard_normal(e.N), 0.0)
    return b


def as_field_signal(e, v, name):
    """A fresh copy of ``v`` in ``e``'s dtype; ValueError unless finite, 1-D of length d, and real on a real frame."""
    v = _check_signal(e, v)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    if not e.is_complex and np.any(np.imag(v)):
        raise ValueError(f"{name} has a nonzero imaginary part, but the frame is real")
    return (v if e.is_complex else v.real).astype(complex if e.is_complex else float)


def check_intensities(e, b):
    """``b`` as a float array once it is a valid intensity vector for ``e``.

    Raises ValueError unless ``b`` is real, 1-D of length N, finite and
    nonnegative; numpy would otherwise broadcast a scalar or short vector
    and carry NaNs into the iterates.
    """
    b = np.asarray(b)
    if b.ndim != 1 or b.shape[0] != e.N:
        raise ValueError(f"intensities of shape {b.shape} do not match N={e.N}")
    if not np.isrealobj(b):
        raise ValueError("intensities must be real")
    b = b.astype(float, copy=False)
    if not np.all(np.isfinite(b)):
        raise ValueError("intensities must be finite")
    if np.any(b < 0):
        raise ValueError("intensities must be nonnegative")
    return b


def dense_frame(e):
    """The frame as an explicit (d, N) matrix; CDP columns are materialized."""
    if e.masks is None:
        return e.frame
    t = np.arange(e.d)
    kernel = np.exp(2j * np.pi * np.outer(t, t) / e.d)  # kernel[t, q]
    blocks = [e.masks[p][:, None] * kernel for p in range(e.L)]
    return np.hstack(blocks)


def sum_column_norms_sq(e):
    """Sum_n ||f_n||^2, computed from the stored payload."""
    if e.masks is not None:
        # each DFT row has unit-magnitude entries, so ||G_p f_q||^2 = ||g_p||^2
        return float(e.d * np.sum(np.abs(e.masks) ** 2))
    return float(np.sum(np.abs(e.frame) ** 2))


def random_vector(e, rng):
    """A standard normal vector of length d in the ensemble's field.

    Complex draws are re + 1j*im with unit-variance parts (no 1/sqrt(2)).
    """
    if e.is_complex:
        return rng.standard_normal(e.d) + 1j * rng.standard_normal(e.d)
    return rng.standard_normal(e.d)


def frame_top_eigenpair(e):
    """Largest eigenvalue of F F^* and a unit eigenvector, in closed form.

    CDP blocks are unnormalized DFTs, so F F^* = d diag(sum_p |g_p|^2) and the
    top eigenvector is a standard basis vector; Gaussian frames take the top
    eigenpair of the d x d matrix F F^*.
    """
    if e.masks is not None:
        diagonal = e.d * np.sum(np.abs(e.masks) ** 2, axis=0)
        t = int(np.argmax(diagonal))
        top = np.zeros(e.d, dtype=complex)
        top[t] = 1.0
        return float(diagonal[t]), top
    values, vectors = np.linalg.eigh(e.frame @ e.frame.conj().T)
    return float(values[-1]), vectors[:, -1]


def upper_frame_bound(e):
    """Largest eigenvalue of F F^* (the optimal frame constant)."""
    value, _ = frame_top_eigenpair(e)
    return value
