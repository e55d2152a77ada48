"""The self-check suite behind ``phasesplit check``: one table ``CHECKS`` of
(name, bound, instrument) rows and one verdict rule, ``passes``. Each
instrument draws from fixed seeds and returns one number; the rows re-verify
the paper's claims at seeds the acceptance gates do not use.
"""

import json
from dataclasses import replace

import numpy as np

from . import analysis
from .bench import PRESETS
from .core import rng_stream
from .measurement import CDP_ATOM_PROBS, CDP_ATOMS, adjoint, cdp_ensemble, dense_frame, forward
from .measurement import gaussian_ensemble, measure, random_vector
from .signals import random_gaussian_signal
from .solvers import Schedules, SolverConfig, altmin_solve, fixed_step
from .spectral import spectral_init

__all__ = ["CHECKS", "passes", "run_checks", "checks_json"]


def _gradient(fieldname):
    """Worst finite-difference deviation of the three gradients at a random point."""
    e = gaussian_ensemble(8, 40, field=fieldname, seed=101)
    rng = rng_stream(101, 7)
    b = measure(e, random_vector(e, rng))
    x, y = random_vector(e, rng), random_vector(e, rng)
    gx = analysis.fd_gradient_check("split_x", e, (x, y), b, lam=0.7, rng=rng)
    gy = analysis.fd_gradient_check("split_y", e, (x, y), b, lam=0.7, rng=rng)
    return float(np.max([gx, gy, analysis.fd_gradient_check("wf", e, x, b, lam=0.0, rng=rng)]))  # keeps a NaN


def _adjoint_gap(e):
    """Worst relative gap in <F^* v, w> = <v, F w> over 100 random pairs."""
    rng = rng_stream(102, 1)
    gaps = []
    for _ in range(100):
        v, w = random_vector(e, rng), rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
        fv = forward(e, v)
        gaps.append(abs(np.vdot(fv, w) - np.vdot(v, adjoint(e, w))) / (np.linalg.norm(fv) * np.linalg.norm(w)))
    return float(np.max(gaps))


def _cdp_fft_vs_dense():
    """Worst relative gap between the CDP fast path and the materialized frame."""
    e = cdp_ensemble(32, 3, seed=104)
    frame_h, rng = dense_frame(e).conj().T, rng_stream(104, 1)
    vs = [random_vector(e, rng) for _ in range(20)]
    return float(np.max([np.linalg.norm(forward(e, v) - frame_h @ v) / np.linalg.norm(frame_h @ v) for v in vs]))


def _frame_bound(trials):
    return analysis.frame_bound_check(gaussian_ensemble(16, 64, seed=105), trials=trials)


def _masks():
    return cdp_ensemble(1000, 100, seed=107).masks.ravel()


def _atom_frequency_deviation():
    masks = _masks()
    return max(abs(float(np.mean(np.isclose(masks, a))) - p) for a, p in zip(CDP_ATOMS, CDP_ATOM_PROBS))


def _first_uptick(schedules):
    """First objective uptick of a seeded solve under ``schedules(e, z0)``, -1 if none."""
    e = gaussian_ensemble(32, 192, seed=106)
    x0 = random_gaussian_signal(32, rng_stream(106, 1))
    b = measure(e, x0)
    z0 = spectral_init(e, b, rng=rng_stream(106, 2)).z0
    result = altmin_solve(e, b, z0, SolverConfig(max_rounds=300, schedules=schedules(e, z0)), truth=x0)
    idx = analysis.monotonicity_audit(result)[1]
    return -1 if idx is None else idx


def _speedup_ratio():
    """Mean predicted flow-over-alternating decrease ratio on five real frames."""
    ratios = []
    for seed in range(200, 205):
        e, x0 = gaussian_ensemble(64, 512, field="real", seed=seed), rng_stream(seed, 1).standard_normal(64)
        ratios.append(analysis.speedup_diagnostic(e, x0, 1e-3).ratio)
    return float(np.mean(ratios))


_LINESEARCH = replace(PRESETS["gaussian_gaussian"].alt, tau0=None, mu_max=None, step="exact")

# (name, bound, instrument); the row order is the order of checks.json
CHECKS = (
    ("gradient_real", 1e-6, lambda: _gradient("real")),
    ("gradient_complex", 1e-5, lambda: _gradient("complex")),
    ("adjoint_gaussian", 1e-10, lambda: _adjoint_gap(gaussian_ensemble(16, 64, seed=102))),
    ("adjoint_cdp", 1e-10, lambda: _adjoint_gap(cdp_ensemble(16, 4, seed=103))),
    ("cdp_fft_vs_dense", 1e-10, _cdp_fft_vs_dense),
    ("frame_bound_violations", 0, lambda: _frame_bound(1000).violations),
    # the equality gap reads the frame's top eigenpair, none of the random trials
    ("frame_bound_tightness", 1e-6, lambda: _frame_bound(1).equality_gap),
    ("monotone_fixed_step", -1, lambda: _first_uptick(lambda e, z0: Schedules(lam0=1.0, step=fixed_step(e, z0, 1.0)))),
    # the preset's coupling, its ramp replaced by the line search
    ("monotone_linesearch", -1, lambda: _first_uptick(lambda e, z0: _LINESEARCH)),
    ("speedup_ratio", (0.55, 0.80), _speedup_ratio),
    ("cdp_atom_frequencies", 0.005, _atom_frequency_deviation),
    ("cdp_atom_energy", (0.98, 1.02), lambda: float(np.mean(np.abs(_masks()) ** 2))),
)


def passes(value, bound):
    """The verdict rule: a number is an upper bound, a (lo, hi) pair a closed band."""
    lo, hi = bound if isinstance(bound, tuple) else (-np.inf, bound)
    return bool(lo <= value <= hi)


def run_checks():
    """Run every row of ``CHECKS``; returns (ok, entries)."""
    rows = [(name, bound, instrument()) for name, bound, instrument in CHECKS]
    entries = [{"name": n, "value": v, "threshold": b, "passed": passes(v, b)} for n, b, v in rows]
    return all(en["passed"] for en in entries), entries


def checks_json(ok, entries):
    return json.dumps({"passed": ok, "checks": entries}, indent=2, sort_keys=True) + "\n"
