"""Experiment harness: phase-transition sweeps, convergence curves and image
recovery.

Every experiment is fully determined by a flat key=value config plus a seed;
per-trial randomness is derived from (seed, grid index, trial index, role),
so reruns produce byte-identical CSV output regardless of worker count.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial

import numpy as np

from . import analysis, signals
from .core import best_phase, check_count, derive_seed, l2_norm, relative_error, rng_stream
from .measurement import cdp_ensemble, gaussian_ensemble, measure, upper_frame_bound
# forward, adjoint and split_grad are unused here but stay module attributes:
# instrumentation (phasebench/tracer.py) patches them in this namespace
from .measurement import adjoint, forward  # noqa: F401
from .objective import split_grad  # noqa: F401
from .signals import load_image, random_gaussian_signal, random_lowpass_signal, save_image, ImageChannels
from .solvers import Schedules, SolverConfig, altmin_solve, csv_text, wf_solve
from .spectral import spectral_init

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "PhaseTransitionRow",
    "PRESETS",
    "parse_config",
    "run_phase_transition",
    "phase_transition_csv",
    "run_convergence_curve",
    "convergence_csv",
    "run_image_experiment",
    "image_report_csv",
]

# The coupling weight lam0 = 300 puts the decay rate of the x/y scale
# mismatch, 2*lam*mu_max / (2*theta^2), near 0.03 per round for the synthetic
# families at d = 128 (theta^2 ~ 4000). See README for the decay rates.
_ALT_GG = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.15 / 330)
_ALT_GL = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.05 / 300)
_ALT_CG = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.0015 / 330)
_ALT_CL = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=1.5 / 330)
_WF_DEFAULT = Schedules(tau0=330.0, mu_max=0.2)
SUCCESS_THRESHOLD = 1e-5  # a sweep trial succeeds below this final relative error


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "phase_transition"  # a label naming the run: phase_transition | converge | image
    model: str = "gaussian_complex"  # gaussian_complex | cdp
    signal: str = "gaussian"  # gaussian | lowpass
    algo: str = "alt"  # solver for phase-transition trials: alt | wf
    d: int = 128
    trials: int = 20
    iterations: int = 2500  # iterations // 2 alternating rounds, twice that many flow iterations
    grid: tuple = (3.0, 3.5, 4.0, 4.5, 5.0, 6.0)  # N/d ratios, or mask counts for cdp
    seed: int = 1
    workers: int = 1  # pool size for sweeps, capped at the CPUs this process may use
    stop_tol: float = 0.0  # early-stop on relative error; 0 keeps the full budget
    power_iters: int = 50
    alt: Schedules = field(default_factory=lambda: _ALT_GG)
    wf: Schedules = field(default_factory=lambda: _WF_DEFAULT)
    image_path: str = ""
    image_L: int = 15
    image_rounds: tuple = (100, 125, 150)

    def __post_init__(self):
        # valid by construction: every constructor call and replace() checks
        self.validate()

    def validate(self):
        # one rule set whatever runs the config: experiment is only a label
        if self.experiment not in ("phase_transition", "converge", "image"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.model not in ("gaussian_complex", "cdp"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.signal not in ("gaussian", "lowpass"):
            raise ValueError(f"unknown signal {self.signal!r}")
        if self.algo not in ("alt", "wf"):
            raise ValueError(f"unknown algo {self.algo!r}")
        # experiments run iterations // 2 rounds, so iterations must be >= 2
        for name, minimum in (("d", 1), ("trials", 1), ("iterations", 2), ("seed", 0), ("workers", 1),
                              ("power_iters", 1), ("image_L", 1)):
            check_count(getattr(self, name), name, minimum)
        if self.wf.lam0 or self.wf.lam_decay:
            raise ValueError("the flow's quartic loss has no coupling: wf lam0 and lam_decay must be 0")
        if "exact" in (self.alt.step, self.wf.step):
            # every experiment solve runs mixed precision (_run_solver), so this fails here, not mid-run
            raise ValueError("experiments run mixed precision, which takes scheduled steps only, not step='exact'")
        if isinstance(self.stop_tol, bool) or not (np.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ValueError(f"stop_tol must be a finite number >= 0, not {self.stop_tol!r}")
        if len(self.grid) == 0 or any(not 0 < g < np.inf for g in self.grid):
            raise ValueError("grid values must be positive and finite")
        if list(self.grid) != sorted(set(self.grid)):
            raise ValueError("grid must be strictly increasing")
        signals.check_signal_size(self.signal, self.d)
        if self.model == "cdp":
            if any(not float(g).is_integer() for g in self.grid):
                raise ValueError("cdp grid values are mask counts and must be integers")
        elif any(round(g * self.d) < 1 for g in self.grid):
            # _synthetic_instance draws N = round(g * d) measurements
            raise ValueError(f"gaussian grid values must give N = round(grid * d) >= 1 at d={self.d}")
        for n in self.image_rounds:
            check_count(n, "image_rounds")
        if not self.image_rounds or list(self.image_rounds) != sorted(set(self.image_rounds)):
            raise ValueError("image_rounds must be nonempty and strictly increasing")
        return self


# All four synthetic presets share lam0 = 300: couplings much below ~50 at
# these signal energies leave the scale mismatch between the split variables
# essentially undamped within the iteration budget (the product x y^* cannot
# see a reciprocal rescaling of the factors).
PRESETS = {
    "gaussian_gaussian": ExperimentConfig(
        model="gaussian_complex", signal="gaussian",
        grid=(3.0, 3.5, 4.0, 4.5, 5.0, 6.0), alt=_ALT_GG, wf=_WF_DEFAULT,
    ),
    "gaussian_lowpass": ExperimentConfig(
        model="gaussian_complex", signal="lowpass",
        grid=(3.0, 3.5, 4.0, 4.5, 5.0, 6.0), alt=_ALT_GL, wf=_WF_DEFAULT,
    ),
    "cdp_gaussian": ExperimentConfig(
        model="cdp", signal="gaussian",
        grid=(4.0, 5.0, 6.0, 8.0), alt=_ALT_CG, wf=_WF_DEFAULT,
    ),
    "cdp_lowpass": ExperimentConfig(
        model="cdp", signal="lowpass",
        grid=(4.0, 5.0, 6.0, 8.0), alt=_ALT_CL, wf=_WF_DEFAULT,
    ),
    # Image preset: coupling matched to [0,1]-valued images of a few hundred
    # pixels; the flow baseline keeps the synthetic experiments' step cap. The
    # image run is CDP with image_L masks whatever the model and signal keys say.
    "image_small": ExperimentConfig(
        experiment="image", image_L=15,
        alt=Schedules(tau0=100.0, mu_max=0.5, lam0=30.0, lam_decay=0.0015),
        wf=_WF_DEFAULT,
    ),
}

# config-file key -> (schedule it sets, or None for the config itself; field; parser).
# Every field with a plain int, float or str default parses by that type; not
# experiment, because the subcommand names the run.
_KEYS = {
    **{f.name: (None, f.name, type(f.default)) for f in fields(ExperimentConfig)
       if isinstance(f.default, (int, float, str)) and f.name != "experiment"},
    "grid": (None, "grid", lambda v: tuple(float(g) for g in v.split(","))),
    "image_rounds": (None, "image_rounds", lambda v: tuple(int(n) for n in v.split(","))),
    "alt_tau0": ("alt", "tau0", float),
    "alt_mu_max": ("alt", "mu_max", float),
    "alt_lam0": ("alt", "lam0", float),
    "alt_lam_decay": ("alt", "lam_decay", float),
    "wf_tau0": ("wf", "tau0", float),
    "wf_mu_max": ("wf", "mu_max", float),
}


def parse_config(text):
    """Parse flat ``key=value`` config text ('#' starts a comment)."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in pairs:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    cfg = PRESETS[pairs.pop("preset")] if "preset" in pairs else ExperimentConfig()
    updates = {None: {}, "alt": {}, "wf": {}}
    for key, value in pairs.items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        target, name, parse = _KEYS[key]
        updates[target][name] = parse(value)
    schedules = {t: replace(getattr(cfg, t), **updates[t]) for t in ("alt", "wf") if updates[t]}
    return replace(cfg, **updates[None], **schedules)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_SET_BLAS_THREADS = "scipy_openblas_set_num_threads64_"
_GET_BLAS_THREADS = "scipy_openblas_get_num_threads64_"
# A Gaussian frame of at most this many entries (d*N) is worked on with one
# OpenBLAS thread (_blas_threads_for): the largest size at which one thread's
# wall time stayed within the noise of two's. One run_convergence_curve at
# N = 4.5d, 600 iterations, seed 3, best of 3 per fresh process, 10 processes
# per cell (6 at d = 256), 2-CPU Xeon VM, OpenBLAS 0.3.31; median wall (range):
#   d    one thread             two threads            CPU, one : two
#   128  0.117 s (0.103-0.126)  0.116 s (0.087-0.124)  0.12 : 0.23 s
#   160  0.145 s (0.112-0.186)  0.146 s (0.115-0.157)  0.15 : 0.29 s
#   192  0.215 s (0.156-0.285)  0.177 s (0.146-0.196)  0.22 : 0.35 s
#   256  0.449 s (0.361-0.465)  0.262 s (0.229-0.309)  0.45 : 0.52 s
_ONE_THREAD_ENTRIES = 160 * 720


@cache
def _openblas():
    """(set_threads, get_threads) of numpy's bundled OpenBLAS, or None if it
    is missing or lacks either; looked up once per process."""
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(numpy_libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, _SET_BLAS_THREADS) and hasattr(lib, _GET_BLAS_THREADS):
            set_threads, get_threads = getattr(lib, _SET_BLAS_THREADS), getattr(lib, _GET_BLAS_THREADS)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _one_blas_thread():
    """Pool initializer: one BLAS thread per worker, so workers do not
    oversubscribe the cores with the BLAS threads of every other worker.
    Does nothing without numpy's bundled OpenBLAS."""
    blas = _openblas()
    if blas is not None:
        set_threads, _ = blas
        set_threads(1)


@contextmanager
def _blas_threads_for(e):
    """One OpenBLAS thread while the block works on ensemble ``e``, if it is a
    Gaussian frame of at most ``_ONE_THREAD_ENTRIES`` entries: its matvecs
    are too small for a second thread to pay, which spins between them. The
    caller's count is restored on exit, also when the block raises. CDP
    ensembles (FFTs, no BLAS) and larger frames keep the caller's threads,
    and without numpy's bundled OpenBLAS this does nothing."""
    blas = _openblas() if e.masks is None and e.d * e.N <= _ONE_THREAD_ENTRIES else None
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _synthetic_instance(cfg, grid_value, grid_idx, trial_idx):
    """The seeded ensemble (role 0) and signal (role 1) of one synthetic instance."""
    seed = derive_seed(cfg.seed, grid_idx, trial_idx, 0)
    if cfg.model == "cdp":
        e = cdp_ensemble(cfg.d, int(round(grid_value)), seed=seed)
    else:
        e = gaussian_ensemble(cfg.d, int(round(grid_value * cfg.d)), seed=seed)
    draw = random_lowpass_signal if cfg.signal == "lowpass" else random_gaussian_signal
    return e, draw(cfg.d, rng_stream(cfg.seed, grid_idx, trial_idx, 1))


def _measure_and_start(cfg, e, x0, grid_idx, trial_idx):
    """Intensities of ``x0`` and the spectral start seeded by role 2."""
    b = measure(e, x0)
    init = spectral_init(e, b, iters=cfg.power_iters, rng=rng_stream(cfg.seed, grid_idx, trial_idx, 2))
    return b, init.z0


def _run_solver(cfg, algo, e, b, z0, x0, rounds, stop=None):
    """``rounds`` alternating rounds, or the matched 2 * ``rounds`` flow iterations, in mixed precision."""
    if algo == "wf":
        solver_cfg = SolverConfig(max_rounds=2 * rounds, schedules=cfg.wf, stop_tolerance=stop, precision="mixed")
        return wf_solve(e, b, z0, solver_cfg, truth=x0)
    solver_cfg = SolverConfig(max_rounds=rounds, schedules=cfg.alt, stop_tolerance=stop, precision="mixed")
    return altmin_solve(e, b, z0, solver_cfg, truth=x0)


def _solve_pair(cfg, e, x0, grid_idx, trial_idx, rounds):
    """``rounds`` alternating rounds and the matched flow from one spectral start."""
    b, z0 = _measure_and_start(cfg, e, x0, grid_idx, trial_idx)
    return _run_solver(cfg, "alt", e, b, z0, x0, rounds), _run_solver(cfg, "wf", e, b, z0, x0, rounds)


def _final(result, distance):
    """``distance(result.z_final)``, or inf for a diverged solve (its last iterate is merely finite)."""
    return float("inf") if result.diverged else distance(result.z_final)


def _trial_error(cfg, task):
    """Final relative error of one fully seeded sweep trial (inf if diverged).

    Trials run mixed precision like every bench solve. A success is counted
    at a threshold far above the single-precision floor; a trial that reaches
    the floor refines in double precision on single-precision matvecs to its
    stop, and one that never does returns the error of a single-precision
    iterate. The solver keeps CDP trials in double precision.
    """
    grid_value, grid_idx, trial_idx = task
    e, x0 = _synthetic_instance(cfg, grid_value, grid_idx, trial_idx)
    with _blas_threads_for(e):
        b, z0 = _measure_and_start(cfg, e, x0, grid_idx, trial_idx)
        stop = cfg.stop_tol if cfg.stop_tol > 0 else None
        result = _run_solver(cfg, cfg.algo, e, b, z0, x0, cfg.iterations // 2, stop)
        return _final(result, partial(relative_error, x0))


@dataclass
class PhaseTransitionRow:
    ratio: float  # oversampling ratio N/d, or mask count for cdp
    trials: int
    successes: int
    mean_rel_error: float  # over trials with a finite final error

    @property
    def success_rate(self):
        return self.successes / self.trials


def run_phase_transition(cfg):
    """Success-rate sweep over the config grid; returns one row per grid point."""
    tasks = [(grid_value, gi, ti) for gi, grid_value in enumerate(cfg.grid) for ti in range(cfg.trials)]
    trial = partial(_trial_error, cfg)
    workers = min(cfg.workers, _usable_cpus())
    t0 = time.perf_counter()
    if workers > 1:
        if _openblas() is None:
            log.warning("numpy's bundled OpenBLAS not found: sweep workers keep their default BLAS threads")
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            errors = list(pool.map(trial, tasks, chunksize=1))
    else:
        errors = list(map(trial, tasks))
    elapsed = time.perf_counter() - t0

    rows = []
    for grid_value, errs in zip(cfg.grid, np.array(errors).reshape(len(cfg.grid), cfg.trials)):
        finite = errs[np.isfinite(errs)]
        mean = float(np.mean(finite)) if finite.size else float("inf")
        rows.append(PhaseTransitionRow(float(grid_value), cfg.trials, int(np.sum(errs < SUCCESS_THRESHOLD)), mean))
    log.info("phase transition: %d trials in %.1fs (%d workers)", len(tasks), elapsed, workers)
    return rows


def phase_transition_csv(rows):
    rows = ((r.ratio, r.trials, r.successes, r.success_rate, r.mean_rel_error) for r in rows)
    return csv_text("ratio,trials,successes,success_rate,mean_rel_error", rows)


def run_convergence_curve(cfg):
    """Both solvers on one seeded instance from the same spectral start.

    Returns (alt_result, wf_result, truth, summary); budgets are iteration
    matched with one alternating round counting as two iterations. Gaussian
    models run at N = 4.5 d; CDP uses the largest mask count in the grid.
    """
    grid_value = cfg.grid[-1] if cfg.model == "cdp" else 4.5
    e, x0 = _synthetic_instance(cfg, grid_value, 0, 0)
    with _blas_threads_for(e):
        t0 = time.perf_counter()
        alt, wf = _solve_pair(cfg, e, x0, 0, 0, cfg.iterations // 2)
        elapsed = time.perf_counter() - t0
        bound_c = upper_frame_bound(e)
        nuclear_dist = _final(alt, partial(analysis.nuclear_dist_rank2, x0))

    # Robustness bound ingredients (the stability constant is not computable,
    # so the bound is reported for inspection rather than asserted).
    lam_final, delta_sq = float(alt.trace[-1].lam), float(alt.trace[-1].objective)
    summary = {
        "d": cfg.d,
        "ratio": float(grid_value),
        "alt_rounds": alt.rounds_used,
        "wf_iterations": wf.rounds_used,
        "alt_final_rel_error": _final(alt, partial(relative_error, x0)),
        "wf_final_rel_error": _final(wf, partial(relative_error, x0)),
        "frame_bound_C": bound_c,
        "nuclear_dist_lhs": nuclear_dist,
        "objective_delta_sq": delta_sq,
        "stability_rhs_computable_part": (
            bound_c / (4.0 * lam_final) * delta_sq + float(np.sqrt(delta_sq))
            if lam_final > 0
            else None
        ),
        "note": (
            "flow baseline uses the reference normalization: scheduled steps "
            "multiply the plain Wirtinger derivative of the half-squared misfit"
        ),
    }
    log.info("convergence curve: %d iterations in %.1fs", cfg.iterations, elapsed)
    return alt, wf, x0, summary


def convergence_csv(alt_result, wf_result):
    """Per-iteration curves aligned on total iteration count."""
    runs = (("alt", alt_result, 2), ("wf", wf_result, 1))
    rows = ((stride * r.round, algo, r.objective, r.rel_error) for algo, result, stride in runs for r in result.trace)
    return csv_text("iter,algo,objective,rel_error", rows)


def run_image_experiment(cfg, out_dir=None):
    """Per-channel coded-diffraction recovery of an image file.

    Runs the alternating solver for n rounds against the flow with 2n
    iterations at every n in ``cfg.image_rounds``; the aggregate error
    pools the per-channel distances over all channels. Recovered channels
    (at the largest n) are written as PGM/PPM when ``out_dir`` is given.
    """
    if not cfg.image_path:
        raise ValueError("image experiment needs image_path")
    image = load_image(cfg.image_path)
    d = image.width * image.height
    max_n = cfg.image_rounds[-1]

    t0 = time.perf_counter()
    total_energy = 0
    dist_sq = {(n, algo): 0 for n in cfg.image_rounds for algo in ("alt", "wf")}
    recovered = []
    for ci, x0 in enumerate(image.channels):
        e = cdp_ensemble(d, cfg.image_L, seed=derive_seed(cfg.seed, ci, 0, 0))
        alt, wf = _solve_pair(cfg, e, x0, ci, 0, max_n)
        norm_sq = l2_norm(x0) ** 2
        total_energy += norm_sq
        for algo, result, stride in (("alt", alt, 1), ("wf", wf, 2)):
            # diverged runs have truncated traces; report inf past the break
            by_round = {row.round: row.rel_error for row in result.trace}
            for n in cfg.image_rounds:
                dist_sq[n, algo] += norm_sq * by_round.get(stride * n, float("inf")) ** 2
        if alt.diverged:  # a non-finite iterate has no phase to align: written black
            recovered.append(np.zeros(d))
        else:
            recovered.append(np.clip((best_phase(x0, alt.z_final) * alt.z_final).real, 0.0, 1.0))
    elapsed = time.perf_counter() - t0

    report = [{"n": n, "algo": algo, "iterations": 2 * n, "rel_error": float(np.sqrt(total / total_energy))}
              for (n, algo), total in dist_sq.items()]

    if out_dir is not None:
        ext = "pgm" if len(image.channels) == 1 else "ppm"
        out = ImageChannels(width=image.width, height=image.height, channels=tuple(recovered))
        save_image(os.path.join(out_dir, f"recovered_{max_n}.{ext}"), out)
    log.info("image experiment: %d channels in %.1fs", len(image.channels), elapsed)
    return report


def image_report_csv(report):
    rows = ((r["n"], r["algo"], r["iterations"], r["rel_error"]) for r in report)
    return csv_text("n,algo,iterations,rel_error", rows)
