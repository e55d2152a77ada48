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
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import analysis, signals
from .core import best_phase, derive_seed, relative_error, rng_stream
from .measurement import cdp_ensemble, gaussian_ensemble, measure, upper_frame_bound
# forward, adjoint and split_grad are unused here but stay module attributes:
# instrumentation (phasebench/tracer.py) patches them in this namespace
from .measurement import adjoint, forward  # noqa: F401
from .objective import split_grad  # noqa: F401
from .signals import load_image, random_gaussian_signal, random_lowpass_signal, save_image, ImageChannels
from .solvers import Schedules, SolverConfig, _fmt, altmin_solve, wf_solve
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
    success_threshold: float = 1e-5
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
        if min(self.d, self.trials, self.iterations, self.power_iters, self.image_L) < 1:
            raise ValueError("d, trials, iterations, power_iters and image_L must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (np.isfinite(self.success_threshold) and self.success_threshold > 0):
            raise ValueError("success_threshold must be positive and finite")
        if not (np.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ValueError("stop_tol must be >= 0 and finite")
        if len(self.grid) == 0 or any(not 0 < g < np.inf for g in self.grid):
            raise ValueError("grid values must be positive and finite")
        if list(self.grid) != sorted(set(self.grid)):
            raise ValueError("grid must be strictly increasing")
        if self.iterations < 2:
            raise ValueError("experiments run iterations // 2 rounds, so iterations must be >= 2")
        signals.check_signal_size(self.signal, self.d)
        if self.model == "cdp":
            if any(not float(g).is_integer() for g in self.grid):
                raise ValueError("cdp grid values are mask counts and must be integers")
        elif any(round(g * self.d) < 1 for g in self.grid):
            # _make_ensemble draws N = round(g * d) measurements
            raise ValueError(f"gaussian grid values must give N = round(grid * d) >= 1 at d={self.d}")
        if len(self.image_rounds) == 0 or any(n < 1 for n in self.image_rounds):
            raise ValueError("image_rounds must be positive")
        if list(self.image_rounds) != sorted(set(self.image_rounds)):
            raise ValueError("image_rounds must be strictly increasing")
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


def _openblas_path():
    """numpy's bundled OpenBLAS library if it exports the thread setter, else None."""
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(numpy_libs, "libscipy_openblas64_*.so"))):
        if hasattr(ctypes.CDLL(path), _SET_BLAS_THREADS):
            return path
    return None


def _one_blas_thread(path):
    """Pool initializer: one BLAS thread per worker, so workers do not
    oversubscribe the cores with the BLAS threads of every other worker.
    Does nothing when ``path`` is None."""
    if path is None:
        return
    set_threads = getattr(ctypes.CDLL(path), _SET_BLAS_THREADS)
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def _make_ensemble(model, d, grid_value, seed):
    if model == "cdp":
        return cdp_ensemble(d, int(round(grid_value)), seed=seed)
    return gaussian_ensemble(d, int(round(grid_value * d)), seed=seed)


def _make_signal(kind, d, rng):
    return random_lowpass_signal(d, rng) if kind == "lowpass" else random_gaussian_signal(d, rng)


def _synthetic_instance(cfg, grid_value, grid_idx, trial_idx):
    """The seeded ensemble (role 0) and signal (role 1) of one synthetic instance."""
    e = _make_ensemble(cfg.model, cfg.d, grid_value, derive_seed(cfg.seed, grid_idx, trial_idx, 0))
    x0 = _make_signal(cfg.signal, cfg.d, rng_stream(cfg.seed, grid_idx, trial_idx, 1))
    return e, x0


def _measure_and_start(cfg, e, x0, grid_idx, trial_idx):
    """Intensities of ``x0`` and the spectral start seeded by role 2."""
    b = measure(e, x0)
    init = spectral_init(e, b, iters=cfg.power_iters, rng=rng_stream(cfg.seed, grid_idx, trial_idx, 2))
    return b, init.z0


def _run_solver(cfg, algo, e, b, z0, x0, rounds, stop=None, precision="double"):
    """``rounds`` alternating rounds, or the matched 2 * ``rounds`` flow iterations."""
    if algo == "wf":
        solver_cfg = SolverConfig(max_rounds=2 * rounds, schedules=cfg.wf, stop_tolerance=stop, precision=precision)
        return wf_solve(e, b, z0, solver_cfg, truth=x0)
    solver_cfg = SolverConfig(max_rounds=rounds, schedules=cfg.alt, stop_tolerance=stop, precision=precision)
    return altmin_solve(e, b, z0, solver_cfg, truth=x0)


def _trial_error(cfg, task):
    """Final relative error of one fully seeded sweep trial (inf if diverged).

    Trials on dense frames run mixed precision. A success is counted at a
    threshold far above the single-precision floor; a trial that reaches the
    floor runs its remaining rounds in double precision (22-28% of the rounds
    of a d = 128 trial that stops at 1e-8), and one that never does returns
    the error of a single-precision iterate. The solver keeps CDP trials in
    double precision.
    """
    grid_value, grid_idx, trial_idx = task
    e, x0 = _synthetic_instance(cfg, grid_value, grid_idx, trial_idx)
    b, z0 = _measure_and_start(cfg, e, x0, grid_idx, trial_idx)
    stop = cfg.stop_tol if cfg.stop_tol > 0 else None
    result = _run_solver(cfg, cfg.algo, e, b, z0, x0, cfg.iterations // 2, stop, precision="mixed")
    if result.diverged:
        return float("inf")
    return relative_error(x0, result.z_final)


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
        blas = _openblas_path()
        if blas is None:
            log.warning("numpy's bundled OpenBLAS not found: sweep workers keep their default BLAS threads")
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread, initargs=(blas,)) as pool:
            errors = list(pool.map(trial, tasks, chunksize=1))
    else:
        errors = list(map(trial, tasks))
    elapsed = time.perf_counter() - t0

    rows = []
    for grid_value, errs in zip(cfg.grid, np.array(errors).reshape(len(cfg.grid), cfg.trials)):
        finite = errs[np.isfinite(errs)]
        successes = int(np.sum(errs < cfg.success_threshold))
        rows.append(
            PhaseTransitionRow(
                ratio=float(grid_value),
                trials=cfg.trials,
                successes=successes,
                mean_rel_error=float(np.mean(finite)) if finite.size else float("inf"),
            )
        )
    print(f"phase transition: {len(tasks)} trials in {elapsed:.1f}s ({workers} workers)")
    return rows


def phase_transition_csv(rows):
    lines = ["ratio,trials,successes,success_rate,mean_rel_error"]
    for r in rows:
        lines.append(
            f"{_fmt(r.ratio)},{r.trials},{r.successes},{_fmt(r.success_rate)},{_fmt(r.mean_rel_error)}"
        )
    return "\n".join(lines) + "\n"


def run_convergence_curve(cfg):
    """Both solvers on one seeded instance from the same spectral start.

    Returns (alt_result, wf_result, truth, summary); budgets are iteration
    matched with one alternating round counting as two iterations. Gaussian
    models run at N = 4.5 d; CDP uses the largest mask count in the grid.
    """
    grid_value = cfg.grid[-1] if cfg.model == "cdp" else 4.5
    e, x0 = _synthetic_instance(cfg, grid_value, 0, 0)
    b, z0 = _measure_and_start(cfg, e, x0, 0, 0)

    t0 = time.perf_counter()
    alt = _run_solver(cfg, "alt", e, b, z0, x0, cfg.iterations // 2)
    wf = _run_solver(cfg, "wf", e, b, z0, x0, cfg.iterations // 2)
    elapsed = time.perf_counter() - t0

    # Robustness bound ingredients (the stability constant is not computable,
    # so the bound is reported for inspection rather than asserted).
    lam_final = alt.trace[-1].lam
    delta_sq = alt.trace[-1].objective
    bound_c = upper_frame_bound(e)
    nuclear = analysis.nuclear_dist_rank2(x0, alt.z_final)
    summary = {
        "d": cfg.d,
        "ratio": float(grid_value),
        "alt_rounds": alt.rounds_used,
        "wf_iterations": wf.rounds_used,
        "alt_final_rel_error": relative_error(x0, alt.z_final),
        "wf_final_rel_error": relative_error(x0, wf.z_final),
        "frame_bound_C": bound_c,
        "nuclear_dist_lhs": nuclear,
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
    print(f"convergence curve: {cfg.iterations} iterations in {elapsed:.1f}s")
    return alt, wf, x0, summary


def convergence_csv(alt_result, wf_result):
    """Per-iteration curves aligned on total iteration count."""
    lines = ["iter,algo,objective,rel_error"]
    for algo, result, stride in (("alt", alt_result, 2), ("wf", wf_result, 1)):
        for row in result.trace:
            lines.append(f"{stride * row.round},{algo},{_fmt(row.objective)},{_fmt(row.rel_error)}")
    return "\n".join(lines) + "\n"


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
    per_channel = []
    recovered = []
    for ci, channel in enumerate(image.channels):
        e = cdp_ensemble(d, cfg.image_L, seed=derive_seed(cfg.seed, ci, 0, 0))
        x0 = np.asarray(channel)
        b, z0 = _measure_and_start(cfg, e, x0, ci, 0)
        alt = _run_solver(cfg, "alt", e, b, z0, x0, max_n)
        wf = _run_solver(cfg, "wf", e, b, z0, x0, max_n)

        def _errors_at(result, stride=1):
            # diverged runs have truncated traces; report inf past the break
            by_round = {row.round: row.rel_error for row in result.trace}
            return {n: by_round.get(stride * n, float("inf")) for n in cfg.image_rounds}

        per_channel.append(
            {
                "norm_sq": float(np.linalg.norm(x0) ** 2),
                "alt": _errors_at(alt),
                "wf": _errors_at(wf, stride=2),
            }
        )
        aligned = (best_phase(x0, alt.z_final) * alt.z_final).real
        recovered.append(np.clip(aligned, 0.0, 1.0))
    elapsed = time.perf_counter() - t0

    total_energy = sum(ch["norm_sq"] for ch in per_channel)
    report = []
    for n in cfg.image_rounds:
        for algo in ("alt", "wf"):
            dist_sq = sum(ch["norm_sq"] * ch[algo][n] ** 2 for ch in per_channel)
            report.append(
                {
                    "n": n,
                    "algo": algo,
                    "iterations": 2 * n,
                    "rel_error": float(np.sqrt(dist_sq / total_energy)),
                }
            )

    if out_dir is not None:
        ext = "pgm" if len(image.channels) == 1 else "ppm"
        out = ImageChannels(width=image.width, height=image.height, channels=tuple(recovered))
        save_image(os.path.join(out_dir, f"recovered_{max_n}.{ext}"), out)
    print(f"image experiment: {len(image.channels)} channels in {elapsed:.1f}s")
    return report


def image_report_csv(report):
    lines = ["n,algo,iterations,rel_error"]
    for row in report:
        lines.append(f"{row['n']},{row['algo']},{row['iterations']},{_fmt(row['rel_error'])}")
    return "\n".join(lines) + "\n"
