"""The benchmark's workloads: seeded inputs, one call into ``phasesplit.bench``,
output checks and digests of the deterministic outputs.

A workload holds a short list of distinct inputs (experiment configs). The
runner calls :meth:`run` on them in turn until its time is up, so inputs
repeat and the repeats can be compared byte for byte. The program receives
only the configs (and, for ``image_cdp``, an image file) made from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from phasesplit import bench
from phasesplit.core import derive_seed
from phasesplit.signals import ImageChannels, save_image

GAUSS_SWEEP_GRID = (3.0, 4.5, 6.0)
GAUSS_SWEEP_TRIALS = 2  # per grid point; a 3.0 trial succeeds about 1 time in 40
CONVERGE_SEEDS_PER_RUN = 20  # gate 7's count, so its shares apply as they are
CONVERGE_DEEP_BAR = 1e-12  # gate 7: alternating reaches this error ...
CONVERGE_DEEP_SHARE = 0.9  # ... in this share of seeds
CONVERGE_BEAT_SHARE = 0.8  # and beats the flow in this share
IMAGE_SIZE = 32
IMAGE_BAR = 1e-6  # gate 11: alternating error at the last checkpoint


@dataclass
class Outcome:
    """One timed call into the program and what its output showed."""

    key: int  # index of the distinct input that ran
    wall_s: float
    cpu_s: float  # user + system, this process and its reaped children
    digest: str  # SHA-256 of the deterministic output CSV
    instances: int  # solver instances: sweep trials, seeds or channels
    successes: int  # instances that meet the workload's accuracy bar
    diverged: int
    failures: list = field(default_factory=list)  # output-check messages
    printed: str = ""  # what the program wrote to stdout


def _cpu_s():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_call(fn, *args, **kwargs):
    """Call ``fn`` with its stdout captured; returns (result, wall, cpu, printed).

    The program reports its own timing with ``print``; capturing it keeps
    those lines out of the benchmark's metric output.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    return result, wall, cpu, buf.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """What the workloads share: serial by default, every check made per call."""

    workers = 1

    def serial(self):
        """The same inputs run without a trial pool."""
        return self

    def check(self):
        """Checks that need all of a run's calls; messages for failures."""
        return []


class GaussSweep(Workload):
    """Gate-5 style Gaussian phase-transition sweep through the trial pool."""

    name = "gauss_sweep"

    def __init__(self, cfg):
        self.inputs = [cfg]

    @classmethod
    def from_seed(cls, seed, work_dir):
        del work_dir  # the sweep makes its own ensembles and signals
        cfg = replace(
            bench.PRESETS["gaussian_gaussian"],
            d=128,
            trials=GAUSS_SWEEP_TRIALS,
            iterations=2500,
            grid=GAUSS_SWEEP_GRID,
            seed=seed,
            workers=2,
            stop_tol=1e-8,
        )
        return cls(cfg.validate())

    def serial(self):
        return type(self)(replace(self.inputs[0], workers=1))

    @property
    def workers(self):
        return self.inputs[0].workers

    def run(self, key):
        cfg = self.inputs[key]
        rows, wall, cpu, printed = timed_call(bench.run_phase_transition, cfg)
        failures = []
        for row in rows:
            if not math.isfinite(row.mean_rel_error):
                failures.append(f"ratio {row.ratio}: no trial has a finite error")
            if row.ratio >= 4.5 and row.successes != row.trials:
                failures.append(f"ratio {row.ratio}: {row.successes}/{row.trials} succeeded, need all")
            if row.ratio == 3.0 and row.successes > row.trials / 2:
                failures.append(f"ratio 3.0: {row.successes}/{row.trials} succeeded, need at most half")
        return Outcome(
            key=key,
            wall_s=wall,
            cpu_s=cpu,
            digest=digest(bench.phase_transition_csv(rows)),
            instances=sum(r.trials for r in rows),
            successes=sum(r.successes for r in rows),
            diverged=0,  # a sweep row does not expose per-trial divergence
            failures=failures,
            printed=printed,
        )


class ConvergeGauss(Workload):
    """Gate-7 style iteration-matched comparison at N = 4.5 d, serially."""

    name = "converge_gauss"

    def __init__(self, cfgs):
        self.inputs = list(cfgs)
        self.errors = {}  # input index -> (alternating error, flow error)

    @classmethod
    def from_seed(cls, seed, work_dir):
        del work_dir
        base = replace(bench.PRESETS["gaussian_gaussian"], experiment="converge", d=128, iterations=2500)
        return cls(replace(base, seed=derive_seed(seed, k)).validate() for k in range(CONVERGE_SEEDS_PER_RUN))

    def run(self, key):
        cfg = self.inputs[key]
        (alt, wf, _, summary), wall, cpu, printed = timed_call(bench.run_convergence_curve, cfg)
        failures = []
        if alt.rounds_used != cfg.iterations // 2 or wf.rounds_used != cfg.iterations:
            failures.append(
                f"seed {cfg.seed}: budgets not run in full "
                f"({alt.rounds_used} rounds, {wf.rounds_used} iterations)"
            )
        err_alt = summary["alt_final_rel_error"]
        err_wf = summary["wf_final_rel_error"]
        self.errors[key] = (err_alt, err_wf)
        return Outcome(
            key=key,
            wall_s=wall,
            cpu_s=cpu,
            digest=digest(bench.convergence_csv(alt, wf)),
            instances=1,
            successes=int(err_alt <= CONVERGE_DEEP_BAR and err_alt <= err_wf),
            diverged=int(alt.diverged or wf.diverged),
            failures=failures,
            printed=printed,
        )

    def check(self):
        """Gate-7 shares, over the gate's full set of seeds.

        A traced pass runs fewer seeds than the set; a share of a partial
        set is not the gate's bar, so it is not checked there.
        """
        n = len(self.errors)
        if n < len(self.inputs):
            return []
        beats = sum(a <= w for a, w in self.errors.values())
        deep = sum(a <= CONVERGE_DEEP_BAR for a, _ in self.errors.values())
        if beats >= CONVERGE_BEAT_SHARE * n and deep >= CONVERGE_DEEP_SHARE * n:
            return []
        return [f"alternating beat the flow on {beats}/{n} seeds and reached {CONVERGE_DEEP_BAR} on {deep}/{n}"]


def synthetic_image(seed, size=IMAGE_SIZE):
    """Seeded smooth RGB test image: a tilted ramp plus four soft blobs per
    channel, scaled into [0.05, 0.95]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    yy, xx = np.mgrid[0:size, 0:size] / size
    channels = []
    for _ in range(3):
        img = rng.uniform(-1, 1) * xx + rng.uniform(-1, 1) * yy
        for _ in range(4):
            cy, cx = rng.uniform(0, 1, 2)
            width = rng.uniform(0.08, 0.3)
            img = img + rng.uniform(-1, 1) * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
        img = img - img.min()
        channels.append((0.05 + 0.9 * img / img.max()).ravel())
    return ImageChannels(width=size, height=size, channels=tuple(channels))


class ImageCDP(Workload):
    """Per-channel CDP recovery of a synthetic RGB image, with file I/O."""

    name = "image_cdp"

    def __init__(self, cfg, out_dir):
        self.inputs = [cfg]
        self.out_dir = out_dir

    @classmethod
    def from_seed(cls, seed, work_dir):
        path = os.path.join(work_dir, f"input-{seed}.ppm")
        save_image(path, synthetic_image(seed))
        cfg = replace(bench.PRESETS["image_small"], image_path=path, seed=seed, image_rounds=(100, 125, 150))
        return cls(cfg.validate(), work_dir)

    def run(self, key):
        cfg = self.inputs[key]
        report, wall, cpu, printed = timed_call(bench.run_image_experiment, cfg, out_dir=self.out_dir)
        alt = {r["n"]: r["rel_error"] for r in report if r["algo"] == "alt"}
        wf = {r["n"]: r["rel_error"] for r in report if r["algo"] == "wf"}
        last = max(alt)
        failures = [f"n={n}: alternating {alt[n]:.2e} does not beat flow {wf[n]:.2e}" for n in alt if not alt[n] < wf[n]]
        if not alt[last] < IMAGE_BAR:
            failures.append(f"n={last}: alternating error {alt[last]:.2e} is not below {IMAGE_BAR}")
        channels = 3  # synthetic_image is RGB
        # the report pools the channels, so they pass or fail together
        return Outcome(
            key=key,
            wall_s=wall,
            cpu_s=cpu,
            digest=digest(bench.image_report_csv(report)),
            instances=channels,
            successes=channels if alt[last] < IMAGE_BAR else 0,
            diverged=channels if not all(math.isfinite(r["rel_error"]) for r in report) else 0,
            failures=failures,
            printed=printed,
        )


WORKLOADS = {w.name: w for w in (GaussSweep, ConvergeGauss, ImageCDP)}
