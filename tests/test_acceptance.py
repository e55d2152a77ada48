"""Acceptance suite: the full-size quality gates for the package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The phase-transition and convergence gates run the d = 128 experiments and
take a few minutes total; everything else is seconds.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from phasesplit import bench
from phasesplit.analysis import (
    fd_gradient_check,
    frame_bound_check,
    monotonicity_audit,
    speedup_diagnostic,
)
from phasesplit.core import derive_seed, relative_error, rng_stream
from phasesplit.measurement import (
    CDP_ATOMS,
    CDP_ATOM_PROBS,
    adjoint,
    cdp_ensemble,
    dense_frame,
    forward,
    gaussian_ensemble,
    measure,
    upper_frame_bound,
)
from phasesplit.signals import ImageChannels, random_gaussian_signal, save_image
from phasesplit.solvers import Schedules, SolverConfig, altmin_solve, wf_solve
from phasesplit.spectral import spectral_init

ALT_GAUSS = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.15 / 330)
WF_GAUSS = Schedules(tau0=330.0, mu_max=0.2)
WORKERS = min(2, os.cpu_count() or 1)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_gradient_correctness():
    worst = {"real": 0.0, "complex": 0.0}
    for fieldname in ("real", "complex"):
        e = gaussian_ensemble(8, 40, field=fieldname, seed=1001)
        rng = rng_stream(1001, 1)
        if fieldname == "real":
            draw = lambda: rng.standard_normal(8)
        else:
            draw = lambda: rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x0 = draw()
        b = measure(e, x0)
        for point_idx in range(10):
            point = (draw(), draw())
            for kind in ("split_x", "split_y"):
                dev = fd_gradient_check(kind, e, point, b, lam=0.5, rng=rng_stream(1001, 2, point_idx))
                worst[fieldname] = np.maximum(worst[fieldname], dev)  # keeps a NaN, as max() would not
            dev = fd_gradient_check("wf", e, point[0], b, rng=rng_stream(1001, 3, point_idx))
            worst[fieldname] = np.maximum(worst[fieldname], dev)
    ok = worst["real"] < 1e-6 and worst["complex"] < 1e-5
    report(1, ok, f"max fd deviation real={worst['real']:.2e} complex={worst['complex']:.2e}")


def test_02_operator_correctness():
    worst_fft = 0.0
    for d, L in ((16, 2), (32, 4), (64, 4)):
        e = cdp_ensemble(d, L, seed=1002 + d)
        dense = dense_frame(e)
        rng = rng_stream(1002, d)
        for _ in range(20):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
            # np.maximum keeps a NaN gap, as max(worst, nan) would not
            ref = dense.conj().T @ v
            worst_fft = np.maximum(worst_fft, np.linalg.norm(forward(e, v) - ref) / np.linalg.norm(ref))
            ref_adj = dense @ w
            worst_fft = np.maximum(
                worst_fft, np.linalg.norm(adjoint(e, w) - ref_adj) / np.linalg.norm(ref_adj)
            )
    worst_adj = 0.0
    for e in (gaussian_ensemble(32, 128, seed=1003), cdp_ensemble(64, 4, seed=1004)):
        rng = rng_stream(1003, e.d)
        for _ in range(100):
            v = rng.standard_normal(e.d) + 1j * rng.standard_normal(e.d)
            w = rng.standard_normal(e.N) + 1j * rng.standard_normal(e.N)
            resid = abs(np.vdot(forward(e, v), w) - np.vdot(v, adjoint(e, w)))
            worst_adj = np.maximum(worst_adj, resid / (np.linalg.norm(v) * np.linalg.norm(w) * np.sqrt(e.N)))
    ok = worst_fft <= 1e-10 and worst_adj <= 1e-10
    report(2, ok, f"fft-vs-dense={worst_fft:.2e} adjointness={worst_adj:.2e} (tol 1e-10)")


def test_03_exact_solution_fixed_point():
    d = 64
    e = gaussian_ensemble(d, 6 * d, seed=1005)
    x0 = random_gaussian_signal(d, rng_stream(1005, 1))
    b = measure(e, x0)
    alt = altmin_solve(e, b, x0, SolverConfig(max_rounds=100, schedules=ALT_GAUSS), truth=x0)
    wf = wf_solve(e, b, x0, SolverConfig(max_rounds=100, schedules=WF_GAUSS), truth=x0)
    worst = max(max(r.rel_error for r in alt.trace), max(r.rel_error for r in wf.trace))
    report(3, worst <= 1e-14, f"max relative error over 100 rounds = {worst:.2e} (tol 1e-14)")


def test_04_monotone_descent_fixed_step():
    d = 32
    e = gaussian_ensemble(d, 6 * d, seed=1006)
    x0 = random_gaussian_signal(d, rng_stream(1006, 1))
    b = measure(e, x0)
    init = spectral_init(e, b, rng=rng_stream(1006, 2))
    lam = 1.0
    curvature = (upper_frame_bound(e) / e.N) * float(
        np.max(np.abs(forward(e, init.z0)) ** 2)
    ) + lam
    sched = Schedules(
        tau0=1e-9, mu_max=1.0 / (3.0 * curvature), lam0=lam, lam_decay=0.0, step_scaling="raw"
    )
    res = altmin_solve(e, b, init.z0, SolverConfig(max_rounds=500, schedules=sched), truth=x0)
    ok, idx = monotonicity_audit(res)
    report(4, ok and res.rounds_used == 500, f"500 fixed-step rounds, first violation = {idx}")


def test_05_phase_transition_gaussian():
    cfg = bench.ExperimentConfig(
        experiment="phase_transition",
        model="gaussian_complex",
        signal="gaussian",
        d=128,
        trials=20,
        iterations=2500,
        grid=(3.0, 3.5, 4.0, 4.5, 5.0, 6.0),
        seed=2005,
        workers=WORKERS,
        stop_tol=1e-8,  # early exit far below the 1e-5 success bar
        alt=ALT_GAUSS,
        wf=WF_GAUSS,
    ).validate()
    rows = {r.ratio: r for r in bench.run_phase_transition(cfg)}
    rate_45, rate_30 = rows[4.5].success_rate, rows[3.0].success_rate
    ok = rate_45 >= 0.95 and rate_30 <= 0.5
    detail = f"success at N/d=4.5: {rate_45:.2f} (need >= 0.95), at 3.0: {rate_30:.2f} (need <= 0.5)"
    report(5, ok, detail)


def test_06_phase_transition_cdp():
    cfg = replace(
        bench.PRESETS["cdp_gaussian"],
        d=128,
        trials=20,
        iterations=2500,
        grid=(4.0, 5.0, 6.0, 8.0),
        seed=2006,
        workers=WORKERS,
        stop_tol=1e-8,
    ).validate()
    rows = {r.ratio: r for r in bench.run_phase_transition(cfg)}
    ok = rows[6.0].success_rate >= 0.9
    report(6, ok, f"success at L=6: {rows[6.0].success_rate:.2f} (need >= 0.9)")


def test_07_convergence_comparison():
    d = 128
    N = int(4.5 * d)
    beats = 0
    deep = 0
    seeds = 20
    for trial in range(seeds):
        e = gaussian_ensemble(d, N, seed=derive_seed(2007, 0, trial, 0))
        x0 = random_gaussian_signal(d, rng_stream(2007, 0, trial, 1))
        b = measure(e, x0)
        init = spectral_init(e, b, rng=rng_stream(2007, 0, trial, 2))
        alt = altmin_solve(
            e, b, init.z0, SolverConfig(max_rounds=1250, schedules=ALT_GAUSS), truth=x0
        )
        wf = wf_solve(
            e, b, init.z0, SolverConfig(max_rounds=2500, schedules=WF_GAUSS), truth=x0
        )
        err_alt = relative_error(x0, alt.z_final)
        err_wf = relative_error(x0, wf.z_final)
        beats += err_alt <= err_wf
        deep += err_alt <= 1e-12
    ok = beats >= 0.8 * seeds and deep >= 0.9 * seeds
    report(7, ok, f"alternating beat flow in {beats}/{seeds}, reached 1e-12 in {deep}/{seeds}")


def test_08_speedup_ratio():
    ratios = []
    for seed in range(20):
        e = gaussian_ensemble(64, 512, field="real", seed=3000 + seed)
        x0 = rng_stream(3000, seed).standard_normal(64)
        ratios.append(speedup_diagnostic(e, x0, 1e-3, rng=rng_stream(3000, seed, 1)).ratio)
    mean = float(np.mean(ratios))
    report(8, 0.55 <= mean <= 0.80, f"mean predicted decrease ratio = {mean:.4f} (band [0.55, 0.80])")


def test_09_frame_bound():
    rep = frame_bound_check(gaussian_ensemble(16, 64, seed=1009), trials=1000)
    ok = rep.violations == 0 and rep.equality_gap <= 1e-6
    report(
        9,
        ok,
        f"violations={rep.violations}/1000, eigenvector equality gap={rep.equality_gap:.2e}",
    )


def test_10_cdp_mask_statistics():
    masks = cdp_ensemble(1000, 100, seed=1010).masks.ravel()  # 1e5 draws
    worst = max(
        abs(float(np.mean(np.isclose(masks, atom))) - p)
        for atom, p in zip(CDP_ATOMS, CDP_ATOM_PROBS)
    )
    energy = float(np.mean(np.abs(masks) ** 2))
    ok = worst <= 0.005 and abs(energy - 1.0) <= 0.02
    report(10, ok, f"max atom frequency deviation={worst:.4f}, mean |g|^2={energy:.4f}")


def test_11_image_recovery(tmp_path):
    vals = np.add.outer(np.arange(16), np.arange(16)).astype(float)
    vals /= vals.max()
    path = tmp_path / "gradient.pgm"
    save_image(path, ImageChannels(width=16, height=16, channels=(vals.ravel(),)))
    cfg = replace(
        bench.PRESETS["image_small"],
        image_path=str(path),
        seed=2011,
        image_rounds=(100, 125, 150),
    ).validate()
    rows = bench.run_image_experiment(cfg, out_dir=str(tmp_path))
    alt = {r["n"]: r["rel_error"] for r in rows if r["algo"] == "alt"}
    wf = {r["n"]: r["rel_error"] for r in rows if r["algo"] == "wf"}
    beats_everywhere = all(alt[n] < wf[n] for n in (100, 125, 150))
    ok = beats_everywhere and alt[150] < 1e-6
    detail = ", ".join(f"n={n}: alt {alt[n]:.1e} vs flow {wf[n]:.1e}" for n in (100, 125, 150))
    report(11, ok, detail)


def test_12_determinism(tmp_path):
    phase_cfg = bench.ExperimentConfig(
        experiment="phase_transition",
        d=16,
        trials=3,
        iterations=300,
        grid=(2.0, 6.0),
        seed=2012,
        stop_tol=1e-8,
        alt=ALT_GAUSS,
        wf=WF_GAUSS,
    ).validate()
    phase_a = bench.phase_transition_csv(bench.run_phase_transition(phase_cfg))
    phase_b = bench.phase_transition_csv(
        bench.run_phase_transition(replace(phase_cfg, workers=WORKERS))
    )

    conv_cfg = replace(phase_cfg, experiment="converge", iterations=200, stop_tol=0.0)
    conv_a = bench.convergence_csv(*bench.run_convergence_curve(conv_cfg)[:2])
    conv_b = bench.convergence_csv(*bench.run_convergence_curve(conv_cfg)[:2])

    vals = np.add.outer(np.arange(8), np.arange(8)).astype(float)
    vals /= vals.max()
    img_path = tmp_path / "tiny.pgm"
    save_image(img_path, ImageChannels(width=8, height=8, channels=(vals.ravel(),)))
    img_cfg = replace(
        bench.PRESETS["image_small"], image_path=str(img_path), seed=2012, image_rounds=(20,)
    ).validate()
    img_a = bench.image_report_csv(bench.run_image_experiment(img_cfg))
    img_b = bench.image_report_csv(bench.run_image_experiment(img_cfg))

    ok = phase_a == phase_b and conv_a == conv_b and img_a == img_b
    report(12, ok, "byte-identical CSV across reruns (phase transition, convergence, image)")
