import logging
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

import phasesplit
from phasesplit import bench, checks, cli
from phasesplit.core import derive_seed, rng_stream
from phasesplit.measurement import cdp_ensemble, measure
from phasesplit.signals import ImageChannels, load_image, save_image
from phasesplit.solvers import Schedules, SolverConfig, altmin_solve, wf_solve
from phasesplit.spectral import spectral_init

FAST_ALT = Schedules(tau0=330.0, mu_max=0.4, lam0=300.0, lam_decay=0.15 / 330)
FAST_WF = Schedules(tau0=330.0, mu_max=0.2)


def _worker_blas_threads():
    _, get_threads = bench._openblas()
    return get_threads()


def tiny_phase_config(**overrides):
    base = dict(
        experiment="phase_transition",
        model="gaussian_complex",
        signal="gaussian",
        d=16,
        trials=3,
        iterations=400,
        grid=(2.0, 6.0),
        seed=99,
        stop_tol=1e-8,
        alt=FAST_ALT,
        wf=FAST_WF,
    )
    base.update(overrides)
    return bench.ExperimentConfig(**base).validate()


def gradient_pgm(tmp_path, w=8, h=8):
    vals = np.add.outer(np.arange(h), np.arange(w)).astype(float)
    vals /= vals.max()
    path = tmp_path / "gradient.pgm"
    save_image(path, ImageChannels(width=w, height=h, channels=(vals.ravel(),)))
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        cfg = bench.parse_config("")
        assert cfg.d == 128 and cfg.trials == 20
        assert cfg.experiment == "phase_transition"

    def test_preset_with_overrides(self):
        cfg = bench.parse_config(
            "preset=cdp_gaussian\n"
            "trials=5\n"
            "grid=4,6\n"
            "alt_lam0=10\n"
            "# comment line\n"
        )
        assert cfg.model == "cdp"
        assert cfg.trials == 5
        assert cfg.grid == (4.0, 6.0)
        assert cfg.alt.lam0 == 10.0
        assert cfg.alt.lam_decay == pytest.approx(0.0015 / 330)  # preset value kept

    def test_schedule_keys(self):
        cfg = bench.parse_config("wf_mu_max=0.3\n")
        assert cfg.wf.mu_max == 0.3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            bench.parse_config("velocity=9\n")

    @pytest.mark.parametrize("key", ["step", "alt_step", "mode", "step_scaling"])
    def test_step_kind_is_not_a_config_key(self, key):
        # experiments run the preset ramps; a constant or exact step is set
        # through the library's Schedules only
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            bench.parse_config(f"preset=gaussian_gaussian\n{key}=exact\n")

    @pytest.mark.parametrize("text, lineno, key", [
        ("d=16\nd=32\n", 2, "d"),
        ("preset=cdp_gaussian\ntrials=3\npreset = gaussian_gaussian\n", 3, "preset"),
    ])
    def test_duplicate_key_rejected(self, text, lineno, key):
        with pytest.raises(ValueError, match=f"config line {lineno}: duplicate key '{key}'"):
            bench.parse_config(text)

    def test_unknown_experiment_label_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment 'warp'"):
            bench.ExperimentConfig(experiment="warp").validate()

    @pytest.mark.parametrize("overrides, match", [
        ({"d": 15}, "d must be even"),
        ({"iterations": 1}, "iterations must be an integer >= 2"),
        ({"model": "cdp", "grid": (4.5,)}, "mask counts"),
        ({"wf": Schedules(tau0=330.0, mu_max=0.2, lam0=300.0)}, "no coupling"),
        ({"wf": Schedules(tau0=330.0, mu_max=0.2, lam_decay=0.01)}, "no coupling"),
        ({"algo": "sgd"}, "unknown algo 'sgd'"),
        ({"workers": 0}, "workers must be an integer >= 1"),
        ({"image_rounds": (0,)}, "image_rounds must be an integer >= 1"),
        # a count is an integer, not a bool or a float: seed=1.5 would run
        # seed 1 under a repr that says 1.5, and d=16.0 would fail in numpy
        ({"seed": 1.5}, "seed must be an integer >= 0, not 1.5"),
        ({"seed": True}, "seed must be an integer >= 0, not True"),
        ({"trials": 1.0}, "trials must be an integer >= 1, not 1.0"),
        ({"trials": True}, "trials must be an integer >= 1, not True"),
        ({"d": 16.0}, "d must be an integer >= 1, not 16.0"),
        ({"workers": 2.0}, "workers must be an integer >= 1, not 2.0"),
        ({"iterations": 400.0}, "iterations must be an integer >= 2, not 400.0"),
        ({"power_iters": True}, "power_iters must be an integer >= 1, not True"),
        ({"image_L": 15.0}, "image_L must be an integer >= 1, not 15.0"),
        ({"image_rounds": (100, 125.0)}, "image_rounds must be an integer >= 1, not 125.0"),
        ({"stop_tol": True}, "stop_tol must be a finite number >= 0, not True"),
        ({"alt": Schedules(lam0=30.0, step="exact")}, "scheduled steps only"),
        ({"wf": Schedules(step="exact")}, "scheduled steps only"),
    ])
    def test_one_rule_set_for_every_runner(self, overrides, match):
        # an invalid config cannot be built, so no runner can receive one
        with pytest.raises(ValueError, match=match):
            replace(bench.PRESETS["image_small"], **overrides)

    def test_numpy_integer_counts_keep_their_bytes(self):
        cfg = tiny_phase_config(trials=2, grid=(6.0,))
        same = replace(cfg, d=np.int64(16), trials=np.int64(2), seed=np.int64(99), iterations=np.int64(400))
        assert bench.phase_transition_csv(bench.run_phase_transition(same)) == bench.phase_transition_csv(
            bench.run_phase_transition(cfg))

    @pytest.mark.parametrize("name", sorted(bench.PRESETS))
    def test_replace_validates_every_preset(self, name):
        with pytest.raises(ValueError, match="d must be"):
            replace(bench.PRESETS[name], d=15)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            bench.parse_config("just words\n")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="grid"):
            bench.parse_config("grid=4,4\n")

    def test_scalar_keys_cover_plain_fields(self):
        config_keys = {key: name for key, (target, name, _) in bench._KEYS.items() if target is None}
        assert all(key == name for key, name in config_keys.items())
        assert set(config_keys) == {
            "model", "signal", "algo", "d", "trials", "iterations", "seed", "workers",
            "stop_tol", "power_iters", "image_path", "image_L", "grid", "image_rounds",
        }
        assert bench.parse_config("stop_tol=1e-6\nimage_L=3\n").stop_tol == 1e-6

    def test_image_requires_path_at_run_time(self):
        cfg = bench.parse_config("preset=image_small\n")
        with pytest.raises(ValueError, match="image_path"):
            bench.run_image_experiment(cfg)


class TestPhaseTransition:
    def test_rows_and_undersampled_failure(self):
        cfg = tiny_phase_config(d=32, grid=(1.0, 6.0), trials=4, iterations=600)
        rows = bench.run_phase_transition(cfg)
        assert [r.ratio for r in rows] == [1.0, 6.0]
        assert all(r.success_rate == r.successes / r.trials for r in rows)
        assert rows[0].successes == 0  # N = d carries too little information
        assert rows[1].successes == 4

    def test_success_rate_is_read_off_the_counts(self):
        rows = [
            bench.PhaseTransitionRow(ratio=4.5, trials=3, successes=2, mean_rel_error=1e-12),
            bench.PhaseTransitionRow(ratio=6.0, trials=20, successes=7, mean_rel_error=float("inf")),
        ]
        assert [r.success_rate for r in rows] == [2 / 3, 7 / 20]
        assert bench.phase_transition_csv(rows) == (
            "ratio,trials,successes,success_rate,mean_rel_error\n"
            "4.5,3,2,0.6666666666666666,1e-12\n"
            "6.0,20,7,0.35,inf\n"
        )

    def test_monotone_success_rate(self):
        cfg = tiny_phase_config(d=24, grid=(1.5, 8.0), trials=4, iterations=600)
        rows = bench.run_phase_transition(cfg)
        assert rows[-1].success_rate >= rows[0].success_rate

    def test_deterministic_csv(self):
        cfg = tiny_phase_config()
        csv1 = bench.phase_transition_csv(bench.run_phase_transition(cfg))
        csv2 = bench.phase_transition_csv(bench.run_phase_transition(cfg))
        assert csv1 == csv2
        header = csv1.splitlines()[0]
        assert header == "ratio,trials,successes,success_rate,mean_rel_error"

    def test_worker_pool_matches_serial(self):
        cfg = tiny_phase_config()
        serial = bench.phase_transition_csv(bench.run_phase_transition(cfg))
        parallel = bench.phase_transition_csv(
            bench.run_phase_transition(replace(cfg, workers=2))
        )
        assert serial == parallel

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU process must not start a pool")

        monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        cfg = tiny_phase_config(workers=8, grid=(6.0,), trials=2)
        serial = bench.run_phase_transition(replace(cfg, workers=1))
        assert bench.run_phase_transition(cfg) == serial

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        if bench._openblas() is None:
            pytest.skip("numpy has no bundled OpenBLAS here")
        pool_kwargs = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, **kwargs):
                pool_kwargs.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
        bench.run_phase_transition(tiny_phase_config(workers=2, grid=(6.0,), trials=2))
        [kwargs] = pool_kwargs
        with ProcessPoolExecutor(**kwargs) as pool:
            assert pool.submit(_worker_blas_threads).result(timeout=60) == 1

    @pytest.mark.parametrize("missing", ["library", "symbol"])
    def test_sweep_without_bundled_openblas(self, monkeypatch, caplog, missing):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
        cfg = tiny_phase_config(grid=(6.0,), trials=2)
        serial = bench.run_phase_transition(cfg)
        if missing == "library":
            monkeypatch.setattr(bench.glob, "glob", lambda pattern: [])
        else:
            monkeypatch.setattr(bench, "_SET_BLAS_THREADS", "no_such_blas_symbol")
        # the lookup is cached once per process: look it up afresh under the patch
        monkeypatch.setattr(bench, "_openblas", cache(bench._openblas.__wrapped__))
        with caplog.at_level(logging.WARNING, logger="phasesplit.bench"):
            assert bench.run_phase_transition(replace(cfg, workers=2)) == serial
        assert len(caplog.records) == 1 and "OpenBLAS" in caplog.records[0].getMessage()

    def test_timing_is_logged_not_printed(self, capsys, caplog):
        with caplog.at_level(logging.INFO, logger="phasesplit.bench"):
            bench.run_phase_transition(tiny_phase_config(grid=(6.0,), trials=1))
        assert capsys.readouterr().out == ""
        [record] = caplog.records
        assert record.levelno == logging.INFO
        assert re.fullmatch(r"phase transition: 1 trials in \d+\.\ds \(1 workers\)", record.getMessage())

    def test_validates_as_phase_transition(self):
        # the config checks itself when built, so the runner never sees it
        with pytest.raises(ValueError, match="mask counts"):
            bench.ExperimentConfig(model="cdp", grid=(4.5,), d=16, trials=1, iterations=20)

    def test_wf_solver_selectable(self):
        cfg = tiny_phase_config(algo="wf", grid=(6.0,), iterations=800)
        rows = bench.run_phase_transition(cfg)
        assert rows[0].successes > 0

    @pytest.mark.parametrize("algo, expected", [("wf", 800), ("alt", 400)])
    def test_odd_budget_is_matched(self, monkeypatch, algo, expected):
        budgets = []
        for name in ("wf_solve", "altmin_solve"):
            solve = getattr(bench, name)

            def spy(e, b, z0, cfg, truth=None, solve=solve):
                budgets.append(cfg.max_rounds)
                return solve(e, b, z0, cfg, truth=truth)

            monkeypatch.setattr(bench, name, spy)
        bench.run_phase_transition(tiny_phase_config(algo=algo, grid=(6.0,), trials=1, iterations=801))
        assert budgets == [expected]


class TestConvergence:
    def test_curves_and_summary(self):
        fast = Schedules(tau0=60.0, mu_max=0.4, lam0=300.0, lam_decay=0.15 / 330)
        cfg = tiny_phase_config(
            experiment="converge", d=32, iterations=600, stop_tol=0.0,
            alt=fast, wf=Schedules(tau0=60.0, mu_max=0.2),
        )
        alt, wf, truth, summary = bench.run_convergence_curve(cfg)
        # structural checks only; the acceptance suite runs the full-size bar
        assert summary["alt_final_rel_error"] <= 1e-4
        assert summary["wf_iterations"] == 600
        assert summary["alt_rounds"] == 300
        assert summary["nuclear_dist_lhs"] >= 0.0
        csv_text = bench.convergence_csv(alt, wf)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "iter,algo,objective,rel_error"
        alt_iters = [int(l.split(",")[0]) for l in lines[1:] if ",alt," in l]
        wf_iters = [int(l.split(",")[0]) for l in lines[1:] if ",wf," in l]
        # iteration parity: one alternating round counts as two iterations
        assert max(alt_iters) == max(wf_iters) == 600
        assert all(i % 2 == 0 for i in alt_iters)
        # truth is known, so every row carries a relative error, and both
        # fields are plain numbers (float() raises on "" or "np.float64(...)")
        for line in lines[1:]:
            _, _, objective, rel_error = line.split(",")
            float(objective), float(rel_error)

    def test_odd_budget_is_matched(self):
        cfg = tiny_phase_config(experiment="converge", d=16, iterations=201, stop_tol=0.0)
        _, _, _, summary = bench.run_convergence_curve(cfg)
        assert summary["alt_rounds"] == 100
        assert summary["wf_iterations"] == 2 * summary["alt_rounds"]

    def test_diverged_solve_reports_inf(self):
        # the last finite iterate of a diverged solve is no final estimate
        cfg = bench.ExperimentConfig(experiment="converge", d=16, iterations=40, alt=Schedules(lam0=300.0, step=1e3))
        alt, wf, _, summary = bench.run_convergence_curve(cfg)
        assert alt.diverged and not wf.diverged
        assert summary["alt_final_rel_error"] == summary["nuclear_dist_lhs"] == float("inf")
        assert np.isfinite(summary["wf_final_rel_error"])
        for key in ("objective_delta_sq", "stability_rhs_computable_part"):
            assert type(summary[key]) is float

    def test_validates_as_converge(self):
        with pytest.raises(ValueError, match="mask counts"):
            bench.ExperimentConfig(model="cdp", grid=(4.5,), d=16, iterations=4)

    def test_deterministic(self):
        cfg = tiny_phase_config(experiment="converge", d=16, iterations=200, stop_tol=0.0)
        a1, w1, _, _ = bench.run_convergence_curve(cfg)
        a2, w2, _, _ = bench.run_convergence_curve(cfg)
        assert bench.convergence_csv(a1, w1) == bench.convergence_csv(a2, w2)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on two threads for the test, the earlier count after it."""
    blas = bench._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def _solve_threads(monkeypatch, get_threads, fail=False):
    """Record the OpenBLAS thread count inside every alternating solve."""
    seen = []

    def spy(e, b, z0, cfg, truth=None, solve=bench.altmin_solve):
        seen.append(get_threads())
        if fail:
            raise RuntimeError("solve failed")
        return solve(e, b, z0, cfg, truth=truth)

    monkeypatch.setattr(bench, "altmin_solve", spy)
    return seen


_SMALL_GAUSSIAN_RUNS = {
    "curve": lambda: bench.run_convergence_curve(tiny_phase_config(experiment="converge", iterations=40)),
    "sweep trial": lambda: bench.run_phase_transition(tiny_phase_config(grid=(6.0,), trials=1, iterations=40)),
}


class TestBlasThreads:
    @pytest.mark.parametrize("run", sorted(_SMALL_GAUSSIAN_RUNS))
    def test_small_gaussian_instance_solves_on_one_thread(self, monkeypatch, two_blas_threads, run):
        seen = _solve_threads(monkeypatch, two_blas_threads)
        _SMALL_GAUSSIAN_RUNS[run]()
        assert seen == [1]
        assert two_blas_threads() == 2  # the caller's count is back

    @pytest.mark.parametrize("run", sorted(_SMALL_GAUSSIAN_RUNS))
    def test_count_restored_when_a_solve_raises(self, monkeypatch, two_blas_threads, run):
        seen = _solve_threads(monkeypatch, two_blas_threads, fail=True)
        with pytest.raises(RuntimeError, match="solve failed"):
            _SMALL_GAUSSIAN_RUNS[run]()
        assert seen == [1]
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("instance", ["over the size limit", "cdp"])
    def test_other_instances_keep_the_callers_threads(self, monkeypatch, two_blas_threads, instance):
        set_threads = []
        monkeypatch.setattr(bench, "_openblas", lambda: (set_threads.append, two_blas_threads))
        seen = _solve_threads(monkeypatch, two_blas_threads)
        cfg = tiny_phase_config(experiment="converge", iterations=40)
        if instance == "cdp":
            cfg = replace(cfg, model="cdp", grid=(4.0,))
        else:
            monkeypatch.setattr(bench, "_ONE_THREAD_ENTRIES", 0)
        bench.run_convergence_curve(cfg)
        assert seen == [2] and set_threads == []

    def test_curve_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, two_blas_threads):
        cfg = replace(bench.PRESETS["gaussian_gaussian"], experiment="converge", d=128, iterations=200)
        assert 128 * 576 <= bench._ONE_THREAD_ENTRIES
        one = bench.convergence_csv(*bench.run_convergence_curve(cfg)[:2])
        monkeypatch.setattr(bench, "_ONE_THREAD_ENTRIES", 0)
        two = bench.convergence_csv(*bench.run_convergence_curve(cfg)[:2])
        assert one == two


def test_every_experiment_solve_runs_mixed_precision(monkeypatch, tmp_path):
    precisions = []
    for name in ("altmin_solve", "wf_solve"):
        def logged(e, b, z0, cfg, truth=None, solve=getattr(bench, name)):
            precisions.append(cfg.precision)
            return solve(e, b, z0, cfg, truth=truth)

        monkeypatch.setattr(bench, name, logged)
    bench.run_phase_transition(tiny_phase_config(trials=1, iterations=20))
    bench.run_convergence_curve(tiny_phase_config(experiment="converge", iterations=20))
    bench.run_image_experiment(tiny_phase_config(image_path=gradient_pgm(tmp_path), image_rounds=(10,)))
    assert len(precisions) == 2 + 2 + 2 and set(precisions) == {"mixed"}


def test_csv_float_fields_take_numpy_floats():
    row = bench.PhaseTransitionRow(ratio=np.float64(4.5), trials=2, successes=1, mean_rel_error=np.float64(1e-12))
    assert bench.phase_transition_csv([row]).splitlines()[1] == "4.5,2,1,0.5,1e-12"
    report = [{"n": 100, "algo": "alt", "iterations": 100, "rel_error": np.float64(2.5e-7)}]
    assert bench.image_report_csv(report).splitlines()[1] == "100,alt,100,2.5e-07"


class TestImageExperiment:
    def test_grayscale_single_channel_report(self, tmp_path):
        path = gradient_pgm(tmp_path)
        cfg = replace(
            bench.PRESETS["image_small"],
            image_path=path,
            seed=3,
            image_rounds=(20, 40),
        )
        report = bench.run_image_experiment(cfg, out_dir=str(tmp_path))
        assert {r["algo"] for r in report} == {"alt", "wf"}
        assert [r["n"] for r in report if r["algo"] == "alt"] == [20, 40]
        assert all(r["iterations"] == 2 * r["n"] for r in report)
        assert (tmp_path / "recovered_40.pgm").exists()

    @staticmethod
    def _rgb_ppm(tmp_path):
        rng = np.random.default_rng(0)
        img = ImageChannels(width=4, height=4, channels=tuple(rng.random(16) for _ in range(3)))
        path = tmp_path / "rgb.ppm"
        save_image(path, img)
        return str(path)

    def test_rgb_uses_three_channels(self, tmp_path):
        cfg = replace(
            bench.PRESETS["image_small"],
            image_path=self._rgb_ppm(tmp_path),
            seed=3,
            image_rounds=(15,),
        )
        report = bench.run_image_experiment(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "recovered_15.ppm").exists()
        assert len(report) == 2

    def test_report_pools_channel_errors_by_energy(self, tmp_path):
        path = self._rgb_ppm(tmp_path)
        cfg = replace(bench.PRESETS["image_small"], image_path=path, seed=3, image_rounds=(5, 10))
        report = bench.run_image_experiment(cfg)
        # each channel recomputed through the public API, seeded as the harness seeds it
        energy, dist_sq = 0.0, {(n, algo): 0.0 for n in (5, 10) for algo in ("alt", "wf")}
        for ci, x0 in enumerate(load_image(path).channels):
            e = cdp_ensemble(16, cfg.image_L, seed=derive_seed(3, ci, 0, 0))
            b = measure(e, x0)
            z0 = spectral_init(e, b, iters=cfg.power_iters, rng=rng_stream(3, ci, 0, 2)).z0
            alt = altmin_solve(e, b, z0, SolverConfig(max_rounds=10, schedules=cfg.alt), truth=x0)
            wf = wf_solve(e, b, z0, SolverConfig(max_rounds=20, schedules=cfg.wf), truth=x0)
            norm_sq = float(np.linalg.norm(x0) ** 2)
            energy += norm_sq
            for n in (5, 10):
                assert alt.trace[n].round == n and wf.trace[2 * n].round == 2 * n
                dist_sq[n, "alt"] += norm_sq * alt.trace[n].rel_error ** 2
                dist_sq[n, "wf"] += norm_sq * wf.trace[2 * n].rel_error ** 2
        expected = [float(np.sqrt(dist_sq[n, algo] / energy)) for n in (5, 10) for algo in ("alt", "wf")]
        assert [(r["n"], r["algo"]) for r in report] == [(5, "alt"), (5, "wf"), (10, "alt"), (10, "wf")]
        assert [r["rel_error"] for r in report] == expected

    def test_diverged_channel_is_written_black(self, tmp_path):
        cfg = replace(
            bench.PRESETS["image_small"],
            image_path=self._rgb_ppm(tmp_path),
            seed=3,
            image_rounds=(5, 10),
            alt=Schedules(lam0=30.0, step=1e3),  # overflows within the budget
        )
        report = bench.run_image_experiment(cfg, out_dir=str(tmp_path))
        assert all(r["rel_error"] == np.inf for r in report if r["algo"] == "alt")
        assert all(np.isfinite(r["rel_error"]) for r in report if r["algo"] == "wf")
        recovered = load_image(tmp_path / "recovered_10.ppm")
        assert all(not ch.any() for ch in recovered.channels)


CHECK_NAMES = [
    "gradient_real",
    "gradient_complex",
    "adjoint_gaussian",
    "adjoint_cdp",
    "cdp_fft_vs_dense",
    "frame_bound_violations",
    "frame_bound_tightness",
    "monotone_fixed_step",
    "monotone_linesearch",
    "speedup_ratio",
    "cdp_atom_frequencies",
    "cdp_atom_energy",
]


@pytest.fixture(scope="module")
def check_run():
    return checks.run_checks()


class TestChecks:
    def test_all_pass(self, check_run):
        ok, entries = check_run
        assert ok
        assert [e["name"] for e in entries] == CHECK_NAMES
        assert all(e["passed"] for e in entries)

    @pytest.mark.parametrize(
        "value, bound, expected",
        [
            (1e-6, 1e-6, True),
            (np.nextafter(1e-6, 1.0), 1e-6, False),
            (0, 0, True),
            (1, 0, False),
            (0.7, (0.55, 0.80), True),
            (0.55, (0.55, 0.80), True),
            (0.80, (0.55, 0.80), True),
            (np.nextafter(0.55, 0.0), (0.55, 0.80), False),
            (np.nextafter(0.80, 1.0), (0.55, 0.80), False),
            (-1, -1, True),  # a monotone row with no uptick
            (0, -1, False),  # an uptick at index 0 or later
            (17, -1, False),
        ],
    )
    def test_verdict_rule(self, value, bound, expected):
        assert checks.passes(value, bound) is expected

    def test_injected_sign_error_fails(self, monkeypatch):
        from phasesplit import analysis
        from phasesplit.objective import split_grad

        def flipped(e, x, y, b, lam):
            gx, gy = split_grad(e, x, y, b, lam)
            return -gx, gy

        monkeypatch.setattr(analysis, "split_grad", flipped)
        ok, entries = checks.run_checks()
        assert not ok
        failed = [e["name"] for e in entries if not e["passed"]]
        assert any(name.startswith("gradient") for name in failed)

    def test_nan_gradient_fails_the_gradient_rows(self, monkeypatch):
        from phasesplit import analysis

        monkeypatch.setattr(analysis, "wf_grad", lambda e, z, b: np.full(z.shape, np.nan))
        for name, bound, instrument in (row for row in checks.CHECKS if row[0].startswith("gradient")):
            value = instrument()
            assert np.isnan(value) and not checks.passes(value, bound), name

    def test_json_shape(self, check_run):
        import json

        payload = json.loads(checks.checks_json(*check_run))
        assert payload["passed"] is True
        assert [e["name"] for e in payload["checks"]] == CHECK_NAMES
        assert all(set(e) == {"name", "value", "threshold", "passed"} for e in payload["checks"])


@pytest.mark.parametrize("module", ["phasesplit.checks", "phasesplit.bench", "phasesplit.analysis"])
def test_imports_first_in_a_fresh_interpreter(module):
    # checks imports bench and analysis, so neither may import checks back
    src = os.path.dirname(os.path.dirname(phasesplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", f"import {module}"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestCli:
    def test_check_command(self, tmp_path, capsys):
        assert cli.main(["check", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "checks.json").exists()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(CHECK_NAMES) + 1
        for name, line in zip(CHECK_NAMES, lines):
            assert line.startswith(f"[pass] {name}: value=") and " threshold=" in line
        assert lines[-1] == f"wrote {tmp_path / 'checks.json'}"

    def test_phase_transition_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "d=16\ntrials=2\niterations=200\n"
            "grid=2,6\nseed=4\nstop_tol=1e-6\n"
        )
        code = cli.main(
            ["phase-transition", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "phase_transition.csv").read_text()
        assert text.startswith("ratio,trials,successes,")
        # the library logs its timing; the command prints it, as before
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"phase transition: 4 trials in \d+\.\ds \(1 workers\)", out[0])
        assert out[1].startswith("ratio 2: ") and out[-1] == f"wrote {tmp_path / 'phase_transition.csv'}"

    def test_log_records_print_only_while_a_command_runs(self, tmp_path, capsys, monkeypatch):
        def sweep(cfg):
            logging.getLogger("phasesplit.bench").info("timing %d", 1)
            logging.getLogger("phasesplit.bench").warning("no OpenBLAS")
            logging.getLogger("phasesplit.bench").debug("hidden")
            return []

        logger = logging.getLogger("phasesplit")
        before = (list(logger.handlers), logger.level)
        monkeypatch.setattr(bench, "run_phase_transition", sweep)
        assert cli.main(["phase-transition", "--out", str(tmp_path)]) == 0
        logging.getLogger("phasesplit.bench").info("after")
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "timing 1" and "after" not in captured.out
        assert captured.err == "no OpenBLAS\n"  # warnings stay on stderr
        assert (list(logger.handlers), logger.level) == before

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("d=16\ntrials=2\niterations=200\ngrid=6\n")
        cli.main(
            [
                "phase-transition",
                "--config",
                str(cfg_path),
                "--seed",
                "123",
                "--trials",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        text = (tmp_path / "phase_transition.csv").read_text()
        assert text.splitlines()[1].split(",")[1] == "3"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("experiment=warp\n")
        assert cli.main(["converge", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--seed", "5"],
            ["check", "--trials", "3"],
            ["check", "--preset", "cdp_gaussian"],
            ["check", "--config", "run.cfg"],
            ["converge", "--trials", "7"],
            ["image", "--trials", "7"],
        ],
    )
    def test_ignored_options_are_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg_text, match",
        [
            ("phase-transition", "model=cdp\ngrid=4.5\n", "integers"),
            ("phase-transition", "grid=3,inf\n", "finite"),
            ("converge", "model=cdp\ngrid=4,5.5\n", "integers"),
            ("phase-transition", "signal=image\n", "unknown signal"),
            ("phase-transition", "experiment=converge\n", "unknown config key 'experiment'"),
            ("converge", "d=16\nd=32\n", "config line 2: duplicate key 'd'"),
            ("image", "preset=image_small\npreset=image_small\n", "duplicate key 'preset'"),
            ("image", "preset=image_small\nd=15\n", "d must be even"),
            ("image", "preset=image_small\niterations=1\n", "iterations must be an integer >= 2"),
            ("image", "preset=image_small\nimage_L=0\n", "image_L"),
            ("phase-transition", "stop_tol=-1e-8\n", "stop_tol"),
            ("phase-transition", "d=16\ngrid=0.01,4\n", "round(grid * d) >= 1"),
            ("converge", "seed=-2\n", "seed"),
            ("converge", "d=15\n", "d must be even"),
            ("phase-transition", "preset=gaussian_lowpass\nd=24\n", "d/8 must be even"),
            ("phase-transition", "iterations=1\n", "iterations must be an integer >= 2"),
            ("phase-transition", "success_threshold=1e-5\n", "unknown config key 'success_threshold'"),
            ("phase-transition", "alt_mu_max=nan\n", "finite"),
            ("phase-transition", "alt_mu_max=2\n", "exceeds 1"),
            ("converge", "wf_mu_max=1.5\n", "exceeds 1"),
            ("converge", "model=gaussian_real\n", "unknown model"),
            ("image", "preset=image_small\nimage_rounds=20,20\n", "strictly increasing"),
            ("image", "preset=image_small\nimage_rounds=20,10\n", "strictly increasing"),
        ],
    )
    def test_misleading_config_is_config_error(self, tmp_path, capsys, command, cfg_text, match):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(cfg_text)
        assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and match in err

    @pytest.mark.parametrize("data, match", [
        (None, "No such file"),
        (b"P5\n4 4\n255\n\x00\x01", "truncated"),
    ])
    def test_bad_image_is_config_error(self, tmp_path, capsys, data, match):
        path = tmp_path / "bad.pgm"
        if data is not None:
            path.write_bytes(data)
        argv = ["image", "--preset", "image_small", "--image", str(path), "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and match in err

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        argv = ["converge", "--preset", "gaussian_gaussian", "--seed", "-1", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: seed")

    @pytest.mark.parametrize("name", sorted(bench.PRESETS))
    def test_preset_flag_loads_like_a_preset_line(self, tmp_path, name):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"preset={name}\n")
        parser = cli._build_parser()
        by_flag = cli._load_config(parser.parse_args(["converge", "--preset", name]))
        by_file = cli._load_config(parser.parse_args(["converge", "--config", str(cfg_path)]))
        assert by_flag == by_file == replace(bench.PRESETS[name], experiment="converge")

    def test_config_and_preset_are_exclusive(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("d=16\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["converge", "--config", str(cfg_path), "--preset", "cdp_gaussian"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_image_preset_is_a_valid_converge_config(self, tmp_path):
        # the image run reads neither model nor signal, so image_small keeps
        # their defaults and the other subcommands accept it as it is
        assert cli.main(["converge", "--preset", "image_small", "--out", str(tmp_path)]) == 0

    def test_image_command_defaults_to_synthetic_gradient(self, tmp_path):
        cfg_path = tmp_path / "img.cfg"
        cfg_path.write_text("preset=image_small\nimage_rounds=10,20\nseed=2\n")
        assert cli.main(["image", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        image = load_image(tmp_path / "synthetic_gradient.pgm")
        assert (image.width, image.height, len(image.channels)) == (16, 16, 1)
        assert (tmp_path / "image_report.csv").exists()
        assert (tmp_path / "recovered_20.pgm").exists()

    def test_image_command(self, tmp_path):
        path = gradient_pgm(tmp_path)
        cfg_path = tmp_path / "img.cfg"
        cfg_path.write_text("preset=image_small\nimage_rounds=10,20\nseed=2\n")
        code = cli.main(
            ["image", "--config", str(cfg_path), "--image", path, "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "image_report.csv").exists()


class TestTracerTargets:
    """The benchmark's tracer patches phasesplit names by getattr; a name it
    lists that the package no longer has would break every traced run."""

    def test_every_target_resolves(self):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "phasebench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("phasebench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.TARGETS if not hasattr(module, attr)]
        assert not missing


class TestReadmeConfigDocs:
    """The README's config docs name exactly what the parser accepts, so a
    key deleted later cannot leave them stale."""

    @staticmethod
    def _section(heading):
        text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        return re.split(r"\n#+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]

    def test_config_keys_match_the_parser(self):
        section = self._section("### Config files")
        keys = set(re.findall(r"^(\w+)=", section.split("```")[1], re.M))
        other = re.sub(r"\([^)]*\)", "", section.split("Other keys:", 1)[1])  # drop the value lists
        keys |= set(re.findall(r"`(\w+)`", other))
        accepted = set(bench._KEYS) | {"preset"}
        assert keys == accepted

    def test_presets_table_names_every_preset(self):
        rows = re.findall(r"^\| (\w+) ", self._section("### Presets"), re.M)
        assert set(rows[1:]) == set(bench.PRESETS)  # rows[0] is the header
