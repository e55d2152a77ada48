"""Tests of the benchmark itself: python3 -m pytest phasebench/tests"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from phasesplit import bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7  # any seed but the held-out one


def _tiny_converge():
    cfg = replace(bench.PRESETS["gaussian_gaussian"], experiment="converge", d=8, iterations=20, power_iters=5)
    return workloads.ConvergeGauss([cfg.validate()])


def _tiny_sweep():
    cfg = replace(
        bench.PRESETS["gaussian_gaussian"], d=16, trials=2, iterations=200, grid=(3.0, 6.0), workers=1, stop_tol=1e-8
    )
    return workloads.GaussSweep(cfg.validate())


def _cli(*flags, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "phasebench" / "run.py"), "--seed", str(SEED), *flags]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def test_tracer_restores_the_original_functions():
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tr.TARGETS]
    with pytest.raises(RuntimeError):
        with tr.Tracer():
            assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
            raise RuntimeError("the wrappers must come off on errors too")
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


@pytest.mark.parametrize("make", [_tiny_converge, _tiny_sweep])
def test_matvecs_per_round_are_exactly_four_and_two(make):
    workload = make()
    with tr.Tracer() as spans:
        workload.run(0)
        if tr.WF not in {s[0] for s in spans.spans}:
            (e, b, z0, cfg), kwargs, _ = spans.first[tr.ALT]
            bench.wf_solve(e, b, z0, replace(cfg, max_rounds=7), truth=kwargs["truth"])
    layer = tr.layer_metrics(spans)
    assert layer["solvers.matvecs_per_alt_round"][0] == 4
    assert layer["solvers.matvecs_per_wf_iter"][0] == 2


def test_every_metric_name_is_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_convergence_check_applies_the_gate_shares_to_the_full_seed_set():
    workload = workloads.ConvergeGauss([None] * 20)
    workload.errors = {k: (1e-15, 1e-14) for k in range(19)}
    assert workload.check() == []  # a partial set is not checked
    workload.errors[19] = (1e-11, 1e-9)
    workload.errors[18] = (1e-11, 1e-9)
    assert workload.check() == []  # 18/20 reach the bar, as gate 7 asks
    workload.errors[17] = (1e-11, 1e-9)
    assert len(workload.check()) == 1


def test_program_prints_are_captured(capsys):
    result, wall, cpu, printed = workloads.timed_call(print, "phase transition: 1 trials")
    assert result is None and wall >= 0 and cpu >= 0
    assert printed == "phase transition: 1 trials\n"
    assert capsys.readouterr().out == ""


def test_digest_record_flags_changed_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = _tiny_converge()
    same = workloads.Outcome(key=0, wall_s=1.0, cpu_s=1.0, digest="a", instances=1, successes=1, diverged=0)
    args = run.parse_args(["--workload", "converge_gauss"])
    assert run.digest_failures(args.workload, 1, workload, [same, same])[0] == []
    changed = replace(same, digest="b")
    failures = run.digest_failures(args.workload, 1, workload, [changed])[0]
    assert len(failures) == 1 and "earlier run" in failures[0]


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines, result


def test_untraced_run_prints_every_end_to_end_metric_last():
    proc = _cli("--workload", "image_cdp", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines, result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the program's own timing lines stay out of the output
    assert not any(line.startswith("image experiment:") for line in lines)


def test_traced_run_prints_every_per_layer_metric():
    proc = _cli("--workload", "image_cdp", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines, result = _result(proc)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["solvers.matvecs_per_alt_round"]["value"] == 4
    assert not any(line.startswith("image experiment:") for line in lines)
    assert (BENCH_DIR / "out" / f"spans-image_cdp-seed{SEED}.jsonl").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "phasebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "converge_gauss", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
