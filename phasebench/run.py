#!/usr/bin/env python3
"""Benchmark for phasesplit.

Run from the repository root:

    python3 phasebench/run.py --workload gauss_sweep --seed 1 --seconds 30 --trace 0
    python3 phasebench/run.py --workload all      # every workload, one table

With ``--trace 0`` a run repeats its workload's calls into
``phasesplit.bench`` for ``--seconds`` and reports the end-to-end metrics.
With ``--trace 1`` it makes the traced pass instead and reports per-layer
metrics: untraced and traced serial calls in alternation, with the spans
written to a file, and one probe process that times the single-threaded
baseline (or, for ``gauss_sweep``, the trial pool with the default BLAS
threads). Every run
checks the program's outputs and exits 1 if a check fails. The last line of
standard output is one JSON object; the lines above it are for people.
Results, span files and the digest record go to ``phasebench/out``.

``BENCHMARK.json`` gates ``gauss_sweep`` and ``converge_gauss``. ``image_cdp``
runs on request only: on a shared 2-CPU VM its run medians moved between
1.37 and 2.11 s over ten runs of identical work, wider than any bound.

Seed 424242 is held out: it was not used while the benchmark was tuned.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("gauss_sweep", "converge_gauss", "image_cdp")
SETUP_REPEATS = 4  # fresh processes before and again after the timed calls
HELD_OUT_SEED = 424242

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}

# The untraced runs use these settings, applied before numpy loads. The
# Gaussian sweep runs one BLAS thread per process: with the default threads
# its two-process pool oversubscribes two cores, and one 3-trial sweep took
# 2.5-38 s over 12 repeats, which no run length makes steady. The traced
# pass measures that configuration instead, as bench.pool_efficiency.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_ENV = {"gauss_sweep": ONE_BLAS_THREAD, "converge_gauss": {}, "image_cdp": {}}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: child processes of a run
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--wall-probe", type=int, default=0, metavar="WORKERS", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- processes


def _child(flags, args, env=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    return subprocess.Popen(
        cmd + flags, stdout=subprocess.PIPE, env=env, start_new_session=True, text=True
    )


def _stop(proc):
    """Kill a child's whole process group (its pool workers too) and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def setup_times(args):
    """Seconds from starting a fresh process to its first timed call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = _child(["--setup-probe"], args)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
        times.append(elapsed)
    return times


def probe_walls(args, workers, seconds, env):
    """Wall times of untraced calls in a fresh process with ``env``.

    Returns (walls, censored): if no call ends within the hard limit the
    process is stopped and the elapsed time is a lower bound for one call.
    """
    t0 = time.perf_counter()
    proc = _child(["--wall-probe", str(workers), "--seconds", repr(seconds)], args, env=env)
    try:
        out, _ = proc.communicate(timeout=max(3 * seconds, seconds + 20))
    except subprocess.TimeoutExpired:
        _stop(proc)
        return [time.perf_counter() - t0], True
    if proc.returncode != 0:
        raise RuntimeError(f"wall probe exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])["walls"], False


# ---------------------------------------------------------------- measuring


def measure(workload, seconds, min_calls, run=None):
    """Call the workload's inputs in turn until ``seconds`` are used.

    ``run(i)`` makes the i-th call (by default input ``i`` modulo the input
    count). A call is not started when the typical call would end past the
    limit, once ``min_calls`` calls are done. An exception ends the loop and
    is returned as the second value.
    """

    def each_input_in_turn(i):
        return workload.run(i % len(workload.inputs))

    run = run or each_input_in_turn
    outcomes = []
    t0 = time.perf_counter()
    while True:
        try:
            outcomes.append(run(len(outcomes)))
        except Exception:  # the program failed: report it, do not hide it
            return outcomes, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        typical = median([o.wall_s for o in outcomes])
        if len(outcomes) >= min_calls and elapsed + typical > seconds:
            return outcomes, None


def digest_failures(name, seed, workload, outcomes):
    """Repeats of one input must give equal output digests, within the run
    and against earlier runs recorded in ``out/digests.json``."""
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "digests.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    failures = []
    seen = {}
    for o in outcomes:
        cfg = workload.inputs[o.key]
        # serial and pool runs of one input must agree, so workers is not part of the key
        cfg_id = workloads.digest(repr(replace(cfg, workers=1)))[:12]
        key = f"{name}/seed{seed}/input{o.key}/{cfg_id}"
        if seen.setdefault(key, o.digest) != o.digest:
            failures.append(f"{key}: repeated call gave a different output")
        if record.setdefault(key, o.digest) != o.digest:
            failures.append(f"{key}: output differs from an earlier run")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return failures, seen


def environment():
    import multiprocessing
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas_threads_in_use": blas_threads(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def blas_threads():
    """Thread count of the OpenBLAS loaded in this process, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb():
    import resource

    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def tail(walls):
    """The highest percentile with at least 10 samples above it, if any."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def assess(args, workload, outcomes, error):
    """Output checks, digests and instance counts of a run's calls."""
    failures = [f for o in outcomes for f in o.failures] + workload.check()
    if error:
        failures.append(error)
    digest_fails, digests = digest_failures(args.workload, args.seed, workload, outcomes)
    failures += digest_fails
    # a call that raised loses as many instances as a completed call holds
    lost = (outcomes[0].instances if outcomes else 1) if error else 0
    attempted = sum(o.instances for o in outcomes) + lost
    failed = attempted if failures else sum(o.diverged for o in outcomes)
    return failures, digests, attempted, failed


# ---------------------------------------------------------------- runs


def _calls(outcomes):
    return [
        {"input": o.key, "wall_s": o.wall_s, "cpu_s": o.cpu_s, "digest": o.digest, "printed": o.printed}
        for o in outcomes
    ]


def untraced(args, workload):
    """End-to-end metrics of the workload as configured."""
    # the machine's speed drifts over tens of seconds: set up at both ends
    setup = setup_times(args)
    outcomes, error = measure(workload, args.seconds, min_calls=len(workload.inputs) + 1)
    setup += setup_times(args)
    failures, digests, attempted, failed = assess(args, workload, outcomes, error)
    walls = [o.wall_s for o in outcomes] or [float("nan")]
    firsts = {}
    for o in outcomes:
        firsts.setdefault(o.key, o)
    values = {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "trials_per_s": sum(o.instances for o in outcomes) / sum(walls),
        "cpu_s": median([o.cpu_s for o in outcomes] or [float("nan")]),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": sum(o.successes for o in firsts.values()) / max(sum(o.instances for o in firsts.values()), 1),
    }
    p_value, p_rank = tail(walls)
    notes = [
        f"wall_s: median {values['wall_s']:.4f} s, "
        + (f"p{p_rank:.0f} {p_value:.4f} s" if p_value is not None else "no percentile has 10 calls above it")
        + f", n={len(outcomes)} calls",
        "setup_s: median of fresh processes " + ", ".join(f"{t:.4f}" for t in setup),
        f"failed_frac: {failed / max(attempted, 1):.4f} ({failed}/{attempted} instances)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, attempted, failed, failures, notes, {"digests": digests, "calls": _calls(outcomes)}


def traced(args, workload):
    """Per-layer metrics: plain serial calls, traced serial calls, one probe."""
    import tracer as tr

    serial = workload.serial()
    spans = tr.Tracer()

    def plain_then_traced(i):
        # alternating keeps drift in the machine's speed out of the overhead
        key = (i // 2) % len(serial.inputs)
        if i % 2 == 0:
            return serial.run(key)
        with spans:
            return serial.run(key)

    outcomes, error = measure(serial, 0.7 * args.seconds, min_calls=2, run=plain_then_traced)
    plain, traced_calls = outcomes[0::2], outcomes[1::2]
    notes = []
    if traced_calls and not error:
        with spans:
            notes = _layer_probes(spans, workload)
    failures, digests, attempted, failed = assess(args, workload, outcomes, error)
    notes.insert(0, "traced pass: calls run with workers=1; spans inside pool worker processes are out of reach")
    extra = {"digests": digests, "calls": _calls(outcomes)}
    if error:
        return {}, attempted, failed, failures, notes, extra

    layer = tr.layer_metrics(spans)
    alt_mv = layer["solvers.matvecs_per_alt_round"][0]
    wf_mv = layer["solvers.matvecs_per_wf_iter"][0]
    if (alt_mv, wf_mv) != (4, 2):
        failures.append(f"matvecs per round: alternating {alt_mv}, flow {wf_mv}; expected 4 and 2")
        failed = attempted
    layer["measurement.bytes_per_matvec"] = (tr.bytes_per_matvec(spans.first[tr.ENSEMBLE][2]), "B")
    plain_wall = median([o.wall_s for o in plain])
    layer["bench.tracing_overhead_frac"] = (median([o.wall_s for o in traced_calls]) / plain_wall - 1.0, "frac")
    if workload.workers > 1:
        # this process runs one BLAS thread, so its plain serial calls are the
        # baseline; the probe runs the pool with the caller's BLAS settings
        walls, censored = probe_walls(args, workload.workers, 0.3 * args.seconds, args.base_env)
        baseline, config_wall = plain_wall, median(walls)
    else:
        walls, censored = probe_walls(args, 1, 0.3 * args.seconds, dict(args.base_env, **ONE_BLAS_THREAD))
        baseline, config_wall = median(walls), plain_wall
    layer["bench.pool_efficiency"] = (baseline / (config_wall * workload.workers), "frac")
    layer["failed_frac"] = (failed / attempted, "frac")
    notes.append(
        f"pool_efficiency: single-thread serial {baseline:.4f} s / ({config_wall:.4f} s x {workload.workers} workers)"
        + (" [probe stopped: the pool time is a lower bound]" if censored else "")
    )
    OUT.mkdir(parents=True, exist_ok=True)
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write(span_path)
    notes.append(f"spans: {len(spans.spans)} written to {span_path.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    return metrics, attempted, failed, failures, notes, extra


def _layer_probes(spans, workload):
    """Time once, on the workload's own inputs, the layers it does not call."""
    import tracer as tr
    from phasesplit import bench
    from phasesplit.solvers import SolverConfig

    notes = []
    names = {s[0] for s in spans.spans}
    if tr.FRAME_BOUND not in names:
        bench.upper_frame_bound(spans.first[tr.ENSEMBLE][2])
        notes.append("probe: measurement.frame_bound_s times one upper_frame_bound on the first ensemble")
    if tr.WF not in names:
        (e, b, z0, cfg), kwargs, _ = spans.first[tr.ALT]
        wf_cfg = SolverConfig(
            max_rounds=2 * cfg.max_rounds, schedules=workload.inputs[0].wf, stop_tolerance=cfg.stop_tolerance
        )
        bench.wf_solve(e, b, z0, wf_cfg, truth=kwargs["truth"])
        notes.append("probe: solvers.wf_* time one iteration-matched flow solve on the first trial")
    return notes


# ---------------------------------------------------------------- entry points


def run_one(args):
    import workloads

    work_dir = OUT / "work" / f"{args.workload}-seed{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload].from_seed(args.seed, str(work_dir))
        env = environment()
        runner = traced if args.trace else untraced
        metrics, attempted, failed, failures, notes, extra = runner(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, failures=failures, notes=notes, **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"CHECK FAILED: {f.strip()}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return status or (0 if correct else 1)


def setup_probe(args):
    import workloads

    work_dir = OUT / "work" / f"setup-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload].from_seed(args.seed, str(work_dir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def wall_probe(args):
    import workloads

    work_dir = OUT / "work" / f"probe-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload].from_seed(args.seed, str(work_dir))
        workload.inputs = [replace(cfg, workers=args.wall_probe) for cfg in workload.inputs]
        outcomes, error = measure(workload, args.seconds, min_calls=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if error:
        sys.stderr.write(error)
        return 1
    print(json.dumps({"walls": [o.wall_s for o in outcomes]}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    args.base_env = dict(os.environ)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "phasesplit" / "__init__.py").is_file():
        sys.stderr.write(f"phasebench: no phasesplit sources under {ROOT / 'src'}\n")
        return 2
    if not (args.setup_probe or args.wall_probe):
        os.environ.update(RUN_ENV[args.workload])
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    if args.wall_probe:
        return wall_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
