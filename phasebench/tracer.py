"""Spans around the calls into each phasesplit module, recorded from outside.

:class:`Tracer` replaces public functions in the namespaces where their
callers look them up (the solvers call ``phasesplit.solvers.forward``, the
harness calls ``phasesplit.bench.spectral_init``), records one span per call
in memory, and puts every original back on exit. A span is
``(name, start, end, parent, instance, root)``: ``parent`` and ``root`` are
span indices (-1 for none), and ``instance`` counts ensembles built so far,
since every solver instance (sweep trial, seed or channel) starts by building
its ensemble.

Only the calling process is traced: trials run inside a process pool are out
of reach, so traced passes run with ``workers=1``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

from phasesplit import bench, measurement, objective, solvers, spectral

ROOT_NAMES = ("bench.run_phase_transition", "bench.run_convergence_curve", "bench.run_image_experiment")
ENSEMBLE = "measurement.ensemble"
FORWARD = "measurement.forward"
ADJOINT = "measurement.adjoint"
MATVECS = (FORWARD, ADJOINT)
ALT = "solvers.altmin_solve"
WF = "solvers.wf_solve"
REL = "core.relative_error"
FRAME_BOUND = "measurement.upper_frame_bound"
SPECTRAL = "spectral.spectral_init"

# (module, attribute, span name)
TARGETS = (
    (bench, "run_phase_transition", ROOT_NAMES[0]),
    (bench, "run_convergence_curve", ROOT_NAMES[1]),
    (bench, "run_image_experiment", ROOT_NAMES[2]),
    (bench, "gaussian_ensemble", ENSEMBLE),
    (bench, "cdp_ensemble", ENSEMBLE),
    (bench, "measure", "measurement.measure"),
    (bench, "upper_frame_bound", FRAME_BOUND),
    (bench, "spectral_init", SPECTRAL),
    (bench, "altmin_solve", ALT),
    (bench, "wf_solve", WF),
    (bench, "relative_error", REL),
    (solvers, "relative_error", REL),
    (bench, "random_gaussian_signal", "signals.random_gaussian_signal"),
    (bench, "random_lowpass_signal", "signals.random_lowpass_signal"),
    (bench, "load_image", "signals.load_image"),
    (bench, "save_image", "signals.save_image"),
    (bench, "split_grad", "objective.split_grad"),
    (solvers, "split_quad_form", "objective.split_quad_form"),
    (solvers, "wf_quad_form", "objective.wf_quad_form"),
) + tuple(
    (module, op, f"measurement.{op}")
    for module in (measurement, spectral, solvers, objective, bench)
    for op in ("forward", "adjoint")
)


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.results = {}  # span index -> return value, for solver calls
        self.first = {}  # span name -> (args, kwargs, result) of its first call
        self.instance = -1
        self._stack = []
        self._root = -1
        self._saved = []

    def __enter__(self):
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        keep_result = name in (ALT, WF)
        is_root = name in ROOT_NAMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == ENSEMBLE:
                self.instance += 1
            idx = len(spans)
            spans.append(None)
            if is_root:
                self._root = idx
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance, self._root)
                if is_root:
                    self._root = -1
            if keep_result:
                self.results[idx] = result
            if name not in self.first:
                self.first[name] = (args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        """One JSON array per line: name, start, end, parent, instance, root."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(tracer):
    """Per-layer figures from the spans of one traced pass.

    Counts are per workload call (the first traced root span); times are
    medians over calls of a layer; shares divide a layer's summed time by the
    summed duration of the workload calls. Spans outside any workload call
    (probes) enter the medians but not the counts or shares.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    roots = [i for i, s in enumerate(spans) if s[0] in ROOT_NAMES]
    first_root = roots[0]
    busy = sum(spans[i][2] - spans[i][1] for i in roots)

    def durations(name):
        return [s[2] - s[1] for s in spans if s[0] == name]

    def share(*names):
        return sum(s[2] - s[1] for s in spans if s[0] in names and s[5] >= 0) / busy

    def calls_in_first_root(*names):
        return sum(1 for s in spans if s[0] in names and s[5] == first_root)

    # A solve evaluates the error once at its start and once per round, so
    # the operator calls after the first evaluation, over the evaluations
    # after it, are the matvecs per round.
    per_round = {ALT: [0, 0], WF: [0, 0]}
    per_round_us = {ALT: ([], []), WF: ([], [])}
    rounds_alt = []
    solves = [i for i, s in enumerate(spans) if s[0] in (ALT, WF)]
    kids = {i: [] for i in solves}
    for j, s in enumerate(spans):
        if s[3] in kids:
            kids[s[3]].append(j)
    for i in solves:
        name = spans[i][0]
        rels = [j for j in kids[i] if spans[j][0] == REL]
        after = spans[rels[0]][2]
        per_round[name][0] += sum(1 for j in kids[i] if spans[j][0] in MATVECS and spans[j][1] > after)
        per_round[name][1] += len(rels) - 1
        rounds = tracer.results[i].rounds_used
        total, own = per_round_us[name]
        total.append(1e6 * (spans[i][2] - spans[i][1]) / rounds)
        own.append(1e6 * (spans[i][2] - spans[i][1] - child_time[i]) / rounds)
        if name == ALT:
            rounds_alt.append(rounds)

    instance_s = []
    for r in roots:
        starts = [s[1] for s in spans if s[0] == ENSEMBLE and s[5] == r]
        ends = starts[1:] + [spans[r][2]]
        instance_s += [b - a for a, b in zip(starts, ends)]
    instance_s.sort()

    signals_s = []
    for r in roots:
        signals_s.append(sum(s[2] - s[1] for s in spans if s[0].startswith("signals.") and s[5] == r))

    solve_results = [r for i, r in tracer.results.items() if spans[i][5] >= 0]
    obj_names = [n for _, _, n in TARGETS if n.startswith("objective.")]
    return {
        "measurement.forward_calls": (calls_in_first_root(FORWARD), "count"),
        "measurement.adjoint_calls": (calls_in_first_root(ADJOINT), "count"),
        "measurement.forward_us": (1e6 * _median(durations(FORWARD)), "us"),
        "measurement.adjoint_us": (1e6 * _median(durations(ADJOINT)), "us"),
        "measurement.share": (share(*MATVECS), "frac"),
        "measurement.ensemble_s": (_median(durations(ENSEMBLE)), "s"),
        "measurement.frame_bound_s": (_median(durations(FRAME_BOUND)), "s"),
        "spectral.init_s": (_median(durations(SPECTRAL)), "s"),
        "spectral.share": (share(SPECTRAL), "frac"),
        "solvers.alt_round_us": (_median(per_round_us[ALT][0]), "us"),
        "solvers.alt_self_us": (_median(per_round_us[ALT][1]), "us"),
        "solvers.wf_iter_us": (_median(per_round_us[WF][0]), "us"),
        "solvers.wf_self_us": (_median(per_round_us[WF][1]), "us"),
        "solvers.matvecs_per_alt_round": (per_round[ALT][0] / max(per_round[ALT][1], 1), "count"),
        "solvers.matvecs_per_wf_iter": (per_round[WF][0] / max(per_round[WF][1], 1), "count"),
        "solvers.rounds_per_instance": (statistics.fmean(rounds_alt) if rounds_alt else 0.0, "count"),
        "solvers.converged_frac": (
            sum(r.converged for r in solve_results) / max(len(solve_results), 1),
            "frac",
        ),
        "core.relative_error_calls": (calls_in_first_root(REL), "count"),
        "core.relative_error_share": (share(REL), "frac"),
        "objective.calls": (calls_in_first_root(*obj_names), "count"),
        "objective.share": (share(*obj_names), "frac"),
        "bench.instance_s_p50": (_median(instance_s), "s"),
        "bench.instance_s_p90": (instance_s[min(len(instance_s) - 1, int(0.9 * len(instance_s)))], "s"),
        "bench.instance_samples": (len(instance_s), "count"),
        "signals.io_s": (_median(signals_s), "s"),
    }


def bytes_per_matvec(e):
    """Bytes one forward or adjoint reads and writes, computed from array
    sizes: the stored frame or masks plus the input and output vectors.
    Caches and temporaries are ignored."""
    payload = e.frame if e.frame is not None else e.masks
    return payload.nbytes + 16 * (e.d + e.N)
