"""Command-line entry points for the benchmark harness.

Subcommands: phase-transition, converge, image, check. Experiments are
configured by a flat key=value file or a named preset; --seed overrides the
config, as do --trials for phase-transition and --image for image. check
takes only --out. Results land in --out as CSV/JSON (and recovered images
for the image experiment).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import bench, checks
from .signals import gradient_image, load_image, save_image

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phasesplit",
        description="Phase retrieval benchmark harness (alternating descent vs Wirtinger flow).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("phase-transition", "success-rate sweep over oversampling ratios or mask counts"),
        ("converge", "relative error vs iteration for both solvers on one instance"),
        ("image", "per-channel coded-diffraction recovery of a PGM/PPM image "
                  "(default: a 16x16 synthetic gradient written to --out)"),
        ("check", "run every verification instrument; nonzero exit on failure"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if name == "check":
            continue
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="key=value config file")
        source.add_argument("--preset", choices=sorted(bench.PRESETS), help="named built-in config")
        p.add_argument("--seed", type=int, help="override the config seed")
        if name == "phase-transition":
            p.add_argument("--trials", type=int, help="override the config trial count")
        if name == "image":
            p.add_argument("--image", help="override the config image path")
    return parser


def _load_config(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = f"preset={args.preset}" if args.preset else ""
    cfg = bench.parse_config(text)
    updates = {"experiment": args.command.replace("-", "_")}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "image", None):
        updates["image_path"] = args.image
    return replace(cfg, **updates)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logger = logging.getLogger("phasesplit")
    level, out, err = logger.level, logging.StreamHandler(sys.stdout), logging.StreamHandler(sys.stderr)
    out.addFilter(lambda record: record.levelno < logging.WARNING)
    err.setLevel(logging.WARNING)
    logger.setLevel(logging.INFO)
    for handler in (out, err):
        logger.addHandler(handler)
    try:
        return _run(args)
    finally:
        for handler in (out, err):
            logger.removeHandler(handler)
        logger.setLevel(level)


def _run(args):
    try:
        cfg = None if args.command == "check" else _load_config(args)
        if args.command == "image" and cfg.image_path:
            load_image(cfg.image_path)  # a missing or malformed image is bad input too
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    if args.command == "phase-transition":
        rows = bench.run_phase_transition(cfg)
        path = os.path.join(args.out, "phase_transition.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bench.phase_transition_csv(rows))
        for row in rows:
            print(
                f"ratio {row.ratio:g}: {row.successes}/{row.trials} succeeded "
                f"(rate {row.success_rate:.2f})"
            )
        print(f"wrote {path}")
        return 0

    if args.command == "converge":
        alt, wf, _, summary = bench.run_convergence_curve(cfg)
        csv_path = os.path.join(args.out, "convergence.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(bench.convergence_csv(alt, wf))
        import json

        json_path = os.path.join(args.out, "convergence_summary.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(
            f"final relative error: alternating {summary['alt_final_rel_error']:.3e}, "
            f"flow {summary['wf_final_rel_error']:.3e}"
        )
        print(f"wrote {csv_path} and {json_path}")
        return 0

    if args.command == "image":
        if not cfg.image_path:
            image_path = os.path.join(args.out, "synthetic_gradient.pgm")
            save_image(image_path, gradient_image())
            cfg = replace(cfg, image_path=image_path)
        report = bench.run_image_experiment(cfg, out_dir=args.out)
        path = os.path.join(args.out, "image_report.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bench.image_report_csv(report))
        for row in report:
            print(f"n={row['n']} {row['algo']}: rel error {row['rel_error']:.3e}")
        print(f"wrote {path}")
        return 0

    ok, entries = checks.run_checks()
    path = os.path.join(args.out, "checks.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checks.checks_json(ok, entries))
    for entry in entries:
        status = "pass" if entry["passed"] else "FAIL"
        print(f"[{status}] {entry['name']}: value={entry['value']} threshold={entry['threshold']}")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
