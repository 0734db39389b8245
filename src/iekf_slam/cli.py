"""Command-line harness: simulate scenarios, replay them through the
estimation modes, score against ground truth, and debug ICP alignments."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, SlamError
from .icp import icp_align, information_matrix
from .logio import load_estimates, load_ground_truth, load_log, load_xyz, noise_from_meta
from .logio import save_error_series, save_estimates, save_log
from .metrics import evaluate_series, ground_truth_planar, report_text
from .pipeline import MODES, run_pipeline
from .se3 import Pose
from .simulator import run_scenario

EXIT_CODE_DOC = """exit codes:
  0  success
  1  other error
  2  configuration error
  3  I/O or parse error
  4  degenerate geometry / no overlap
  5  numerical failure
"""


def _load_config(path):
    return cfgmod.parse_config(path) if path else {}


def cmd_simulate(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    log = run_scenario(
        cfgmod.make_world(cfg),
        cfgmod.make_spec(cfg),
        cfgmod.make_rates(cfg),
        cfgmod.make_noise(cfg),
        seed,
    )
    save_log(log, args.out)
    print(f"wrote scenario log to {args.out}: {len(log.odometry.t)} odometry samples, "
          f"{len(log.scans.t)} scans")
    return 0


def cmd_run(args):
    cfg = _load_config(args.config)
    mode = args.mode or cfg.get("mode", "iekf")
    log = load_log(args.log_dir)
    noise = noise_from_meta(log.meta)
    icp_cfg = cfgmod.make_icp_config(cfg, cloud_sigma=float(log.meta.get("cloud_sigma", "0")))
    init = cfgmod.make_initial_state(cfg)
    estimates = run_pipeline(log, mode, noise, init, icp_cfg)
    out = args.out or os.path.join(args.log_dir, f"estimates_{mode}.csv")
    save_estimates(out, estimates)
    print(f"wrote {len(estimates[0])} estimate rows ({mode}) to {out}")
    return 0


def cmd_evaluate(args):
    est_t, est_x, est_y, est_psi = load_estimates(args.estimates, planar=True)
    gt_t, gt_x, gt_y, gt_psi = ground_truth_planar(load_ground_truth(args.ground_truth))
    report = evaluate_series(est_t, est_x, est_y, est_psi, gt_t, gt_x, gt_y, gt_psi, args.max_dt)
    text = report_text(report)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w") as fh:
            fh.write(text)
        save_error_series(os.path.join(args.out, "errors.csv"), report)
    return 0


def cmd_icp_debug(args):
    source = load_xyz(args.cloud_a)
    target = load_xyz(args.cloud_b)
    initial = Pose.identity()
    if args.initial is not None:
        initial = args.initial
        source = initial.apply(source)
    cfg = cfgmod.make_icp_config(_load_config(args.config), sigma=args.sigma)
    result = icp_align(source, target, cfg)
    total = result.delta_pose @ initial
    info = information_matrix(source)
    print(f"iterations: {result.iterations}  converged: {result.converged}")
    for i, cost in enumerate(result.cost_history, start=1):
        print(f"  iter {i}: cost = {cost:.9e}")
    print("delta pose (12 numbers, row-major R then p):")
    print("  " + " ".join(repr(float(v)) for v in total.to_row()))
    print("covariance:")
    for row in result.covariance:
        print("  " + " ".join(f"{v: .6e}" for v in row))
    print(f"information matrix condition number: {np.linalg.cond(info):.6e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iekf-slam",
        description="Invariant-EKF scan-matching SLAM harness",
        epilog=EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario log directory")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=cfgmod.seed, help="overrides the config seed (>= 0)")
    p.add_argument("--out", required=True, help="output log directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="replay a log through an estimation mode")
    p.add_argument("log_dir", help="scenario log directory")
    p.add_argument("--config", help="key = value config file (icp.*, filter.*)")
    p.add_argument("--mode", choices=MODES, help="estimation mode (default iekf)")
    p.add_argument("--out", help="estimates CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score estimates against ground truth")
    p.add_argument("estimates", help="estimates CSV")
    p.add_argument("ground_truth", help="ground truth CSV")
    p.add_argument("--out", help="directory for report.txt and errors.csv")
    p.add_argument("--max-dt", type=cfgmod.non_negative, help="timestamp match tolerance (s, >= 0)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("icp-debug", help="align two cloud files and report diagnostics")
    p.add_argument("cloud_a", help="source cloud (.xyz)")
    p.add_argument("cloud_b", help="target cloud (.xyz)")
    p.add_argument("--initial", type=cfgmod.pose_row, help="initial pose guess: 12 numbers, row-major R then p")
    p.add_argument("--sigma", type=cfgmod.finite, help="assumed point noise (m); overrides icp.sigma")
    p.add_argument("--config", help="key = value config file (icp.*)")
    p.set_defaults(func=cmd_icp_debug)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SlamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
