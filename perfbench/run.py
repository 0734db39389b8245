"""Layered replay benchmark for iekf-slam.

Run from the repository root:

    python3 perfbench/run.py --workload room_circle --seed 1 --seconds 30 --trace 0

Workloads: ``room_circle`` and ``corridor_dense`` (the gated pair listed in
BENCHMARK.json) and ``corridor_noisy`` (runnable, not gated: its replay time
and rms errors vary too much with the seed; see bench.py).

With ``--trace 0`` the run reports the end-to-end metrics (set-up time,
replay time, real-time factor, peak RSS, rms errors); with ``--trace 1`` it
reports per-layer metrics from traced replays and writes the spans to
``.bench_out/spans_<workload>_seed<n>.csv``. Every metric is printed as
``metric <name> = <value> <unit>``, the environment as ``env <key> = ...``,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record is
written to ``.bench_out/<workload>_seed<n>_trace<t>.json``.

The library is imported from ``src/`` of the checkout holding this script;
without it the run exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="replay time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # BLAS threads are fixed before numpy is first imported, here and in the
    # set-up processes, which inherit the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc))

    package = ROOT / "src" / "iekf_slam"
    if not (package / "__init__.py").is_file():
        return _fail(f"library sources not found at {package}", 2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench  # noqa: E402  (needs the paths above)

    if Path(bench.iekf_slam.__file__).resolve().parent != package.resolve():
        return _fail(f"imported iekf_slam from {bench.iekf_slam.__file__}, not {package}", 2)
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}", 2)

    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work_{stem}_", dir=OUT))
    try:
        result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
    except bench.BenchmarkError as exc:
        return _fail(str(exc), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = result.details
    for key, value in details["environment"].items():
        print(f"env {key} = {value}")
    for name in ("replay_s", "setup_s"):
        d = details[name]
        print(f"info {name} samples = {d['samples']}, median {d['median']:.6g} s, "
              f"p25 {d['p25']:.6g} s, p75 {d['p75']:.6g} s")
    if args.trace:
        print("info kernels.pairs_computed and kernels.bytes_computed are computed "
              "from array shapes, not measured")
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"metric run_fail_ratio = {details['run_fail_ratio']!r} ratio "
          f"({result.failed} of {result.attempted})")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    record = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**record, **details, "problems": result.problems}, fh, indent=1)
    if result.tracer is not None:
        result.tracer.write_csv(OUT / f"spans_{workload.name}_seed{args.seed}.csv")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
