"""Body of the layered replay benchmark; ``run.py`` is the entry point.

One run of a workload:

1. Set-up: simulate the workload's scenario logs, each from its own seed
   derived from the run's seed, and save them (the ``iekf-slam simulate``
   step), all from one process.
2. Replay, a closed loop with one client: ``iekf-slam run`` then
   ``iekf-slam evaluate``, called in process through ``cli.main``, each
   replay starting when the previous one ends. Every log is replayed once,
   one log a second time, and the loop goes on cycling through the logs
   until ``seconds`` have passed. Between replays, ``TIMED_SETUPS`` logs are
   simulated again, each by a fresh process timed from launch to exit;
   ``setup_s`` is their median.
3. Every replay's and every timed set-up's outputs are checked (see
   ``check_replay``); one that raised or failed a check counts in ``failed``
   and is never retried.

With tracing on, the loop replays each log twice in a row, once untraced and
once traced, until ``seconds`` have passed; the per-layer metrics come from
the traced replays, and the tracing overhead is the median difference within
a pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import iekf_slam
from iekf_slam import cli, icp, iekf, kernels, pipeline, scan_matching, simulator
from iekf_slam.logio import ESTIMATES_HEADER

from tracer import Tracer

# Pinned limits of tests/test_acceptance.py (criteria 3 and 8).
RMS_POS_LIMIT = 0.10  # m, per axis
RMS_HEADING_LIMIT = math.radians(3.0)

# Set-up samples are spread over the replay loop, so that a burst of
# contention on the shared host reaches only some of them.
TIMED_SETUPS = 9
SETUP_EVERY = 3  # loop iterations
SUBPROCESS_TIMEOUT = 120.0  # s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # `key = value` file given to both `simulate` and `run`
    mode: str
    # Scenario logs per run. A single log's rms error varies by 25-65% (one
    # standard deviation) from seed to seed; the run reports the mean over
    # its logs, so the number of logs sets how steady the rms metrics are.
    logs: int
    acceptance: bool  # replays must hold the pinned acceptance limits


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "room_circle",
            "50-point scans: time goes to filter predict, the ICP inner solve, "
            "se3 and estimates I/O, not to nearest-neighbour search",
            "scenario.kind = circle\nscenario.speed = 0.3\nscenario.radius = 1.5\n"
            "scenario.turns = 2\n",
            "iekf",
            logs=24,
            acceptance=True,
        ),
        Workload(
            "corridor_dense",
            "2,050-point noise-free corridor scans: brute-force nearest-neighbour "
            "search is over 99% of replay and sets peak memory",
            "world.kind = corridor\nscenario.kind = straight\nscenario.speed = 0.25\n"
            "scenario.duration = 0.6\nrates.range_max = 12\nrates.cloud_sigma = 0\n"
            "icp.max_correspondence_dist = 0.02\nicp.max_iterations = 100\n"
            "icp.convergence_tol = 1e-10\n",
            "scan-match-only",
            logs=24,
            acceptance=True,
        ),
        # Not in BENCHMARK.json: ICP iterations per scan, and with them the
        # replay time, vary several-fold with the seed, so neither replay time
        # nor rms error is steady across seeds at a run length that fits.
        Workload(
            "corridor_noisy",
            "930-point noisy corridor scans: ICP runs many iterations, some "
            "unconverged, and the filter fuses along an unobservable axis",
            "world.kind = corridor\nscenario.kind = straight\nscenario.speed = 0.25\n"
            "scenario.duration = 1.0\nrates.range_max = 4\n",
            "iekf",
            logs=8,
            acceptance=False,
        ),
    )
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result (set-up failed or no replay succeeded)."""


def sub_seed(seed, index):
    return seed * 1000 + index


@dataclass
class LogInfo:
    path: Path
    seed: int
    odometry_t: np.ndarray  # event timestamps, rounded to 1 ns
    scan_t: np.ndarray
    duration_s: float
    points: list

    @property
    def odometry(self):
        return len(self.odometry_t)

    @property
    def scans(self):
        return len(self.scan_t)

    @staticmethod
    def read(path, seed):
        odometry_t = np.loadtxt(path / "odometry.csv", delimiter=",", skiprows=1, usecols=0, ndmin=1)
        gt_t = np.loadtxt(path / "ground_truth.csv", delimiter=",", skiprows=1, usecols=0, ndmin=1)
        index = np.loadtxt(path / "scans" / "index.csv", delimiter=",", skiprows=1, ndmin=2)
        points = []
        for i in index[:, 0].astype(int):
            with open(path / "scans" / f"{i:05d}.xyz") as fh:
                points.append(sum(1 for line in fh if line.strip()))
        return LogInfo(
            path, seed, np.round(odometry_t, 9), np.round(index[:, 1], 9),
            float(gt_t[-1] - gt_t[0]), points,
        )


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args, env):
    proc = subprocess.run(
        args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args[:4])} ... exited {proc.returncode}: {proc.stderr.strip()}")


_SIMULATE_MANY = """\
import sys
from iekf_slam.cli import main
cfg = sys.argv[1]
for seed, out in zip(sys.argv[2::2], sys.argv[3::2]):
    if main(["simulate", "--config", cfg, "--seed", seed, "--out", out]) != 0:
        sys.exit(1)
"""


def simulate_logs(workload, seed, workdir, env):
    """Write the workload's logs, all from one process; returns their LogInfo."""
    (workdir / "scenario.cfg").write_text(workload.config)
    seeds = [sub_seed(seed, i) for i in range(workload.logs)]
    paths = [workdir / f"log{i:03d}" for i in range(workload.logs)]
    args = [sys.executable, "-c", _SIMULATE_MANY, str(workdir / "scenario.cfg")]
    for s, path in zip(seeds, paths):
        args += [str(s), str(path)]
    _run_child(args, env)
    return [LogInfo.read(p, s) for s, p in zip(seeds, paths)]


def timed_setup(log, workdir, env):
    """Simulate ``log`` again with `iekf-slam simulate` in a fresh process.
    Returns (seconds from launch to exit, whether it wrote the same files)."""
    out = workdir / "setup_check"
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    _run_child(
        [sys.executable, "-m", "iekf_slam.cli", "simulate", "--config", str(workdir / "scenario.cfg"),
         "--seed", str(log.seed), "--out", str(out)],
        env,
    )
    return time.perf_counter() - start, same_files(log.path, out)


def same_files(a, b):
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    return files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files
    )


@dataclass
class Replay:
    log: LogInfo
    run_id: str | None  # tracer run id, None when untraced
    seconds: float | None = None  # None when the replay raised
    problems: list = field(default_factory=list)
    estimates_bytes: int = 0
    rms: dict | None = None  # rms_x, rms_y, rms_psi of the report, when checked

    @property
    def ok(self):
        return self.seconds is not None and not self.problems


def replay(log, outdir, workload, cfg, tracer=None):
    """One `run` + `evaluate` of ``log`` through cli.main, timed."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    est = outdir / "estimates.csv"
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    result = Replay(log, tracer.run_id if tracer is not None else None)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            with span("cli.run"):
                rc_run = cli.main(
                    ["run", str(log.path), "--config", str(cfg), "--mode", workload.mode,
                     "--out", str(est)]
                )
            rc_eval = None
            if rc_run == 0:
                with span("cli.evaluate"):
                    rc_eval = cli.main(
                        ["evaluate", str(est), str(log.path / "ground_truth.csv"),
                         "--out", str(outdir / "report")]
                    )
            elapsed = time.perf_counter() - start
    except Exception:  # a crashing replay is a failure to count, not the end of the run
        result.problems.append("raised:\n" + traceback.format_exc())
        return result
    result.seconds = elapsed
    if rc_run != 0 or rc_eval != 0:
        result.problems.append(f"exit codes run={rc_run} evaluate={rc_eval}: {sink.getvalue().strip()}")
    return result


def read_report(path):
    values = {}
    for line in path.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return {key: float(values[key]) for key in ("rms_x", "rms_y", "rms_psi")}


# Modes whose estimate stream has a row for every scan event; the filter modes
# have one per pose measurement instead, and the first scan of a log only
# initialises the matcher.
ROW_PER_SCAN_MODES = ("scan-match-only", "naive-scan-match")


def check_rows(times, log, mode):
    """One estimate row per odometry event, in time order, and one per scan
    event: every scan in ROW_PER_SCAN_MODES, at most every scan after the
    first otherwise. Returns a problem description or None."""
    if np.any(np.diff(times) < 0):
        return "estimate timestamps out of order"
    rows = Counter(np.round(times, 9).tolist())
    odometry = Counter(log.odometry_t.tolist())
    missing = sum((odometry - rows).values())
    if missing:
        return f"{missing} odometry events without an estimate row"
    scan_rows = rows - odometry
    scans = Counter(log.scan_t.tolist() if mode in ROW_PER_SCAN_MODES else log.scan_t[1:].tolist())
    stray = sum((scan_rows - scans).values())
    if stray:
        return f"{stray} estimate rows match no event"
    if mode in ROW_PER_SCAN_MODES and scan_rows != scans:
        return f"{sum((scans - scan_rows).values())} scan events without an estimate row"
    return None


def check_replay(result, outdir, workload, references):
    """Check one replay's outputs; appends to ``result.problems``.

    - every value finite, rows as ``check_rows`` requires;
    - estimates and report.txt byte-identical to the log's first replay;
    - for acceptance workloads, the pinned rms limits.
    ``references`` maps a log path to (estimates digest, report digest, rms)
    of its first good replay. Returns the rms dict, or None on failure.
    """
    if result.seconds is None or result.problems:
        return None
    est_path, report_path = outdir / "estimates.csv", outdir / "report" / "report.txt"
    try:
        est_bytes = est_path.read_bytes()
        report_bytes = report_path.read_bytes()
    except OSError as exc:
        result.problems.append(f"missing output: {exc}")
        return None
    result.estimates_bytes = len(est_bytes)
    digests = (hashlib.sha256(est_bytes).hexdigest(), hashlib.sha256(report_bytes).hexdigest())
    ref = references.get(result.log.path)
    if ref is not None:
        if digests != ref[:2]:
            result.problems.append("outputs differ from an earlier replay of the same log")
            return None
        return ref[2]

    lines = est_bytes.decode().splitlines()
    if not lines or lines[0] != ESTIMATES_HEADER:
        result.problems.append("estimates header missing")
        return None
    try:
        values = np.array([line.split(",") for line in lines[1:]], dtype=float).reshape(-1, 41)
        rms = read_report(report_path)
    except (ValueError, KeyError) as exc:
        result.problems.append(f"unparsable output: {exc!r}")
        return None
    if not np.all(np.isfinite(values)) or not all(math.isfinite(v) for v in rms.values()):
        result.problems.append("non-finite value in estimates or report")
        return None
    problem = check_rows(values[:, 0], result.log, workload.mode)
    if problem:
        result.problems.append(problem)
        return None
    if workload.acceptance and (
        rms["rms_x"] > RMS_POS_LIMIT or rms["rms_y"] > RMS_POS_LIMIT or rms["rms_psi"] > RMS_HEADING_LIMIT
    ):
        result.problems.append(f"acceptance limits exceeded: {rms}")
        return None
    references[result.log.path] = (*digests, rms)
    return rms


# ---------------------------------------------------------------- tracing


def _count_batch_nearest(counts, args, result):
    n, m = len(args[0]), len(args[1])
    counts["kernels.queries"] += n
    counts["kernels.pairs"] += n * m
    counts["kernels.accepted"] += int(np.count_nonzero(result[0] >= 0))


def _count_icp_align(counts, args, result):
    counts["icp.iterations"] += result.iterations
    counts["icp.iterations_max"] = max(counts["icp.iterations_max"], result.iterations)
    counts["icp.converged"] += int(result.converged)


def _count_aided_step(counts, args, result):
    counts["scan_matching.measurements"] += result is not None


# (owner, attribute, span name, counter hook): each function at the name its
# caller looks it up under.
REPLAY_TARGETS = (
    (cli, "load_log", "logio.load_log", None),
    (cli, "run_pipeline", "pipeline.run_pipeline", None),
    (cli, "save_estimates", "logio.save_estimates", None),
    (cli, "load_estimates", "logio.load_estimates", None),
    (cli, "load_ground_truth", "logio.load_ground_truth", None),
    (cli, "evaluate_series", "metrics.evaluate_series", None),
    (cli, "save_error_series", "metrics.save_error_series", None),
    (pipeline, "aided_step", "scan_matching.aided_step", _count_aided_step),
    (pipeline, "exp_se3", "se3.exp_se3", None),
    (scan_matching, "icp_align", "icp.icp_align", _count_icp_align),
    (scan_matching, "icp_covariance", "icp.icp_covariance", None),
    (icp, "solve_linear_alignment", "icp.solve_linear_alignment", None),
    (icp, "icp_covariance", "icp.icp_covariance", None),
    (icp, "exp_se3", "se3.exp_se3", None),
    (kernels, "batch_nearest", "kernels.batch_nearest", _count_batch_nearest),
    (iekf, "predict", "iekf.predict", None),
    (iekf, "update", "iekf.update", None),
    (iekf, "exp_se3", "se3.exp_se3", None),
)

SETUP_TARGETS = (
    (cli, "run_scenario", "simulator.run_scenario", None),
    (cli, "save_log", "logio.save_log", None),
    (simulator, "sample_odometry", "simulator.sample_odometry", None),
    (simulator, "render_scan", "simulator.render_scan", None),
    (simulator, "exp_se3", "se3.exp_se3", None),
)

LAYERS = ("cli", "logio", "pipeline", "scan_matching", "icp", "kernels", "iekf", "se3", "metrics")


def traced_simulate(tracer, log, workdir, cfg):
    """Simulate ``log`` again in process under the tracer; True when the
    files match the untraced log byte for byte."""
    out = workdir / "traced_setup_log"
    with tracer.installed("setup", SETUP_TARGETS), contextlib.redirect_stdout(io.StringIO()):
        with tracer.span("cli.simulate"):
            rc = cli.main(["simulate", "--config", str(cfg), "--seed", str(log.seed), "--out", str(out)])
    return rc == 0 and same_files(log.path, out)


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, pairs, log):
    """Per-layer metrics, each per traced replay unless its unit says otherwise.
    ``pairs`` holds (untraced, traced) replays of one log, run back to back."""
    untraced = [u for u, _ in pairs if u.ok]
    traced = [t for _, t in pairs if t.ok]
    run_ids = {r.run_id for r in traced}
    rep = tracer.summary(run_ids)
    setup = tracer.summary({"setup"})
    counts = sum((tracer.counts[i] for i in run_ids), Counter())  # iterations_max is per run
    n = len(traced)

    def calls(name, summary=rep, per=n):
        return summary[name]["calls"] / per if name in summary else 0.0

    def total(name, summary=rep, per=n):
        return summary[name]["total_s"] / per if name in summary else 0.0

    def errors(name):
        return rep[name]["errors"] / n if name in rep else 0.0

    aided_ms = [1e3 * d for d in rep["scan_matching.aided_step"]["durations"]] if "scan_matching.aided_step" in rep else []
    measurements = counts["scan_matching.measurements"] / n
    failures = errors("scan_matching.aided_step")
    rejected = errors("iekf.update")
    icp_ok = calls("icp.icp_align") - errors("icp.icp_align")
    overhead = statistics.median(t.seconds - u.seconds for u, t in pairs if u.ok and t.ok)

    m = {
        "simulator.run_scenario_s": (total("simulator.run_scenario", setup, 1), "s"),
        "simulator.sample_odometry_calls": (calls("simulator.sample_odometry", setup, 1), "count"),
        "simulator.sample_odometry_s": (total("simulator.sample_odometry", setup, 1), "s"),
        "simulator.render_scan_calls": (calls("simulator.render_scan", setup, 1), "count"),
        "simulator.render_scan_s": (total("simulator.render_scan", setup, 1), "s"),
        "logio.save_log_s": (total("logio.save_log", setup, 1), "s"),
        "logio.log_bytes": (float(sum(p.stat().st_size for p in log.path.rglob("*") if p.is_file())), "bytes"),
        "se3.setup_exp_se3_calls": (calls("se3.exp_se3", setup, 1), "count"),
        "se3.setup_exp_se3_s": (total("se3.exp_se3", setup, 1), "s"),
        "logio.load_log_s": (total("logio.load_log"), "s"),
        "logio.save_estimates_s": (total("logio.save_estimates"), "s"),
        "logio.load_estimates_s": (total("logio.load_estimates"), "s"),
        "logio.estimates_bytes": (float(statistics.mean(r.estimates_bytes for r in traced)), "bytes"),
        "pipeline.run_pipeline_s": (total("pipeline.run_pipeline"), "s"),
        "scan_matching.aided_step_calls": (calls("scan_matching.aided_step"), "count"),
        "scan_matching.aided_step_p50_ms": (_percentile(aided_ms, 50), "ms"),
        "scan_matching.aided_step_p95_ms": (_percentile(aided_ms, 95), "ms"),
        "scan_matching.aided_step_failures": (failures, "count"),
        # measurements fused into the estimate / match attempts
        "scan_matching.accept_ratio": (_ratio(measurements - rejected, measurements + failures), "ratio"),
        "icp.icp_align_calls": (calls("icp.icp_align"), "count"),
        "icp.icp_align_s": (total("icp.icp_align"), "s"),
        "icp.iterations_total": (counts["icp.iterations"] / n, "count"),
        "icp.iterations_max": (float(max(tracer.counts[i]["icp.iterations_max"] for i in run_ids)), "count"),
        "icp.converged_ratio": (_ratio(counts["icp.converged"] / n, icp_ok), "ratio"),
        "icp.solve_linear_alignment_s": (total("icp.solve_linear_alignment"), "s"),
        "icp.icp_covariance_calls": (calls("icp.icp_covariance"), "count"),
        "icp.icp_covariance_s": (total("icp.icp_covariance"), "s"),
        "kernels.batch_nearest_calls": (calls("kernels.batch_nearest"), "count"),
        "kernels.batch_nearest_s": (total("kernels.batch_nearest"), "s"),
        # Computed from array shapes (sum of N*M and N*M*3*8 for the fallback's
        # N x M x 3 float64 intermediate), not measured.
        "kernels.pairs_computed": (counts["kernels.pairs"] / n, "pairs"),
        "kernels.bytes_computed": (24.0 * counts["kernels.pairs"] / n, "bytes"),
        "kernels.accept_ratio": (_ratio(counts["kernels.accepted"], counts["kernels.queries"]), "ratio"),
        "iekf.predict_calls": (calls("iekf.predict"), "count"),
        "iekf.predict_s": (total("iekf.predict"), "s"),
        "iekf.predict_us_per_call": (1e6 * _ratio(total("iekf.predict"), calls("iekf.predict")), "us"),
        "iekf.update_calls": (calls("iekf.update"), "count"),
        "iekf.update_s": (total("iekf.update"), "s"),
        "iekf.update_rejected": (rejected, "count"),
        "se3.exp_se3_calls": (calls("se3.exp_se3"), "count"),
        "se3.exp_se3_s": (total("se3.exp_se3"), "s"),
        "metrics.evaluate_series_s": (total("metrics.evaluate_series"), "s"),
        "trace.replays": (float(n), "count"),
        "trace.replay_s": (min(r.seconds for r in traced), "s"),
        "trace.untraced_replay_s": (min(r.seconds for r in untraced), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans_per_replay": (len(tracer.finished(run_ids)) / n, "count"),
    }
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in rep.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (self_s / n, "s")
    return m


# ------------------------------------------------------------ environment


def environment(workload, seed, logs):
    points = [p for log in logs for p in log.points]
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "kernel_backend": iekf_slam.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown"),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "mode": workload.mode,
        "logs": len(logs),
        "scans_per_log": statistics.mean(log.scans for log in logs),
        "odometry_samples_per_log": statistics.mean(log.odometry for log in logs),
        "log_duration_s": statistics.mean(log.duration_s for log in logs),
        "points_per_scan_mean": statistics.mean(points) if points else 0.0,
        "points_per_scan_max": max(points, default=0),
    }


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _spread(values):
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "samples": len(values), "p25": float(q1), "p75": float(q3)}


# -------------------------------------------------------------------- run


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict  # environment, sample counts and spreads
    problems: list
    tracer: Tracer | None


def run_workload(workload, seed, seconds, trace, root, workdir):
    """One benchmark run; returns a RunResult. ``workdir`` must be empty."""
    proc_env = child_env(root)
    logs = simulate_logs(workload, seed, workdir, proc_env)
    cfg = workdir / "scenario.cfg"
    references = {}
    replays = []
    setup_times = []
    setup_problems = []
    tracer = Tracer() if trace else None
    if trace and not traced_simulate(tracer, logs[0], workdir, cfg):
        setup_problems.append("traced simulate wrote different files")

    def setup():
        log = logs[len(setup_times) % len(logs)]
        seconds, same = timed_setup(log, workdir, proc_env)
        setup_times.append(seconds)
        if not same:
            setup_problems.append(f"{log.path.name}: simulate in a fresh process wrote different files")

    def do(log, traced):
        outdir = workdir / "replay"
        if traced:
            with tracer.installed(f"replay{len(replays)}", REPLAY_TARGETS):
                r = replay(log, outdir, workload, cfg, tracer)
        else:
            r = replay(log, outdir, workload, cfg)
        r.rms = check_replay(r, outdir, workload, references)
        replays.append(r)
        return r

    pairs = []
    deadline = time.perf_counter() + seconds
    i = 0
    # Untraced: every log once (for its rms), one log twice (determinism),
    # then on until the deadline. Traced: pairs until the deadline.
    while i < (1 if trace else len(logs) + 1) or time.perf_counter() < deadline:
        log = logs[i % len(logs)]
        if trace:
            # alternate which of a pair runs first, so that order effects cancel
            first, second = do(log, i % 2 == 1), do(log, i % 2 == 0)
            pairs.append((second, first) if i % 2 else (first, second))
        else:
            do(log, False)
        if i % SETUP_EVERY == 0 and len(setup_times) < TIMED_SETUPS:
            setup()
        i += 1
    while len(setup_times) < TIMED_SETUPS:
        setup()

    attempted = len(replays) + len(setup_times) + int(trace)
    failed = sum(not r.ok for r in replays) + len(setup_problems)
    problems = setup_problems + [f"{r.log.path.name}: {p}" for r in replays for p in r.problems]
    untraced = [r for r in replays if r.ok and r.run_id is None]
    if not untraced or (trace and not any(u.ok and t.ok for u, t in pairs)):
        raise BenchmarkError("no replay succeeded:\n" + "\n".join(problems))

    times = [r.seconds for r in untraced]
    # replay_s is the best of the run's replays; the median and quartiles are
    # printed and recorded beside it. The host is shared: bursts of contention
    # slow a varying share of a run's replays, from none to nearly all, by up
    # to 2x. Over five runs of room_circle the spread (quartile distance over
    # median) of the run's median replay time was 0.17, of its 10th
    # percentile 0.10 and of its best 0.06.
    replay_s = min(times)
    env = environment(workload, seed, logs)
    details = {
        "environment": env,
        "replay_s": {"best": replay_s, **_spread(times), "times": times},
        "setup_s": {**_spread(setup_times), "times": setup_times},
        "run_fail_ratio": failed / attempted,
    }
    if trace:
        metrics = layer_metrics(tracer, pairs, logs[0])
    else:
        # The first good replay of every log; later ones were byte-identical.
        rms = list({r.log.path: r.rms for r in reversed(untraced)}.values())
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "replay_s": (replay_s, "s"),
            "realtime_factor": (env["log_duration_s"] / replay_s, "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "rms_pos_m": (statistics.mean(max(r["rms_x"], r["rms_y"]) for r in rms), "m"),
            "rms_psi_deg": (statistics.mean(math.degrees(r["rms_psi"]) for r in rms), "deg"),
        }
    return RunResult(failed == 0, attempted, failed, metrics, details, problems, tracer)
