"""Smoke test of the benchmark itself, on logs a few scans long.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Later lines of a config file override earlier ones.
SHORT = {
    "room_circle": "scenario.duration = 2.0\n",
    "corridor_dense": "scenario.duration = 0.4\n",
    "corridor_noisy": "scenario.duration = 0.4\n",
}


@pytest.fixture(autouse=True)
def one_timed_setup(monkeypatch):
    # one fresh-process set-up and one bulk set-up, so both paths run
    monkeypatch.setattr(bench, "TIMED_SETUPS", 1)


def tiny(name):
    workload = bench.WORKLOADS[name]
    return dataclasses.replace(workload, config=workload.config + SHORT[name], logs=2)


def run(name, tmp_path, trace=False):
    workdir = tmp_path / "work"
    workdir.mkdir()
    return bench.run_workload(tiny(name), 3, 0.01, trace, ROOT, workdir)


def test_spec_lists_gated_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == bench.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_with_its_unit(name, trace, tmp_path):
    result = run(name, tmp_path, trace)
    assert result.correct and result.failed == 0, result.problems
    assert result.details["run_fail_ratio"] == 0.0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(isinstance(v, float) for v, _ in result.metrics.values())
    if trace:
        assert result.tracer.finished()
    env = result.details["environment"]
    assert env["kernel_backend"] == bench.iekf_slam.KERNEL_BACKEND
    assert env["scans_per_log"] >= 2 and env["points_per_scan_max"] > 0


@pytest.mark.parametrize("corrupted_call", [1, 3], ids=["row_check", "determinism"])
def test_dropped_row_counts_as_failure(corrupted_call, tmp_path, monkeypatch):
    """Replays go log0, log1, log0: a row dropped on the first fails the row
    check, on the third the comparison with log0's first replay."""
    original = bench.cli.save_estimates
    calls = []

    def save_dropping_a_row(path, rows):
        calls.append(path)
        rows = list(rows)
        if len(calls) == corrupted_call:
            del rows[len(rows) // 2]
        original(path, rows)

    monkeypatch.setattr(bench.cli, "save_estimates", save_dropping_a_row)
    result = run("room_circle", tmp_path)
    assert not result.correct
    assert result.failed == 1
    assert result.details["run_fail_ratio"] == pytest.approx(1 / result.attempted)
