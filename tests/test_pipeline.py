from dataclasses import dataclass

import numpy as np
import pytest

from conftest import odometry_columns, stack_measurements
from iekf_slam import pipeline, scan_matching
from iekf_slam.errors import DegenerateGeometryError, NumericalFailureError, TimingError
from iekf_slam.icp import IcpConfig
from iekf_slam.iekf import FilterState, NoiseConfig, PoseMeasurement, odometry_increments, run_filter, schedule
from iekf_slam.logio import load_estimates, save_estimates
from iekf_slam.pipeline import MODES, run_aided_matcher, run_pipeline
from iekf_slam.scan_matching import aided_step
from iekf_slam.se3 import Pose, exp_se3, heading
from iekf_slam.simulator import ScenarioLog, Scans, SensorRates, Trajectory, TrajectorySpec, default_world, run_scenario

CFG = IcpConfig()
TWIST = np.array([0.0, 0.0, 0.3, 0.25, 0.0, 0.0])


@dataclass(frozen=True)
class Sample:
    """One odometry row as the oracle's object."""

    timestamp: float
    omega: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class Scan:
    """One scan as the oracle's object."""

    timestamp: float
    points: np.ndarray


def _reference_merge_events(odometry, scans):
    """Yield ('odo', sample) / ('scan', scan) in timestamp order, odometry first on ties."""
    oi, si = 0, 0
    while oi < len(odometry) or si < len(scans):
        take_odo = si >= len(scans) or (
            oi < len(odometry) and odometry[oi].timestamp <= scans[si].timestamp
        )
        if take_odo:
            yield "odo", odometry[oi]
            oi += 1
        else:
            yield "scan", scans[si]
            si += 1


def reference_matcher_rows(odometry, scans, icp_cfg, initial_pose):
    """Oracle: the matcher's own event merge and zero-order-hold pass, which
    ``iekf.schedule`` replaced. Returns (rows, measurements); row times are
    the event timestamps, held at 0 before the first positive one. A scan
    too small for ICP is never kept as the first reference."""
    odometry = [Sample(*row) for row in zip(odometry.t.tolist(), odometry.omega, odometry.mu)]
    scans = [Scan(*row) for row in zip(scans.t.tolist(), scans.points)]
    events = list(_reference_merge_events(odometry, scans))
    times, steps, dts, held = [], [], [], []
    t = 0.0
    last_sample = None
    for kind, event in events:
        step = -1
        if event.timestamp > t and last_sample is not None:
            step = len(dts)
            dts.append(event.timestamp - t)
            held.append(last_sample)
        t = max(t, event.timestamp)
        times.append(t)
        steps.append(step)
        if kind == "odo":
            last_sample = event
    omega = np.reshape([s.omega for s in held], (-1, 3))
    rotations, translations = odometry_increments(dts, omega, np.reshape([s.mu for s in held], (-1, 3)))

    pose, reference = initial_pose, None
    rows = []
    measurements = []
    for (kind, event), t, step in zip(events, times, steps):
        if step >= 0:
            pose = pose @ Pose(rotations[step], translations[step])
        if kind == "scan":
            try:
                if reference is not None and len(reference) >= icp_cfg.min_points:
                    pose, covariance = aided_step(reference, pose, event.points, icp_cfg)
                    measurements.append(PoseMeasurement(pose, covariance, event.timestamp))
                reference = pose.apply(event.points)
            except (DegenerateGeometryError, NumericalFailureError):
                pass
        rows.append((t, pose))
    return rows, measurements


def assert_columns_equal(columns, want):
    """A matcher's (t, R, p) columns against the oracle's (t, Pose) rows, row by row."""
    t, R, p = columns
    assert len(t) == len(want)
    for i, (tw, pw) in enumerate(want):
        assert t[i] == tw
        assert np.array_equal(R[i], pw.rotation)
        assert np.array_equal(p[i], pw.translation)


def assert_matches_reference(odometry, scans, initial_pose):
    columns, measurements = run_aided_matcher(odometry, scans, CFG, initial_pose)
    want_rows, want_measurements = reference_matcher_rows(odometry, scans, CFG, initial_pose)
    assert_columns_equal(columns, want_rows)
    for g, w in zip(measurements, stack_measurements(want_measurements), strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
    return measurements


def landmarks(rng, n=40):
    pts = 4.0 * rng.uniform(-1, 1, (n, 3))
    pts[:, 2] = rng.uniform(0.2, 1.5, n)
    return pts


def hand_built_log(rng, odo_times, scan_times, failing=()):
    """Noisy constant-twist odometry and landmark scans at the true poses;
    scans at the times in ``failing`` hold two points, too few for ICP."""
    world = landmarks(rng)
    omega, mu = [], []
    for _ in odo_times:
        omega.append(TWIST[:3] + 0.01 * rng.standard_normal(3))
        mu.append(TWIST[3:] + 0.02 * rng.standard_normal(3))
    odometry = odometry_columns(odo_times, omega, mu)
    scans = []
    for t in scan_times:
        points = exp_se3(t * TWIST).inverse().apply(world)
        scans.append(points[:2] if t in failing else points)
    return odometry, Scans(np.array(scan_times, dtype=float), scans)


class TestMatchersFollowSchedule:
    def test_simulated_room_log(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, duration=3.0)
        log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), 3)
        start = Pose(log.ground_truth.rotations[0], log.ground_truth.translations[0])
        measurements = assert_matches_reference(log.odometry, log.scans, start)
        assert len(measurements.t) == len(log.scans.t) - 1

    def test_scans_between_odometry_samples(self, rng):
        # 0.27 fails to match: the matcher carries on from the integrated pose
        odometry, scans = hand_built_log(
            rng, [0.02 * k for k in range(30)], [0.0, 0.09, 0.21, 0.27, 0.33, 0.45], failing=(0.27,)
        )
        measurements = assert_matches_reference(odometry, scans, Pose.identity())
        assert measurements.t.tolist() == [0.09, 0.21, 0.33, 0.45]

    def test_equal_timestamps(self, rng):
        odo_times = sorted([0.02 * k for k in range(30)] + [0.1, 0.1, 0.3])
        odometry, scans = hand_built_log(rng, odo_times, [0.0, 0.1, 0.2, 0.2, 0.3])
        assert_matches_reference(odometry, scans, Pose.identity())

    def test_first_scan_too_small_for_icp(self, rng):
        # 0.0 holds two points: 0.09 becomes the reference unmatched
        odometry, scans = hand_built_log(
            rng, [0.02 * k for k in range(30)], [0.0, 0.09, 0.21, 0.33], failing=(0.0,)
        )
        measurements = assert_matches_reference(odometry, scans, Pose.identity())
        assert measurements.t.tolist() == [0.21, 0.33]

    def test_scans_before_first_odometry_sample(self, rng):
        odometry, scans = hand_built_log(
            rng, [0.1 + 0.02 * k for k in range(25)], [0.04, 0.08, 0.1, 0.3, 0.5]
        )
        start = Pose(np.eye(3), np.array([1.0, -2.0, 0.0]))
        assert_matches_reference(odometry, scans, start)


def test_row_times_are_the_filters_state_times(rng):
    # From 0.03 to 0.29 the state time 0.03 + (0.29 - 0.03) is not 0.29 in
    # floating point; every mode reports the state time, as predict does.
    odometry, no_scans = hand_built_log(rng, [0.0, 0.03, 0.29, 0.31], [])
    want = run_filter(odometry, stack_measurements([]), NoiseConfig(), FilterState.initial())[0].tolist()
    assert want[2] != 0.29
    (t, _, _), _ = run_aided_matcher(odometry, no_scans, CFG, Pose.identity())
    assert t.tolist() == want


def test_out_of_order_scans_raise(rng):
    odometry, scans = hand_built_log(rng, [0.02 * k for k in range(10)], [0.1, 0.05])
    with pytest.raises(TimingError, match="out-of-order"):
        run_aided_matcher(odometry, scans, CFG, Pose.identity())


def test_naive_mode_holds_its_pose_through_a_failed_match(rng):
    # Under the zero-motion prior the pose moves only at a match. 0.27 fails
    # to match, so its row holds 0.21's pose, and 0.33 is matched against
    # 0.21's scan: the chain still lands on the true poses.
    odometry, scans = hand_built_log(
        rng, [0.02 * k for k in range(30)], [0.0, 0.09, 0.21, 0.27, 0.33, 0.45], failing=(0.27,)
    )
    start = Trajectory(np.zeros(1), np.eye(3)[None], np.zeros((1, 3)))
    log = ScenarioLog(start, odometry, scans, seed=0)
    t, x, y, z, psi, _ = run_pipeline(log, "naive-scan-match", NoiseConfig(), FilterState.initial(), CFG)
    rows = np.column_stack([x, y, z, psi])
    scan_row = {when: np.flatnonzero(t == when)[-1] for when in scans.t.tolist()}
    held = slice(scan_row[0.21], scan_row[0.33])
    assert np.array_equal(rows[held], np.broadcast_to(rows[scan_row[0.21]], rows[held].shape))
    assert not np.array_equal(rows[scan_row[0.33]], rows[scan_row[0.21]])
    for when in (0.09, 0.21, 0.33, 0.45):
        truth = exp_se3(when * TWIST)
        want = [*truth.translation, heading(truth.rotation)]
        assert np.allclose(rows[scan_row[when]], want, atol=1e-6)


def test_aided_matcher_calls_through_module_globals(rng, monkeypatch):
    # perfbench traces aided_step as pipeline.aided_step and icp_align as
    # scan_matching.icp_align: both must be looked up there at call time
    calls = {"aided_step": 0, "icp_align": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(pipeline, "aided_step")
    counting(scan_matching, "icp_align")
    odometry, scans = hand_built_log(rng, [0.02 * k for k in range(30)], [0.0, 0.2, 0.4])
    _, measurements = run_aided_matcher(odometry, scans, CFG, Pose.identity())
    assert len(measurements.t) == 2
    assert calls == {"aided_step": 2, "icp_align": 2}


@pytest.fixture(scope="module")
def short_room_log():
    spec = TrajectorySpec(kind="circle", speed=0.3, duration=2.0)
    return run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), 3)


@pytest.mark.parametrize("mode", MODES)
def test_estimates_file_is_the_pipelines_columns(short_room_log, tmp_path, mode):
    # run_pipeline returns what load_estimates reads back from the file
    # save_estimates writes: (t, x, y, z, psi, P), with P zero in the
    # matcher modes
    estimates = run_pipeline(short_room_log, mode, NoiseConfig(), FilterState.initial(), CFG)
    path = tmp_path / "estimates.csv"
    save_estimates(path, estimates)
    loaded = load_estimates(path)
    assert len(estimates) == len(loaded) == 6
    for want, got in zip(estimates, loaded):
        assert want.shape == got.shape
        assert np.array_equal(want, got)
    assert np.any(estimates[5]) == (mode in ("iekf", "dead-reckoning"))


def test_measurements_are_the_matched_scans_rows(rng):
    # -0.1 falls before the first positive time, so its row time is held at
    # 0; from 0.03 to 0.29 the row time 0.03 + (0.29 - 0.03) is not 0.29.
    # Each measurement keeps its scan's own time and its row's pose bits.
    odometry, scans = hand_built_log(rng, [0.0, 0.03, 0.29, 0.31], [-0.2, -0.1, 0.29])
    (t, R, p), measurements = run_aided_matcher(odometry, scans, CFG, Pose.identity())
    events, _, _ = schedule(odometry.t, scans.t, 0.0)
    rows = [i for i, (_, _, j) in enumerate(events) if j is not None][1:]
    assert measurements.t.tolist() == [-0.1, 0.29]
    assert t[rows].tolist() == [0.0, 0.03 + (0.29 - 0.03)] != measurements.t.tolist()
    assert np.array_equal(measurements.rotations, R[rows])
    assert np.array_equal(measurements.translations, p[rows])
    assert measurements.covariances.shape == (2, 6, 6)


def test_unmatched_log_gives_empty_measurements(rng):
    odometry, scans = hand_built_log(rng, [0.02 * k for k in range(10)], [0.1])
    _, measurements = run_aided_matcher(odometry, scans, CFG, Pose.identity())
    assert [c.shape for c in measurements] == [(0,), (0, 3, 3), (0, 3), (0, 6, 6)]


def test_iekf_and_scan_match_only_get_the_same_measurements(short_room_log, monkeypatch):
    # Both modes run the one matcher loop, which always writes its columns.
    kept = []

    def spy(odometry, scans, icp_cfg, initial_pose):
        kept.append(run_aided_matcher(odometry, scans, icp_cfg, initial_pose))
        return kept[-1]

    monkeypatch.setattr(pipeline, "run_aided_matcher", spy)
    for mode in ("iekf", "scan-match-only"):
        run_pipeline(short_room_log, mode, NoiseConfig(), FilterState.initial(), CFG)
    (_, iekf_measurements), (_, matcher_measurements) = kept
    assert len(iekf_measurements.t) > 0
    for g, w in zip(iekf_measurements, matcher_measurements, strict=True):
        assert np.array_equal(g, w)
