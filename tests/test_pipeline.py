import numpy as np
import pytest

from iekf_slam.errors import DegenerateGeometryError, NumericalFailureError, TimingError
from iekf_slam.icp import IcpConfig
from iekf_slam.iekf import FilterState, NoiseConfig, OdometrySample, odometry_increments, run_filter
from iekf_slam.pipeline import run_aided_matcher, run_naive_matcher
from iekf_slam.pointcloud import BODY, PointCloud
from iekf_slam.scan_matching import AIDED, NAIVE, MatcherState, aided_step, naive_step
from iekf_slam.se3 import Pose, exp_se3
from iekf_slam.simulator import SensorRates, TrajectorySpec, default_world, run_scenario

CFG = IcpConfig()
TWIST = np.array([0.0, 0.0, 0.3, 0.25, 0.0, 0.0])


def _reference_merge_events(odometry, scans):
    """Yield ('odo', sample) / ('scan', cloud) in timestamp order, odometry first on ties."""
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


def reference_matcher_rows(odometry, scans, icp_cfg, initial_pose, mode):
    """Oracle: the matchers' own event merge and zero-order-hold pass, which
    ``iekf.schedule`` replaced. Returns (rows, measurements); row times are
    the event timestamps (held at 0 before the first positive one in the
    aided pass). Measurements are empty for the naive matcher."""
    events = list(_reference_merge_events(odometry, scans))
    if mode == NAIVE:
        matcher = MatcherState(mode=NAIVE, pose_estimate=initial_pose)
        rows = []
        for kind, event in events:
            if kind == "scan":
                try:
                    naive_step(matcher, event, icp_cfg)
                except (DegenerateGeometryError, NumericalFailureError):
                    pass
            rows.append((event.timestamp, matcher.pose_estimate))
        return rows, []

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
    rotations, translations = odometry_increments(dts, held)

    matcher = MatcherState(mode=AIDED)
    pose = initial_pose
    rows = []
    measurements = []
    for (kind, event), t, step in zip(events, times, steps):
        if step >= 0:
            pose = pose @ Pose(rotations[step], translations[step])
        if kind == "scan":
            try:
                meas = aided_step(matcher, pose, event, icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                meas = None
            if meas is not None:
                pose = meas.measured_pose
                measurements.append(meas)
        rows.append((t, pose))
    return rows, measurements


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for (tg, pg), (tw, pw) in zip(got, want):
        assert tg == tw
        assert np.array_equal(pg.rotation, pw.rotation)
        assert np.array_equal(pg.translation, pw.translation)


def assert_matches_reference(odometry, scans, initial_pose):
    rows, measurements = run_aided_matcher(odometry, scans, CFG, initial_pose)
    want_rows, want_measurements = reference_matcher_rows(odometry, scans, CFG, initial_pose, AIDED)
    assert_rows_equal(rows, want_rows)
    assert len(measurements) == len(want_measurements)
    for g, w in zip(measurements, want_measurements):
        assert g.timestamp == w.timestamp
        assert np.array_equal(g.covariance, w.covariance)
        assert np.array_equal(g.measured_pose.rotation, w.measured_pose.rotation)
        assert np.array_equal(g.measured_pose.translation, w.measured_pose.translation)

    naive, _ = run_naive_matcher(odometry, scans, CFG, initial_pose)
    want_naive, _ = reference_matcher_rows(odometry, scans, CFG, initial_pose, NAIVE)
    assert_rows_equal(naive, want_naive)
    return measurements


def landmarks(rng, n=40):
    pts = 4.0 * rng.uniform(-1, 1, (n, 3))
    pts[:, 2] = rng.uniform(0.2, 1.5, n)
    return pts


def hand_built_log(rng, odo_times, scan_times, failing=()):
    """Noisy constant-twist odometry and landmark scans at the true poses;
    scans at the times in ``failing`` hold two points, too few for ICP."""
    world = landmarks(rng)
    odometry = [
        OdometrySample(
            TWIST[:3] + 0.01 * rng.standard_normal(3), TWIST[3:] + 0.02 * rng.standard_normal(3), t
        )
        for t in odo_times
    ]
    scans = []
    for t in scan_times:
        points = exp_se3(t * TWIST).inverse().apply(world)
        scans.append(PointCloud(points[:2] if t in failing else points, BODY, t))
    return odometry, scans


class TestMatchersFollowSchedule:
    def test_simulated_room_log(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, duration=3.0)
        log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), 3)
        measurements = assert_matches_reference(log.odometry, log.scans, log.ground_truth[0][1])
        assert len(measurements) == len(log.scans) - 1

    def test_scans_between_odometry_samples(self, rng):
        # 0.27 fails to match: both matchers carry on from the held pose
        odometry, scans = hand_built_log(
            rng, [0.02 * k for k in range(30)], [0.0, 0.09, 0.21, 0.27, 0.33, 0.45], failing=(0.27,)
        )
        measurements = assert_matches_reference(odometry, scans, Pose.identity())
        assert [m.timestamp for m in measurements] == [0.09, 0.21, 0.33, 0.45]

    def test_equal_timestamps(self, rng):
        odo_times = sorted([0.02 * k for k in range(30)] + [0.1, 0.1, 0.3])
        odometry, scans = hand_built_log(rng, odo_times, [0.0, 0.1, 0.2, 0.2, 0.3])
        assert_matches_reference(odometry, scans, Pose.identity())

    def test_scans_before_first_odometry_sample(self, rng):
        odometry, scans = hand_built_log(
            rng, [0.1 + 0.02 * k for k in range(25)], [0.04, 0.08, 0.1, 0.3, 0.5]
        )
        start = Pose(np.eye(3), np.array([1.0, -2.0, 0.0]))
        assert_matches_reference(odometry, scans, start)


def test_row_times_are_the_filters_state_times(rng):
    # From 0.03 to 0.29 the state time 0.03 + (0.29 - 0.03) is not 0.29 in
    # floating point; every mode reports the state time, as predict does.
    odometry, _ = hand_built_log(rng, [0.0, 0.03, 0.29, 0.31], [])
    want = [s.timestamp for s in run_filter(odometry, [], NoiseConfig(), FilterState.initial())]
    assert want[2] != 0.29
    rows, _ = run_aided_matcher(odometry, [], CFG, Pose.identity())
    assert [t for t, _ in rows] == want
    naive_rows, _ = run_naive_matcher(odometry, [], CFG, Pose.identity())
    assert [t for t, _ in naive_rows] == want


@pytest.mark.parametrize("runner", [run_aided_matcher, run_naive_matcher])
def test_out_of_order_scans_raise(rng, runner):
    odometry, scans = hand_built_log(rng, [0.02 * k for k in range(10)], [0.1, 0.05])
    with pytest.raises(TimingError, match="out-of-order"):
        runner(odometry, scans, CFG, Pose.identity())
