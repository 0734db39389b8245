from dataclasses import replace

import numpy as np
import pytest

from conftest import WAYPOINT_GRID, rot_z
from iekf_slam import simulator
from iekf_slam.errors import ConfigError
from iekf_slam.iekf import NoiseConfig
from iekf_slam.se3 import Pose, exp_se3
from iekf_slam.simulator import (
    MAX_STEPS,
    TURN_RATE,
    SensorRates,
    TrajectorySpec,
    WorldModel,
    corridor_world,
    default_world,
    generate_trajectory,
    odometry_noise_sqrt,
    render_scan,
    run_scenario,
    sample_odometry,
    wall_points,
)

ZERO_NOISE = NoiseConfig(np.zeros((3, 3)), np.zeros((3, 3)))


class TestWorld:
    def test_wall_grid_counts_and_bounds(self):
        pts = wall_points([0.0, 0.0], [1.0, 0.0], height=0.5, spacing=0.25, z_spacing=0.25)
        assert pts.shape == (5 * 3, 3)
        assert pts[:, 0].min() == 0.0 and pts[:, 0].max() == 1.0
        assert pts[:, 2].min() == 0.0 and pts[:, 2].max() == 0.5

    def test_default_world_point_count(self):
        pts = default_world().points
        assert pts.shape == (50, 3)
        # perimeter landmarks sit on the room boundary
        on_edge = (
            np.isclose(pts[:40, 0], -3.0)
            | np.isclose(pts[:40, 0], 9.0)
            | np.isclose(pts[:40, 1], -4.0)
            | np.isclose(pts[:40, 1], 4.0)
        )
        assert np.all(on_edge)

    def test_corridor_grid_alignment(self):
        world = corridor_world(spacing=0.05)
        pts = world.points
        assert np.allclose(np.abs(pts[:, 1]), 1.0)
        # x coordinates all land on the absolute 0.05 m lattice
        steps = (pts[:, 0] + 5.0) / 0.05
        assert np.max(np.abs(steps - np.round(steps))) < 1e-9

    def test_digest_tracks_content(self):
        a = WorldModel(np.array([[0.0, 0.0, 1.0]]))
        b = WorldModel(np.array([[0.0, 0.0, 1.0]]))
        c = WorldModel(np.array([[0.0, 0.0, 1.5]]))
        assert a.digest() == b.digest() != c.digest()

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            WorldModel(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_world_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            WorldModel(np.array([[0.0, 0.0, 1.0], [value, 0.0, 0.0]]))

    @pytest.mark.parametrize(
        "start,end,height,spacing,match",
        [
            ([0.0, 0.0], [0.0, 0.0], 1.0, 0.25, "zero length"),
            ([0.0, 0.0], [1.0, 0.0], 1.0, 0.0, "spacing"),
            ([0.0, 0.0], [1.0, 0.0], -1.0, 0.25, "height"),
            ([0.0, 0.0], [1e300, 0.0], 1.0, 0.25, "MAX_WALL_POINTS"),
            ([0.0, 0.0], [30.0, 0.0], 0.4, 1e-9, "MAX_WALL_POINTS"),
            ([0.0, 0.0], [30.0, 0.0], 1e300, 0.25, "MAX_WALL_POINTS"),
        ],
        ids=["zero-length", "zero-spacing", "negative-height", "length-overflow", "tiny-spacing", "height"],
    )
    def test_bad_wall_rejected(self, start, end, height, spacing, match):
        # The MAX_WALL_POINTS cases overflowed, or asked for gigabytes, before
        # the grid counts were checked.
        with pytest.raises(ValueError, match=match):
            wall_points(start, end, height, spacing)

    def test_wall_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_WALL_POINTS", 12)
        assert wall_points([0.0, 0.0], [3.0, 0.0], height=2.0, spacing=1.0, z_spacing=1.0).shape == (12, 3)
        with pytest.raises(ValueError, match="MAX_WALL_POINTS = 12"):
            wall_points([0.0, 0.0], [4.0, 0.0], height=2.0, spacing=1.0, z_spacing=1.0)


class TestTrajectory:
    def test_straight_endpoint(self):
        spec = TrajectorySpec(kind="straight", speed=0.2, duration=10.0)
        truth, twists = generate_trajectory(spec, dt=0.02)
        assert len(truth.t) == 501 and len(twists) == 500
        assert np.allclose(truth.translations[-1], [2.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(truth.rotations[-1], np.eye(3), atol=1e-12)

    def test_exact_group_recursion(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, radius=1.5, duration=4.0)
        truth, twists = generate_trajectory(spec, dt=0.02)
        poses = [Pose(r, p) for r, p in zip(truth.rotations, truth.translations)]
        for prev, twist, cur in zip(poses[:50], twists, poses[1:51]):
            assert cur.is_close(prev @ exp_se3(0.02 * twist), tol=1e-13)

    def test_circle_closes(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, radius=1.5, turns=1.0)
        truth, _ = generate_trajectory(spec, dt=1.0 / 50.0)
        # duration is not an exact multiple of dt; compare against the pose at
        # the rounded step count instead of demanding exact closure
        n = len(truth.t) - 1
        angle = 0.3 / 1.5 * n / 50.0
        expected = Pose(rot_z(angle), 1.5 * np.array([np.sin(angle), 1.0 - np.cos(angle), 0.0]))
        assert Pose(truth.rotations[-1], truth.translations[-1]).is_close(expected, tol=1e-9)

    def test_circle_yaw_rate_finite_difference(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, radius=1.5, duration=5.0)
        truth, _ = generate_trajectory(spec, dt=0.02)
        psi = np.unwrap(np.arctan2(truth.rotations[:, 1, 0], truth.rotations[:, 0, 0]))
        rates = np.diff(psi) / 0.02
        assert np.allclose(rates, 0.3 / 1.5, atol=1e-9)

    def test_waypoints_traverse_corners(self):
        # 4 m of legs at 1 m/s, plus the 90 deg corner turned in place at TURN_RATE
        spec = TrajectorySpec(kind="waypoints", speed=1.0, waypoints=((2.0, 0.0), (2.0, 2.0)))
        truth, twists = generate_trajectory(spec, dt=0.1)
        assert len(twists) * 0.1 == pytest.approx(4.0 + (np.pi / 2) / TURN_RATE)
        assert np.allclose(truth.translations[-1, :2], [2.0, 2.0], atol=1e-9)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            TrajectorySpec(speed=0.0)
        with pytest.raises(ConfigError):
            TrajectorySpec(kind="spiral")
        with pytest.raises(ConfigError):
            TrajectorySpec(duration=-1.0)


class TestWaypoints:
    @pytest.mark.parametrize("name", WAYPOINT_GRID)
    def test_wheeled_motion_through_every_waypoint(self, name):
        # Every step either turns in place at no more than TURN_RATE or
        # drives forward at no more than the speed: never sideways, never
        # both. The path without a duration passes each waypoint in order; a
        # duration cuts it short or holds its last pose.
        waypoints, duration = WAYPOINT_GRID[name]
        dt = 0.02
        spec = TrajectorySpec(kind="waypoints", speed=0.5, waypoints=waypoints, duration=duration)
        truth, twists = generate_trajectory(spec, dt)
        assert len(truth.t) == len(twists) + 1
        assert np.all(twists[:, [0, 1, 4, 5]] == 0.0)
        assert np.all(np.abs(twists[:, 2]) <= TURN_RATE)
        assert np.all((twists[:, 3] >= 0.0) & (twists[:, 3] <= spec.speed))
        assert np.all(twists[:, 2] * twists[:, 3] == 0.0)

        path, _ = generate_trajectory(TrajectorySpec(kind="waypoints", speed=0.5, waypoints=waypoints), dt)
        xy = path.translations[:, :2]
        k = 0
        for waypoint in waypoints:
            hits = np.flatnonzero(np.linalg.norm(xy[k:] - waypoint, axis=1) <= 1e-9)
            assert hits.size, waypoint
            k += hits[0]
        assert np.linalg.norm(xy[-1] - waypoints[-1]) <= 1e-9

        if duration is None:
            assert len(truth.t) == len(path.t)
        else:
            assert len(truth.t) - 1 == round(duration / dt)
        held = np.minimum(np.arange(len(truth.t)), len(path.t) - 1)
        assert np.array_equal(truth.rotations, path.rotations[held])
        assert np.array_equal(truth.translations, path.translations[held])

    def test_initial_heading_is_the_first_legs(self):
        spec = TrajectorySpec(kind="waypoints", waypoints=((0.0, 0.0), (0.0, 0.0), (-1.0, 1.0)))
        pose, _ = spec.segments(0.02)
        assert np.allclose(pose.rotation, rot_z(3 * np.pi / 4), atol=1e-15)
        assert np.array_equal(pose.translation, np.zeros(3))

    @pytest.mark.parametrize("waypoints", [(), ((0.0, 0.0),), ((0.0, 0.0), (-0.0, 0.0))])
    def test_path_without_a_leg_rejected(self, waypoints):
        with pytest.raises(ConfigError, match="non-zero length"):
            TrajectorySpec(kind="waypoints", waypoints=waypoints)


class TestStepBound:
    @pytest.mark.parametrize(
        "spec,dt,keys",
        [
            (TrajectorySpec(duration=1e10), 1e-300, "scenario.duration"),
            (TrajectorySpec(length=1e300), 0.02, "scenario.length"),
            (TrajectorySpec(kind="circle", turns=1e300), 0.02, "scenario.turns"),
            (TrajectorySpec(kind="waypoints", waypoints=((1e300, 0.0),)), 0.02, "scenario.waypoints"),
            (TrajectorySpec(kind="waypoints", waypoints=((1.0, 0.0), (0.0, 0.0))), 1e-308, "scenario.waypoints"),
        ],
        ids=["duration_overflow", "length", "turns", "waypoints", "turn_overflow"],
    )
    def test_runaway_scenario_rejected(self, spec, dt, keys):
        # These overflowed, or asked for about 1e302 steps and ran until
        # memory ran out.
        with pytest.raises(ConfigError, match="MAX_STEPS") as exc:
            spec.segments(dt)
        assert keys in str(exc.value) and "rates.odometry_hz" in str(exc.value)

    @pytest.mark.parametrize("kind", ["straight", "waypoints"])
    def test_bound_is_inclusive(self, kind):
        spec = TrajectorySpec(kind=kind, duration=float(MAX_STEPS), waypoints=((1.0, 0.0),))
        _, segments = spec.segments(1.0)
        assert sum(steps for _, steps in segments) == MAX_STEPS
        with pytest.raises(ConfigError, match="scenario.duration"):
            replace(spec, duration=MAX_STEPS + 1.0).segments(1.0)


class TestSensors:
    def test_rates_validation(self):
        with pytest.raises(ConfigError):
            SensorRates(odometry_hz=50.0, scan_hz=7.0)
        with pytest.raises(ConfigError):
            SensorRates(cloud_sigma=-0.1)
        assert SensorRates(50.0, 5.0).scan_stride() == 10

    def test_odometry_noise_statistics(self):
        rng = np.random.default_rng(7)
        noise = NoiseConfig.from_sigmas(0.01, 0.02)
        twist = np.array([0.0, 0.0, 0.1, 0.25, 0.0, 0.0])
        noise_sqrt = odometry_noise_sqrt(noise)
        n = 100_000
        draws = np.empty((n, 6))
        for k in range(n):
            draws[k] = np.concatenate(sample_odometry(twist, noise_sqrt, rng))
        mean = draws.mean(axis=0)
        std = draws.std(axis=0)
        assert np.allclose(mean, twist, atol=4e-4)
        assert np.allclose(std[:3], 0.01, atol=3e-4)
        assert np.allclose(std[3:], 0.02, atol=3e-4)

    def test_zero_noise_is_exact(self):
        rng = np.random.default_rng(0)
        twist = np.array([0.0, 0.0, 0.1, 0.25, 0.0, 0.0])
        s = sample_odometry(twist, odometry_noise_sqrt(ZERO_NOISE), rng)
        assert np.array_equal(np.concatenate(s), twist)

    def test_scan_rotated_landmark(self):
        world = WorldModel(np.array([[1.0, 0.0, 0.0]]))
        pose = Pose(rot_z(np.pi / 2), np.zeros(3))
        rates = SensorRates(cloud_sigma=0.0)
        scan = render_scan(world, pose, rates, np.random.default_rng(0))
        assert np.allclose(scan, [[0.0, -1.0, 0.0]], atol=1e-12)

    def test_scan_range_and_fov_filters(self):
        world = WorldModel(np.array([[1.0, 0.0, 0.0], [20.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        rng = np.random.default_rng(0)
        rates = SensorRates(cloud_sigma=0.0, range_max=12.0)
        scan = render_scan(world, Pose.identity(), rates, rng)
        assert len(scan) == 2  # far point dropped
        narrow = SensorRates(cloud_sigma=0.0, range_max=12.0, fov=np.pi / 2)
        scan = render_scan(world, Pose.identity(), narrow, rng)
        assert np.allclose(scan, [[1.0, 0.0, 0.0]])

    def test_scan_none_when_nothing_visible(self):
        world = WorldModel(np.array([[100.0, 0.0, 0.0]]))
        rates = SensorRates(cloud_sigma=0.0)
        assert render_scan(world, Pose.identity(), rates, np.random.default_rng(0)) is None


class TestScenario:
    def test_stream_counts(self):
        spec = TrajectorySpec(kind="straight", speed=0.25, duration=10.0)
        log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), seed=3)
        assert log.ground_truth.t.tolist() == [k * 0.02 for k in range(501)]
        assert log.odometry.t.tolist() == [k * 0.02 for k in range(500)]
        assert len(log.scans.t) == len(log.scans.points) == 50
        assert log.scans.t[0] == 0.0
        assert log.scans.t[1] == pytest.approx(0.2)

    def test_seed_determinism(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, duration=4.0)
        a = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), seed=11)
        b = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), seed=11)
        c = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), seed=12)
        for sa, sb in zip(a.odometry, b.odometry, strict=True):
            assert np.array_equal(sa, sb)
        assert np.array_equal(a.scans.t, b.scans.t)
        for ca, cb in zip(a.scans.points, b.scans.points, strict=True):
            assert np.array_equal(ca, cb)
        assert not np.array_equal(a.odometry.omega[0], c.odometry.omega[0])

    def test_zero_noise_dead_reckoning_recovers_truth(self):
        spec = TrajectorySpec(kind="circle", speed=0.3, duration=3.0)
        rates = SensorRates(cloud_sigma=0.0)
        log = run_scenario(default_world(), spec, rates, ZERO_NOISE, seed=0)
        pose = Pose.identity()
        dt = 1.0 / rates.odometry_hz
        truth = log.ground_truth
        for omega, mu, r, p in zip(log.odometry.omega, log.odometry.mu, truth.rotations[1:], truth.translations[1:]):
            pose = pose @ exp_se3(dt * np.concatenate([omega, mu]))
            assert pose.is_close(Pose(r, p), tol=1e-9)

    def test_corridor_consecutive_scans_identical(self):
        # one grid step of motion per scan interval: the noise-free scans of
        # the infinite-looking wall section repeat element for element
        spec = TrajectorySpec(kind="straight", speed=0.25, duration=4.0)
        rates = SensorRates(odometry_hz=50.0, scan_hz=5.0, cloud_sigma=0.0, range_max=2.0)
        log = run_scenario(corridor_world(), spec, rates, ZERO_NOISE, seed=0)
        for a, b in zip(log.scans.points[2:-2], log.scans.points[3:-1]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-9

    def test_meta_records_inputs(self):
        spec = TrajectorySpec(kind="straight", speed=0.25, duration=2.0)
        log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), seed=42)
        assert log.meta["seed"] == "42"
        assert log.meta["world_hash"] == default_world().digest()
        assert float(log.meta["cloud_sigma"]) == 0.05
