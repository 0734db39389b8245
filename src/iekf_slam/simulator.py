"""Synthetic world, trajectory and sensor models for regenerating the
library's validation experiments: a landmark/wall scene, planar reference
trajectories integrated exactly on SE(3), additive-noise odometry and
noisy body-frame scans, all driven by a single seeded generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .iekf import NoiseConfig
from .se3 import Pose, exp_se3, wrap_angle


# The most points one wall may be sampled into. A `simulate` of one scan
# that sees every point of a corridor peaked at about 90 B of RSS per world
# point (124 MB for 10^6 points, 210 MB for 2 * 10^6), so a corridor of two
# such walls takes about 1.8 GB. Each further scan that sees every point
# adds about 24 B per point more.
MAX_WALL_POINTS = 10**7


def wall_points(start, end, height=1.0, spacing=0.25, z_spacing=0.25):
    """Vertical wall from ``start`` to ``end`` (ground x, y) sampled into an
    (N, 3) point grid anchored at ``start``: ``spacing`` apart along the wall
    and ``z_spacing`` apart in height, from z = 0 up to ``height``, in rows of
    increasing height along the wall. Grid counts are floats until their
    product is checked against MAX_WALL_POINTS."""
    if not (spacing > 0 and z_spacing > 0):
        raise ValueError("wall spacing must be positive")
    if not height >= 0:
        raise ValueError("wall height must be >= 0")
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    delta = end - start
    with np.errstate(over="ignore"):  # a wall too long for a float has length inf
        length = float(np.linalg.norm(delta))
        n_s = np.floor(length / spacing + 1e-9) + 1
        n_z = np.floor(height / z_spacing + 1e-9) + 1
    if not length > 0:
        raise ValueError("wall segment has zero length")
    if not n_s * n_z <= MAX_WALL_POINTS:
        raise ValueError(f"a wall of {n_s * n_z:.3g} points, more than MAX_WALL_POINTS = {MAX_WALL_POINTS}")
    n_s, n_z = int(n_s), int(n_z)
    xy = start[None, :] + (spacing * np.arange(n_s))[:, None] * (delta / length)[None, :]
    points = np.empty((n_s * n_z, 3))
    points[:, :2] = np.repeat(xy, n_z, axis=0)
    points[:, 2] = np.tile(z_spacing * np.arange(n_z), n_s)
    return points


@dataclass(frozen=True)
class WorldModel:
    """Ground-frame scene: its points as one (N, 3) array, N >= 1, all finite."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if points.shape[0] < 1:
            raise ValueError("world has no points")
        if not np.all(np.isfinite(points)):
            raise ValueError("world contains non-finite coordinates")
        object.__setattr__(self, "points", points)

    def digest(self):
        return hashlib.sha256(np.ascontiguousarray(self.points).tobytes()).hexdigest()[:16]


def default_world() -> WorldModel:
    """Rectangular room (x in [-3, 9], y in [-4, 4]) with 40 perimeter
    landmarks at varied heights plus 10 interior landmarks."""
    corners = np.array([[-3.0, -4.0], [9.0, -4.0], [9.0, 4.0], [-3.0, 4.0]])
    sides = np.roll(corners, -1, axis=0) - corners
    side_len = np.linalg.norm(sides, axis=1)
    perimeter = side_len.sum()  # 40 m
    points = []
    for k in range(40):
        s = perimeter * k / 40.0
        j = 0
        while s > side_len[j]:
            s -= side_len[j]
            j += 1
        xy = corners[j] + sides[j] * (s / side_len[j])
        z = 0.2 + 1.3 * ((7 * k) % 10) / 9.0
        points.append([xy[0], xy[1], z])
    interior = [
        [1.5, 1.8, 0.5],
        [3.0, -2.0, 1.1],
        [4.5, 2.2, 0.8],
        [6.0, -1.5, 0.4],
        [7.5, 1.0, 1.3],
        [2.0, -0.8, 0.9],
        [5.2, 0.9, 1.4],
        [0.5, -2.3, 0.7],
        [8.2, -2.4, 1.0],
        [6.8, 2.5, 0.6],
    ]
    return WorldModel(np.array(points + interior))


def corridor_world(length=30.0, half_width=1.0, spacing=0.05, height=0.4, z_spacing=0.2) -> WorldModel:
    """Long featureless corridor along +x: two parallel walls on a uniform
    grid, so scans taken a whole number of grid steps apart are identical."""
    walls = [
        wall_points([-5.0, y], [length - 5.0, y], height, spacing, z_spacing) for y in (-half_width, half_width)
    ]
    return WorldModel(np.concatenate(walls))


TURN_RATE = np.pi / 4  # rad/s, the yaw rate of a waypoint path's in-place turns
# The most odometry steps a scenario may take: a simulated log holds about
# 1.6 KB per step in memory (41 MB for 3,142 steps, 87 MB for 31,416), so
# 10^6 steps is about 1.6 GB.
MAX_STEPS = 10**6
# The keys that set the length of each kind of path, when no duration is given.
_PATH_KEYS = {
    "straight": "scenario.length, scenario.speed",
    "circle": "scenario.radius, scenario.turns, scenario.speed",
    "waypoints": "scenario.waypoints, scenario.speed",
}


def _planar_twist(omega_z, speed):
    """Body twist of a yaw rate and a forward speed, with no sideways or vertical motion."""
    return np.array([0.0, 0.0, omega_z, speed, 0.0, 0.0])


@dataclass(frozen=True)
class TrajectorySpec:
    """Planar reference motion; z = 0, roll = pitch = 0 throughout."""

    kind: str = "straight"  # straight | circle | waypoints
    speed: float = 0.25  # m/s
    duration: float | None = None  # s; derived from geometry when None
    length: float = 8.0  # m, straight
    radius: float = 1.5  # m, circle
    turns: float = 2.0  # circle revolutions
    veer_rate: float = 0.0  # rad/s, optional drift of the straight run
    waypoints: tuple = ()  # sequence of (x, y), waypoints kind

    def __post_init__(self):
        for name in ("speed", "length", "radius", "turns"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"scenario {name} must be positive")
        if self.duration is not None and not 0 < self.duration < np.inf:
            raise ConfigError("scenario duration must be positive and finite")
        if self.kind not in ("straight", "circle", "waypoints"):
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        points = np.asarray(self.waypoints, dtype=float)
        if points.size % 2 or not np.all(np.isfinite(points)):
            raise ConfigError("scenario waypoints need a finite x and y each")
        if self.kind == "waypoints":
            lengths, _ = self._legs()
            if not lengths.size:
                raise ConfigError("scenario waypoints need a leg of non-zero length")
            if not np.all(np.isfinite(lengths)):
                raise ConfigError("scenario waypoints need legs of finite length")

    def _legs(self):
        """Length and heading of each non-zero leg of the waypoint path; a leg
        too long for a float has length inf."""
        with np.errstate(over="ignore"):
            legs = np.diff(np.vstack([[0.0, 0.0], np.reshape(self.waypoints, (-1, 2))]), axis=0)
            legs = legs[np.any(legs != 0.0, axis=1)]
            return np.hypot(legs[:, 0], legs[:, 1]), np.arctan2(legs[:, 1], legs[:, 0])

    def segments(self, dt):
        """The motion at step ``dt`` as (initial pose, [(body twist, steps), ...]).

        Straight and circle are one segment. A waypoint path starts at the
        origin facing its first leg, drives each leg at the speed that ends
        it on its waypoint and turns in place between legs at up to
        TURN_RATE; an explicit duration cuts it short or holds its last pose.
        Step counts are floats until their total is checked against MAX_STEPS.
        """
        if self.kind != "waypoints":
            omega_z = self.veer_rate if self.kind == "straight" else self.speed / self.radius
            distance = self.length if self.kind == "straight" else self.turns * 2.0 * np.pi * self.radius
            duration = distance / self.speed if self.duration is None else self.duration
            pose, segments = Pose.identity(), [(_planar_twist(omega_z, self.speed), np.round(duration / dt))]
        else:
            lengths, headings = self._legs()
            pose, segments = exp_se3(_planar_twist(headings[0], 0.0)), []
            with np.errstate(over="ignore", divide="ignore"):
                for turn, length in zip(wrap_angle(np.diff(headings, prepend=headings[0])), lengths):
                    if turn:
                        steps = np.ceil(abs(turn) / (TURN_RATE * dt))
                        segments.append((_planar_twist(turn / (steps * dt), 0.0), steps))
                    steps = np.ceil(length / (self.speed * dt))
                    segments.append((_planar_twist(0.0, length / (steps * dt)), steps))
            if self.duration is not None:
                n = np.round(self.duration / dt)
                segments.append((_planar_twist(0.0, 0.0), n))
                starts = np.cumsum([0.0] + [steps for _, steps in segments])
                segments = [(twist, min(steps, n - start)) for (twist, steps), start in zip(segments, starts) if start < n]
        total = sum(steps for _, steps in segments)
        if not total <= MAX_STEPS:
            keys = "scenario.duration" if self.duration is not None else _PATH_KEYS[self.kind]
            raise ConfigError(
                f"{keys} and rates.odometry_hz ask for {total:.3g} odometry steps, more than MAX_STEPS = {MAX_STEPS}"
            )
        return pose, [(twist, int(steps)) for twist, steps in segments]


@dataclass(frozen=True)
class SensorRates:
    odometry_hz: float = 50.0
    scan_hz: float = 5.0
    cloud_sigma: float = 0.05  # m
    range_max: float = 12.0  # m
    fov: float = 2.0 * np.pi  # rad, horizontal

    def __post_init__(self):
        if not np.inf > self.odometry_hz >= self.scan_hz > 0:
            raise ConfigError("need a finite odometry_hz >= scan_hz > 0")
        if self.cloud_sigma < 0:
            raise ConfigError("cloud_sigma must be >= 0")
        if not (self.range_max > 0 and self.fov > 0):
            raise ConfigError("range_max and fov must be positive")
        ratio = self.odometry_hz / self.scan_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("odometry_hz must be an integer multiple of scan_hz")

    def scan_stride(self):
        return int(round(self.odometry_hz / self.scan_hz))


class Trajectory(NamedTuple):  # poses as columns
    t: np.ndarray  # (n,)
    rotations: np.ndarray  # (n, 3, 3)
    translations: np.ndarray  # (n, 3)


class Odometry(NamedTuple):  # body-frame velocity samples as columns
    t: np.ndarray  # (n,)
    omega: np.ndarray  # (n, 3), rad/s
    mu: np.ndarray  # (n, 3), m/s


class Scans(NamedTuple):  # body-frame scans as columns
    t: np.ndarray  # (n,)
    points: list  # n arrays of shape (m_i, 3)


def generate_trajectory(spec: TrajectorySpec, dt: float):
    """Ground truth satisfying X_{k+1} = X_k * exp(dt * twist_k) exactly,
    composed segment by segment from ``spec.segments(dt)``.

    Returns (trajectory, twists) for n steps in all: the n + 1 poses at
    t = k * dt and the (n, 6) body twists, twist k applied over
    [k * dt, (k + 1) * dt].
    """
    pose, segments = spec.segments(dt)
    twists = np.repeat([twist for twist, _ in segments], [steps for _, steps in segments], axis=0).reshape(-1, 6)
    r, p = np.empty((len(twists) + 1, 3, 3)), np.empty((len(twists) + 1, 3))
    r[0], p[0], start = pose.rotation, pose.translation, 0
    for twist, steps in segments:
        step = exp_se3(dt * twist)
        for k in range(start, start + steps):
            r[k + 1], p[k + 1] = Pose(r[k], p[k]) @ step
        start += steps
    return Trajectory(np.arange(len(r)) * dt, r, p), twists


def _cov_sqrt(cov):
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs.dot(np.diag(np.sqrt(vals))).dot(vecs.T)


def odometry_noise_sqrt(noise: NoiseConfig):
    """(gyro, velocity) covariance square roots that scale the odometry noise draws."""
    return _cov_sqrt(noise.gyro_cov), _cov_sqrt(noise.velocity_cov)


def sample_odometry(twist, noise_sqrt, rng):
    """(omega, mu) with additive Gaussian noise on the true body twist; exact
    when covariances are zero.

    ``noise_sqrt`` is ``odometry_noise_sqrt(noise)`` of the process noise.
    """
    twist = np.asarray(twist, dtype=float)
    gyro_sqrt, velocity_sqrt = noise_sqrt
    nu_omega = gyro_sqrt.dot(rng.standard_normal(3))
    nu_mu = velocity_sqrt.dot(rng.standard_normal(3))
    return twist[:3] + nu_omega, twist[3:] + nu_mu


def render_scan(world: WorldModel, true_pose: Pose, rates: SensorRates, rng):
    """Body-frame scan, as an (m, 3) array, of the world points within range
    and horizontal fov.

    Points keep world index order; each is perturbed by isotropic Gaussian
    noise of cloud_sigma. Returns None when nothing is visible.
    """
    body = true_pose.inverse().apply(world.points)
    visible = np.linalg.norm(body, axis=1) <= rates.range_max
    if rates.fov < 2.0 * np.pi:
        bearing = np.abs(np.arctan2(body[:, 1], body[:, 0]))
        visible &= bearing <= rates.fov / 2.0
    body = body[visible]
    if body.shape[0] == 0:
        return None
    if rates.cloud_sigma > 0:
        body = body + rates.cloud_sigma * rng.standard_normal(body.shape)
    return body


@dataclass
class ScenarioLog:
    """Immutable record of one simulated run; replay-deterministic per seed."""

    ground_truth: Trajectory
    odometry: Odometry
    scans: Scans
    seed: int
    meta: dict = field(default_factory=dict)


def run_scenario(
    world: WorldModel,
    spec: TrajectorySpec,
    rates: SensorRates,
    noise: NoiseConfig,
    seed: int,
) -> ScenarioLog:
    """Generate ground truth at the odometry rate, noisy odometry for every
    interval, and scans every odometry_hz/scan_hz steps starting at t = 0."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / rates.odometry_hz
    truth, twists = generate_trajectory(spec, dt)
    n = len(twists)
    if not n:
        raise ConfigError(f"scenario duration holds no odometry step of {dt:g} s")
    stride = rates.scan_stride()
    noise_sqrt = odometry_noise_sqrt(noise)
    odometry = Odometry(truth.t[:n], np.empty((n, 3)), np.empty((n, 3)))
    scan_t, scan_points = [], []
    for k in range(n):
        odometry.omega[k], odometry.mu[k] = sample_odometry(twists[k], noise_sqrt, rng)
        if k % stride == 0:
            scan = render_scan(world, Pose(truth.rotations[k], truth.translations[k]), rates, rng)
            if scan is not None:
                scan_t.append(k * dt)
                scan_points.append(scan)
    meta = {
        "seed": str(seed),
        "odometry_hz": repr(float(rates.odometry_hz)),
        "scan_hz": repr(float(rates.scan_hz)),
        "cloud_sigma": repr(float(rates.cloud_sigma)),
        "range_max": repr(float(rates.range_max)),
        "fov": repr(float(rates.fov)),
        "gyro_cov_diag": " ".join(repr(float(v)) for v in np.diag(noise.gyro_cov)),
        "velocity_cov_diag": " ".join(repr(float(v)) for v in np.diag(noise.velocity_cov)),
        "world_points": str(world.points.shape[0]),
        "world_hash": world.digest(),
        "scenario_kind": spec.kind,
    }
    scans = Scans(np.array(scan_t, dtype=float), scan_points)
    return ScenarioLog(ground_truth=truth, odometry=odometry, scans=scans, seed=seed, meta=meta)
