"""Flat `key = value` run configuration with dotted section keys.

Lines are `key = value`, `#` starts a comment, blank lines are ignored.
``KEYS`` maps every accepted key to the converter for its text, and each
value is converted as it is read: an unknown key or a value that does not
convert is refused at ``path:line``, whether or not the command reads it.

Defaults live only in the objects the sections build (``TrajectorySpec``,
``SensorRates``, ``IcpConfig``, ``NoiseConfig.from_sigmas``,
``corridor_world`` and ``FilterState.initial``): each ``make_*`` passes only
the keys the config sets. The objects check their own ranges; a value they
refuse becomes a ConfigError naming the keys of its section.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, CorruptedPoseError
from .icp import IcpConfig
from .iekf import FilterState, NoiseConfig
from .se3 import Pose, renormalize
from .simulator import SensorRates, TrajectorySpec, WorldModel, corridor_world, default_world


def _waypoints(text):
    """``x y; x y; ...`` as a tuple of coordinate tuples."""
    return tuple(tuple(float(v) for v in part.split()) for part in text.split(";") if part.strip())


def seed(text):
    """A seed for numpy's generator, which takes only a non-negative integer."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


def finite(text):
    """A float that is neither infinite nor NaN."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    return value


def pose_row(text):
    """A pose as 12 finite numbers, row-major R then p, whose R is within
    ``renormalize``'s tolerance of a rotation. The pose keeps the given bits."""
    pose = Pose.from_row([finite(v) for v in text.split()])
    try:
        renormalize(pose)
    except CorruptedPoseError as exc:
        raise ValueError(str(exc)) from exc
    return pose


def non_negative(text):
    """A float that is >= 0 (inf included) and not NaN."""
    value = float(text)
    if not value >= 0:  # False for NaN too
        raise ValueError(f"value must be >= 0, got {value}")
    return value


# Every float key is finite but three, where inf means "no limit" and the
# settings objects refuse NaN.
KEYS = {
    "seed": seed,
    "mode": str,
    "scenario.kind": str,
    "scenario.speed": finite,
    "scenario.duration": finite,
    "scenario.length": finite,
    "scenario.radius": finite,
    "scenario.turns": finite,
    "scenario.veer_rate": finite,
    "scenario.waypoints": _waypoints,
    "world.kind": str,
    "world.corridor_spacing": finite,
    "world.corridor_half_width": finite,
    "world.corridor_length": finite,
    "world.corridor_height": finite,
    "rates.odometry_hz": finite,
    "rates.scan_hz": finite,
    "rates.cloud_sigma": finite,
    "rates.range_max": float,
    "rates.fov": float,
    "noise.gyro_sigma": finite,
    "noise.velocity_sigma": finite,
    "filter.init_x": finite,
    "filter.init_y": finite,
    "filter.init_heading_deg": finite,
    "filter.p0_rot": finite,
    "filter.p0_pos": finite,
    "icp.max_iterations": int,
    "icp.convergence_tol": finite,
    "icp.max_correspondence_dist": float,
    "icp.min_points": int,
    "icp.sigma": finite,
}


def parse_config(path) -> dict:
    """The config file at ``path`` as a dict of converted values."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def _section(cfg, prefix):
    """The keys of ``cfg`` under ``prefix``, named by the rest of the key."""
    return {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}


def _build(cfg, prefix, factory, **kwargs):
    """``factory(**kwargs)``; a value it refuses becomes a ConfigError that
    names the keys ``cfg`` sets under ``prefix``."""
    try:
        return factory(**kwargs)
    except (ConfigError, ValueError) as exc:
        given = ", ".join(f"{key} = {value!r}" for key, value in cfg.items() if key.startswith(prefix))
        raise ConfigError(f"{given or prefix + '*'}: {exc}") from exc


def make_world(cfg) -> WorldModel:
    kind = cfg.get("world.kind", "default")
    if kind == "default":
        return default_world()
    if kind == "corridor":
        return _build(cfg, "world.", corridor_world, **_section(cfg, "world.corridor_"))
    raise ConfigError(f"unknown world.kind {kind!r}")


def make_spec(cfg) -> TrajectorySpec:
    return _build(cfg, "scenario.", TrajectorySpec, **_section(cfg, "scenario."))


def make_rates(cfg) -> SensorRates:
    return _build(cfg, "rates.", SensorRates, **_section(cfg, "rates."))


def make_noise(cfg) -> NoiseConfig:
    return _build(cfg, "noise.", NoiseConfig.from_sigmas, **_section(cfg, "noise."))


def make_icp_config(cfg, sigma=None, cloud_sigma=0.0) -> IcpConfig:
    """IcpConfig from the icp.* keys. Its point noise is, in order: an
    explicit ``sigma``, icp.sigma, a log's ``cloud_sigma`` when positive (a
    noise-free log still needs nominal noise), then IcpConfig's default."""
    settings = _section(cfg, "icp.")
    if sigma is not None:
        settings["sigma"] = sigma
    elif "sigma" not in settings and cloud_sigma > 0:
        settings["sigma"] = cloud_sigma
    return _build(cfg, "icp.", IcpConfig, **settings)


def make_initial_state(cfg) -> FilterState:
    psi = np.radians(cfg.get("filter.init_heading_deg", 0.0))
    c, s = np.cos(psi), np.sin(psi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pose = Pose(rot, np.array([cfg.get("filter.init_x", 0.0), cfg.get("filter.init_y", 0.0), 0.0]))
    # filter.p0_rot and filter.p0_pos set rot_var and pos_var.
    variances = {f"{name}_var": value for name, value in _section(cfg, "filter.p0_").items()}
    return _build(cfg, "filter.p0_", FilterState.initial, pose=pose, **variances)
