import numpy as np
import pytest

from iekf_slam import config
from iekf_slam.cli import main
from iekf_slam.errors import ConfigError
from iekf_slam.icp import IcpConfig
from iekf_slam.iekf import FilterState, NoiseConfig
from iekf_slam.logio import load_log
from iekf_slam.simulator import SensorRates, TrajectorySpec, corridor_world


def parse(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return config.parse_config(str(path))


class TestDefaults:
    """A key left out takes the default its settings object declares."""

    def test_icp(self):
        assert config.make_icp_config({}) == IcpConfig()

    def test_rates(self):
        assert config.make_rates({}) == SensorRates()

    def test_spec(self):
        assert config.make_spec({}) == TrajectorySpec()

    def test_world(self, tmp_path):
        world = config.make_world(parse(tmp_path, "world.kind = corridor\n"))
        assert world.digest() == corridor_world().digest()

    def test_noise(self):
        got, want = config.make_noise({}), NoiseConfig.from_sigmas()
        assert np.array_equal(got.gyro_cov, want.gyro_cov)
        assert np.array_equal(got.velocity_cov, want.velocity_cov)

    def test_initial_state(self):
        got, want = config.make_initial_state({}), FilterState.initial()
        assert np.array_equal(got.pose.rotation, want.pose.rotation)
        assert np.array_equal(got.pose.translation, want.pose.translation)
        assert np.array_equal(got.covariance, want.covariance)
        assert got.timestamp == want.timestamp


# key, text, the object field it must reach, the value expected there.
FIELDS = [
    ("scenario.kind", "circle", lambda c: config.make_spec(c).kind, "circle"),
    ("scenario.speed", "0.4", lambda c: config.make_spec(c).speed, 0.4),
    ("scenario.duration", "3.5", lambda c: config.make_spec(c).duration, 3.5),
    ("scenario.length", "6", lambda c: config.make_spec(c).length, 6.0),
    ("scenario.radius", "2.5", lambda c: config.make_spec(c).radius, 2.5),
    ("scenario.turns", "1.5", lambda c: config.make_spec(c).turns, 1.5),
    ("scenario.veer_rate", "0.01", lambda c: config.make_spec(c).veer_rate, 0.01),
    (
        "scenario.waypoints",
        "0 1; 1 1",
        lambda c: config.make_spec(c).waypoints,
        ((0.0, 1.0), (1.0, 1.0)),
    ),
    # The corridor's settings, read back from its points: the wall count from
    # the distinct y values, the spacing from the x steps, the rest from the extremes.
    ("world.kind", "corridor", lambda c: len(np.unique(config.make_world(c).points[:, 1])), 2),
    ("world.corridor_spacing", "0.1", lambda c: float(np.diff(np.unique(config.make_world(c).points[:, 0]))[0]), 0.1),
    ("world.corridor_half_width", "1.5", lambda c: float(config.make_world(c).points[:, 1].min()), -1.5),
    ("world.corridor_length", "20", lambda c: float(config.make_world(c).points[:, 0].max()), 15.0),
    ("world.corridor_height", "0.6", lambda c: float(config.make_world(c).points[:, 2].max()), 0.6),
    ("rates.odometry_hz", "100", lambda c: config.make_rates(c).odometry_hz, 100.0),
    ("rates.scan_hz", "10", lambda c: config.make_rates(c).scan_hz, 10.0),
    ("rates.cloud_sigma", "0.02", lambda c: config.make_rates(c).cloud_sigma, 0.02),
    ("rates.range_max", "6", lambda c: config.make_rates(c).range_max, 6.0),
    ("rates.fov", "1.5", lambda c: config.make_rates(c).fov, 1.5),
    ("noise.gyro_sigma", "0.03", lambda c: float(config.make_noise(c).gyro_cov[0, 0]), 0.03**2),
    ("noise.velocity_sigma", "0.04", lambda c: float(config.make_noise(c).velocity_cov[2, 2]), 0.04**2),
    ("filter.init_x", "1.25", lambda c: float(config.make_initial_state(c).pose.translation[0]), 1.25),
    ("filter.init_y", "-2", lambda c: float(config.make_initial_state(c).pose.translation[1]), -2.0),
    (
        "filter.init_heading_deg",
        "90",
        lambda c: float(np.degrees(np.arctan2(config.make_initial_state(c).pose.rotation[1, 0], config.make_initial_state(c).pose.rotation[0, 0]))),
        90.0,
    ),
    ("filter.p0_rot", "0.5", lambda c: float(config.make_initial_state(c).covariance[0, 0]), 0.5),
    ("filter.p0_pos", "0.25", lambda c: float(config.make_initial_state(c).covariance[5, 5]), 0.25),
    ("icp.max_iterations", "7", lambda c: config.make_icp_config(c).max_iterations, 7),
    ("icp.convergence_tol", "1e-8", lambda c: config.make_icp_config(c).convergence_tol, 1e-8),
    (
        "icp.max_correspondence_dist",
        "0.25",
        lambda c: config.make_icp_config(c).max_correspondence_dist,
        0.25,
    ),
    ("icp.min_points", "4", lambda c: config.make_icp_config(c).min_points, 4),
    ("icp.sigma", "0.2", lambda c: config.make_icp_config(c).sigma, 0.2),
]


class TestEveryKeyReachesItsField:
    @pytest.mark.parametrize("key,text,field,expected", FIELDS, ids=[f[0] for f in FIELDS])
    def test_key(self, tmp_path, key, text, field, expected):
        lines = f"{key} = {text}\n"
        if key.startswith("world.corridor_"):
            lines += "world.kind = corridor\n"
        got = field(parse(tmp_path, lines))
        assert type(got) is type(expected)
        if isinstance(expected, float):
            assert got == pytest.approx(expected, rel=1e-12)
        else:
            assert got == expected

    def test_seed_and_mode_reach_the_cli(self, tmp_path, capsys):
        # `seed` and `mode` are read by the commands themselves.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario.duration = 0.5\nseed = 7\nmode = dead-reckoning\n")
        log_dir = str(tmp_path / "log")
        assert main(["simulate", "--config", str(cfg), "--out", log_dir]) == 0
        assert load_log(log_dir).seed == 7
        assert main(["run", log_dir, "--config", str(cfg)]) == 0
        assert "(dead-reckoning)" in capsys.readouterr().out


class TestBadValues:
    @pytest.mark.parametrize(
        "text",
        ["icp.max_iterations = 2.5", "rates.fov = wide", "seed = x", "seed = -3", "scenario.waypoints = 0 a"],
    )
    def test_reported_at_path_and_line(self, tmp_path, text):
        # Even for a key the command does not read, a value that does not
        # convert is refused where it is written.
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\n{text}\n")
        with pytest.raises(ConfigError) as exc:
            config.parse_config(str(path))
        message = str(exc.value)
        assert f"{path}:2:" in message
        assert text.split(" =")[0] in message


class TestPoseRow:
    def test_keeps_the_given_bits(self):
        # 4e-4 (Frobenius) off the identity: inside renormalize's tolerance,
        # and checked, not snapped
        values = [1.0004, 0.0, -0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.1, -0.2, 1e-300]
        pose = config.pose_row(" ".join(map(repr, values)))
        assert pose.to_row().tolist() == values
        assert np.signbit(pose.rotation[0, 2])
