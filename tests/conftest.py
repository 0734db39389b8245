import numpy as np
import pytest

from iekf_slam.se3 import Pose, hat
from iekf_slam.simulator import Odometry


def series_exp(twist, terms=20):
    """Truncated matrix-power series oracle for the se(3) exponential."""
    xi = hat(twist)
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms + 1):
        term = term @ xi / k
        out = out + term
    return Pose(out[:3, :3], out[:3, 3])


def random_twist(rng, rot_scale=1.0, trans_scale=1.0):
    return np.concatenate(
        [rot_scale * rng.uniform(-1, 1, 3), trans_scale * rng.uniform(-1, 1, 3)]
    )


def random_pose(rng, rot_scale=1.0, trans_scale=1.0):
    from iekf_slam.se3 import exp_se3

    return exp_se3(random_twist(rng, rot_scale, trans_scale))


def odometry_columns(times, omega, mu):
    """Odometry columns of samples at ``times``; ``omega`` and ``mu`` are each
    one (3,) velocity for every sample or an (n, 3) array."""
    t = np.array(times, dtype=float)
    n = len(t)
    return Odometry(t, np.broadcast_to(omega, (n, 3)).astype(float), np.broadcast_to(mu, (n, 3)).astype(float))


def rot_z(psi):
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Waypoint paths as (waypoints, explicit duration or None), at speed 0.5:
# U-turns, a reversal, a repeated point, a zero-length first leg, a first leg
# along +y, and a U-turn cut short mid-turn or held beyond its end.
WAYPOINT_GRID = {
    "u-turn": (((2.0, 0.0), (0.0, 0.0)), None),
    "there-and-back": (((1.0, 0.0), (0.0, 0.0), (1.0, 0.0)), None),
    "repeated-point": (((1.0, 0.0), (1.0, 0.0), (2.0, 0.0)), None),
    "zero-first-leg": (((0.0, 0.0), (1.0, 0.0)), None),
    "y-first": (((0.0, 1.0), (1.0, 1.0)), None),
    "u-turn-cut-short": (((2.0, 0.0), (0.0, 0.0)), 6.0),
    "u-turn-held": (((2.0, 0.0), (0.0, 0.0)), 16.0),
}
