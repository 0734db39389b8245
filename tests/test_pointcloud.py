"""A point cloud is an (N, 3) array of points; ``Pose.apply`` moves it
between frames, as the matcher places a scan in the ground frame at its pose."""

import numpy as np

from conftest import random_pose
from iekf_slam.logio import load_xyz, save_xyz
from iekf_slam.se3 import Pose


def test_identity_transform_keeps_points(rng):
    points = rng.standard_normal((20, 3))
    assert np.array_equal(Pose.identity().apply(points), points)


def test_transform_round_trip(rng):
    points = rng.standard_normal((50, 3))
    pose = random_pose(rng)
    back = pose.inverse().apply(pose.apply(points))
    assert np.allclose(back, points, atol=1e-12)


def test_transform_composes(rng):
    points = rng.standard_normal((30, 3))
    x1, x2 = random_pose(rng), random_pose(rng)
    a = x2.apply(x1.apply(points))
    b = (x2 @ x1).apply(points)
    assert np.allclose(a, b, atol=1e-12)


def test_known_rotation():
    points = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    psi = np.pi / 2
    pose = Pose(
        np.array([[np.cos(psi), -np.sin(psi), 0], [np.sin(psi), np.cos(psi), 0], [0, 0, 1.0]]),
        np.zeros(3),
    )
    out = pose.apply(points)
    assert np.allclose(out, [[0, 1, 0], [-1, 0, 0]], atol=1e-12)


def test_xyz_round_trip(tmp_path, rng):
    points = rng.standard_normal((25, 3))
    path = tmp_path / "cloud.xyz"
    save_xyz(points, path)
    assert np.array_equal(load_xyz(path), points)
