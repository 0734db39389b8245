import numpy as np
import pytest

from conftest import random_pose
from iekf_slam.errors import ParseError
from iekf_slam.logio import load_xyz, save_xyz
from iekf_slam.pointcloud import BODY, GROUND, PointCloud
from iekf_slam.se3 import Pose


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))


def test_rejects_bad_frame():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((1, 3)), frame="map")


def test_identity_transform_keeps_points(rng):
    cloud = PointCloud(rng.standard_normal((20, 3)), BODY)
    out = cloud.transformed(Pose.identity())
    assert np.array_equal(out.points, cloud.points)
    assert out.frame == GROUND


def test_transform_round_trip(rng):
    cloud = PointCloud(rng.standard_normal((50, 3)), BODY)
    pose = random_pose(rng)
    back = cloud.transformed(pose).transformed(pose.inverse())
    assert np.allclose(back.points, cloud.points, atol=1e-12)
    assert back.frame == BODY


def test_transform_composes(rng):
    cloud = PointCloud(rng.standard_normal((30, 3)), BODY)
    x1, x2 = random_pose(rng), random_pose(rng)
    a = cloud.transformed(x1).transformed(x2, frame=GROUND)
    b = cloud.transformed(x2 @ x1)
    assert np.allclose(a.points, b.points, atol=1e-12)


def test_known_rotation():
    cloud = PointCloud(np.array([[1.0, 0, 0], [0, 1.0, 0]]), BODY)
    psi = np.pi / 2
    pose = Pose(
        np.array([[np.cos(psi), -np.sin(psi), 0], [np.sin(psi), np.cos(psi), 0], [0, 0, 1.0]]),
        np.zeros(3),
    )
    out = pose.apply(cloud.points)
    assert np.allclose(out, [[0, 1, 0], [-1, 0, 0]], atol=1e-12)


def test_xyz_round_trip(tmp_path, rng):
    cloud = PointCloud(rng.standard_normal((25, 3)), BODY, timestamp=1.25)
    path = tmp_path / "cloud.xyz"
    save_xyz(cloud, path)
    loaded = load_xyz(path, BODY, 1.25)
    assert np.array_equal(loaded.points, cloud.points)


def test_xyz_comments_and_blanks(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n1 2 3\n4 5 6  # inline\n")
    cloud = load_xyz(path)
    assert np.array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_xyz_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n1 2\n")
    with pytest.raises(ParseError, match=r"bad\.xyz:2"):
        load_xyz(path)
