from dataclasses import replace

import numpy as np
import pytest

from conftest import odometry_columns, rot_z
from iekf_slam.icp import IcpConfig, icp_covariance
from iekf_slam.pipeline import run_aided_matcher, run_naive_matcher
from iekf_slam.pointcloud import BODY, PointCloud
from iekf_slam.scan_matching import aided_step, naive_step
from iekf_slam.se3 import Pose, exp_se3


def landmark_points(rng, n=40, scale=4.0):
    pts = scale * rng.uniform(-1, 1, (n, 3))
    pts[:, 2] = rng.uniform(0.2, 1.5, n)
    return pts


def scan_at(landmarks, pose, t=0.0):
    return PointCloud(pose.inverse().apply(landmarks), BODY, t)


CFG = IcpConfig(max_correspondence_dist=np.inf, convergence_tol=1e-10, max_iterations=100)
# for finite periodic lattices: reject pairs across the 0.5 m period so the
# trailing edge column cannot drag the fit
LATTICE_CFG = IcpConfig(max_correspondence_dist=0.3, convergence_tol=1e-10, max_iterations=100)
START = Pose(np.eye(3), np.array([1.0, -2.0, 0.0]))


def one_scan_log(rng):
    """Ten odometry samples 0.125 s apart and one scan at the fifth one's time (row 5)."""
    odometry = odometry_columns([0.125 * k for k in range(10)], [0.0, 0.0, 0.3], [0.25, 0.0, 0.0])
    return odometry, [scan_at(landmark_points(rng), Pose.identity(), t=0.5)]


def assert_columns_equal(got, want):
    """Two sets of (t, R, p) matcher columns, value for value."""
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


class TestNaive:
    def test_first_call_returns_initial_pose(self, rng):
        # the first scan only becomes the reference: nothing is matched and
        # the naive loop holds the initial pose
        odometry, scans = one_scan_log(rng)
        (t, R, p), matched = run_naive_matcher(odometry, scans, CFG, START)
        assert matched == 0
        assert len(t) == 11
        assert np.array_equal(R, np.broadcast_to(START.rotation, R.shape))
        assert np.array_equal(p, np.broadcast_to(START.translation, p.shape))

    def test_identical_clouds_leave_pose_unchanged(self, rng):
        # the unobservability failure: no apparent motion, no update
        cloud = PointCloud(landmark_points(rng), BODY)
        delta = naive_step(cloud, cloud, CFG)
        assert delta.is_close(Pose.identity(), tol=1e-12)

    def test_translation_recovered(self, rng):
        landmarks = landmark_points(rng)
        moved = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        delta = naive_step(scan_at(landmarks, Pose.identity()), scan_at(landmarks, moved), CFG)
        assert np.allclose(delta.translation, [0.1, 0, 0], atol=1e-6)


def ground_reference(landmarks):
    """The first scan of ``landmarks``, taken at the identity and placed in the ground frame."""
    return scan_at(landmarks, Pose.identity()).transformed(Pose.identity())


class TestAided:
    def test_first_scan_initializes(self, rng):
        # the first scan only becomes the reference: no measurement, and the
        # rows are dead reckoning's plus the scan's row at the integrated pose
        odometry, scans = one_scan_log(rng)
        columns, measurements = run_aided_matcher(odometry, scans, CFG, START)
        dead_reckoning, _ = run_aided_matcher(odometry, [], CFG, START)
        assert measurements == []
        assert_columns_equal([np.delete(c, 5, axis=0) for c in columns], dead_reckoning)
        assert_columns_equal([c[5] for c in columns], [c[4] for c in columns])

    def test_perfect_odometry_gives_predicted_pose(self, rng):
        landmarks = landmark_points(rng)
        truth = Pose(rot_z(0.1), np.array([0.2, 0.05, 0.0]))
        meas = aided_step(ground_reference(landmarks), truth, scan_at(landmarks, truth), CFG)
        assert meas.measured_pose.is_close(truth, tol=1e-6)
        # internal ICP correction is near identity
        assert (truth.inverse() @ meas.measured_pose).is_close(Pose.identity(), tol=1e-6)

    def test_biased_odometry_corrected(self, rng):
        landmarks = landmark_points(rng)
        truth = Pose(rot_z(0.05), np.array([0.25, 0.0, 0.0]))
        biased = truth @ exp_se3(np.array([0, 0, 0.01, 0.02, -0.01, 0.0]))
        meas = aided_step(ground_reference(landmarks), biased, scan_at(landmarks, truth), CFG)
        assert meas.measured_pose.is_close(truth, tol=1e-6)

    def test_featureless_scene_still_advances(self, rng):
        # identical scans; the measured pose follows the odometry prediction
        lattice = np.array([[i * 0.5, y, z] for i in range(-8, 9) for y in (-1.0, 1.0) for z in (0.0, 0.4)])
        cloud = PointCloud(lattice, BODY)
        predicted = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))  # one lattice period
        meas = aided_step(cloud.transformed(Pose.identity()), predicted, cloud, LATTICE_CFG)
        assert meas.measured_pose.is_close(predicted, tol=1e-6)
        assert np.linalg.norm(meas.measured_pose.translation) > 0.49

    def test_covariance_is_body_cloud_covariance(self, rng):
        landmarks = landmark_points(rng)
        truth = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        scan = scan_at(landmarks, truth)
        meas = aided_step(ground_reference(landmarks), truth, scan, CFG)
        assert np.allclose(meas.covariance, icp_covariance(scan, 0.05), atol=1e-15)

    def test_covariance_uses_the_callers_sigma(self, rng):
        landmarks = landmark_points(rng)
        cfg = replace(CFG, sigma=0.2)
        truth = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        scan = scan_at(landmarks, truth)
        meas = aided_step(ground_reference(landmarks), truth, scan, cfg)
        assert CFG.sigma != 0.2
        assert np.array_equal(meas.covariance, icp_covariance(scan, 0.2))

    def test_reference_must_be_in_ground_frame(self, rng):
        cloud = PointCloud(landmark_points(rng), BODY)
        with pytest.raises(ValueError, match="ground frame"):
            aided_step(cloud, Pose.identity(), cloud, CFG)

    def test_naive_and_aided_differ_by_odometry_increment(self, rng):
        # same identical-cloud stream: naive holds, aided follows the prediction
        lattice = np.array([[i * 0.5, y, z] for i in range(-8, 9) for y in (-1.0, 1.0) for z in (0.0, 0.4)])
        cloud = PointCloud(lattice, BODY)
        increment = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))
        naive_pose = naive_step(cloud, cloud, LATTICE_CFG)
        aided_pose = aided_step(cloud.transformed(Pose.identity()), increment, cloud, LATTICE_CFG).measured_pose
        assert naive_pose.is_close(Pose.identity(), tol=1e-9)
        assert (naive_pose.inverse() @ aided_pose).is_close(increment, tol=1e-6)
