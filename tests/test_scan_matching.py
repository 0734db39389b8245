from dataclasses import replace

import numpy as np
import pytest

from conftest import rot_z
from iekf_slam.icp import IcpConfig, icp_covariance
from iekf_slam.pointcloud import BODY, GROUND, PointCloud
from iekf_slam.scan_matching import AIDED, NAIVE, MatcherState, aided_step, naive_step
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


class TestNaive:
    def test_first_call_returns_initial_pose(self, rng):
        state = MatcherState(mode=NAIVE)
        cloud = PointCloud(landmark_points(rng), BODY)
        pose = naive_step(state, cloud, CFG)
        assert pose.is_close(Pose.identity(), tol=0)
        assert state.reference_cloud is cloud

    def test_identical_clouds_leave_pose_unchanged(self, rng):
        # the unobservability failure: no apparent motion, no update
        state = MatcherState(mode=NAIVE)
        cloud = PointCloud(landmark_points(rng), BODY)
        naive_step(state, cloud, CFG)
        pose = naive_step(state, cloud, CFG)
        assert pose.is_close(Pose.identity(), tol=1e-12)

    def test_translation_recovered(self, rng):
        landmarks = landmark_points(rng)
        state = MatcherState(mode=NAIVE)
        naive_step(state, scan_at(landmarks, Pose.identity()), CFG)
        moved = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        pose = naive_step(state, scan_at(landmarks, moved), CFG)
        assert np.allclose(pose.translation, [0.1, 0, 0], atol=1e-6)

    def test_mode_enforced(self, rng):
        state = MatcherState(mode=AIDED)
        with pytest.raises(ValueError):
            naive_step(state, PointCloud(landmark_points(rng), BODY), CFG)


class TestAided:
    def test_first_scan_initializes(self, rng):
        state = MatcherState(mode=AIDED)
        cloud = PointCloud(landmark_points(rng), BODY)
        assert aided_step(state, Pose.identity(), cloud, CFG) is None
        assert state.reference_cloud.frame == GROUND

    def test_perfect_odometry_gives_predicted_pose(self, rng):
        landmarks = landmark_points(rng)
        state = MatcherState(mode=AIDED)
        aided_step(state, Pose.identity(), scan_at(landmarks, Pose.identity()), CFG)
        truth = Pose(rot_z(0.1), np.array([0.2, 0.05, 0.0]))
        meas = aided_step(state, truth, scan_at(landmarks, truth), CFG)
        assert meas.measured_pose.is_close(truth, tol=1e-6)
        # internal ICP correction is near identity
        assert (truth.inverse() @ meas.measured_pose).is_close(Pose.identity(), tol=1e-6)

    def test_biased_odometry_corrected(self, rng):
        landmarks = landmark_points(rng)
        state = MatcherState(mode=AIDED)
        aided_step(state, Pose.identity(), scan_at(landmarks, Pose.identity()), CFG)
        truth = Pose(rot_z(0.05), np.array([0.25, 0.0, 0.0]))
        biased = truth @ exp_se3(np.array([0, 0, 0.01, 0.02, -0.01, 0.0]))
        meas = aided_step(state, biased, scan_at(landmarks, truth), CFG)
        assert meas.measured_pose.is_close(truth, tol=1e-6)

    def test_featureless_scene_still_advances(self, rng):
        # identical scans; the measured pose follows the odometry prediction
        lattice = np.array([[i * 0.5, y, z] for i in range(-8, 9) for y in (-1.0, 1.0) for z in (0.0, 0.4)])
        cloud = PointCloud(lattice, BODY)
        state = MatcherState(mode=AIDED)
        aided_step(state, Pose.identity(), cloud, LATTICE_CFG)
        predicted = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))  # one lattice period
        meas = aided_step(state, predicted, cloud, LATTICE_CFG)
        assert meas.measured_pose.is_close(predicted, tol=1e-6)
        assert np.linalg.norm(meas.measured_pose.translation) > 0.49

    def test_covariance_is_body_cloud_covariance(self, rng):
        landmarks = landmark_points(rng)
        state = MatcherState(mode=AIDED)
        aided_step(state, Pose.identity(), scan_at(landmarks, Pose.identity()), CFG)
        truth = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        scan = scan_at(landmarks, truth)
        meas = aided_step(state, truth, scan, CFG)
        assert np.allclose(meas.covariance, icp_covariance(scan, 0.05), atol=1e-15)

    def test_covariance_uses_the_callers_sigma(self, rng):
        landmarks = landmark_points(rng)
        state = MatcherState(mode=AIDED)
        cfg = replace(CFG, sigma=0.2)
        aided_step(state, Pose.identity(), scan_at(landmarks, Pose.identity()), cfg)
        truth = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        scan = scan_at(landmarks, truth)
        meas = aided_step(state, truth, scan, cfg)
        assert CFG.sigma != 0.2
        assert np.array_equal(meas.covariance, icp_covariance(scan, 0.2))

    def test_naive_and_aided_differ_by_odometry_increment(self, rng):
        # same identical-cloud stream: naive holds, aided follows the prediction
        lattice = np.array([[i * 0.5, y, z] for i in range(-8, 9) for y in (-1.0, 1.0) for z in (0.0, 0.4)])
        cloud = PointCloud(lattice, BODY)
        naive = MatcherState(mode=NAIVE)
        aided = MatcherState(mode=AIDED)
        naive_step(naive, cloud, LATTICE_CFG)
        aided_step(aided, Pose.identity(), cloud, LATTICE_CFG)
        increment = Pose(np.eye(3), np.array([0.5, 0.0, 0.0]))
        naive_pose = naive_step(naive, cloud, LATTICE_CFG)
        aided_pose = aided_step(aided, increment, cloud, LATTICE_CFG).measured_pose
        assert naive_pose.is_close(Pose.identity(), tol=1e-9)
        assert (naive_pose.inverse() @ aided_pose).is_close(increment, tol=1e-6)
