import numpy as np
import pytest

from conftest import random_twist
from iekf_slam.errors import DegenerateGeometryError, EmptyCloudError, NoOverlapError
from iekf_slam.icp import (
    MAX_CONDITION,
    IcpConfig,
    icp_align,
    icp_covariance,
    ill_conditioned,
    information_matrix,
    nearest_neighbor,
    solve_linear_alignment,
)
from iekf_slam.pointcloud import BODY, GROUND, PointCloud
from iekf_slam.se3 import exp_se3, skew


def block_matrix(a):
    """3x6 per-point block [S(a)  -I3], assembled literally."""
    return np.hstack([skew(a), -np.eye(3)])


def random_cloud(rng, n=50, scale=2.0):
    return PointCloud(scale * rng.uniform(-1, 1, (n, 3)), BODY)


class TestNearestNeighbor:
    def test_exact_hit(self, rng):
        cloud = random_cloud(rng)
        idx, dist = nearest_neighbor(cloud.points[7], cloud)
        assert idx == 7
        assert dist == 0.0

    def test_tie_lowest_index(self):
        cloud = PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        idx, _ = nearest_neighbor(np.zeros(3), cloud)
        assert idx == 0

    def test_matches_exhaustive_scan(self, rng):
        cloud = random_cloud(rng, n=1000, scale=5.0)
        for _ in range(100):
            q = rng.uniform(-5, 5, 3)
            idx, dist = nearest_neighbor(q, cloud)
            d = np.linalg.norm(cloud.points - q, axis=1)
            assert idx == int(np.argmin(d))
            assert dist == pytest.approx(d.min(), abs=1e-12)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloudError):
            nearest_neighbor(np.zeros(3), PointCloud(np.zeros((0, 3))))


class TestLinearAlignment:
    def test_zero_residuals_give_zero(self, rng):
        pts = random_cloud(rng, n=20).points
        x, _ = solve_linear_alignment(pts, np.zeros((20, 3)))
        assert np.allclose(x, 0, atol=1e-14)

    def test_recovers_forward_generated_twist(self, rng):
        pts = random_cloud(rng, n=30).points
        x_true = random_twist(rng, 0.5, 0.5)
        residuals = np.array([block_matrix(a) @ x_true for a in pts])
        x, info = solve_linear_alignment(pts, residuals)
        assert np.linalg.norm(x - x_true) < 1e-9
        explicit = sum(block_matrix(a).T @ block_matrix(a) for a in pts)
        assert np.allclose(info, explicit, atol=1e-9)

    def test_single_point_at_origin_singular(self):
        with pytest.raises(DegenerateGeometryError):
            solve_linear_alignment(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateGeometryError):
            solve_linear_alignment(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_collinear_cloud_rejected(self):
        pts = np.outer(np.linspace(0, 1, 12), [1.0, 0, 0])
        with pytest.raises(DegenerateGeometryError):
            solve_linear_alignment(pts, np.zeros((12, 3)))


class TestIllConditioned:
    """The eigenvalue test agrees with np.linalg.cond away from the threshold."""

    @staticmethod
    def assert_agrees(info):
        assert ill_conditioned(info) == (np.linalg.cond(info) > MAX_CONDITION)

    def test_collinear_fixtures(self):
        for pts in (
            np.outer(np.linspace(0, 1, 12), [1.0, 0, 0]),
            np.outer(np.linspace(0, 1, 15), [0, 1.0, 0]),
            np.zeros((3, 3)),
        ):
            info = information_matrix(pts)
            assert ill_conditioned(info)
            self.assert_agrees(info)

    def test_planar_and_random_fixtures(self, rng):
        planar = np.column_stack([rng.uniform(-2, 2, (40, 2)), np.zeros(40)])
        tetrahedron = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        for pts in (planar, tetrahedron, random_cloud(rng).points, random_cloud(rng, n=3).points):
            info = information_matrix(pts)
            assert not ill_conditioned(info)
            self.assert_agrees(info)

    def test_random_information_matrices(self, rng):
        for _ in range(500):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            log_cond = rng.choice([rng.uniform(0, 7.5), rng.uniform(8.5, 14)])
            lam = np.sort(10.0 ** rng.uniform(0, log_cond, 6))
            lam[0], lam[-1] = 1.0, 10.0**log_cond
            info = rng.uniform(1e-3, 1e3) * (q * lam) @ q.T
            info = (info + info.T) / 2.0
            self.assert_agrees(info)

    def test_indefinite_and_nan_count_as_ill_conditioned(self):
        assert ill_conditioned(np.diag([-1.0, 1, 1, 1, 1, 1]))
        assert ill_conditioned(np.zeros((6, 6)))
        assert ill_conditioned(np.full((6, 6), np.nan))
        one_nan = np.eye(6)
        one_nan[0, 0] = np.nan
        assert ill_conditioned(one_nan)


class TestIcpAlign:
    def test_self_alignment_identity_one_iteration(self, rng):
        cloud = random_cloud(rng)
        result = icp_align(cloud, cloud)
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.delta_pose.matrix(), np.eye(4), atol=1e-12)

    def test_recovers_known_transform(self, rng):
        cloud = random_cloud(rng, n=60)
        delta = exp_se3(np.array([0.05, -0.08, np.radians(10), 0.2, -0.1, 0.05]))
        target = PointCloud(delta.apply(cloud.points), BODY)
        cfg = IcpConfig(max_iterations=100, convergence_tol=1e-10, max_correspondence_dist=np.inf)
        result = icp_align(cloud, target, cfg)
        assert result.converged
        assert np.max(np.abs(result.delta_pose.matrix() - delta.matrix())) < 1e-6

    def test_cost_history_non_increasing(self, rng):
        for _ in range(20):
            cloud = random_cloud(rng, n=40)
            delta = exp_se3(random_twist(rng, 0.1, 0.1))
            noisy = delta.apply(cloud.points) + 0.01 * rng.standard_normal((40, 3))
            result = icp_align(cloud, PointCloud(noisy, BODY), IcpConfig(max_correspondence_dist=np.inf))
            costs = result.cost_history
            assert all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_no_overlap(self, rng):
        cloud = random_cloud(rng, n=20, scale=0.5)
        far = PointCloud(cloud.points + 100.0, BODY)
        with pytest.raises(NoOverlapError):
            icp_align(cloud, far)

    def test_frame_mismatch(self, rng):
        a = random_cloud(rng)
        b = PointCloud(a.points, GROUND)
        with pytest.raises(ValueError):
            icp_align(a, b)

    def test_min_points(self, rng):
        small = PointCloud(rng.standard_normal((5, 3)), BODY)
        with pytest.raises(DegenerateGeometryError):
            icp_align(small, small)


class TestCovariance:
    def test_sigma_scaling(self, rng):
        cloud = random_cloud(rng)
        c1 = icp_covariance(cloud, 0.05)
        c2 = icp_covariance(cloud, 0.10)
        assert np.allclose(c2, 4.0 * c1, atol=1e-15)

    def test_tetrahedron_matches_hand_assembled_oracle(self):
        pts = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / np.sqrt(3)
        cloud = PointCloud(pts, BODY)
        sigma = 0.05
        oracle_info = sum(block_matrix(a).T @ block_matrix(a) for a in pts)
        oracle = len(pts) * sigma**2 * np.linalg.inv(oracle_info)
        assert np.allclose(icp_covariance(cloud, sigma), oracle, atol=1e-12)

    def test_symmetric_psd(self, rng):
        cloud = random_cloud(rng)
        c = icp_covariance(cloud, 0.05)
        assert np.max(np.abs(c - c.T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-9

    def test_rescaled_is_n_times_unscaled(self, rng):
        cloud = random_cloud(rng, n=37)
        scaled = icp_covariance(cloud, 0.05, rescale=True)
        unscaled = icp_covariance(cloud, 0.05, rescale=False)
        assert np.allclose(scaled, 37 * unscaled, rtol=1e-14)

    def test_equals_inverse_of_alignment_information(self, rng):
        cloud = random_cloud(rng, n=25)
        _, info = solve_linear_alignment(cloud.points, np.zeros_like(cloud.points))
        sigma = 0.03
        expected = len(cloud) * sigma**2 * np.linalg.inv(info)
        assert np.allclose(icp_covariance(cloud, sigma), expected, atol=1e-14)

    def test_degenerate_rejected(self):
        pts = np.outer(np.linspace(0, 1, 15), [0, 1.0, 0])
        with pytest.raises(DegenerateGeometryError):
            icp_covariance(PointCloud(pts, BODY), 0.05)

    def test_monte_carlo_oracle(self, rng):
        # Empirical covariance of the single-shot estimator over noisy replicas
        # matches sigma^2 [sum B^T B]^-1; the rescaled output is exactly N times it.
        cloud = random_cloud(rng, n=20)
        sigma = 0.05
        info = information_matrix(cloud.points)
        analytic = sigma**2 * np.linalg.inv(info)
        estimates = np.empty((5000, 6))
        for k in range(5000):
            noise = sigma * rng.standard_normal((20, 3))
            estimates[k], _ = solve_linear_alignment(cloud.points, noise)
        empirical = np.cov(estimates.T)
        scale = np.sqrt(np.outer(np.diag(analytic), np.diag(analytic)))
        well_conditioned = np.abs(analytic) > 0.1 * scale
        ratio = empirical[well_conditioned] / analytic[well_conditioned]
        assert np.all(np.abs(ratio - 1.0) < 0.2)
        assert np.allclose(icp_covariance(cloud, sigma), 20 * analytic, rtol=1e-12)
