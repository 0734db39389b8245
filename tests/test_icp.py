import numpy as np
import pytest

from conftest import random_twist
from iekf_slam import kernels
from iekf_slam.errors import DegenerateGeometryError, NoOverlapError, NumericalFailureError
from iekf_slam.icp import (
    MAX_CONDITION,
    IcpConfig,
    IcpResult,
    icp_align,
    icp_covariance,
    ill_conditioned,
    information_matrix,
    solve_linear_alignment,
)
from iekf_slam.se3 import Pose, exp_se3, skew
from iekf_slam.simulator import SensorRates, corridor_world, default_world, render_scan


def block_matrix(a):
    """3x6 per-point block [S(a)  -I3], assembled literally."""
    return np.hstack([skew(a), -np.eye(3)])


def random_cloud(rng, n=50, scale=2.0):
    return scale * rng.uniform(-1, 1, (n, 3))


class TestLinearAlignment:
    def test_zero_residuals_give_zero(self, rng):
        pts = random_cloud(rng, n=20)
        x, _ = solve_linear_alignment(pts, np.zeros((20, 3)))
        assert np.allclose(x, 0, atol=1e-14)

    def test_recovers_forward_generated_twist(self, rng):
        pts = random_cloud(rng, n=30)
        x_true = random_twist(rng, 0.5, 0.5)
        residuals = np.array([block_matrix(a) @ x_true for a in pts])
        x, info = solve_linear_alignment(pts, residuals)
        assert np.linalg.norm(x - x_true) < 1e-9
        explicit = sum(block_matrix(a).T @ block_matrix(a) for a in pts)
        assert np.allclose(info, explicit, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 50, 64, 2050])
    def test_bit_identical_to_np_cross_oracle(self, rng, n):
        # The right-hand side computes the cross products per coordinate;
        # np.cross gives the same bits.
        for _ in range(20):
            points = rng.uniform(-5.0, 5.0, (n, 3))
            residuals = 0.1 * rng.standard_normal((n, 3))
            x_hat, info = solve_linear_alignment(points, residuals)
            rhs = np.concatenate([-np.cross(points, residuals).sum(axis=0), -residuals.sum(axis=0)])
            assert np.array_equal(x_hat, np.linalg.solve(information_matrix(points), rhs))
            assert np.array_equal(info, information_matrix(points))

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
        for pts in (planar, tetrahedron, random_cloud(rng), random_cloud(rng, n=3)):
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
        target = delta.apply(cloud)
        cfg = IcpConfig(max_iterations=100, convergence_tol=1e-10, max_correspondence_dist=np.inf)
        result = icp_align(cloud, target, cfg)
        assert result.converged
        assert np.max(np.abs(result.delta_pose.matrix() - delta.matrix())) < 1e-6

    def test_cost_history_non_increasing(self, rng):
        for _ in range(20):
            cloud = random_cloud(rng, n=40)
            delta = exp_se3(random_twist(rng, 0.1, 0.1))
            noisy = delta.apply(cloud) + 0.01 * rng.standard_normal((40, 3))
            result = icp_align(cloud, noisy, IcpConfig(max_correspondence_dist=np.inf))
            costs = result.cost_history
            assert all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_no_overlap(self, rng):
        cloud = random_cloud(rng, n=20, scale=0.5)
        far = cloud + 100.0
        with pytest.raises(NoOverlapError):
            icp_align(cloud, far)

    def test_rejects_non_finite_source_or_target(self, rng):
        # icp_align is where outside points reach the matcher
        cloud = random_cloud(rng)
        bad = cloud.copy()
        bad[3, 1] = np.nan
        for source, target in ((bad, cloud), (cloud, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                icp_align(source, target)

    def test_min_points(self, rng):
        small = rng.standard_normal((5, 3))
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
        sigma = 0.05
        oracle_info = sum(block_matrix(a).T @ block_matrix(a) for a in pts)
        oracle = len(pts) * sigma**2 * np.linalg.inv(oracle_info)
        assert np.allclose(icp_covariance(pts, sigma), oracle, atol=1e-12)

    def test_symmetric_psd(self, rng):
        cloud = random_cloud(rng)
        c = icp_covariance(cloud, 0.05)
        assert np.max(np.abs(c - c.T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-9

    def test_equals_inverse_of_alignment_information(self, rng):
        cloud = random_cloud(rng, n=25)
        _, info = solve_linear_alignment(cloud, np.zeros_like(cloud))
        sigma = 0.03
        expected = len(cloud) * sigma**2 * np.linalg.inv(info)
        assert np.allclose(icp_covariance(cloud, sigma), expected, atol=1e-14)

    def test_degenerate_rejected(self):
        pts = np.outer(np.linspace(0, 1, 15), [0, 1.0, 0])
        with pytest.raises(DegenerateGeometryError):
            icp_covariance(pts, 0.05)

    def test_monte_carlo_oracle(self, rng):
        # Empirical covariance of the single-shot estimator over noisy replicas
        # matches sigma^2 [sum B^T B]^-1; the rescaled output is exactly N times it.
        cloud = random_cloud(rng, n=20)
        sigma = 0.05
        info = information_matrix(cloud)
        analytic = sigma**2 * np.linalg.inv(info)
        estimates = np.empty((5000, 6))
        for k in range(5000):
            noise = sigma * rng.standard_normal((20, 3))
            estimates[k], _ = solve_linear_alignment(cloud, noise)
        empirical = np.cov(estimates.T)
        scale = np.sqrt(np.outer(np.diag(analytic), np.diag(analytic)))
        well_conditioned = np.abs(analytic) > 0.1 * scale
        ratio = empirical[well_conditioned] / analytic[well_conditioned]
        assert np.all(np.abs(ratio - 1.0) < 0.2)
        assert np.allclose(icp_covariance(cloud, sigma), 20 * analytic, rtol=1e-12)


def reference_icp_align(source, target, cfg):
    """icp_align as it was before it built per-alignment invariants once:
    Pose arithmetic, a plain-array target searched every iteration, and an
    information matrix (and its conditioning check) built by every solve and
    again by the covariance."""
    if len(source) < cfg.min_points or len(target) < cfg.min_points:
        raise DegenerateGeometryError(
            f"clouds need >= {cfg.min_points} points, got {len(source)}/{len(target)}"
        )
    delta = Pose.identity()
    cost_history = []
    iterations = 0
    converged = False
    for _ in range(cfg.max_iterations):
        moved = delta.apply(source)
        idx, dist = kernels.batch_nearest(moved, target, cfg.max_correspondence_dist)
        accepted = idx >= 0
        if not np.any(accepted):
            raise NoOverlapError("all correspondences beyond max_correspondence_dist")
        a = source[accepted]
        b = target[idx[accepted]]
        cost_before = float(np.sum(dist[accepted] ** 2))
        residuals = a - delta.inverse().apply(b)
        x_hat, _ = solve_linear_alignment(a, residuals)
        delta = delta @ exp_se3(x_hat)
        iterations += 1
        cost_after = float(np.sum((delta.apply(a) - b) ** 2))
        if cost_after > cost_before * (1 + 1e-9) + 1e-15:
            raise NumericalFailureError(
                f"ICP cost increased at iteration {iterations}: "
                f"{cost_before:.6e} -> {cost_after:.6e}"
            )
        cost_history.append(cost_after)
        if np.linalg.norm(x_hat) < cfg.convergence_tol:
            converged = True
            break
    covariance = icp_covariance(source, cfg.sigma)
    return IcpResult(delta, covariance, cost_history, iterations, converged)


@pytest.fixture
def searches(monkeypatch):
    """(len(target), accepted mask) of every kernels.batch_nearest call, in
    order."""
    calls = []
    search = kernels.batch_nearest

    def spy(source, target, max_dist):
        found = search(source, target, max_dist)
        calls.append((len(target), found[0] >= 0))
        return found

    monkeypatch.setattr(kernels, "batch_nearest", spy)
    return calls


def outcome(align, source, target, cfg, searches):
    """(result or (exception type, message), number of searches made)."""
    searches.clear()
    try:
        result = align(source, target, cfg)
    except Exception as exc:  # every outcome is compared, errors included
        result = (type(exc), str(exc))
    return result, len(searches)


def assert_same_as_reference(source, target, cfg, searches):
    """icp_align equals the reference bit for bit, or raises the same error at
    the same iteration; returns the accepted masks of its searches, and its
    result or (error type, message)."""
    expected, expected_searches = outcome(reference_icp_align, source, target, cfg, searches)
    got, got_searches = outcome(icp_align, source, target, cfg, searches)
    assert got_searches == expected_searches
    # Each search is given a target of the cloud's length (what the
    # benchmark counts pairs by).
    assert all(size == len(target) for size, _ in searches)
    if not isinstance(expected, IcpResult):  # (error type, message)
        assert got == expected
    else:
        assert np.array_equal(got.delta_pose.rotation, expected.delta_pose.rotation)
        assert np.array_equal(got.delta_pose.translation, expected.delta_pose.translation)
        assert np.array_equal(got.covariance, expected.covariance)
        assert got.cost_history == expected.cost_history
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)
    return [mask for _, mask in searches], got


class TestIcpAlignMatchesReference:
    """The cached information matrix, prepared target and Pose-free loop
    give the reference loop's bits, and its errors at the same iteration."""

    def test_room_scans(self, rng, searches):
        world, rates = default_world(), SensorRates()
        for _ in range(12):
            heading = exp_se3([0, 0, rng.uniform(-np.pi, np.pi), 0, 0, 0]).rotation
            pose = Pose(heading, np.array([rng.uniform(0, 6), rng.uniform(-2, 2), 0.0]))
            step = exp_se3(random_twist(rng, 0.05, 0.1) * [0, 0, 1, 1, 1, 0])
            error = exp_se3(random_twist(rng, 0.02, 0.05))
            reference = pose.apply(render_scan(world, pose, rates, rng))
            scan = render_scan(world, pose @ step, rates, rng)
            target = (pose @ step @ error).inverse().apply(reference)
            _, result = assert_same_as_reference(scan, target, IcpConfig(), searches)
            assert isinstance(result, IcpResult) and result.converged

    def test_corridor_pair_with_rejected_points(self, searches):
        world, rng = corridor_world(), np.random.default_rng(0)
        rates = SensorRates(cloud_sigma=0.0, range_max=12.0)
        step = Pose(np.eye(3), np.array([0.05, 0.0, 0.0]))
        target = render_scan(world, Pose.identity(), rates, rng)
        source = render_scan(world, step, rates, rng)
        cfg = IcpConfig(max_correspondence_dist=0.02, max_iterations=100, convergence_tol=1e-10)
        target = exp_se3([0, 0, 0.001, 0.04, 0.002, 0]).apply(target)
        masks, result = assert_same_as_reference(source, target, cfg, searches)
        assert isinstance(result, IcpResult)
        assert all(0 < np.count_nonzero(m) < len(source) for m in masks)

    def test_accepted_set_changes_between_iterations(self, searches):
        changes = same_size_changes = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cloud = 2.0 * rng.uniform(-1, 1, (40, 3))
            delta = exp_se3(np.concatenate([0.05 * rng.uniform(-1, 1, 3), 0.1 * rng.uniform(-1, 1, 3)]))
            target = delta.apply(cloud) + 0.03 * rng.standard_normal((40, 3))
            cfg = IcpConfig(max_correspondence_dist=0.08)
            masks, _ = assert_same_as_reference(cloud, target, cfg, searches)
            for before, after in zip(masks, masks[1:]):
                if not np.array_equal(before, after):
                    changes += 1
                    same_size_changes += np.count_nonzero(before) == np.count_nonzero(after)
        assert changes > 10 and same_size_changes >= 2

    def test_subset_turns_whole(self, searches):
        # The first iteration accepts part of the source, the last all of it,
        # so the covariance can take the alignment's last matrix.
        rng = np.random.default_rng(3)
        for _ in range(5):
            cloud = 2.0 * rng.uniform(-1, 1, (60, 3))
            delta = exp_se3(np.concatenate([0.05 * rng.uniform(-1, 1, 3), 0.15 * rng.uniform(-1, 1, 3)]))
            target = delta.apply(cloud) + 0.01 * rng.standard_normal((60, 3))
            cfg = IcpConfig(max_correspondence_dist=0.2)
            masks, _ = assert_same_as_reference(cloud, target, cfg, searches)
            assert not masks[0].all() and masks[-1].all()

    def test_ill_conditioned_subset_of_well_conditioned_cloud(self, searches):
        # Twelve points on a line match the target; eight off the line have
        # no target within reach. The accepted subset is collinear.
        line = np.outer(np.linspace(0.0, 1.1, 12), [1.0, 0.0, 0.0])
        off = np.column_stack([np.linspace(0, 1, 8), np.ones(8), 5.0 + np.arange(8.0)])
        source = np.vstack([line, off])
        assert not ill_conditioned(information_matrix(source))
        target = line + [0.01, 0.0, 0.0]
        masks, result = assert_same_as_reference(source, target, IcpConfig(), searches)
        assert result == (DegenerateGeometryError, "alignment information matrix ill-conditioned")
        assert len(masks) == 1 and np.count_nonzero(masks[0]) == 12

    def test_well_conditioned_subset_of_ill_conditioned_cloud(self, rng, searches):
        # A point 1,000 km off makes the whole cloud ill-conditioned; it has no
        # target within reach, so the alignment converges on the rest and the
        # covariance, taken over the whole cloud, refuses it.
        cube = rng.uniform(-1, 1, (30, 3))
        source = np.vstack([cube, [[1e6, 0.0, 0.0]]])
        assert ill_conditioned(information_matrix(source))
        assert not ill_conditioned(information_matrix(cube))
        target = exp_se3([0.01, 0.0, 0.02, 0.03, 0.0, 0.01]).apply(cube)
        masks, result = assert_same_as_reference(source, target, IcpConfig(), searches)
        assert result == (DegenerateGeometryError, "cloud geometry degenerate for covariance")
        assert len(masks) > 1 and all(np.count_nonzero(m) == 30 for m in masks)

    def test_ill_conditioned_whole_cloud(self, searches):
        line = np.outer(np.linspace(0.0, 1.4, 15), [0.0, 1.0, 0.0])
        masks, result = assert_same_as_reference(line, line, IcpConfig(), searches)
        assert result == (DegenerateGeometryError, "alignment information matrix ill-conditioned")
        assert len(masks) == 1 and masks[0].all()

    def test_fewer_than_three_pairs(self, rng, searches):
        source = rng.uniform(-1, 1, (12, 3))
        far = 100.0 + rng.uniform(-1, 1, (8, 3))
        target = np.vstack([source[:2], far])
        masks, result = assert_same_as_reference(source, target, IcpConfig(), searches)
        assert result == (DegenerateGeometryError, "need >= 3 pairs, got 2")
        assert len(masks) == 1
