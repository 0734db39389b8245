import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_pose, random_twist, rot_z, series_exp
from iekf_slam.errors import CorruptedPoseError, LogDomainError
from iekf_slam.metrics import ground_truth_planar
from iekf_slam.se3 import (
    Pose,
    compose_into,
    exp_se3,
    exp_se3_many,
    hat,
    heading,
    log_se3,
    project_pi,
    renormalize,
    skew,
    skew_many,
    wrap_angle,
)

finite_component = st.floats(-1.7, 1.7, allow_nan=False)
twist_strategy = st.tuples(*([finite_component] * 3), *([st.floats(-5, 5)] * 3)).map(np.array)


def planar_extract(pose):
    """Plane position and heading (x, y, psi) of one pose, one value at a
    time: the bit oracle for the stacked ``heading``."""
    rotation = pose.rotation
    return float(pose.translation[0]), float(pose.translation[1]), float(np.arctan2(rotation[1, 0], rotation[0, 0]))


class TestSkew:
    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_canonical_z(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.array_equal(skew([0, 0, 1]), expected)

    def test_matches_cross_product(self, rng):
        for _ in range(50):
            v, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(skew(v) @ y, np.cross(v, y), atol=1e-12)

    def test_antisymmetry_identities(self, rng):
        for _ in range(20):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(skew(v) @ w + skew(w) @ v, 0, atol=1e-12)
            assert abs(v @ skew(v) @ v) < 1e-12


class TestHatVee:
    def test_zero(self):
        assert np.array_equal(hat(np.zeros(6)), np.zeros((4, 4)))

    def test_linearity(self, rng):
        for _ in range(20):
            a, b = rng.standard_normal(2)
            t1, t2 = rng.standard_normal(6), rng.standard_normal(6)
            assert np.allclose(hat(a * t1 + b * t2), a * hat(t1) + b * hat(t2), atol=1e-12)


class TestExp:
    def test_identity(self):
        assert exp_se3(np.zeros(6)).is_close(Pose.identity(), tol=0)

    def test_pure_translation(self):
        pose = exp_se3([0, 0, 0, 1, 2, 3])
        assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)
        assert np.allclose(pose.translation, [1, 2, 3], atol=1e-15)

    def test_quarter_turn_matches_series_oracle(self):
        t = np.array([0, 0, np.pi / 2, 0, 0, 0])
        pose = exp_se3(t)
        oracle = series_exp(t)
        assert pose.is_close(oracle, tol=1e-12)
        assert np.allclose(pose.rotation, rot_z(np.pi / 2), atol=1e-12)

    def test_matches_series_on_random_twists(self, rng):
        for _ in range(50):
            t = random_twist(rng, rot_scale=1.5, trans_scale=2.0)
            assert exp_se3(t).is_close(series_exp(t), tol=1e-12)

    def test_output_is_rotation(self, rng):
        for _ in range(50):
            R = exp_se3(random_twist(rng, 1.7, 5.0)).rotation
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1) < 1e-9


class TestExpMany:
    @staticmethod
    def assert_matches_scalar(twists):
        rotations, translations = exp_se3_many(twists)
        assert rotations.shape == (len(twists), 3, 3)
        assert translations.shape == (len(twists), 3)
        for t, r, v in zip(twists, rotations, translations):
            pose = exp_se3(t)
            assert np.array_equal(r, pose.rotation)
            assert np.array_equal(v, pose.translation)

    def test_random_twists(self, rng):
        self.assert_matches_scalar(
            np.array([random_twist(rng, 1.7, 5.0) for _ in range(500)])
        )

    def test_odometry_sized_twists(self, rng):
        # one 50 Hz step of a slow ground robot, the filter's common case
        self.assert_matches_scalar(0.02 * rng.standard_normal((500, 6)))

    def test_zero_rotation(self, rng):
        twists = np.zeros((20, 6))
        twists[:, 3:] = rng.standard_normal((20, 3))
        self.assert_matches_scalar(twists)
        rotations, translations = exp_se3_many(twists)
        for t, r, v in zip(twists, rotations, translations):
            assert np.array_equal(r, exp_se3(t).rotation)
            assert np.array_equal(r, np.eye(3))
            assert np.array_equal(v, t[3:])

    def test_below_small_angle(self, rng):
        axes = rng.standard_normal((30, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.logspace(-14, np.log10(0.99e-8), 30)
        twists = np.hstack([axes * angles[:, None], rng.standard_normal((30, 3))])
        self.assert_matches_scalar(twists)

    def test_near_pi(self, rng):
        axes = rng.standard_normal((30, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.pi - np.logspace(-12, -2, 30)
        twists = np.hstack([axes * angles[:, None], rng.standard_normal((30, 3))])
        self.assert_matches_scalar(twists)

    def test_mixed_small_and_large_in_one_batch(self, rng):
        twists = np.array([random_twist(rng) for _ in range(40)])
        twists[::3, :3] = 0.0
        twists[1::5, :3] *= 1e-10
        self.assert_matches_scalar(twists)

    def test_empty(self):
        rotations, translations = exp_se3_many(np.zeros((0, 6)))
        assert rotations.shape == (0, 3, 3)
        assert translations.shape == (0, 3)

    def test_skew_many_matches_skew(self, rng):
        v = rng.standard_normal((50, 3))
        for row, s in zip(v, skew_many(v)):
            assert np.array_equal(s, skew(row))


class TestLog:
    def test_identity(self):
        assert np.array_equal(log_se3(Pose.identity()), np.zeros(6))

    def test_pure_translation(self):
        t = log_se3(Pose(np.eye(3), np.array([1.0, -2.0, 0.5])))
        assert np.allclose(t, [0, 0, 0, 1, -2, 0.5], atol=1e-15)

    def test_round_trip_1000_random(self, rng):
        for _ in range(1000):
            t = random_twist(rng, rot_scale=1.7, trans_scale=4.0)
            assert np.linalg.norm(log_se3(exp_se3(t)) - t) < 1e-9

    def test_round_trip_via_series_oracle(self, rng):
        for _ in range(100):
            t = random_twist(rng, rot_scale=1.5, trans_scale=2.0)
            assert np.linalg.norm(log_se3(series_exp(t)) - t) < 1e-9

    def test_near_pi_raises(self):
        pose = Pose(rot_z(np.pi - 1e-9), np.zeros(3))
        with pytest.raises(LogDomainError):
            log_se3(pose)

    @given(twist_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, t):
        assert np.linalg.norm(log_se3(exp_se3(t)) - t) < 1e-9


class TestProjection:
    def test_identity(self):
        assert np.array_equal(project_pi(Pose.identity()), np.zeros(6))

    def test_agrees_with_log_for_small_pose(self, rng):
        t = 1e-3 * random_twist(rng)
        pose = exp_se3(t)
        assert np.linalg.norm(project_pi(pose) - t) < 1e-5
        assert np.allclose(project_pi(pose), log_se3(pose), atol=1e-5)

    def test_second_order_error_decay(self, rng):
        direction = random_twist(rng)
        direction /= np.linalg.norm(direction)
        errors = []
        for scale in (1e-1, 1e-2, 1e-3):
            t = scale * direction
            errors.append(np.linalg.norm(project_pi(exp_se3(t)) - t))
        order1 = np.log(errors[0] / errors[1]) / np.log(10)
        order2 = np.log(errors[1] / errors[2]) / np.log(10)
        assert order1 >= 1.9
        assert order2 >= 1.9

    def test_first_order_matrix_identity(self, rng):
        # X - I ~ hat(pi(X)) with quadratically small remainder
        for scale in (1e-1, 1e-2, 1e-3):
            t = scale * random_twist(rng)
            pose = exp_se3(t)
            remainder = pose.matrix() - np.eye(4) - hat(project_pi(pose))
            assert np.max(np.abs(remainder)) < 2.0 * scale**2


class TestGroupOps:
    def test_identity_law(self, rng):
        x = random_pose(rng)
        assert (Pose.identity() @ x).is_close(x, tol=0)

    def test_double_inverse(self, rng):
        x = random_pose(rng)
        assert x.inverse().inverse().is_close(x, tol=1e-12)

    def test_compose_inverse_is_identity(self, rng):
        for _ in range(20):
            x = random_pose(rng, 1.7, 5.0)
            assert (x @ x.inverse()).is_close(Pose.identity(), tol=1e-12)

    def test_inverse_of_exp(self, rng):
        for _ in range(100):
            t = random_twist(rng, 1.7, 4.0)
            assert exp_se3(t).inverse().is_close(exp_se3(-t), tol=1e-9)

    def test_associativity(self, rng):
        for _ in range(30):
            a, b, c = (random_pose(rng) for _ in range(3))
            assert ((a @ b) @ c).is_close(a @ (b @ c), tol=1e-12)

    def test_compose_into_matches_compose_bits(self, rng):
        # Chained as the replay loops chain it: each product is written into
        # the next row of column arrays and read back from there.
        n = 200
        increments = [random_pose(rng, 1.7, 5.0) for _ in range(n)]
        r_col, p_col = np.empty((n, 3, 3)), np.empty((n, 3))
        pose = random_pose(rng, 1.7, 5.0)
        r, p = pose.rotation, pose.translation
        for i, inc in enumerate(increments):
            compose_into(r, p, inc.rotation, inc.translation, r_col[i], p_col[i])
            r, p = r_col[i], p_col[i]
            pose = pose @ inc
            assert r_col[i].tobytes() == pose.rotation.tobytes()
            assert p_col[i].tobytes() == pose.translation.tobytes()


class TestRenormalize:
    def test_no_op_on_orthonormal(self, rng):
        x = random_pose(rng)
        assert renormalize(x).is_close(x, tol=1e-12)

    def test_fixes_small_perturbation(self, rng):
        x = random_pose(rng)
        perturbed = Pose(x.rotation + 1e-5 * rng.standard_normal((3, 3)), x.translation)
        fixed = renormalize(perturbed)
        assert np.allclose(fixed.rotation.T @ fixed.rotation, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(fixed.rotation) - 1) < 1e-12
        assert np.array_equal(fixed.translation, x.translation)

    def test_matches_polar_decomposition_oracle(self, rng):
        from scipy.linalg import polar

        x = random_pose(rng)
        noisy = x.rotation + 1e-4 * rng.standard_normal((3, 3))
        u, _ = polar(noisy)
        assert np.allclose(renormalize(Pose(noisy, x.translation)).rotation, u, atol=1e-9)

    def test_rejects_corrupted(self):
        with pytest.raises(CorruptedPoseError):
            renormalize(Pose(2.0 * np.eye(3), np.zeros(3)))


class TestPlanar:
    def test_identity(self):
        assert heading(Pose.identity().rotation) == 0.0

    def test_pure_z_rotation(self):
        assert abs(heading(rot_z(np.pi / 2)) - np.pi / 2) < 1e-15

    def test_heading_adds_under_composition(self, rng):
        for _ in range(20):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            pa = Pose(rot_z(a), np.array([rng.uniform(), rng.uniform(), 0.0]))
            pb = Pose(rot_z(b), np.array([rng.uniform(), rng.uniform(), 0.0]))
            psi = heading((pa @ pb).rotation)
            assert abs(wrap_angle(psi - (a + b))) < 1e-12

    def test_ground_truth_planar_matches_planar_extract_bits(self, rng):
        # The stacked arctan2 gives planar_extract's bits, signed zeros and
        # both signs of pi included (R10 = +-0 with R00 = -1).
        headings = np.concatenate([rng.uniform(-np.pi, np.pi, 500), [np.pi, -np.pi, 0.0, -0.0, np.pi / 2]])
        poses = [Pose(rot_z(psi), rng.uniform(-5, 5, 3)) for psi in headings]
        for sin, cos in ((0.0, -1.0), (-0.0, -1.0), (-0.0, 1.0), (0.0, 1.0)):
            rotation = np.array([[cos, -sin, 0.0], [sin, cos, 0.0], [0.0, 0.0, 1.0]])
            poses.append(Pose(rotation, np.array([-0.0, 0.0, 1.0])))
        rotations = np.array([pose.rotation for pose in poses])
        translations = np.array([pose.translation for pose in poses])
        t, x, y, psi = ground_truth_planar((0.1 * np.arange(len(poses)), rotations, translations))
        expected = np.array([planar_extract(pose) for pose in poses])
        assert np.column_stack([x, y, psi]).tobytes() == expected.tobytes()
        assert np.array_equal(t, 0.1 * np.arange(len(poses)))
        assert psi[-4:].tolist() == [np.pi, -np.pi, -0.0, 0.0]
        assert np.signbit(psi[-2]) and not np.signbit(psi[-1])


class TestSerialization:
    def test_row_round_trip(self, rng):
        x = random_pose(rng, 1.7, 5.0)
        assert Pose.from_row(x.to_row()).is_close(x, tol=0)

    def test_row_layout(self):
        x = Pose(rot_z(0.3), np.array([1.0, 2.0, 3.0]))
        row = x.to_row()
        assert np.array_equal(row[:9], x.rotation.ravel())
        assert np.array_equal(row[9:], [1.0, 2.0, 3.0])
