"""The 2-D and 1-D products of ``se3``, ``iekf``, ``icp`` and the simulator
are written ``a.dot(b)`` for its lower dispatch cost. They must give the
same bits as ``a @ b``: the pinned log and replay digests were written with
``@``. Each test below compares a function with the same products written
with ``@``, so a numpy or BLAS build on which the two diverge fails here by
name rather than only through a digest."""

import numpy as np

from conftest import random_pose, random_twist
from iekf_slam import se3
from iekf_slam.icp import information_matrix
from iekf_slam.iekf import FilterState, PoseMeasurement, _propagate_covariance, update
from iekf_slam.se3 import Pose, exp_se3, project_pi

CASES = 200
DIVERGED = "ndarray.dot and matmul give different bits on this numpy/BLAS build"


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_pose_bits(got, want_rotation, want_translation):
    assert same_bits(got.rotation, want_rotation), DIVERGED
    assert same_bits(got.translation, want_translation), DIVERGED


def random_spd(rng, n=6):
    a = rng.standard_normal((n, n))
    return a.dot(a.T) + n * np.eye(n)


def skew_matmul(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def exp_matmul(twist):
    """exp_se3's formulas with every product written ``@``."""
    w = twist[:3]
    S = skew_matmul(w)
    SS = S @ S
    b, c, d = se3._exp_coeffs(np.sqrt(w @ w))
    rotation = np.eye(3) + b * S + c * SS
    jacobian = np.eye(3) + c * S
    if d is not None:
        jacobian = jacobian + d * SS
    return rotation, jacobian @ twist[3:]


def compose_matmul(r1, t1, r2, t2):
    return r1 @ r2, r1 @ t2 + t1


def test_primitive_products(rng):
    for _ in range(CASES):
        for a, b in (
            (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
            (rng.standard_normal((6, 6)), rng.standard_normal((6, 6))),
            (rng.standard_normal((3, 3)), rng.standard_normal(3)),
            (rng.standard_normal(3), rng.standard_normal((3, 3)).T),
            (rng.standard_normal((50, 3)), rng.standard_normal((3, 3)).T),
        ):
            assert same_bits(a.dot(b), a @ b), DIVERGED


def test_skew(rng):
    for _ in range(CASES):
        v = rng.standard_normal(3)
        assert same_bits(se3.skew(v), skew_matmul(v))
    assert same_bits(se3.skew([0.0, 0.0, 0.0]), skew_matmul(np.zeros(3)))  # signed zeros too


def test_pose_compose_inverse_apply(rng):
    for n in [None, 1, 50] * (CASES // 3):
        x, y = random_pose(rng, 2.0, 5.0), random_pose(rng, 2.0, 5.0)
        assert_pose_bits(x.compose(y), *compose_matmul(x.rotation, x.translation, y.rotation, y.translation))
        assert_pose_bits(x @ y, *compose_matmul(x.rotation, x.translation, y.rotation, y.translation))
        rt = x.rotation.T
        assert_pose_bits(x.inverse(), rt, -rt @ x.translation)
        points = rng.uniform(-10, 10, 3 if n is None else (n, 3))
        assert same_bits(x.apply(points), points @ x.rotation.T + x.translation), DIVERGED


def test_exp_se3(rng):
    twists = [random_twist(rng, 2.0, 5.0) for _ in range(CASES)]
    twists += [1e-9 * random_twist(rng) for _ in range(10)]  # below the small-angle cut
    for twist in twists:
        assert_pose_bits(exp_se3(twist), *exp_matmul(twist))


def test_propagate_covariance(rng):
    for _ in range(CASES):
        p = random_spd(rng)
        phi = np.eye(6) + 0.02 * rng.standard_normal((6, 6))
        hq = 0.02 * np.diag(rng.uniform(1e-4, 1e-2, 6))
        want = phi @ p @ phi.T + hq
        want = (want + want.T) / 2.0
        assert same_bits(_propagate_covariance(p, phi, hq), want), DIVERGED


def test_update(rng):
    for _ in range(CASES):
        pose = random_pose(rng, 2.0, 5.0)
        measured = pose @ random_pose(rng, 0.1, 0.1)
        p, c = 1e-3 * random_spd(rng), 1e-3 * random_spd(rng)
        got = update(FilterState(pose, p), PoseMeasurement(measured, c))

        gain = np.linalg.solve((p + c).T, p.T).T
        rt = pose.rotation.T
        inverse = (rt, -rt @ pose.translation)
        z = project_pi(Pose(*compose_matmul(*inverse, measured.rotation, measured.translation)))
        want_pose = compose_matmul(pose.rotation, pose.translation, *exp_matmul(gain @ z))
        i_k = np.eye(6) - gain
        want_p = i_k @ p @ i_k.T + gain @ c @ gain.T
        want_p = (want_p + want_p.T) / 2.0
        assert_pose_bits(got.pose, *want_pose)
        assert same_bits(got.covariance, want_p), DIVERGED


def test_information_matrix(rng):
    for n in [3, 10, 50, 2050] * 10:
        points = rng.uniform(-5, 5, (n, 3))
        got = information_matrix(points)
        assert same_bits(got[:3, :3], np.sum(points**2) * np.eye(3) - points.T @ points), DIVERGED
