"""SE(3) / se(3) primitives: hat, exp, log, the first-order projection,
group operations, renormalization and the heading of rotations.

Twist vectors are 6-vectors ordered [rotational (rad), translational (m)].
A ``Pose`` is a NamedTuple of a rotation matrix and a translation vector,
like the log's columns (``simulator.Trajectory``), and takes its arrays as
given. Every layer composes, inverts and applies poses through its methods,
so the order of the products, and with it the output bits, is set here
alone. The 4x4 homogeneous form appears only at I/O boundaries.

``exp_se3_many`` is the exponential of a whole (N, 6) stream of twists in
one call, bit-identical to ``exp_se3`` row by row; the matcher and the
filter integrate each odometry stream with it.

Products of one or two 2-D or 1-D arrays are written ``a.dot(b)``, here and
in the filter, the ICP solve and the simulator, not ``a @ b``. Both make the
same BLAS call with the same arguments and give the same bits, but the
``matmul`` ufunc's dispatch costs about twice ``ndarray.dot``'s, which
outweighs the arithmetic of a 3x3 or 6x6 product. Products of stacked
(N, 3, 3) arrays, as in ``exp_se3_many``, stay on ``@``: ``dot`` of N-D
arrays sums over other axes and means something else.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CorruptedPoseError, LogDomainError

_SMALL_ANGLE = 1e-8
_I3 = np.eye(3)
_I3.flags.writeable = False
_LOG_SINGULARITY_MARGIN = 1e-6


def skew(v):
    """3x3 antisymmetric matrix such that skew(v) @ y == cross(v, y)."""
    x, y, z = np.asarray(v, dtype=float).tolist()  # Python floats: no numpy scalar per entry
    return np.array(
        [
            [0.0, -z, y],
            [z, 0.0, -x],
            [-y, x, 0.0],
        ]
    )


def unskew(m):
    """Inverse of :func:`skew` for an exactly antisymmetric matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def hat(twist):
    """Map a 6-vector [w, u] to its 4x4 Lie-algebra matrix [[S(w), u], [0, 0]]."""
    twist = np.asarray(twist, dtype=float)
    out = np.zeros((4, 4))
    out[:3, :3] = skew(twist[:3])
    out[:3, 3] = twist[3:]
    return out


def _norm(v):
    """``np.linalg.norm`` of a 1-D float array by its own arithmetic, the square
    root of the dot product, without its argument handling."""
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def _exp_coeffs(theta):
    """(b, c, d) with R = I + b*S + c*S^2 and translation Jacobian
    A = I + c*S + d*S^2 for rotation angle theta; below _SMALL_ANGLE,
    d is None and A = I + S/2."""
    if theta < _SMALL_ANGLE:
        return 1.0, 0.5, None
    sin = np.sin(theta)
    return sin / theta, (1.0 - np.cos(theta)) / theta**2, (theta - sin) / theta**3


def _jacobian(S, SS, c, d):
    """A = I + c*S + d*S^2, summed in that order (I + c*S when d is None)."""
    a = _I3 + c * S
    return a if d is None else a + d * SS


def _translation_jacobian(axis_angle):
    """The matrix A with exp(hat(t)) translation = A @ v_p (same A as in log)."""
    S = skew(axis_angle)
    _, c, d = _exp_coeffs(np.linalg.norm(axis_angle))
    return _jacobian(S, S.dot(S), c, d)


class Pose(NamedTuple):
    """Rigid transform in SE(3): p_ground = rotation @ p_body + translation,
    with a (3, 3) and a (3,) float array."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity():
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        return Pose(
            self.rotation.dot(other.rotation),
            self.rotation.dot(other.translation) + self.translation,
        )

    __matmul__ = compose  # pose @ pose, at the cost of one call

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, (-rt).dot(self.translation))

    def apply(self, points):
        """Transform a (3,) point or (N, 3) array of points."""
        points = np.asarray(points, dtype=float)
        return points.dot(self.rotation.T) + self.translation

    def matrix(self):
        """4x4 homogeneous form."""
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def to_row(self):
        """12 numbers: row-major rotation then translation."""
        return np.concatenate([self.rotation.ravel(), self.translation])

    @staticmethod
    def from_row(values):
        values = np.asarray(values, dtype=float)
        if values.shape != (12,):
            raise ValueError(f"expected 12 values, got {values.shape}")
        return Pose(values[:9].reshape(3, 3), values[9:])

    def is_close(self, other: "Pose", tol=1e-9):
        return (
            np.max(np.abs(self.rotation - other.rotation)) <= tol
            and np.max(np.abs(self.translation - other.translation)) <= tol
        )


def exp_se3(twist) -> Pose:
    """Exponential map se(3) -> SE(3), closed form (Rodrigues + translation A).

    theta, S, S^2 and the coefficients are formed once and shared by the
    rotation and the translation Jacobian.
    """
    twist = np.asarray(twist, dtype=float)
    w = twist[:3]
    S = skew(w)
    SS = S.dot(S)
    b, c, d = _exp_coeffs(_norm(w))
    rotation = _I3 + b * S + c * SS
    return Pose(rotation, _jacobian(S, SS, c, d).dot(twist[3:]))


def skew_many(vectors):
    """(N, 3, 3) stack of :func:`skew` matrices for an (N, 3) array."""
    v = np.asarray(vectors, dtype=float).reshape(-1, 3)
    out = np.zeros((v.shape[0], 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def exp_se3_many(twists):
    """:func:`exp_se3` of every row of an (N, 6) array, as (rotations (N, 3, 3),
    translations (N, 3)).

    Same formulas and small-angle rule, and the same bits: theta comes from a
    batched dot product (as in ``np.linalg.norm``), the translation from a
    batched matrix-vector product, and theta**2 and theta**3 from Python
    floats, whose ``**`` calls the C library's pow like numpy's scalar ``**``
    does (numpy's array power takes other routes that differ in the last bit).
    """
    twists = np.asarray(twists, dtype=float).reshape(-1, 6)
    w = twists[:, :3]
    theta = np.sqrt((w[:, None, :] @ w[:, :, None]).ravel())
    S = skew_many(w)
    SS = S @ S
    n = theta.shape[0]
    b, c, d = np.ones(n), np.full(n, 0.5), np.zeros(n)
    big = ~(theta < _SMALL_ANGLE)
    th = theta[big]
    sin, cos = np.sin(th), np.cos(th)
    th_list = th.tolist()
    th2 = np.array([t**2 for t in th_list])
    th3 = np.array([t**3 for t in th_list])
    b[big] = sin / th
    c[big] = (1.0 - cos) / th2
    d[big] = (th - sin) / th3
    # I + b*S + c*S^2 summed in exp_se3's order, in place (x + I == I + x)
    rotations = b[:, None, None] * S
    rotations += np.eye(3)
    rotations += c[:, None, None] * SS
    jacobians = c[:, None, None] * S
    jacobians += np.eye(3)
    jacobians[big] += d[big, None, None] * SS[big]
    translations = (jacobians @ twists[:, 3:, None])[:, :, 0]
    return rotations, translations


def log_se3(pose: Pose):
    """Logarithmic map SE(3) -> se(3) as a 6-vector.

    Raises LogDomainError when the rotation angle is within 1e-6 of pi,
    where the closed form 1/(2 sin theta) is singular.
    """
    R = pose.rotation
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta > np.pi - _LOG_SINGULARITY_MARGIN:
        raise LogDomainError(f"rotation angle {theta:.9f} too close to pi")
    if theta < _SMALL_ANGLE:
        axis_angle = unskew((R - R.T) / 2.0)
    else:
        axis_angle = unskew(theta / (2.0 * np.sin(theta)) * (R - R.T))
    v_p = np.linalg.solve(_translation_jacobian(axis_angle), pose.translation)
    return np.concatenate([axis_angle, v_p])


def project_pi(pose: Pose):
    """First-order stand-in for log: [(R - R^T)/2 rotation part, translation].

    Defined everywhere; agrees with log to second order near identity.
    """
    R = pose.rotation
    return np.concatenate([unskew((R - R.T) / 2.0), pose.translation])


def renormalize(pose: Pose, tol=1e-3) -> Pose:
    """Snap the rotation block to the nearest rotation matrix (polar projection).

    Raises CorruptedPoseError if the block is further than ``tol`` (Frobenius)
    from any rotation.
    """
    u, _, vt = np.linalg.svd(pose.rotation)
    nearest = u.dot(np.diag([1.0, 1.0, np.linalg.det(u.dot(vt))])).dot(vt)
    if np.linalg.norm(pose.rotation - nearest) > tol:
        raise CorruptedPoseError("rotation block too far from orthonormal")
    return Pose(nearest, pose.translation)


def heading(rotations):
    """Heading psi = atan2(R10, R00) of a rotation, or of each rotation in an
    (n, 3, 3) stack in one call."""
    return np.arctan2(rotations[..., 1, 0], rotations[..., 0, 0])


def wrap_angle(angle):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle), 2.0 * np.pi)
