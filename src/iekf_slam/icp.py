"""Iterative closest point alignment between point clouds.

The inner step is a small-twist linear least-squares solve: with source
points a_i and residuals y_i = a_i - dX^-1 b_i, each pair contributes a
3x6 block B_i = [S(a_i)  -I3] and the minimizer of sum ||y_i - B_i x||^2
is the correction twist. The same estimator yields the closed-form
covariance of the alignment, rescaled by the number of points to account
for correlated cloud noise.

``icp_align`` builds what one alignment cannot change only once: the
target, prepared for ``kernels.batch_nearest``, and the information matrix
with its conditioning check, rebuilt only when the accepted source points
change. ``solve_linear_alignment`` and ``icp_covariance`` take that matrix
when the caller holds it, and build their own otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, NoOverlapError, NumericalFailureError
from .pointcloud import PointCloud
from .se3 import Pose, exp_se3, skew

MAX_CONDITION = 1e8


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 50
    convergence_tol: float = 1e-6  # on the inner-step twist norm
    max_correspondence_dist: float = 0.5  # m; np.inf disables rejection
    min_points: int = 10
    sigma: float = 0.05  # m, assumed isotropic per-point sensor noise

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("convergence_tol", "max_correspondence_dist", "sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class IcpResult:
    delta_pose: Pose
    covariance: np.ndarray  # 6x6, rescaled
    cost_history: list = field(default_factory=list)  # residual sums, m^2
    iterations: int = 0
    converged: bool = False


def information_matrix(points):
    """sum_i B_i^T B_i with B_i = [S(a_i)  -I3], assembled in closed form.

    Blocks: [[-S(a)^2, S(a)], [-S(a), I]] summed over points; -S(a)^2 equals
    ||a||^2 I - a a^T.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = points.shape[0]
    sq = np.sum(points**2)
    outer = points.T @ points
    s_sum = skew(points.sum(axis=0))
    info = np.zeros((6, 6))
    info[:3, :3] = sq * np.eye(3) - outer
    info[:3, 3:] = s_sum
    info[3:, :3] = -s_sum
    info[3:, 3:] = n * np.eye(3)
    return info


def ill_conditioned(info):
    """True when the symmetric information matrix's condition number exceeds
    MAX_CONDITION, judged from its eigenvalues (cheaper than the SVD behind
    ``np.linalg.cond``); lambda_min <= 0 and NaN count as ill-conditioned."""
    try:
        lam = np.linalg.eigvalsh(info)
    except np.linalg.LinAlgError:  # no convergence: NaN or inf entries
        return True
    return not (lam[0] > 0 and lam[0] * MAX_CONDITION >= lam[-1])


def _checked_information(points):
    """Information matrix of paired source points, checked for the solve.

    Raises DegenerateGeometryError when fewer than 3 pairs are given or the
    matrix is singular/ill-conditioned (collinear geometry).
    """
    if points.shape[0] < 3:
        raise DegenerateGeometryError(f"need >= 3 pairs, got {points.shape[0]}")
    info = information_matrix(points)
    if ill_conditioned(info):
        raise DegenerateGeometryError("alignment information matrix ill-conditioned")
    return info


def solve_linear_alignment(points, residuals, info=None):
    """Least-squares twist for paired source points and residual vectors.

    Minimizes sum ||y_i - B_i x||^2 and returns (x_hat, information matrix).
    ``info``, when given, is the points' ``_checked_information``, which the
    caller already holds; otherwise it is built here and raises
    DegenerateGeometryError as ``_checked_information`` does.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    residuals = np.asarray(residuals, dtype=float).reshape(-1, 3)
    if info is None:
        info = _checked_information(points)
    # B_i^T y_i = [-a_i x y_i; -y_i], crossed per coordinate: np.cross's bits in half the time
    (a1, a2, a3), (y1, y2, y3) = points.T, residuals.T
    cross = np.empty_like(points)
    cross[:, 0] = a2 * y3 - a3 * y2
    cross[:, 1] = a3 * y1 - a1 * y3
    cross[:, 2] = a1 * y2 - a2 * y1
    rhs = np.concatenate([-cross.sum(axis=0), -residuals.sum(axis=0)])
    return np.linalg.solve(info, rhs), info


def icp_covariance(cloud: PointCloud, sigma, rescale=True, info=None):
    """Covariance of the alignment twist for a body-frame cloud.

    ``rescale=True`` returns N sigma^2 [sum B_i^T B_i]^-1 (the conservative
    form accounting for correlated cloud noise); ``rescale=False`` returns the
    plain independent-noise least-squares covariance sigma^2 [.]^-1.
    ``info``, when given, is the whole cloud's information matrix, already
    found well-conditioned.
    """
    if info is None:
        info = information_matrix(cloud.points)
        if ill_conditioned(info):
            raise DegenerateGeometryError("cloud geometry degenerate for covariance")
    cov = sigma**2 * np.linalg.inv(info)
    if rescale:
        cov = len(cloud) * cov
    return (cov + cov.T) / 2.0


def icp_align(source: PointCloud, target: PointCloud, cfg: IcpConfig | None = None) -> IcpResult:
    """Align ``source`` onto ``target``; returns the pose mapping source points
    near their target correspondences (target ~ delta_pose @ source).

    Iterates nearest-neighbor correspondence (pairs beyond the rejection
    distance dropped) and the linearized inner solve, updating
    delta_pose <- delta_pose * exp(x_hat) until the inner twist norm falls
    below the tolerance. The correspondence-fixed cost must not increase
    across an inner step; a strict increase raises NumericalFailureError.

    What cannot change within one alignment is built once: the target is
    prepared for search before the first iteration, and the information
    matrix (with its conditioning check) is rebuilt only when the accepted
    source points differ from the previous iteration's. When the last
    accepted set is the whole source, its matrix serves the covariance too.
    The loop carries delta_pose as a rotation and a translation, with
    ``Pose``'s own products, and builds the ``Pose`` once at the end.
    """
    if cfg is None:
        cfg = IcpConfig()
    if source.frame != target.frame:
        raise ValueError(f"frame mismatch: {source.frame} vs {target.frame}")
    if len(source) < cfg.min_points or len(target) < cfg.min_points:
        raise DegenerateGeometryError(
            f"clouds need >= {cfg.min_points} points, got {len(source)}/{len(target)}"
        )

    points, target_points = source.points, target.points
    n = len(points)
    prepared = kernels.Target(target_points)
    rotation, translation = np.eye(3), np.zeros(3)
    accepted, count, info = None, 0, None
    cost_history = []
    iterations = 0
    converged = False
    moved = None
    for _ in range(cfg.max_iterations):
        if moved is None:  # Pose.apply: p @ R.T + t
            moved = points @ rotation.T + translation
        idx, dist = kernels.batch_nearest(moved, prepared, cfg.max_correspondence_dist)
        previous, previous_count = accepted, count
        accepted = idx >= 0
        count = np.count_nonzero(accepted)
        if count == 0:
            raise NoOverlapError("all correspondences beyond max_correspondence_dist")
        if count == n:  # every pair accepted: the masked gathers' values, without the gathers
            a, b, d = points, target_points[idx], dist
        else:
            a, b, d = points[accepted], target_points[idx[accepted]], dist[accepted]
        cost_before = float((d**2).sum())
        if count != previous_count or (count < n and not np.array_equal(accepted, previous)):
            info = _checked_information(a)
        # Pose.inverse, then apply: b @ (R^T).T + (-R^T @ t)
        inverse = rotation.T
        residuals = a - (b @ inverse.T + -inverse @ translation)
        x_hat, _ = solve_linear_alignment(a, residuals, info)
        step = exp_se3(x_hat)
        # Pose.compose: R1 R2, R1 t2 + t1
        rotation, translation = rotation @ step.rotation, rotation @ step.translation + translation
        iterations += 1
        moved_a = a @ rotation.T + translation
        cost_after = float(((moved_a - b) ** 2).sum())
        if cost_after > cost_before * (1 + 1e-9) + 1e-15:
            raise NumericalFailureError(
                f"ICP cost increased at iteration {iterations}: "
                f"{cost_before:.6e} -> {cost_after:.6e}"
            )
        cost_history.append(cost_after)
        if np.sqrt(x_hat.dot(x_hat)) < cfg.convergence_tol:  # np.linalg.norm's arithmetic
            converged = True
            break
        moved = moved_a if count == n else None  # every pair accepted: a is the whole source, so moved_a is moved

    # The last accepted set's matrix is the covariance's when it is the whole source.
    covariance = icp_covariance(source, cfg.sigma, info=info if count == n else None)
    return IcpResult(
        delta_pose=Pose(rotation, translation),
        covariance=covariance,
        cost_history=cost_history,
        iterations=iterations,
        converged=converged,
    )
