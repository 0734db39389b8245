"""Iterative closest point alignment between point clouds.

The inner step is a small-twist linear least-squares solve: with source
points a_i and residuals y_i = a_i - dX^-1 b_i, each pair contributes a
3x6 block B_i = [S(a_i)  -I3] and the minimizer of sum ||y_i - B_i x||^2
is the correction twist. The same estimator yields the closed-form
covariance of the alignment, rescaled by the number of points to account
for correlated cloud noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, EmptyCloudError, NoOverlapError, NumericalFailureError
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


def nearest_neighbor(query, cloud: PointCloud):
    """Index and Euclidean distance of the cloud point closest to ``query``.

    Ties break to the lowest index. Raises EmptyCloudError on an empty cloud.
    """
    if len(cloud) == 0:
        raise EmptyCloudError("nearest_neighbor on empty cloud")
    query = np.asarray(query, dtype=float).reshape(1, 3)
    idx, dist = kernels.batch_nearest(query, cloud.points, np.inf)
    return int(idx[0]), float(dist[0])


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


def solve_linear_alignment(points, residuals):
    """Least-squares twist for paired source points and residual vectors.

    Minimizes sum ||y_i - B_i x||^2 and returns (x_hat, information matrix).
    Raises DegenerateGeometryError when fewer than 3 pairs are given or the
    information matrix is singular/ill-conditioned (collinear geometry).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    residuals = np.asarray(residuals, dtype=float).reshape(-1, 3)
    if points.shape[0] < 3:
        raise DegenerateGeometryError(f"need >= 3 pairs, got {points.shape[0]}")
    info = information_matrix(points)
    if ill_conditioned(info):
        raise DegenerateGeometryError("alignment information matrix ill-conditioned")
    # B_i^T y_i = [-a_i x y_i; -y_i], crossed per coordinate: np.cross's bits in half the time
    (a1, a2, a3), (y1, y2, y3) = points.T, residuals.T
    cross = np.stack([a2 * y3 - a3 * y2, a3 * y1 - a1 * y3, a1 * y2 - a2 * y1], axis=1)
    rhs = np.concatenate([-cross.sum(axis=0), -residuals.sum(axis=0)])
    return np.linalg.solve(info, rhs), info


def icp_covariance(cloud: PointCloud, sigma, rescale=True):
    """Covariance of the alignment twist for a body-frame cloud.

    ``rescale=True`` returns N sigma^2 [sum B_i^T B_i]^-1 (the conservative
    form accounting for correlated cloud noise); ``rescale=False`` returns the
    plain independent-noise least-squares covariance sigma^2 [.]^-1.
    """
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
    """
    if cfg is None:
        cfg = IcpConfig()
    if source.frame != target.frame:
        raise ValueError(f"frame mismatch: {source.frame} vs {target.frame}")
    if len(source) < cfg.min_points or len(target) < cfg.min_points:
        raise DegenerateGeometryError(
            f"clouds need >= {cfg.min_points} points, got {len(source)}/{len(target)}"
        )

    delta = Pose.identity()
    cost_history = []
    iterations = 0
    converged = False
    for _ in range(cfg.max_iterations):
        moved = delta.apply(source.points)
        idx, dist = kernels.batch_nearest(moved, target.points, cfg.max_correspondence_dist)
        accepted = idx >= 0
        if not np.any(accepted):
            raise NoOverlapError("all correspondences beyond max_correspondence_dist")
        a = source.points[accepted]
        b = target.points[idx[accepted]]
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
    return IcpResult(
        delta_pose=delta,
        covariance=covariance,
        cost_history=cost_history,
        iterations=iterations,
        converged=converged,
    )
