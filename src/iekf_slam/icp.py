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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, NoOverlapError, NumericalFailureError
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
        for name, least in (("max_iterations", 1), ("min_points", 3)):  # min_points: the solve needs 3 pairs
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("convergence_tol", "max_correspondence_dist", "sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class IcpResult(NamedTuple):
    delta_pose: Pose
    covariance: np.ndarray  # 6x6, rescaled
    cost_history: Sequence[float] = ()  # residual sums, m^2; icp_align gives a list
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
    outer = points.T.dot(points)
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


def icp_covariance(points, sigma, info=None):
    """Covariance of the alignment twist for an (N, 3) body-frame cloud:
    N sigma^2 [sum B_i^T B_i]^-1, the independent-noise least-squares
    covariance rescaled by the point count N (the conservative form
    accounting for correlated cloud noise).

    ``info``, when given, is the whole cloud's information matrix, already
    found well-conditioned.
    """
    if info is None:
        info = information_matrix(points)
        if ill_conditioned(info):
            raise DegenerateGeometryError("cloud geometry degenerate for covariance")
    cov = len(points) * (sigma**2 * np.linalg.inv(info))
    return (cov + cov.T) / 2.0


def icp_align(source, target, cfg: IcpConfig | None = None) -> IcpResult:
    """Align the (N, 3) points ``source`` onto ``target``; returns the pose
    mapping source points near their target correspondences
    (target ~ delta_pose @ source). A non-finite coordinate in either cloud
    raises ValueError.

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
    """
    if cfg is None:
        cfg = IcpConfig()
    points = np.asarray(source, dtype=float).reshape(-1, 3)
    target_points = np.asarray(target, dtype=float).reshape(-1, 3)
    if not (np.isfinite(points).all() and np.isfinite(target_points).all()):
        raise ValueError("point cloud contains non-finite coordinates")
    n = len(points)
    if n < cfg.min_points or len(target_points) < cfg.min_points:
        raise DegenerateGeometryError(
            f"clouds need >= {cfg.min_points} points, got {n}/{len(target_points)}"
        )

    prepared = kernels.Target(target_points)
    delta = Pose.identity()
    accepted, count, info = None, 0, None
    cost_history = []
    iterations = 0
    converged = False
    moved = None
    for _ in range(cfg.max_iterations):
        if moved is None:
            moved = delta.apply(points)
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
        x_hat, _ = solve_linear_alignment(a, a - delta.inverse().apply(b), info)
        delta = delta @ exp_se3(x_hat)
        iterations += 1
        moved_a = delta.apply(a)
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
    covariance = icp_covariance(points, cfg.sigma, info=info if count == n else None)
    return IcpResult(
        delta_pose=delta,
        covariance=covariance,
        cost_history=cost_history,
        iterations=iterations,
        converged=converged,
    )
