"""Scan-matching pipelines producing pose measurements for the filter.

Two variants: naive chaining of consecutive-scan ICP (kept for comparison
experiments; stalls in unobservable scenes) and odometry-aided matching,
which pre-aligns the rolling ground-frame reference with the integrated
odometry pose and therefore keeps advancing even when consecutive scans are
indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .icp import IcpConfig, icp_align, icp_covariance  # noqa: F401  (re-export)
from .pointcloud import BODY, GROUND, PointCloud, transform_cloud  # noqa: F401  (re-export)
from .se3 import Pose

NAIVE = "naive"
AIDED = "aided"


@dataclass
class MatcherState:
    """Rolling state of one scan-matching pipeline (single owner, serialized)."""

    mode: str = AIDED
    pose_estimate: Pose = field(default_factory=Pose.identity)
    reference_cloud: PointCloud | None = None

    def __post_init__(self):
        if self.mode not in (NAIVE, AIDED):
            raise ValueError(f"unknown matcher mode {self.mode!r}")


@dataclass(frozen=True)
class PoseMeasurement:
    """Absolute pose measurement with the covariance of its body-frame twist noise."""

    measured_pose: Pose
    covariance: np.ndarray  # 6x6
    timestamp: float = 0.0


def naive_step(state: MatcherState, new_cloud: PointCloud, cfg: IcpConfig | None = None) -> Pose:
    """Chain ICP between consecutive scans: pose <- pose * delta.

    The first call only stores the cloud and returns the initial pose.
    Emits no covariance; identical consecutive scans leave the pose unchanged.
    """
    if state.mode != NAIVE:
        raise ValueError("naive_step requires a naive-mode matcher")
    if new_cloud.frame != BODY:
        raise ValueError("scans must be in the body frame")
    if state.reference_cloud is None:
        state.reference_cloud = new_cloud
        return state.pose_estimate
    result = icp_align(new_cloud, state.reference_cloud, cfg)
    state.pose_estimate = state.pose_estimate @ result.delta_pose
    state.reference_cloud = new_cloud
    return state.pose_estimate


def aided_step(
    state: MatcherState,
    predicted_pose: Pose,
    new_cloud: PointCloud,
    sigma: float,
    cfg: IcpConfig | None = None,
) -> PoseMeasurement | None:
    """Odometry-aided matching step.

    The ground-frame reference is re-expressed through the predicted pose,
    ICP computes the residual correction, and the measured pose is
    predicted_pose * delta. The new scan, placed at the measured pose,
    becomes the reference. Returns None on the initializing first scan.
    ICP failures propagate so the caller can skip the filter update.
    """
    if state.mode != AIDED:
        raise ValueError("aided_step requires an aided-mode matcher")
    if new_cloud.frame != BODY:
        raise ValueError("scans must be in the body frame")
    if state.reference_cloud is None:
        state.pose_estimate = predicted_pose
        state.reference_cloud = new_cloud.transformed(predicted_pose)
        return None
    if state.reference_cloud.frame != GROUND:
        raise ValueError("aided matcher reference must be in the ground frame")

    target = state.reference_cloud.transformed(predicted_pose.inverse(), frame=BODY)
    # ICP's covariance of new_cloud under ``sigma`` is the measurement covariance.
    result = icp_align(new_cloud, target, replace(cfg if cfg is not None else IcpConfig(), sigma=sigma))
    measured = predicted_pose @ result.delta_pose
    state.pose_estimate = measured
    state.reference_cloud = new_cloud.transformed(measured)
    return PoseMeasurement(measured, result.covariance, new_cloud.timestamp)
