"""The odometry-aided scan-matching step, producing pose measurements.

``aided_step`` pre-aligns the rolling ground-frame reference with the
predicted pose and therefore keeps advancing even when consecutive scans
are indistinguishable. Naive chaining of consecutive-scan ICP (kept for
comparison experiments; it stalls in unobservable scenes) is the same step
under a zero-motion prior, where the prediction is the last matched pose.
The step is stateless: the replay loop in ``pipeline`` holds the pose and
the reference scan.
"""

from __future__ import annotations

from .icp import IcpConfig, icp_align, icp_covariance  # noqa: F401  (re-export)
from .iekf import PoseMeasurement
from .pointcloud import BODY, GROUND, PointCloud
from .se3 import Pose


def aided_step(
    reference: PointCloud,
    predicted_pose: Pose,
    new_cloud: PointCloud,
    cfg: IcpConfig | None = None,
) -> PoseMeasurement:
    """Odometry-aided matching step against the ground-frame ``reference``.

    The reference is re-expressed through the predicted pose, ICP computes
    the residual correction, and the measured pose is predicted_pose * delta;
    the caller places the new scan at that pose as the next reference. ICP
    failures propagate so the caller can skip the filter update.
    """
    if new_cloud.frame != BODY:
        raise ValueError("scans must be in the body frame")
    if reference.frame != GROUND:
        raise ValueError("aided matcher reference must be in the ground frame")
    target = reference.transformed(predicted_pose.inverse())
    # ICP's covariance of new_cloud under ``cfg.sigma`` is the measurement covariance.
    result = icp_align(new_cloud, target, cfg)
    return PoseMeasurement(predicted_pose @ result.delta_pose, result.covariance, new_cloud.timestamp)
