"""The odometry-aided scan-matching step, producing pose measurements.

A scan is its (N, 3) body-frame points. ``aided_step`` pre-aligns the
rolling reference, the previous matched scan placed in the ground frame at
its matched pose, with the predicted pose and therefore keeps advancing
even when consecutive scans are indistinguishable. Naive chaining of
consecutive-scan ICP (kept for comparison experiments; it stalls in
unobservable scenes) is the same step under a zero-motion prior, where the
prediction is the last matched pose. The step is stateless: the replay
loop in ``pipeline`` holds the pose and the reference scan.
"""

from __future__ import annotations

from .icp import IcpConfig, icp_align, icp_covariance  # noqa: F401  (re-export)
from .se3 import Pose


def aided_step(reference, predicted_pose: Pose, scan, cfg: IcpConfig | None = None):
    """Odometry-aided matching step of the body-frame ``scan`` against the
    ground-frame ``reference``; returns (measured_pose, covariance).

    The reference is re-expressed through the predicted pose, ICP computes
    the residual correction, and the measured pose is predicted_pose * delta;
    the caller places the scan at that pose as the next reference. ICP
    failures propagate so the caller can skip the filter update.
    """
    target = predicted_pose.inverse().apply(reference)
    # ICP's covariance of the scan under ``cfg.sigma`` is the measurement covariance.
    result = icp_align(scan, target, cfg)
    return predicted_pose @ result.delta_pose, result.covariance
