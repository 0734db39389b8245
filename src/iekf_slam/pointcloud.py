"""Point-cloud container and frame bookkeeping (the .xyz file format is in ``logio``)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .se3 import Pose

BODY = "body"
GROUND = "ground"
_FRAMES = (BODY, GROUND)


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of 3-D points (meters) with a frame tag and timestamp.

    Point order is stable: index i is an identity for correspondence purposes.
    """

    points: np.ndarray
    frame: str = BODY
    timestamp: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        if self.frame not in _FRAMES:
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def transformed(self, pose: Pose, frame: str | None = None) -> "PointCloud":
        """Apply a rigid transform to every point, flipping the frame tag.

        A body-frame cloud transformed by the vehicle pose lands in the ground
        frame and vice versa; pass ``frame`` to override.
        """
        if frame is None:
            frame = GROUND if self.frame == BODY else BODY
        return PointCloud(pose.apply(self.points), frame, self.timestamp)


def transform_cloud(pose: Pose, cloud: PointCloud) -> PointCloud:
    return cloud.transformed(pose)
