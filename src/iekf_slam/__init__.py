"""Invariant-EKF scan-matching SLAM on SE(3).

Library layout:

- ``se3``: Lie-group primitives (hat, exp, log, projection, renormalize, heading)
- ``icp``: ICP alignment of (N, 3) point arrays and its covariance model
- ``scan_matching``: the odometry-aided matching step (naive matching is
  the same step under a zero-motion prior)
- ``iekf``: the left-invariant Kalman filter and its pose measurements
- ``simulator`` / ``logio``: synthetic scenarios, logged as columns (a
  ``Scans`` holds each scan's time and its body-frame points), and their
  on-disk format
- ``pipeline`` / ``metrics`` / ``cli``: replay modes, RMS scoring, CLI harness
- ``kernels``: exact nearest-neighbour correspondence search in numpy
"""

from .icp import IcpConfig, IcpResult, icp_align, icp_covariance, solve_linear_alignment
from .iekf import FilterState, Measurements, NoiseConfig, PoseMeasurement, linearize, predict, run_filter, update
from .scan_matching import aided_step
from .se3 import Pose, exp_se3, hat, log_se3, project_pi, renormalize, skew
from .simulator import Odometry, ScenarioLog, Scans, SensorRates, Trajectory, TrajectorySpec, WorldModel, run_scenario

__version__ = "0.1.0"

# Name of the correspondence-search implementation, for run records.
KERNEL_BACKEND = "numpy"
