"""Invariant-EKF scan-matching SLAM on SE(3).

Library layout:

- ``se3``: Lie-group primitives (hat, exp, log, projection, renormalize, heading)
- ``pointcloud`` / ``icp``: clouds, ICP alignment and its covariance model
- ``scan_matching``: naive and odometry-aided matching steps
- ``iekf``: the left-invariant Kalman filter and its pose measurements
- ``simulator`` / ``logio``: synthetic scenarios and their on-disk format
- ``pipeline`` / ``metrics`` / ``cli``: replay modes, RMS scoring, CLI harness
- ``kernels``: exact nearest-neighbour correspondence search in numpy
"""

from .icp import IcpConfig, IcpResult, icp_align, icp_covariance, solve_linear_alignment
from .iekf import FilterState, NoiseConfig, PoseMeasurement, linearize, predict, run_filter, update
from .pointcloud import PointCloud
from .scan_matching import aided_step, naive_step
from .se3 import Pose, exp_se3, hat, log_se3, project_pi, renormalize, skew
from .simulator import Odometry, ScenarioLog, SensorRates, Trajectory, TrajectorySpec, WorldModel, run_scenario

__version__ = "0.1.0"

# Name of the correspondence-search implementation, for run records.
KERNEL_BACKEND = "numpy"
