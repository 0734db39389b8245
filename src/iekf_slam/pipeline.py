"""Replay of a scenario log through the estimation modes.

Modes stage the motivating comparisons: dead-reckoning alone (drifts),
naive scan matching (stalls in unobservable scenes), the odometry-aided
scan matcher on its own, and the full IEKF fusing both.

Naive scan matching is the aided matcher under a zero-motion prior: with
the odometry's velocities zeroed, every increment is the identity, so each
scan is matched at the last matched pose against the previous matched scan.
So three modes run one matcher loop, and every mode steps through the
events of ``iekf.schedule``: the matcher merges odometry with scans, the
filter merges it with the matcher's pose measurements. All four modes share
one zero-order hold, one tie rule and one out-of-order check.

Every mode starts at the log's first ground-truth pose: the matchers at
that pose, the filter at that pose composed with its initial state's pose,
which so acts as the initial error in the start frame. The aided
matcher integrates its own odometry stream (every increment in one batched
exponential) from there through the first scan; the filter only consumes
the matcher's absolute pose measurements, so a badly initialized filter
still receives correctly anchored measurements.

The aided matcher carries its pose as a ``Pose``, composes each odometry
increment onto it and places each reference scan in the ground frame with
``Pose.apply``. Scans are the log's ``Scans`` columns: their times join the
event walk, and their points are plain arrays. The matcher's pose
measurements are its pose columns' rows at the matched scans.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, NumericalFailureError
from .icp import IcpConfig
from .iekf import FilterState, Measurements, NoiseConfig, odometry_increments, run_filter, schedule
from .scan_matching import aided_step
from .se3 import Pose, exp_se3, heading  # noqa: F401  (re-export: perfbench traces pipeline.exp_se3)

MODES = ("iekf", "dead-reckoning", "naive-scan-match", "scan-match-only")


def run_aided_matcher(odometry, scans, icp_cfg: IcpConfig, initial_pose: Pose):
    """Odometry-aided scan matching over ``Odometry`` and ``Scans`` columns,
    starting from ``initial_pose``.

    Returns ((t, R, p), measurements): the pose after every event of
    :func:`schedule` as columns t (n,), R (n, 3, 3) and p (n, 3), and the
    matched scans' ``Measurements``: each scan's time, its event's R and p
    rows. ICP failures drop the measurement and continue on the integrated
    pose. A reference with fewer than ``icp_cfg.min_points`` points can
    never be an ICP target, so the next scan takes its place unmatched.
    """
    events, dts, held = schedule(odometry.t, scans.t, 0.0)
    rotations, translations = odometry_increments(dts, odometry.omega[held], odometry.mu[held])
    n = len(events)
    t_col, r_col, p_col = np.empty(n), np.empty((n, 3, 3)), np.empty((n, 3))
    pose = initial_pose
    reference = None
    rows, matched, covariances = [], [], []
    for i, (step, t, j) in enumerate(events):
        if step >= 0:
            pose = pose @ Pose(rotations[step], translations[step])
        if j is not None and (reference is None or len(reference) < icp_cfg.min_points):
            reference = pose.apply(scans.points[j])
        elif j is not None:
            try:
                pose, covariance = aided_step(reference, pose, scans.points[j], icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                pass
            else:
                reference = pose.apply(scans.points[j])
                rows.append(i)
                matched.append(j)
                covariances.append(covariance)
        t_col[i], (r_col[i], p_col[i]) = t, pose
    measurements = Measurements(scans.t[matched], r_col[rows], p_col[rows], np.reshape(covariances, (-1, 6, 6)))
    return (t_col, r_col, p_col), measurements


def run_pipeline(log, mode, noise: NoiseConfig, init: FilterState, icp_cfg: IcpConfig):
    """Replay a ScenarioLog through one estimation mode.

    ``init.pose`` is taken relative to the log's first ground-truth pose.
    Returns ``logio.load_estimates``'s columns (t, x, y, z, psi, P), one row
    per event; P is zero in the matcher modes. In every mode but dead
    reckoning, a log in which no scan gives a pose measurement raises
    DegenerateGeometryError.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")

    initial_pose = Pose(log.ground_truth.rotations[0], log.ground_truth.translations[0])
    measurements = Measurements(np.empty(0), np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 6, 6)))
    if mode != "dead-reckoning":
        odometry = log.odometry
        if mode == "naive-scan-match":  # a zero-motion prior: every increment is the identity
            odometry = odometry._replace(omega=np.zeros_like(odometry.omega), mu=np.zeros_like(odometry.mu))
        columns, measurements = run_aided_matcher(odometry, log.scans, icp_cfg, initial_pose)
        if not len(measurements.t):
            raise DegenerateGeometryError(
                f"no scan matched in {mode} mode: none of the log's "
                f"{len(log.scans.t)} scans gave a pose measurement"
            )
    if mode in ("iekf", "dead-reckoning"):
        init = init._replace(pose=initial_pose @ init.pose)
        t, rotations, positions, covariances = run_filter(log.odometry, measurements, noise, init)
    else:
        t, rotations, positions = columns
        covariances = np.zeros((len(t), 6, 6))
    return t, positions[:, 0], positions[:, 1], positions[:, 2], heading(rotations), covariances
