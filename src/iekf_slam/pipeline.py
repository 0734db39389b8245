"""Replay of a scenario log through the estimation modes.

Modes stage the motivating comparisons: dead-reckoning alone (drifts),
naive scan matching (stalls in unobservable scenes), the odometry-aided
scan matcher on its own, and the full IEKF fusing both.

Every mode steps through the events of ``iekf.schedule``: the matchers
merge odometry with scans, the filter merges it with the aided matcher's
pose measurements. So all four modes share one zero-order hold, one tie
rule and one out-of-order check.

Every mode starts at the log's first ground-truth pose: the matchers at
that pose, the filter at that pose composed with its initial state's pose,
which so acts as the initial error in the start frame. The aided
matcher integrates its own odometry stream (every increment in one batched
exponential) from there through the first scan; the filter only consumes
the matcher's absolute pose measurements, so a badly initialized filter
still receives correctly anchored measurements.

The aided matcher composes poses on arrays, with ``Pose.compose``'s
products, and builds a ``Pose`` only for ``PointCloud.transformed`` and
``aided_step``. In ``iekf`` mode it keeps no pose columns: only its
measurements reach the filter.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, NumericalFailureError
from .icp import IcpConfig
from .iekf import FilterState, NoiseConfig, odometry_increments, run_filter, schedule
from .scan_matching import aided_step, naive_step
from .se3 import Pose, exp_se3, heading  # noqa: F401  (re-export: perfbench traces pipeline.exp_se3)

MODES = ("iekf", "dead-reckoning", "naive-scan-match", "scan-match-only")


def run_aided_matcher(odometry, scans, icp_cfg: IcpConfig, initial_pose: Pose, columns=True):
    """Odometry-aided scan matching over ``Odometry`` columns and a list of
    scans, starting from ``initial_pose``.

    Returns ((t, R, p), measurements): the pose after every event of
    :func:`schedule` as columns t (n,), R (n, 3, 3) and p (n, 3), or None
    without ``columns``, and the list of PoseMeasurements. ICP failures drop
    the measurement and continue on the integrated pose.
    """
    events, dts, held = schedule(odometry.t, [scan.timestamp for scan in scans], 0.0)
    rotations, translations = odometry_increments(dts, odometry.omega[held], odometry.mu[held])
    n = len(events) if columns else 0
    t_col, r_col, p_col = np.empty(n), np.empty((n, 3, 3)), np.empty((n, 3))
    r, p = initial_pose.rotation, initial_pose.translation
    reference = None
    measurements = []
    for i, (step, t, j) in enumerate(events):
        if step >= 0:  # Pose.compose's products
            r, p = r @ rotations[step], r @ translations[step] + p
        if j is not None and reference is None:
            reference = scans[j].transformed(Pose(r, p))
        elif j is not None:
            try:
                meas = aided_step(reference, Pose(r, p), scans[j], icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                pass
            else:
                r, p = meas.measured_pose.rotation, meas.measured_pose.translation
                reference = scans[j].transformed(meas.measured_pose)
                measurements.append(meas)
        if columns:
            t_col[i], r_col[i], p_col[i] = t, r, p
    return ((t_col, r_col, p_col) if columns else None), measurements


def run_naive_matcher(odometry, scans, icp_cfg: IcpConfig, initial_pose: Pose):
    """Naive chained scan matching from ``initial_pose`` over the events of
    :func:`schedule`; odometry events only hold the last pose.

    Returns ((t, R, p), matched): columns as in :func:`run_aided_matcher`
    and the number of scans matched against a reference.
    """
    events, _, _ = schedule(odometry.t, [scan.timestamp for scan in scans], 0.0)
    n = len(events)
    t_col, r_col, p_col = np.empty(n), np.empty((n, 3, 3)), np.empty((n, 3))
    pose = initial_pose
    reference = None
    matched = 0
    for i, (_, t, j) in enumerate(events):
        if j is not None and reference is None:
            reference = scans[j]
        elif j is not None:
            try:
                pose = pose @ naive_step(reference, scans[j], icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                pass
            else:
                reference = scans[j]
                matched += 1
        t_col[i], r_col[i], p_col[i] = t, pose.rotation, pose.translation
    return (t_col, r_col, p_col), matched


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
    measurements = []
    if mode != "dead-reckoning":
        if mode == "naive-scan-match":
            columns, matched = run_naive_matcher(log.odometry, log.scans, icp_cfg, initial_pose)
        else:
            keep = mode == "scan-match-only"  # the filter takes only the measurements
            columns, measurements = run_aided_matcher(log.odometry, log.scans, icp_cfg, initial_pose, keep)
            matched = len(measurements)
        if not matched:
            raise DegenerateGeometryError(
                f"no scan matched in {mode} mode: none of the log's "
                f"{len(log.scans)} scans gave a pose measurement"
            )
    if mode in ("iekf", "dead-reckoning"):
        init = replace(init, pose=initial_pose @ init.pose)
        t, rotations, positions, covariances = run_filter(log.odometry, measurements, noise, init)
    else:
        t, rotations, positions = columns
        covariances = np.zeros((len(t), 6, 6))
    return t, positions[:, 0], positions[:, 1], positions[:, 2], heading(rotations), covariances
