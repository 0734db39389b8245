"""Replay of a scenario log through the estimation modes.

Modes stage the motivating comparisons: dead-reckoning alone (drifts),
naive scan matching (stalls in unobservable scenes), the odometry-aided
scan matcher on its own, and the full IEKF fusing both.

Every mode steps through the events of ``iekf.schedule``: the matchers
merge odometry with scans, the filter merges it with the aided matcher's
pose measurements. So all four modes share one zero-order hold, one tie
rule and one out-of-order check.

Both matchers start at the log's first ground-truth pose. The aided matcher
integrates its own odometry stream (every increment in one batched
exponential) from there through the first scan; the filter only consumes
the matcher's absolute pose measurements, so a badly initialized filter
still receives correctly anchored measurements.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, NumericalFailureError
from .icp import IcpConfig
from .iekf import FilterState, NoiseConfig, odometry_increments, run_filter, schedule
from .scan_matching import AIDED, NAIVE, MatcherState, aided_step, naive_step
from .se3 import Pose, exp_se3  # noqa: F401  (re-export: perfbench traces pipeline.exp_se3)

MODES = ("iekf", "dead-reckoning", "naive-scan-match", "scan-match-only")


def run_aided_matcher(odometry, scans, icp_cfg: IcpConfig, initial_pose: Pose):
    """Odometry-aided scan matching over a log, starting from ``initial_pose``.

    Returns (rows, measurements): one (t, pose) row per event of
    :func:`schedule` and the list of PoseMeasurements. ICP failures drop the
    measurement and continue on the integrated pose. Every odometry
    increment of the log is computed in one batch before the sequential
    pass.
    """
    events, dts, samples = schedule(odometry, scans, 0.0)
    rotations, translations = odometry_increments(dts, samples)
    matcher = MatcherState(mode=AIDED)
    pose = initial_pose
    rows = []
    measurements = []
    for step, t, scan in events:
        if step >= 0:
            pose = pose @ Pose(rotations[step], translations[step])
        if scan is not None:
            try:
                meas = aided_step(matcher, pose, scan, icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                meas = None
            if meas is not None:
                pose = meas.measured_pose
                measurements.append(meas)
        rows.append((t, pose))
    return rows, measurements


def run_naive_matcher(odometry, scans, icp_cfg: IcpConfig, initial_pose: Pose):
    """Naive chained scan matching from ``initial_pose`` over the events of
    :func:`schedule`; odometry events only hold the last pose.

    Returns (rows, matched): one (t, pose) row per event and the number of
    scans matched against a reference.
    """
    events, _, _ = schedule(odometry, scans, 0.0)
    matcher = MatcherState(mode=NAIVE, pose_estimate=initial_pose)
    matched = 0
    rows = []
    for _, t, scan in events:
        if scan is not None:
            has_reference = matcher.reference_cloud is not None
            try:
                naive_step(matcher, scan, icp_cfg)
                matched += has_reference
            except (DegenerateGeometryError, NumericalFailureError):
                pass
        rows.append((t, matcher.pose_estimate))
    return rows, matched


def run_pipeline(log, mode, noise: NoiseConfig, init: FilterState, icp_cfg: IcpConfig):
    """Replay a ScenarioLog through one estimation mode.

    Returns rows of (t, Pose, covariance-or-None), one per event. In every
    mode but dead reckoning, a log in which no scan gives a pose measurement
    raises DegenerateGeometryError.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")

    initial_pose = log.ground_truth[0][1]
    measurements = []
    if mode != "dead-reckoning":
        if mode == "naive-scan-match":
            rows, matched = run_naive_matcher(log.odometry, log.scans, icp_cfg, initial_pose)
        else:
            rows, measurements = run_aided_matcher(log.odometry, log.scans, icp_cfg, initial_pose)
            matched = len(measurements)
        if not matched:
            raise DegenerateGeometryError(
                f"no scan matched in {mode} mode: none of the log's "
                f"{len(log.scans)} scans gave a pose measurement"
            )
        if mode != "iekf":
            return [(t, pose, None) for t, pose in rows]

    return [
        (state.timestamp, state.pose, state.covariance)
        for state in run_filter(log.odometry, measurements, noise, init)
    ]


def noise_from_meta(meta) -> NoiseConfig:
    """Reconstruct the process-noise config recorded in a log's meta file."""
    try:
        gyro = np.diag([float(v) for v in meta["gyro_cov_diag"].split()])
        vel = np.diag([float(v) for v in meta["velocity_cov_diag"].split()])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"log meta lacks usable noise covariances: {exc}") from exc
    return NoiseConfig(gyro, vel)
