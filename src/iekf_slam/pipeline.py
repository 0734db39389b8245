"""Replay of a scenario log through the estimation modes.

Modes stage the motivating comparisons: dead-reckoning alone (drifts),
naive scan matching (stalls in unobservable scenes), the odometry-aided
scan matcher on its own, and the full IEKF fusing both.

The aided matcher integrates its own odometry stream, anchored at the true
initial pose through the first scan; the filter only consumes the matcher's
absolute pose measurements, so a badly initialized filter still receives
correctly anchored measurements.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, NumericalFailureError
from .icp import IcpConfig
from .iekf import FilterState, NoiseConfig, run_filter
from .scan_matching import AIDED, NAIVE, MatcherState, aided_step, naive_step
from .se3 import Pose, exp_se3

MODES = ("iekf", "dead-reckoning", "naive-scan-match", "scan-match-only")


def _merge_events(odometry, scans):
    """Yield ('odo', sample) / ('scan', cloud) in timestamp order, odometry first on ties."""
    oi, si = 0, 0
    while oi < len(odometry) or si < len(scans):
        take_odo = si >= len(scans) or (
            oi < len(odometry) and odometry[oi].timestamp <= scans[si].timestamp
        )
        if take_odo:
            yield "odo", odometry[oi]
            oi += 1
        else:
            yield "scan", scans[si]
            si += 1


def run_aided_matcher(odometry, scans, sigma, icp_cfg: IcpConfig, initial_pose: Pose):
    """Odometry-aided scan matching over a log, starting from ``initial_pose``.

    Returns (rows, measurements): one (t, pose) row per event and the list of
    PoseMeasurements. ICP failures drop the measurement and continue on the
    integrated pose.
    """
    matcher = MatcherState(mode=AIDED)
    pose = initial_pose
    t = 0.0
    last_sample = None
    rows = []
    measurements = []
    for kind, event in _merge_events(odometry, scans):
        if event.timestamp > t and last_sample is not None:
            pose = pose @ exp_se3((event.timestamp - t) * last_sample.twist())
        t = max(t, event.timestamp)
        if kind == "odo":
            last_sample = event
        else:
            try:
                meas = aided_step(matcher, pose, event, sigma, icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                meas = None
            if meas is not None:
                pose = meas.measured_pose
                measurements.append(meas)
        rows.append((t, pose))
    return rows, measurements


def run_naive_matcher(odometry, scans, icp_cfg: IcpConfig):
    """Naive chained scan matching; odometry events only hold the last pose."""
    matcher = MatcherState(mode=NAIVE)
    rows = []
    for kind, event in _merge_events(odometry, scans):
        if kind == "scan":
            try:
                naive_step(matcher, event, icp_cfg)
            except (DegenerateGeometryError, NumericalFailureError):
                pass
        rows.append((event.timestamp, matcher.pose_estimate))
    return rows


def run_pipeline(log, mode, noise: NoiseConfig, init: FilterState, icp_cfg: IcpConfig, sigma=None):
    """Replay a ScenarioLog through one estimation mode.

    Returns rows of (t, Pose, covariance-or-None), one per event.
    ``sigma`` is the assumed per-point cloud noise used for measurement
    covariances; defaults to icp_cfg.sigma.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    sigma = icp_cfg.sigma if sigma is None else sigma

    if mode == "naive-scan-match":
        return [(t, pose, None) for t, pose in run_naive_matcher(log.odometry, log.scans, icp_cfg)]

    initial_pose = log.ground_truth[0][1]
    if mode == "scan-match-only":
        rows, _ = run_aided_matcher(log.odometry, log.scans, sigma, icp_cfg, initial_pose)
        return [(t, pose, None) for t, pose in rows]

    if mode == "dead-reckoning":
        measurements = []
    else:
        _, measurements = run_aided_matcher(
            log.odometry, log.scans, sigma, icp_cfg, initial_pose
        )

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
