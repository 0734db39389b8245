"""RMS error metrics of an estimate stream against a reference trajectory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .se3 import heading, wrap_angle


@dataclass(frozen=True)
class MetricsReport:
    rms_x: float
    rms_y: float
    rms_psi: float  # rad
    max_x: float
    max_y: float
    max_psi: float
    trajectory_length: float
    count: int
    times: np.ndarray
    err_x: np.ndarray
    err_y: np.ndarray
    err_psi: np.ndarray


def ground_truth_planar(ground_truth):
    """(t, x, y, psi) arrays from (t, rotations, translations) columns: each
    pose's plane position, with psi the ``heading`` of its rotation."""
    t, rotations, translations = ground_truth
    return t, translations[:, 0], translations[:, 1], heading(rotations)


def evaluate_series(est_t, est_x, est_y, est_psi, gt_t, gt_x, gt_y, gt_psi, max_dt):
    """Match estimates to the reference by nearest timestamp (within max_dt)
    and compute RMS / max errors; heading errors are wrapped to (-pi, pi]."""
    est_t = np.asarray(est_t, dtype=float)
    gt_t = np.asarray(gt_t, dtype=float)
    if est_t.size == 0 or gt_t.size == 0:
        raise EvaluationError("empty estimate or reference stream")
    order = np.argsort(gt_t)
    gt_t, gt_x, gt_y, gt_psi = gt_t[order], np.asarray(gt_x)[order], np.asarray(gt_y)[order], np.asarray(gt_psi)[order]
    pos = np.searchsorted(gt_t, est_t)
    pos = np.clip(pos, 1, gt_t.size - 1) if gt_t.size > 1 else np.zeros_like(pos)
    left = np.maximum(pos - 1, 0)
    use_left = np.abs(est_t - gt_t[left]) <= np.abs(est_t - gt_t[pos])
    nearest = np.where(use_left, left, pos)
    matched = np.abs(est_t - gt_t[nearest]) <= max_dt
    if not np.any(matched):
        raise EvaluationError("estimate and reference time ranges do not overlap")
    idx = nearest[matched]
    err_x = np.asarray(est_x)[matched] - gt_x[idx]
    err_y = np.asarray(est_y)[matched] - gt_y[idx]
    err_psi = wrap_angle(np.asarray(est_psi)[matched] - gt_psi[idx])
    length = float(np.sum(np.hypot(np.diff(gt_x), np.diff(gt_y))))
    rms = lambda e: float(np.sqrt(np.mean(e**2)))
    return MetricsReport(
        rms_x=rms(err_x),
        rms_y=rms(err_y),
        rms_psi=rms(err_psi),
        max_x=float(np.max(np.abs(err_x))),
        max_y=float(np.max(np.abs(err_y))),
        max_psi=float(np.max(np.abs(err_psi))),
        trajectory_length=length,
        count=int(idx.size),
        times=est_t[matched],
        err_x=err_x,
        err_y=err_y,
        err_psi=err_psi,
    )


def report_text(report: MetricsReport) -> str:
    lines = [
        "# reference trajectory: exact simulator ground truth (no hardware reference)",
        f"rms_x = {report.rms_x!r}",
        f"rms_y = {report.rms_y!r}",
        f"rms_psi = {report.rms_psi!r}",
        f"rms_psi_deg = {float(np.degrees(report.rms_psi))!r}",
        f"max_x = {report.max_x!r}",
        f"max_y = {report.max_y!r}",
        f"max_psi = {report.max_psi!r}",
        f"trajectory_length = {report.trajectory_length!r}",
        f"samples = {report.count}",
    ]
    return "\n".join(lines) + "\n"
