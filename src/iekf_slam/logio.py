"""On-disk formats: log directories, point clouds, estimates and error series.

Each is a text table, read by ``_read_table`` and written by ``_write_table``
with repr floats (shortest round-trip decimal), so a dump and its reload are
bit-identical and seeded runs write byte-identical files. CSVs have a header
and no comments; ``.xyz`` clouds have neither header nor commas, but allow
``#`` comments. The ``meta`` file is ``key = value`` text, not a table.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError
from .iekf import OdometrySample
from .metrics import MetricsReport
from .pointcloud import BODY, PointCloud
from .se3 import Pose
from .simulator import ScenarioLog

GROUND_TRUTH_HEADER = "t,r00,r01,r02,r10,r11,r12,r20,r21,r22,x,y,z"
ODOMETRY_HEADER = "t,wx,wy,wz,vx,vy,vz"
ESTIMATES_HEADER = "t,x,y,z,psi," + ",".join(f"P{i}{j}" for i in range(6) for j in range(6))


def _read_table(path, header, n_cols, sep=",", comments=None, converters=None, header_strip="\n"):
    """Read a text table into a float64 (n, n_cols) array, skipping blank lines.
    ``header`` (None: none) must equal the first line stripped of ``header_strip``
    (None: of all surrounding whitespace); ``sep=None`` splits on whitespace. Each
    value is ``float()`` (or ``converters[column]``, which must return a number
    exact as a float64) of its text; a bad row raises ParseError at ``path:line``."""
    convert = [converters.get(col, float) for col in range(n_cols)] if converters else None
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        if header is not None and fh.readline().strip(header_strip) != header:
            raise ParseError(f"{path}:1: expected header {header!r}")
        for lineno, line in enumerate(fh, start=1 if header is None else 2):
            if comments is not None:
                line = line.split(comments, 1)[0]
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != n_cols:
                raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
            try:
                if convert is None:  # the common case, as fast as the loops it replaced
                    rows.append([float(part) for part in parts])
                else:
                    rows.append([conv(part) for conv, part in zip(convert, parts)])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, n_cols)


def _write_table(path, header, rows, sep=","):
    """Write ``header`` (unless None), then each row as ``sep.join(map(repr, row))``.
    Rows of Python numbers: an array's rows go through ``tolist`` one at a time, since
    numpy scalars repr as ``np.float64(...)`` and a whole table of floats takes 3x the memory."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        if isinstance(rows, np.ndarray):
            rows = map(np.ndarray.tolist, rows)
        fh.writelines(sep.join(map(repr, row)) + "\n" for row in rows)


def save_xyz(cloud: PointCloud, path):
    _write_table(path, None, cloud.points, sep=" ")


def load_xyz(path, frame=BODY, timestamp=0.0) -> PointCloud:
    """Read a cloud from text: one `x y z` per line, `#` comments, blanks ok."""
    return PointCloud(_read_table(path, None, 3, sep=None, comments="#"), frame, timestamp)


def save_ground_truth(path, stream):
    stream = list(stream)
    poses = np.reshape([pose.to_row() for _, pose in stream], (-1, 12))
    table = np.column_stack([[t for t, _ in stream], poses])
    _write_table(path, GROUND_TRUTH_HEADER, table)


def load_ground_truth(path):
    data = _read_table(path, GROUND_TRUTH_HEADER, 13)
    return [(float(row[0]), Pose.from_row(row[1:])) for row in data]


def save_estimates(path, rows):
    """rows: iterable of (t, Pose, 6x6 covariance or None)."""
    rows = list(rows)
    poses = np.reshape([pose.to_row() for _, pose, _ in rows], (-1, 12))  # R row-major, then p
    psi = np.arctan2(poses[:, 3], poses[:, 0])  # planar_extract's atan2(R10, R00)
    covariances = np.reshape([np.zeros((6, 6)) if cov is None else cov for _, _, cov in rows], (-1, 36))
    table = np.column_stack([[t for t, _, _ in rows], poses[:, 9:], psi, covariances])
    _write_table(path, ESTIMATES_HEADER, table)


def load_estimates(path):
    """Returns (t, x, y, z, psi, P) arrays; P has shape (n, 6, 6)."""
    data = _read_table(path, ESTIMATES_HEADER, 41)
    return (*data[:, :5].T, data[:, 5:].reshape(-1, 6, 6))


def save_error_series(path, report: MetricsReport):
    table = np.column_stack([report.times, report.err_x, report.err_y, report.err_psi])
    _write_table(path, "t,err_x,err_y,err_psi", table)


def save_log(log: ScenarioLog, directory):
    scans_dir = os.path.join(directory, "scans")
    os.makedirs(scans_dir, exist_ok=True)
    save_ground_truth(os.path.join(directory, "ground_truth.csv"), log.ground_truth)
    odometry = np.array([[s.timestamp, *s.omega, *s.mu] for s in log.odometry]).reshape(-1, 7)
    _write_table(os.path.join(directory, "odometry.csv"), ODOMETRY_HEADER, odometry)
    index = [[i, float(scan.timestamp)] for i, scan in enumerate(log.scans)]
    _write_table(os.path.join(scans_dir, "index.csv"), "id,t", index)
    for i, scan in enumerate(log.scans):
        save_xyz(scan, os.path.join(scans_dir, f"{i:05d}.xyz"))
    with open(os.path.join(directory, "meta"), "w") as fh:
        for key in sorted(log.meta):
            fh.write(f"{key} = {log.meta[key]}\n")


def load_meta(path):
    meta = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            meta[key.strip()] = value.strip()
    return meta


def _scan_id(text):
    """An integer scan id, exact as a float64: at most 2**53 in magnitude."""
    scan_id = int(text)
    if abs(scan_id) > 2**53:
        raise ValueError("scan id beyond 2**53 in magnitude")
    return scan_id


def load_log(directory) -> ScenarioLog:
    meta = load_meta(os.path.join(directory, "meta"))
    ground_truth = load_ground_truth(os.path.join(directory, "ground_truth.csv"))
    odo = _read_table(os.path.join(directory, "odometry.csv"), ODOMETRY_HEADER, 7)
    odometry = [OdometrySample(row[1:4], row[4:7], float(row[0])) for row in odo]
    scans_dir = os.path.join(directory, "scans")
    index = _read_table(os.path.join(scans_dir, "index.csv"), "id,t", 2, converters={0: _scan_id}, header_strip=None)
    scans = [load_xyz(os.path.join(scans_dir, f"{int(i):05d}.xyz"), BODY, float(t)) for i, t in index]
    return ScenarioLog(
        ground_truth=ground_truth,
        odometry=odometry,
        scans=scans,
        seed=int(meta.get("seed", "0")),
        meta=meta,
    )
