"""On-disk formats: log directories, point clouds, estimates and error series.

Each is a text table, read by ``_read_table`` and written by ``_write_table``
with repr floats (shortest round-trip decimal), so a dump and its reload are
bit-identical and seeded runs write byte-identical files. CSVs have a header
and no comments; ``.xyz`` clouds have neither header nor commas, but allow
``#`` comments. The ``meta`` file is ``key = value`` text, not a table.

``_read_table`` parses a table with numpy's C text reader (``np.loadtxt`` on
the open file), which gives ``float()``'s bits for every value it accepts; a
table it refuses, or reads at the wrong width, goes through the Python line
loop, which names the bad row's ``path:line``. The C reader's peak is about
the result: 1.26 MB for a 3,456-row estimates table of 1.13 MB. A log's own
tables must hold finite numbers: one ``np.isfinite`` check per table, and
the line loop names the first row that fails it. Estimates files may hold
NaN and infinities, and round-trip them.

``_write_table`` formats a float table BLOCK_ROWS rows at a time, with one
``repr`` per distinct value of the block. Values repeat within a row: an
estimates row is t, x, y, z, psi and a P that is written bit-symmetric, so at
most 26 of its 41 values are distinct (5 + the 21 of P's upper triangle),
and zero rows and constant columns repeat across rows.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .errors import ParseError
from .iekf import NoiseConfig, OdometrySample
from .metrics import MetricsReport
from .pointcloud import BODY, PointCloud
from .se3 import Pose
from .simulator import ScenarioLog

GROUND_TRUTH_HEADER = "t,r00,r01,r02,r10,r11,r12,r20,r21,r22,x,y,z"
ODOMETRY_HEADER = "t,wx,wy,wz,vx,vy,vz"
ESTIMATES_HEADER = "t,x,y,z,psi," + ",".join(f"P{i}{j}" for i in range(6) for j in range(6))
# Rows formatted per block by ``_write_table``. Saving a 3,456-row estimates
# table (1.13 MB as float64) peaks at 1.65 MB traced with 128-row blocks,
# the stacked table included, against 14.6 MB in one pass over the whole
# table.
BLOCK_ROWS = 128


def _read_table(path, header, n_cols, sep=",", comments=None, converters=None, header_strip="\n", finite=False):
    """Read a text table into a float64 (n, n_cols) array, skipping blank lines.
    ``header`` (None: none) must equal the first line stripped of ``header_strip``
    (None: of all surrounding whitespace); ``sep=None`` splits on whitespace. Each
    value is ``float()`` (or ``converters[column]``, which must return a number
    exact as a float64) of its text; a bad row raises ParseError at ``path:line``,
    and with ``finite`` so does a row holding a NaN or an infinity.
    Without converters, ``np.loadtxt`` reads the rows; if it refuses them,
    reads other than ``n_cols`` columns (as it does a table with no rows) or,
    with ``finite``, reads a non-finite value, the line loop reads them again
    from the first data line, and also takes ``float()``'s extra spellings
    (``1_0``, non-ASCII digits). The one text the C reader takes and
    ``float()`` refuses is a CSV value with the ASCII separators
    ``\x1c``-``\x1f`` around it, which it strips as whitespace."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        first = 1
        if header is not None:
            if fh.readline().strip(header_strip) != header:
                raise ParseError(f"{path}:1: expected header {header!r}")
            first = 2
        if not converters:
            start = fh.tell()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    data = np.loadtxt(fh, dtype=float, delimiter=sep, comments=comments, ndmin=2)
                if data.shape[1] == n_cols and (not finite or np.isfinite(data).all()):
                    return data
            except ValueError:
                pass
            fh.seek(start)
        lines = fh if comments is None else (line.split(comments, 1)[0] for line in fh)
        convert = [converters.get(col, float) for col in range(n_cols)] if converters else [float] * n_cols
        return _parse_lines(path, lines, first, n_cols, sep, convert, finite)


def _parse_lines(path, lines, first, n_cols, sep, convert, finite):
    """The non-blank ``lines`` (numbered from ``first``) one at a time: the
    path for converters, and the one that names a bad row's ``path:line``."""
    rows = []
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            row = [conv(part) for conv, part in zip(convert, parts)]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if finite and not all(map(math.isfinite, row)):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, n_cols)


def _write_table(path, header, rows, sep=","):
    """Write ``header`` (unless None), then each row as ``sep.join(map(repr, row))``.

    An array is written as float64, BLOCK_ROWS rows at a time: ``repr`` runs
    once per distinct bit pattern of the block (``np.unique`` of its uint64
    view, so -0.0 and 0.0 stay apart), and each row is joined from those
    strings. Rows of Python numbers (the scan index's int ids) are written
    one at a time."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), BLOCK_ROWS):
                fh.writelines(_format_block(rows[start : start + BLOCK_ROWS], sep))
        else:
            fh.writelines(sep.join(map(repr, row)) + "\n" for row in rows)


def _format_block(block, sep):
    """The text lines of a block of rows, formatting each distinct value once."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    texts = np.array([repr(value) for value in keys.view(np.float64).tolist()], dtype=object)
    return [sep.join(row) + "\n" for row in texts[inverse.reshape(block.shape)].tolist()]


def save_xyz(cloud: PointCloud, path):
    _write_table(path, None, cloud.points, sep=" ")


def load_xyz(path, frame=BODY, timestamp=0.0) -> PointCloud:
    """Read a cloud from text: one `x y z` per line, `#` comments, blanks ok."""
    return PointCloud(_read_table(path, None, 3, sep=None, comments="#", finite=True), frame, timestamp)


def save_ground_truth(path, stream):
    stream = list(stream)
    poses = np.reshape([pose.to_row() for _, pose in stream], (-1, 12))
    table = np.column_stack([[t for t, _ in stream], poses])
    _write_table(path, GROUND_TRUTH_HEADER, table)


def load_ground_truth(path):
    data = _read_table(path, GROUND_TRUTH_HEADER, 13, finite=True)
    if not len(data):
        raise ParseError(f"{path}: no rows after the header")
    rotations = data[:, 1:10].reshape(-1, 3, 3)
    return [(t, Pose(rotation, p)) for t, rotation, p in zip(data[:, 0].tolist(), rotations, data[:, 10:])]


def save_estimates(path, estimates):
    """Write the (t, x, y, z, psi, P) columns that :func:`load_estimates`
    returns; P has shape (n, 6, 6)."""
    t, x, y, z, psi, covariances = estimates
    _write_table(path, ESTIMATES_HEADER, np.column_stack([t, x, y, z, psi, np.reshape(covariances, (-1, 36))]))


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


def noise_from_meta(meta) -> NoiseConfig:
    """The process noise recorded in a log's meta; ValueError if it is missing or malformed."""
    covariances = []
    for key in ("gyro_cov_diag", "velocity_cov_diag"):
        try:
            covariances.append(np.diag(np.array([float(v) for v in meta[key].split()]).reshape(3)))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{key} needs 3 numbers, got {meta.get(key)!r}") from exc
    return NoiseConfig(*covariances)


def _scan_id(text):
    """An integer scan id, exact as a float64: at most 2**53 in magnitude."""
    scan_id = int(text)
    if abs(scan_id) > 2**53:
        raise ValueError("scan id beyond 2**53 in magnitude")
    return scan_id


def load_log(directory) -> ScenarioLog:
    meta_path = os.path.join(directory, "meta")
    meta = load_meta(meta_path)
    try:
        seed = int(meta.get("seed", "0"))
        float(meta.get("cloud_sigma", "0"))  # `run` takes its ICP point noise from it
        noise_from_meta(meta)  # and its process noise from these
    except ValueError as exc:
        raise ParseError(f"{meta_path}: {exc}") from exc
    ground_truth = load_ground_truth(os.path.join(directory, "ground_truth.csv"))
    odometry_path = os.path.join(directory, "odometry.csv")
    odo = _read_table(odometry_path, ODOMETRY_HEADER, 7, finite=True)
    if not len(odo):
        raise ParseError(f"{odometry_path}: no rows after the header")
    odometry = [OdometrySample(row[1:4], row[4:7], float(row[0])) for row in odo]
    scans_dir = os.path.join(directory, "scans")
    index = _read_table(
        os.path.join(scans_dir, "index.csv"), "id,t", 2, converters={0: _scan_id}, header_strip=None, finite=True
    )
    scans = [load_xyz(os.path.join(scans_dir, f"{int(i):05d}.xyz"), BODY, float(t)) for i, t in index]
    return ScenarioLog(
        ground_truth=ground_truth,
        odometry=odometry,
        scans=scans,
        seed=seed,
        meta=meta,
    )
