"""On-disk formats: log directories, point clouds, estimates and error series.

Each is a text table, read by ``_read_table`` and written by ``_write_table``
with repr floats (shortest round-trip decimal), so a dump and its reload are
bit-identical and seeded runs write byte-identical files. CSVs have a header
and no comments; ``.xyz`` clouds have neither header nor commas, but allow
``#`` comments. The ``meta`` file is ``key = value`` text, not a table.

``_read_table`` parses a table with numpy's C text reader (``np.loadtxt`` on
the open file), which gives ``float()``'s bits for every value it accepts; a
table it refuses, or reads at the wrong width, goes through the Python line
loop, which names the bad row's ``path:line``. A log's own tables must hold
finite numbers: one ``np.isfinite`` check per table, and the line loop names
the first row that fails it. Estimates files may hold NaN and infinities,
and round-trip them. ``evaluate`` reads only their t, x, y and psi columns
(``load_estimates(path, planar=True)``): it accepts a malformed z or P value,
which it never parses, but refuses a row of other than 41 values, and a
non-finite t, x, y or psi, at ``path:line``.

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

from .errors import EvaluationError, ParseError
from .iekf import NoiseConfig
from .metrics import MetricsReport
from .pointcloud import BODY, PointCloud
from .simulator import Odometry, ScenarioLog, Trajectory

GROUND_TRUTH_HEADER = "t,r00,r01,r02,r10,r11,r12,r20,r21,r22,x,y,z"
ODOMETRY_HEADER = "t,wx,wy,wz,vx,vy,vz"
ESTIMATES_HEADER = "t,x,y,z,psi," + ",".join(f"P{i}{j}" for i in range(6) for j in range(6))
COUNT_CHUNK = 1 << 18  # bytes that ``_count_byte`` reads at a time
# Rows formatted per block by ``_write_table``. Saving a 3,456-row estimates
# table (1.13 MB as float64) peaks at 1.65 MB traced with 128-row blocks,
# the stacked table included, against 14.6 MB in one pass over the whole
# table.
BLOCK_ROWS = 128


def _read_table(
    path, header, n_cols, sep=",", comments=None, converters=None, header_strip="\n", finite=None, usecols=None
):
    """Read the ``usecols`` (None: all) of a text table of n_cols columns
    into a float64 array, skipping blank lines. ``header`` (None: none) must
    equal the first line stripped of ``header_strip`` (None: of all
    surrounding whitespace); ``sep=None`` splits on whitespace. Each value read
    is ``float()`` (or ``converters[column]``, which must return a number exact
    as a float64) of its text. A bad value, or a row of other than n_cols
    values, raises ParseError at ``path:line``; so does a NaN or an infinity
    among the values read, as the exception class ``finite`` when given.
    Without converters, ``np.loadtxt`` reads the table first. With ``usecols``
    (a one-character ``sep``, no comments) it also reads the last column, so
    each row holds at least n_cols values, and a file of n_cols - 1
    separators a row (besides the header's) has none that holds more. The
    line loop also takes ``float()``'s extra spellings (``1_0``, non-ASCII
    digits); the one text the C reader takes and ``float()`` refuses is a CSV
    value with the ASCII separators ``\x1c``-``\x1f`` around it, which it
    strips as whitespace."""
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    cols = list(range(n_cols)) if usecols is None else list(usecols)
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
                    data = np.loadtxt(
                        fh, dtype=float, delimiter=sep, comments=comments, ndmin=2,
                        usecols=None if usecols is None else [*cols, n_cols - 1],
                    )
                if usecols is None:
                    whole = data.shape[1] == n_cols
                else:
                    whole = _count_byte(path, sep) == (header or "").count(sep) + (n_cols - 1) * len(data)
                    data = data[:, :-1]
                if whole and (finite is None or np.isfinite(data).all()):
                    return data
            except ValueError:
                pass
            fh.seek(start)
        lines = fh if comments is None else (line.split(comments, 1)[0] for line in fh)
        convert = [(col, converters.get(col, float) if converters else float) for col in cols]
        return _parse_lines(path, lines, first, n_cols, sep, convert, finite)


def _count_byte(path, char):
    """How many times the one-byte ``char`` occurs in the file."""
    count, code = 0, ord(char)
    with open(path, "rb") as fh:
        while chunk := fh.read(COUNT_CHUNK):
            count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == code))
    return count


def _parse_lines(path, lines, first, n_cols, sep, convert, finite):
    """The non-blank ``lines`` (numbered from ``first``), each read by ``convert``'s
    (column, converter) pairs: the path for converters, and the one that names ``path:line``."""
    rows = []
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            row = [conv(parts[col]) for col, conv in convert]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if finite is not None and not all(map(math.isfinite, row)):
            raise finite(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(convert))


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
    return PointCloud(_read_table(path, None, 3, sep=None, comments="#", finite=ParseError), frame, timestamp)


def save_ground_truth(path, ground_truth):
    """Write a Trajectory's (t, rotations, translations) columns."""
    t, rotations, translations = ground_truth
    _write_table(path, GROUND_TRUTH_HEADER, np.column_stack([t, np.reshape(rotations, (-1, 9)), translations]))


def load_ground_truth(path) -> Trajectory:
    """The table's Trajectory: its columns as views of the one array read."""
    data = _read_table(path, GROUND_TRUTH_HEADER, 13, finite=ParseError)
    if not len(data):
        raise ParseError(f"{path}: no rows after the header")
    return Trajectory(data[:, 0], data[:, 1:10].reshape(-1, 3, 3), data[:, 10:])


def save_estimates(path, estimates):
    """Write the (t, x, y, z, psi, P) columns that :func:`load_estimates`
    returns; P has shape (n, 6, 6)."""
    t, x, y, z, psi, covariances = estimates
    _write_table(path, ESTIMATES_HEADER, np.column_stack([t, x, y, z, psi, np.reshape(covariances, (-1, 36))]))


def load_estimates(path, planar=False):
    """Returns (t, x, y, z, psi, P) arrays, NaN and infinities included; P has
    shape (n, 6, 6). With ``planar``, only the finite (t, x, y, psi) that
    ``evaluate`` scores, as the module docstring says."""
    if planar:
        return tuple(_read_table(path, ESTIMATES_HEADER, 41, finite=EvaluationError, usecols=(0, 1, 2, 4)).T)
    data = _read_table(path, ESTIMATES_HEADER, 41)
    return (*data[:, :5].T, data[:, 5:].reshape(-1, 6, 6))


def save_error_series(path, report: MetricsReport):
    table = np.column_stack([report.times, report.err_x, report.err_y, report.err_psi])
    _write_table(path, "t,err_x,err_y,err_psi", table)


def save_log(log: ScenarioLog, directory):
    scans_dir = os.path.join(directory, "scans")
    os.makedirs(scans_dir, exist_ok=True)
    save_ground_truth(os.path.join(directory, "ground_truth.csv"), log.ground_truth)
    _write_table(os.path.join(directory, "odometry.csv"), ODOMETRY_HEADER, np.column_stack(log.odometry))
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
    odo = _read_table(odometry_path, ODOMETRY_HEADER, 7, finite=ParseError)
    if not len(odo):
        raise ParseError(f"{odometry_path}: no rows after the header")
    scans_dir = os.path.join(directory, "scans")
    index = _read_table(
        os.path.join(scans_dir, "index.csv"), "id,t", 2, converters={0: _scan_id}, header_strip=None, finite=ParseError
    )
    scans = [load_xyz(os.path.join(scans_dir, f"{int(i):05d}.xyz"), BODY, float(t)) for i, t in index]
    odometry = Odometry(odo[:, 0], odo[:, 1:4], odo[:, 4:7])
    return ScenarioLog(ground_truth=ground_truth, odometry=odometry, scans=scans, seed=seed, meta=meta)
