"""Contract of the on-disk text tables: the header check, `path:line` in
every parse error, blank lines, the integer scan ids, the comment and
separator rules, bit-exact save/load round trips, the split between
numpy's C reader, which parses clean tables, and the line loop, which
names a bad row's line and takes the spellings only ``float()`` accepts,
the refusal of non-finite values in a log's own tables, and the block
writer's bytes against the per-value writer."""

import glob
import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from iekf_slam.cli import main
from iekf_slam.errors import EvaluationError, ParseError
from iekf_slam.iekf import NoiseConfig
from iekf_slam import logio
from iekf_slam.logio import load_estimates, load_log, load_xyz, save_estimates, save_log, save_xyz
from iekf_slam.pipeline import MODES
from iekf_slam.se3 import exp_se3, heading
from iekf_slam.simulator import SensorRates, TrajectorySpec, default_world, run_scenario

CSV_TABLES = ["ground_truth.csv", "odometry.csv", "scans/index.csv", "estimates.csv"]
TABLES = CSV_TABLES + ["scans/00001.xyz"]

# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the extremes, and sums that are not their decimal literal.
EDGE = np.array([-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1 + 0.2, 1e16])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_bits_equal(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(bits(a), bits(b))


def log_arrays(log):
    """Everything load_log reads, as arrays for bitwise comparison."""
    return [
        *log.ground_truth,
        *log.odometry,
        log.scans.t,
        *log.scans.points,
    ]


def estimate_columns(rng, n=12):
    """(t, x, y, z, psi, P) of n random poses; every fourth P is zero, as
    the matcher modes write it."""
    positions, rotations, covariances = np.empty((n, 3)), np.empty((n, 3, 3)), np.zeros((n, 6, 6))
    for k in range(n):
        if k % 4:
            covariances[k] = rng.standard_normal((6, 6))
        pose = exp_se3(rng.uniform(-2, 2, 6))
        rotations[k], positions[k] = pose.rotation, pose.translation
    return (0.1 * np.arange(n), *positions.T, heading(rotations), covariances)


def load(directory, name):
    if name == "estimates.csv":
        return list(load_estimates(os.path.join(directory, name)))
    return log_arrays(load_log(directory))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    spec = TrajectorySpec(kind="straight", speed=0.25, duration=1.0)
    log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), 5)
    directory = tmp_path_factory.mktemp("saved") / "log"
    save_log(log, directory)
    save_estimates(os.path.join(directory, "estimates.csv"), estimate_columns(np.random.default_rng(7)))
    return log, directory


@pytest.fixture
def log_dir(saved, tmp_path):
    directory = tmp_path / "log"
    shutil.copytree(saved[1], directory)
    return str(directory)


def edit_lines(directory, name, edit):
    path = os.path.join(directory, name)
    with open(path) as fh:
        lines = fh.read().split("\n")
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def separator(name):
    return " " if name.endswith(".xyz") else ","


def error_at(name, line):
    return re.escape(f"{os.path.basename(name)}:{line}:")


def corrupt_fifth_line(directory, name, change):
    """Insert a blank line 4 and rewrite line 5 (a data line in every table),
    so the reported line number has to count the blank line."""

    def edit(lines):
        lines.insert(3, "")
        lines[4] = change(lines[4], separator(name))

    edit_lines(directory, name, edit)


class TestParseErrors:
    def test_xyz_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(ParseError, match=r"bad\.xyz:2"):
            load_xyz(path)

    @pytest.mark.parametrize("name", CSV_TABLES)
    def test_wrong_header_names_line_1(self, log_dir, name):
        edit_lines(log_dir, name, lambda lines: lines.__setitem__(0, "t,x,y"))
        with pytest.raises(ParseError, match=error_at(name, 1)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", CSV_TABLES)
    def test_missing_header_names_line_1(self, log_dir, name):
        edit_lines(log_dir, name, lambda lines: lines.pop(0))
        with pytest.raises(ParseError, match=error_at(name, 1)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", TABLES)
    def test_missing_column_names_its_line(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line.rsplit(sep, 1)[0])
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", TABLES)
    def test_extra_column_names_its_line(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line + sep + "1.0")
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", TABLES)
    def test_non_numeric_value_names_its_line(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line.rsplit(sep, 1)[0] + sep + "abc")
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", CSV_TABLES)
    def test_empty_field_names_its_line(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: sep + line.split(sep, 1)[1])
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    # Ids are read into a float64 table, so those beyond 2**53 would be
    # rounded to another id (and file name), or overflow.
    @pytest.mark.parametrize(
        "scan_id", ["1.5", "1.0", "one", "", "1" + "0" * 400, str(2**53 + 1), str(-(2**53) - 1)],
        ids=["1.5", "1.0", "one", "empty", "400-digits", "2**53+1", "-(2**53+1)"],
    )
    def test_non_integer_scan_id_rejected(self, log_dir, scan_id):
        def edit(lines):
            lines[2] = scan_id + "," + lines[2].split(",")[1]

        edit_lines(log_dir, "scans/index.csv", edit)
        with pytest.raises(ParseError, match=error_at("index.csv", 3)):
            load_log(log_dir)

    @pytest.mark.parametrize("name", ["ground_truth.csv", "odometry.csv", "estimates.csv"])
    @pytest.mark.parametrize("header", ["{} ", " {}", "{}\t"])
    def test_csv_header_allows_no_surrounding_whitespace(self, log_dir, name, header):
        edit_lines(log_dir, name, lambda lines: lines.__setitem__(0, header.format(lines[0])))
        with pytest.raises(ParseError, match=error_at(name, 1)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", CSV_TABLES)
    def test_csv_rejects_comments(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line + "  # note")
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    @pytest.mark.parametrize("name", CSV_TABLES)
    def test_csv_rejects_whitespace_separators(self, log_dir, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line.replace(",", "\t"))
        with pytest.raises(ParseError, match=error_at(name, 5)):
            load(log_dir, name)

    def test_missing_file_is_a_parse_error(self, log_dir):
        os.remove(os.path.join(log_dir, "odometry.csv"))
        with pytest.raises(ParseError, match="odometry.csv"):
            load_log(log_dir)


class TestAccepted:
    @pytest.mark.parametrize("name", TABLES)
    def test_blank_lines_skipped(self, log_dir, name):
        want = load(log_dir, name)

        def edit(lines):
            lines.insert(len(lines) - 1, "   ")
            lines.insert(3, "\t")
            lines.insert(2, "")
            lines.append("")
            lines.append("")

        edit_lines(log_dir, name, edit)
        for got, expected in zip(load(log_dir, name), want, strict=True):
            assert_bits_equal(got, expected)

    @pytest.mark.parametrize("name", TABLES)
    def test_spaces_around_values_accepted(self, log_dir, name):
        want = load(log_dir, name)
        corrupt_fifth_line(log_dir, name, lambda line, sep: " " + line.replace(sep, " " + sep + " ") + " ")
        for got, expected in zip(load(log_dir, name), want, strict=True):
            assert_bits_equal(got, expected)

    def test_index_header_allows_surrounding_whitespace(self, log_dir):
        want = load(log_dir, "scans/index.csv")
        edit_lines(log_dir, "scans/index.csv", lambda lines: lines.__setitem__(0, " \tid,t  "))
        for got, expected in zip(load(log_dir, "scans/index.csv"), want, strict=True):
            assert_bits_equal(got, expected)

    def test_xyz_accepts_comments_and_tabs(self, log_dir):
        name = "scans/00001.xyz"
        want = load(log_dir, name)

        def edit(lines):
            lines.insert(0, "# x y z, in the body frame")
            lines[3] = lines[3].replace(" ", "\t") + "\t# tab separated"
            lines[4] = "#" + lines[4]
            lines.insert(5, lines[4][1:])

        edit_lines(log_dir, name, edit)
        for got, expected in zip(load(log_dir, name), want, strict=True):
            assert_bits_equal(got, expected)

    def test_xyz_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n\n1 2 3\n4 5 6  # inline\n")
        assert np.array_equal(load_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_empty_tables(self, tmp_path):
        # np.loadtxt warns on a table with no rows; the reader must not.
        est = str(tmp_path / "est.csv")
        save_estimates(est, (*np.empty((5, 0)), np.empty((0, 6, 6))))
        blank = tmp_path / "blank.csv"
        blank.write_text(logio.ODOMETRY_HEADER + "\n\n  \n\t\n")
        xyz = tmp_path / "empty.xyz"
        xyz.write_text("# no points\n\n")
        blank_xyz = tmp_path / "blank.xyz"
        blank_xyz.write_text("\n \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [a.shape for a in load_estimates(est)] == [(0,)] * 5 + [(0, 6, 6)]
            assert logio._read_table(blank, logio.ODOMETRY_HEADER, 7).shape == (0, 7)
            assert load_xyz(xyz).shape == (0, 3)
            assert load_xyz(blank_xyz).shape == (0, 3)


class TestCliExit3:
    @pytest.mark.parametrize("name", ["ground_truth.csv", "odometry.csv", "scans/index.csv", "scans/00001.xyz"])
    def test_run_on_malformed_log(self, log_dir, capsys, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line.rsplit(sep, 1)[0] + sep + "abc")
        out = os.path.join(log_dir, "est.csv")
        assert main(["run", log_dir, "--mode", "dead-reckoning", "--out", out]) == 3
        assert re.search(error_at(name, 5), capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name", ["estimates.csv", "ground_truth.csv"])
    def test_evaluate_on_malformed_table(self, log_dir, capsys, name):
        corrupt_fifth_line(log_dir, name, lambda line, sep: line.rsplit(sep, 1)[0])
        est = os.path.join(log_dir, "estimates.csv")
        gt = os.path.join(log_dir, "ground_truth.csv")
        assert main(["evaluate", est, gt]) == 3
        assert re.search(error_at(name, 5), capsys.readouterr().err)


def planar(columns):
    """The (t, x, y, psi) of ``load_estimates``'s columns."""
    t, x, y, _, psi, _ = columns
    return [t, x, y, psi]


def set_field(directory, column, text):
    """Line 5 of estimates.csv (after a blank line 4) with ``column`` set to ``text``."""

    def change(line, sep):
        fields = line.split(sep)
        fields[column] = text
        return sep.join(fields)

    corrupt_fifth_line(directory, "estimates.csv", change)


class TestPlanarEstimates:
    """What ``evaluate`` reads of an estimates file: t, x, y and psi, bit for
    bit as the full read gives them. Other columns go unread, but every row
    must hold 41 values, and the four must be finite."""

    def test_matches_full_read_and_line_loop(self, log_dir, monkeypatch):
        path = os.path.join(log_dir, "estimates.csv")
        want = planar(load_estimates(path))
        got = load_estimates(path, planar=True)
        for g, w in zip(got, want, strict=True):
            assert_bits_equal(g, w)
        # The line loop's columns are the C reader's.
        monkeypatch.setattr(logio.np, "loadtxt", lambda *args, **kwargs: np.empty((0, 0)))
        for g, w in zip(load_estimates(path, planar=True), want, strict=True):
            assert_bits_equal(g, w)

    @pytest.mark.parametrize("column", [3, 5, 22, 40], ids=["z", "P00", "P32", "P55"])
    def test_malformed_unread_column_accepted(self, log_dir, capsys, column):
        path = os.path.join(log_dir, "estimates.csv")
        want = planar(load_estimates(path))
        set_field(log_dir, column, "abc")
        with pytest.raises(ParseError, match=error_at("estimates.csv", 5)):
            load_estimates(path)
        for g, w in zip(load_estimates(path, planar=True), want, strict=True):
            assert_bits_equal(g, w)
        assert main(["evaluate", path, os.path.join(log_dir, "ground_truth.csv")]) == 0

    @pytest.mark.parametrize("column", [3, 5, 40], ids=["z", "P00", "P55"])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_unread_column_accepted(self, log_dir, capsys, column, token):
        path = os.path.join(log_dir, "estimates.csv")
        set_field(log_dir, column, token)
        assert all(np.isfinite(c).all() for c in load_estimates(path, planar=True))
        assert main(["evaluate", path, os.path.join(log_dir, "ground_truth.csv")]) == 0

    @pytest.mark.parametrize("column", [0, 1, 2, 4], ids=["t", "x", "y", "psi"])
    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    def test_non_finite_scored_column_refused(self, log_dir, column, token):
        path = os.path.join(log_dir, "estimates.csv")
        set_field(log_dir, column, token)
        with pytest.raises(EvaluationError, match=error_at("estimates.csv", 5) + " non-finite value"):
            load_estimates(path, planar=True)
        assert load_estimates(path)[0].shape == (12,)  # the full read keeps it

    @pytest.mark.parametrize("wide", [True, False], ids=["42-values", "40-values"])
    def test_row_of_other_width_refused(self, log_dir, capsys, wide):
        # The C reader reads the last column, so a narrow row fails it; a wide
        # row passes it and is caught by the file's separator count.
        path = os.path.join(log_dir, "estimates.csv")
        width = 42 if wide else 40
        corrupt_fifth_line(log_dir, "estimates.csv", lambda line, sep: sep.join((line.split(sep) + ["0.5"])[:width]))
        with pytest.raises(ParseError, match=error_at("estimates.csv", 5) + f" expected 41 columns, got {width}"):
            load_estimates(path, planar=True)
        assert main(["evaluate", path, os.path.join(log_dir, "ground_truth.csv")]) == 3
        assert re.search(error_at("estimates.csv", 5), capsys.readouterr().err)

    def test_wide_and_narrow_rows_that_balance_refused(self, log_dir):
        # One row of 42 values and one of 40 hold 40 separators a row between
        # them: the C reader refuses the narrow one, and the line loop names
        # the first.
        path = os.path.join(log_dir, "estimates.csv")

        def edit(lines):
            lines[2] += ",0.5"
            lines[6] = lines[6].rsplit(",", 1)[0]

        edit_lines(log_dir, "estimates.csv", edit)
        with pytest.raises(ParseError, match=error_at("estimates.csv", 3)):
            load_estimates(path, planar=True)


class TestRoundTrip:
    def test_log_bit_identical(self, saved, tmp_path):
        log, directory = saved
        loaded = load_log(directory)
        for got, expected in zip(log_arrays(loaded), log_arrays(log), strict=True):
            assert_bits_equal(got, expected)
        assert_bits_equal(loaded.scans.t, log.scans.t)
        again = tmp_path / "again"
        save_log(loaded, again)
        for root, _, files in os.walk(directory):
            for name in files:
                if name == "estimates.csv":
                    continue
                path = os.path.join(root, name)
                with open(path, "rb") as a, open(again / os.path.relpath(path, directory), "rb") as b:
                    assert a.read() == b.read(), path

    def test_estimates_bit_identical(self, tmp_path, rng):
        columns = estimate_columns(rng)
        t, x, y, z, psi, P = columns
        t[2], psi[3] = -0.0, -np.pi
        x[1:3], y[1:3], z[1:3] = EDGE.reshape(3, 2)
        P[1], P[2] = np.resize(EDGE, (6, 6)), np.full((6, 6), np.nan)
        path = str(tmp_path / "est.csv")
        save_estimates(path, columns)
        for got, expected in zip(load_estimates(path), columns, strict=True):
            assert_bits_equal(got, expected)

    def test_xyz_bit_identical(self, tmp_path, rng):
        points = np.vstack([rng.standard_normal((20, 3)), EDGE.reshape(2, 3)])
        path = tmp_path / "cloud.xyz"
        save_xyz(points, path)
        assert_bits_equal(load_xyz(path), points)


def read_reference(path, header, n_cols, sep=",", comments=None):
    """The line-by-line reader, as an oracle: each non-blank line's fields
    through ``float()``."""
    rows = []
    with open(path) as fh:
        if header is not None:
            fh.readline()
        for line in fh:
            if comments is not None:
                line = line.split(comments, 1)[0]
            line = line.strip()
            if line:
                parts = line.split(sep)
                assert len(parts) == n_cols
                rows.append([float(part) for part in parts])
    return np.array(rows, dtype=float).reshape(-1, n_cols)


def write_xyz_text(path, lines, newline="\n"):
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def xyz_lines(rng, n):
    return [" ".join(map(repr, row)) for row in rng.standard_normal((n, 3)).tolist()]


class TestBlocks:
    """Long tables: a bad row deep in the file is named at its own line, and
    every table reads as the line loop reads it. The positions around lines
    512 and 1,024 are where an earlier reader split tables into blocks."""

    @pytest.mark.parametrize(
        "offset", [0, 1, 511, 512, 513, 1031],
        ids=["first", "second", "block-end", "block-2-start", "block-2-second", "block-3"],
    )
    @pytest.mark.parametrize("fault", ["short", "non-numeric"])
    def test_bad_row_named_at_its_line(self, tmp_path, rng, offset, fault):
        lines = xyz_lines(rng, 1536)
        lines[offset] = lines[offset].rsplit(" ", 1)[0] + ("" if fault == "short" else " abc")
        path = tmp_path / "cloud.xyz"
        write_xyz_text(path, lines)
        with pytest.raises(ParseError, match=error_at("cloud.xyz", offset + 1)):
            load_xyz(path)

    @pytest.mark.parametrize("offset", [511, 512, 513])
    def test_bad_csv_row_after_header_named_at_its_line(self, tmp_path, offset):
        # The header is line 1, so data row k is line k + 2.
        rows = [f"{0.02 * k!r},0.0,0.0,0.1,0.25,0.0,0.0" for k in range(1024)]
        rows[offset] = rows[offset].replace("0.25", "0.2.5")
        path = tmp_path / "odometry.csv"
        path.write_text(logio.ODOMETRY_HEADER + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=error_at("odometry.csv", offset + 2)):
            logio._read_table(path, logio.ODOMETRY_HEADER, 7)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings(self, tmp_path, rng, newline):
        lines = xyz_lines(rng, 1027)
        lf, other = tmp_path / "lf.xyz", tmp_path / "other.xyz"
        write_xyz_text(lf, lines)
        write_xyz_text(other, lines, newline)
        assert_bits_equal(load_xyz(other), load_xyz(lf))
        lines[514] += " 1.0"
        write_xyz_text(other, lines, newline)
        with pytest.raises(ParseError, match=error_at("other.xyz", 515)):
            load_xyz(other)

    def test_comment_in_one_block_only(self, tmp_path, rng):
        lines = xyz_lines(rng, 1536)
        plain = tmp_path / "plain.xyz"
        write_xyz_text(plain, lines)
        commented = list(lines)
        commented[522] += "  # a note"
        commented.insert(532, "# " + lines[0])
        path = tmp_path / "commented.xyz"
        write_xyz_text(path, commented)
        assert_bits_equal(load_xyz(path), load_xyz(plain))

    def test_tabs_and_repeated_spaces(self, tmp_path, rng):
        lines = xyz_lines(rng, 1024)
        plain = tmp_path / "plain.xyz"
        write_xyz_text(plain, lines)
        spaced = [
            ("\t" if k % 3 == 0 else "   ").join(line.split()) + (" \t " if k % 2 else "")
            for k, line in enumerate(lines)
        ]
        path = tmp_path / "spaced.xyz"
        write_xyz_text(path, spaced)
        assert_bits_equal(load_xyz(path), load_xyz(plain))

    def test_tokens_parse_as_float_does(self, tmp_path, rng):
        # Read with _read_table: load_xyz refuses non-finite points.
        tokens = ["1_0", "inf", "nan", "-inf", "-nan", "+1e-400", "1E5", "-0", ".5"]
        lines = xyz_lines(rng, 517)
        rows = [3, 513, 514]
        for row, k in zip(rows, (0, 3, 6)):
            lines[row] = " ".join(tokens[k : k + 3])
        path = tmp_path / "tokens.xyz"
        write_xyz_text(path, lines)
        table = logio._read_table(path, None, 3, sep=None, comments="#")
        want = np.array([[float(token) for token in tokens[k : k + 3]] for k in (0, 3, 6)])
        assert_bits_equal(table[rows], want)
        assert_bits_equal(table, read_reference(path, None, 3, sep=None, comments="#"))

    def test_every_log_table_matches_the_line_reader(self, tmp_path):
        # A log whose odometry and ground truth run past line 1,024; every
        # table must read bit-identical to the oracle.
        spec = TrajectorySpec(kind="straight", speed=0.25, duration=24.0)
        log = run_scenario(default_world(), spec, SensorRates(), NoiseConfig(), 11)
        directory = tmp_path / "log"
        save_log(log, directory)
        save_estimates(directory / "estimates.csv", estimate_columns(np.random.default_rng(3), n=1033))
        tables = [
            ("ground_truth.csv", logio.GROUND_TRUTH_HEADER, 13, ",", None),
            ("odometry.csv", logio.ODOMETRY_HEADER, 7, ",", None),
            ("estimates.csv", logio.ESTIMATES_HEADER, 41, ",", None),
        ] + [
            (os.path.relpath(path, directory), None, 3, None, "#")
            for path in sorted(glob.glob(str(directory / "scans" / "*.xyz")))
        ]
        assert len(log.odometry.t) > 1024
        assert len(tables) == 3 + len(log.scans.t)
        for name, header, n_cols, sep, comments in tables:
            path = directory / name
            got = logio._read_table(path, header, n_cols, sep=sep, comments=comments)
            assert_bits_equal(got, read_reference(path, header, n_cols, sep=sep, comments=comments))

    def test_load_estimates_memory_is_bounded(self, tmp_path):
        # The line loop peaks at about 6 MB on a 3,456-row table, one Python
        # float per value; numpy's C reader holds about 1.1x the result (at
        # most 1.73x over 100-6,000 rows of 41 columns).
        path = str(tmp_path / "est.csv")
        save_estimates(path, estimate_columns(np.random.default_rng(5), n=3500))
        result_bytes = 3500 * 41 * 8
        tracemalloc.start()
        try:
            load_estimates(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * result_bytes


# Spellings of a number, each read through the C reader and the line loop.
# float() takes the last two, which np.loadtxt refuses; "0x10", "1d5" and
# "nan(1)" neither takes.
TOKENS = [
    "inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "+1e-400", "1e400", "-1e400",
    "5e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "-0", "-0.0",
    " 1.5 ", "1.", ".5", "1E5", "9007199254740993", "0.30000000000000004",
    "0x10", "1d5", "nan(1)", "1_0", "\u0661",
]


class TestFastPath:
    """np.loadtxt reads every clean table; the line loop reads a table it
    refuses or reads at the wrong width, and must give float()'s values."""

    @pytest.fixture
    def line_loop_paths(self, monkeypatch):
        """The files the line loop is asked to read, in order."""
        paths = []
        parse_lines = logio._parse_lines

        def spy(path, *args):
            paths.append(os.path.basename(path))
            return parse_lines(path, *args)

        monkeypatch.setattr(logio, "_parse_lines", spy)
        return paths

    @pytest.mark.parametrize("token", TOKENS)
    def test_token_reads_as_float_does(self, tmp_path, token, line_loop_paths):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{token}\n")
        try:
            want = float(token)
        except ValueError:
            with pytest.raises(ParseError, match=error_at("t.csv", 3)):
                logio._read_table(path, "a,b", 2)
            return
        assert_bits_equal(logio._read_table(path, "a,b", 2), [[1.0, 2.0], [3.0, want]])
        assert line_loop_paths == (["t.csv"] if token in ("1_0", "\u0661") else [])

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_ascii_separators_around_a_value_read_as_the_number(self, tmp_path, char, line_loop_paths):
        # The documented difference from float(), which refuses these texts:
        # the C reader strips the ASCII separators around a CSV value as
        # whitespace.
        with pytest.raises(ValueError):
            float(f"{char}2{char}")
        path = tmp_path / "t.csv"
        path.write_text(f"a,b,c\n1,2{char},3\n4,{char}5,{char}6{char}\n")
        assert_bits_equal(logio._read_table(path, "a,b,c", 3), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert line_loop_paths == []

    def test_four_column_xyz_named_at_first_data_line(self, tmp_path, rng):
        # np.loadtxt reads this file; only the width check refuses it.
        path = tmp_path / "wide.xyz"
        write_xyz_text(path, ["# four columns"] + [" ".join(map(repr, row)) for row in rng.random((5, 4)).tolist()])
        with pytest.raises(ParseError, match=error_at("wide.xyz", 2) + " expected 3 columns, got 4"):
            load_xyz(path)

    def test_clean_log_never_reaches_the_line_loop(self, log_dir, line_loop_paths):
        load_log(log_dir)
        load_estimates(os.path.join(log_dir, "estimates.csv"))
        # The scan index has integer ids, read by a converter.
        assert line_loop_paths == ["index.csv"]


# The log's own tables, each with the column a non-finite value goes into:
# the odometry's vz, the ground truth's x, the index's t and a point's z.
LOG_TABLES = {"odometry.csv": 6, "ground_truth.csv": 10, "scans/index.csv": 1, "scans/00001.xyz": 2}


def put_token(directory, name, token):
    """Put ``token`` into line 5 of a log table (after a blank line 4)."""

    def change(line, sep):
        fields = line.split(sep)
        fields[LOG_TABLES[name]] = token
        return sep.join(fields)

    corrupt_fifth_line(directory, name, change)


class TestNonFiniteLog:
    """A NaN or an infinity in a log's own tables is refused at its line;
    estimates files keep them (``TestRoundTrip``)."""

    @pytest.mark.parametrize("name", list(LOG_TABLES))
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-nan", "1e400"])
    def test_load_log_names_the_line(self, log_dir, name, token):
        put_token(log_dir, name, token)
        with pytest.raises(ParseError, match=error_at(name, 5) + " non-finite value"):
            load_log(log_dir)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", list(LOG_TABLES))
    def test_run_exits_3(self, log_dir, capsys, mode, name):
        put_token(log_dir, name, "nan")
        out = os.path.join(log_dir, "est.csv")
        assert main(["run", log_dir, "--mode", mode, "--out", out]) == 3
        assert re.search(error_at(name, 5) + " non-finite value", capsys.readouterr().err)
        assert not os.path.exists(out)

    def test_evaluate_exits_3_on_ground_truth(self, log_dir, capsys):
        put_token(log_dir, "ground_truth.csv", "nan")
        est = os.path.join(log_dir, "estimates.csv")
        report = os.path.join(log_dir, "report")
        assert main(["evaluate", est, os.path.join(log_dir, "ground_truth.csv"), "--out", report]) == 3
        assert re.search(error_at("ground_truth.csv", 5) + " non-finite value", capsys.readouterr().err)
        assert not os.path.exists(report)

    def test_icp_debug_exits_3_on_cloud(self, log_dir, capsys):
        put_token(log_dir, "scans/00001.xyz", "inf")
        scans = os.path.join(log_dir, "scans")
        assert main(["icp-debug", os.path.join(scans, "00001.xyz"), os.path.join(scans, "00002.xyz")]) == 3
        assert re.search(error_at("00001.xyz", 5) + " non-finite value", capsys.readouterr().err)

    def test_finite_table_stays_on_the_c_reader(self, log_dir, monkeypatch):
        # One np.isfinite check per table; the line loop only names the row.
        put_token(log_dir, "odometry.csv", "nan")
        calls = []
        parse_lines = logio._parse_lines
        monkeypatch.setattr(logio, "_parse_lines", lambda path, *args: calls.append(path) or parse_lines(path, *args))
        with pytest.raises(ParseError):
            load_log(log_dir)
        # Ground truth is read first, by the C reader alone.
        assert [os.path.basename(path) for path in calls] == ["odometry.csv"]


def write_reference(path, header, rows, sep=","):
    """The per-value writer, as an oracle: ``repr`` of every value's float."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in np.asarray(rows).tolist():
            fh.write(sep.join(repr(float(value)) for value in row) + "\n")


def special_values():
    """Signed zeros, NaNs (positive, negative, with a payload), infinities,
    subnormals and the extremes."""
    payload_nan = np.array([0x7FF8000000000ABC], dtype=np.uint64).view(np.float64)[0]
    negative_nan = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
    return np.array([
        0.0, -0.0, np.nan, negative_nan, payload_nan, np.inf, -np.inf,
        5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1e16, -1.0,
    ])


class TestWriter:
    """``_write_table`` formats each block's distinct values once; its bytes
    must be the per-value writer's."""

    def assert_writes_as_reference(self, tmp_path, rows, sep=",", header="h"):
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        logio._write_table(got, header, rows, sep)
        write_reference(want, header, rows, sep)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_rows_around_the_block_size(self, tmp_path, rng, offset):
        self.assert_writes_as_reference(tmp_path, rng.standard_normal((logio.BLOCK_ROWS + offset, 5)))

    @pytest.mark.parametrize("n_rows", [0, 1, 2 * logio.BLOCK_ROWS + 1])
    def test_row_counts(self, tmp_path, rng, n_rows):
        self.assert_writes_as_reference(tmp_path, rng.standard_normal((n_rows, 4)))

    def test_one_column(self, tmp_path, rng):
        self.assert_writes_as_reference(tmp_path, rng.standard_normal((3 * logio.BLOCK_ROWS // 2, 1)), sep=" ")

    def test_duplicates_within_and_across_rows(self, tmp_path, rng):
        values = rng.standard_normal(7)
        rows = values[rng.integers(0, 7, (logio.BLOCK_ROWS + 9, 41))]
        rows[:, 5:] = np.zeros(36)
        rows[3] = values[0]
        covariances = rng.standard_normal((len(rows), 6, 6))
        rows[len(rows) // 2 :, 5:] = (covariances + covariances.transpose(0, 2, 1)).reshape(-1, 36)[len(rows) // 2 :]
        self.assert_writes_as_reference(tmp_path, rows)

    def test_special_values(self, tmp_path, rng):
        special = special_values()
        rows = special[rng.integers(0, len(special), (logio.BLOCK_ROWS + 3, 6))]
        rows[0] = special[:6]
        rows[-1] = special[-6:]
        self.assert_writes_as_reference(tmp_path, rows, sep=" ", header=None)
        text = (tmp_path / "got.txt").read_text()
        assert "-0.0" in text and " 0.0" in text and "nan" in text and "-inf" in text

    def test_non_contiguous_inputs(self, tmp_path, rng):
        table = rng.standard_normal((2 * logio.BLOCK_ROWS + 7, 3))
        self.assert_writes_as_reference(tmp_path, table.T)
        self.assert_writes_as_reference(tmp_path, table[::-1])
        self.assert_writes_as_reference(tmp_path, table[::-3, ::-2])

    def test_save_estimates_memory_is_bounded(self, tmp_path, monkeypatch):
        # The stacked table is 1.13 MB; blocks add about 0.5 MB to it, and one
        # pass over the whole table about 13.5 MB.
        columns = estimate_columns(np.random.default_rng(5), n=3456)
        table_bytes = 3456 * 41 * 8

        def peak():
            tracemalloc.start()
            try:
                save_estimates(str(tmp_path / "est.csv"), columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < 2 * table_bytes
        monkeypatch.setattr(logio, "BLOCK_ROWS", 3456)
        assert peak() > 2 * table_bytes


def test_xyz_round_trip(tmp_path, rng):
    points = rng.standard_normal((25, 3))
    path = tmp_path / "cloud.xyz"
    save_xyz(points, path)
    assert np.array_equal(load_xyz(path), points)
