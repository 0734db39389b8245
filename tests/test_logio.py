"""Contract of the on-disk text tables: the header check, `path:line` in
every parse error, blank lines, the integer scan ids, the comment and
separator rules, and bit-exact save/load round trips."""

import os
import re
import shutil

import numpy as np
import pytest

from iekf_slam.cli import main
from iekf_slam.errors import ParseError
from iekf_slam.iekf import NoiseConfig
from iekf_slam.logio import load_estimates, load_log, load_xyz, save_estimates, save_log, save_xyz
from iekf_slam.pointcloud import BODY, PointCloud
from iekf_slam.se3 import Pose, exp_se3, planar_extract
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
        np.array([[t, *pose.to_row()] for t, pose in log.ground_truth]),
        np.array([[s.timestamp, *s.omega, *s.mu] for s in log.odometry]),
        np.array([scan.timestamp for scan in log.scans]),
        *(scan.points for scan in log.scans),
    ]


def estimate_rows(rng, n=12):
    rows = []
    for k in range(n):
        cov = None if k % 4 == 0 else rng.standard_normal((6, 6))
        rows.append((0.1 * k, exp_se3(rng.uniform(-2, 2, 6)), cov))
    return rows


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
    save_estimates(os.path.join(directory, "estimates.csv"), estimate_rows(np.random.default_rng(7)))
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

    def test_empty_tables(self, tmp_path):
        est = str(tmp_path / "est.csv")
        save_estimates(est, [])
        assert [a.shape for a in load_estimates(est)] == [(0,)] * 5 + [(0, 6, 6)]
        xyz = tmp_path / "empty.xyz"
        xyz.write_text("# no points\n\n")
        assert load_xyz(xyz).points.shape == (0, 3)


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


class TestRoundTrip:
    def test_log_bit_identical(self, saved, tmp_path):
        log, directory = saved
        loaded = load_log(directory)
        for got, expected in zip(log_arrays(loaded), log_arrays(log), strict=True):
            assert_bits_equal(got, expected)
        assert [scan.frame for scan in loaded.scans] == [BODY] * len(log.scans)
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
        rows = estimate_rows(rng)
        t0, pose0, _ = rows[1]
        rows[1] = (t0, Pose(pose0.rotation, EDGE[:3]), np.resize(EDGE, (6, 6)))
        rows[2] = (-0.0, Pose(pose0.rotation, EDGE[3:]), np.full((6, 6), np.nan))
        path = str(tmp_path / "est.csv")
        save_estimates(path, rows)
        t, x, y, z, psi, P = load_estimates(path)
        assert_bits_equal(t, [r[0] for r in rows])
        assert_bits_equal(np.column_stack([x, y, psi]), [planar_extract(r[1]) for r in rows])
        assert_bits_equal(z, [r[1].translation[2] for r in rows])
        assert_bits_equal(P, [np.zeros((6, 6)) if r[2] is None else r[2] for r in rows])

    def test_xyz_bit_identical(self, tmp_path, rng):
        points = np.vstack([rng.standard_normal((20, 3)), EDGE.reshape(2, 3)])
        path = tmp_path / "cloud.xyz"
        save_xyz(PointCloud(points), path)
        assert_bits_equal(load_xyz(path).points, points)
