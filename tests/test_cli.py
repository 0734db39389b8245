import filecmp
import os

import numpy as np
import pytest

from iekf_slam.cli import main
from iekf_slam.logio import (
    load_estimates,
    load_ground_truth,
    load_log,
    save_estimates,
    save_ground_truth,
    save_xyz,
)
from iekf_slam.metrics import ground_truth_planar
from iekf_slam.pointcloud import PointCloud
from iekf_slam.se3 import Pose


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SHORT_SCENARIO = """
scenario.kind = straight
scenario.speed = 0.25
scenario.duration = 2.0
seed = 5
"""

ZERO_NOISE_SCENARIO = """
scenario.kind = circle
scenario.speed = 0.3
scenario.duration = 2.0
rates.cloud_sigma = 0.0
noise.gyro_sigma = 0.0
noise.velocity_sigma = 0.0
"""


SHORT_RANGE_SCENARIO = """
scenario.kind = circle
scenario.duration = 10.0
rates.range_max = 1.0
"""

MODES = ["iekf", "dead-reckoning", "naive-scan-match", "scan-match-only"]


WAYPOINTS_Y_FIRST_SCENARIO = """
scenario.kind = waypoints
scenario.waypoints = 0 1; 1 1
scenario.speed = 0.5
seed = 0
"""


class TestHelp:
    def test_epilog_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "degenerate geometry" in out


class TestSimulate:
    def test_writes_log_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        out = str(tmp_path / "log")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        log = load_log(out)
        assert len(log.odometry) == 100
        assert len(log.scans) == 10
        assert len(log.ground_truth) == 101
        assert "100 odometry samples" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg, "--out", a])
        main(["simulate", "--config", cfg, "--out", b])
        for name in ("ground_truth.csv", "odometry.csv", "meta"):
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False)
        scans = sorted(os.listdir(os.path.join(a, "scans")))
        assert scans == sorted(os.listdir(os.path.join(b, "scans")))
        for name in scans:
            assert filecmp.cmp(
                os.path.join(a, "scans", name), os.path.join(b, "scans", name), shallow=False
            )

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg, "--out", a])
        main(["simulate", "--config", cfg, "--seed", "99", "--out", b])
        assert not filecmp.cmp(os.path.join(a, "odometry.csv"), os.path.join(b, "odometry.csv"), shallow=False)

    def test_unknown_key_exit_2_names_key_and_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scenario.kind = straight\nscenario.velocity = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "scenario.velocity" in err
        assert ":2" in err


class TestRun:
    def test_dead_reckoning_recovers_noise_free_truth(self, tmp_path):
        cfg = write_config(tmp_path, ZERO_NOISE_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        out = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", "dead-reckoning", "--out", out]) == 0
        t, x, y, _, psi, _ = load_estimates(out)
        gt = load_ground_truth(os.path.join(log_dir, "ground_truth.csv"))
        gt_t, gt_x, gt_y, gt_psi = ground_truth_planar(gt)
        lookup = {round(tv, 9): k for k, tv in enumerate(gt_t)}
        for k, tv in enumerate(t):
            j = lookup[round(tv, 9)]
            assert abs(x[k] - gt_x[j]) < 1e-9
            assert abs(y[k] - gt_y[j]) < 1e-9

    def test_default_output_path_and_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ZERO_NOISE_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        assert main(["run", log_dir]) == 0
        assert os.path.exists(os.path.join(log_dir, "estimates_iekf.csv"))

    @pytest.mark.parametrize("mode", ["iekf", "scan-match-only"])
    def test_waypoints_anchor_at_true_initial_pose(self, tmp_path, mode):
        # The first leg runs along +y, so the true initial heading is 90 deg;
        # the matcher must start there rather than at the identity. The filter
        # is given the true initial heading, so only the matcher's anchor is
        # under test.
        cfg = write_config(tmp_path, WAYPOINTS_Y_FIRST_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        run_cfg = write_config(tmp_path, "filter.init_heading_deg = 90\n", name="filter.cfg")
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--config", run_cfg, "--mode", mode, "--out", est]) == 0
        out_dir = str(tmp_path / "report")
        gt = os.path.join(log_dir, "ground_truth.csv")
        assert main(["evaluate", est, gt, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "report.txt")) as fh:
            report = fh.read()
        values = dict(
            line.split(" = ") for line in report.splitlines() if not line.startswith("#")
        )
        assert float(values["rms_psi_deg"]) < 2.0
        assert float(values["rms_x"]) < 0.05
        assert float(values["rms_y"]) < 0.05

    def test_naive_matcher_anchors_at_true_initial_pose(self, tmp_path):
        # Same +y-first scenario. Chained ICP without an odometry prior cannot
        # follow the 90 deg turn in place at t = 2.0 s, so only the first leg
        # is checked: the anchor alone must put it on the true heading.
        cfg = write_config(tmp_path, WAYPOINTS_Y_FIRST_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", "naive-scan-match", "--out", est]) == 0
        t, x, y, _, psi, _ = load_estimates(est)
        gt_t, gt_x, gt_y, gt_psi = ground_truth_planar(
            load_ground_truth(os.path.join(log_dir, "ground_truth.csv"))
        )
        assert t[0] == gt_t[0]
        assert abs(x[0] - gt_x[0]) < 1e-9
        assert abs(y[0] - gt_y[0]) < 1e-9
        assert abs(psi[0] - gt_psi[0]) < 1e-9
        lookup = {round(tv, 9): k for k, tv in enumerate(gt_t)}
        first_leg = [k for k, tv in enumerate(t) if tv < 2.0]
        assert first_leg
        for k in first_leg:
            err = np.angle(np.exp(1j * (psi[k] - gt_psi[lookup[round(t[k], 9)]])))
            assert abs(np.degrees(err)) < 1.0

    def test_missing_log_dir_exit_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_order_odometry_exit_1(self, tmp_path, capsys, mode):
        # Every mode walks the same schedule, so a shuffled log is refused
        # in every mode instead of being replayed as given.
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        path = tmp_path / "log" / "odometry.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[11], lines[12] = lines[12], lines[11]  # the header is line 0
        path.write_text("".join(lines))
        capsys.readouterr()
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", mode, "--out", est]) == 1
        assert "out-of-order" in capsys.readouterr().err
        assert not os.path.exists(est)

    @pytest.mark.parametrize(
        "mode,no_scans",
        [
            pytest.param(mode, no_scans, id=mode + ("-no-scans" if no_scans else ""))
            for no_scans in (False, True)
            for mode in ("iekf", "scan-match-only", "naive-scan-match")
        ],
    )
    def test_no_scan_matched_exit_4(self, tmp_path, capsys, mode, no_scans):
        # A 1 m range leaves one point per scan, so every match fails; the
        # run must say so rather than write dead reckoning. A log whose scan
        # index holds only its header is refused the same way.
        cfg = write_config(tmp_path, SHORT_RANGE_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        if no_scans:
            (tmp_path / "log" / "scans" / "index.csv").write_text("id,t\n")
        scans = load_log(log_dir).scans
        n_scans = len(scans)
        if no_scans:
            assert n_scans == 0
        else:
            assert n_scans > 1 and max(len(scan) for scan in scans) < 3
        capsys.readouterr()
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", mode, "--out", est]) == 4
        err = capsys.readouterr().err
        assert "no scan" in err
        assert f"{n_scans} scans" in err
        assert not os.path.exists(est)


class TestEvaluate:
    def make_pair(self, tmp_path, offset=0.0):
        t = np.arange(11) * 0.1
        gt = [(tv, Pose(np.eye(3), np.array([0.5 * tv, 0.0, 0.0]))) for tv in t]
        gt_path = str(tmp_path / "gt.csv")
        save_ground_truth(gt_path, gt)
        rows = [
            (tv, Pose(np.eye(3), np.array([0.5 * tv + offset, 0.0, 0.0])), None) for tv in t
        ]
        est_path = str(tmp_path / "est.csv")
        save_estimates(est_path, rows)
        return est_path, gt_path

    def test_perfect_estimates_score_zero(self, tmp_path, capsys):
        est, gt = self.make_pair(tmp_path)
        assert main(["evaluate", est, gt]) == 0
        out = capsys.readouterr().out
        assert "rms_x = 0.0" in out
        assert "samples = 11" in out

    def test_constant_offset_reported(self, tmp_path, capsys):
        est, gt = self.make_pair(tmp_path, offset=0.1)
        out_dir = str(tmp_path / "report")
        assert main(["evaluate", est, gt, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "report.txt")) as fh:
            report = fh.read()
        rms_x = float(report.split("rms_x = ")[1].splitlines()[0])
        assert rms_x == pytest.approx(0.1, abs=1e-12)
        with open(os.path.join(out_dir, "errors.csv")) as fh:
            errors = fh.read().splitlines()
        assert errors[0] == "t,err_x,err_y,err_psi"
        assert len(errors) == 12

    def test_report_values_parse_as_float(self, tmp_path, capsys):
        est, gt = self.make_pair(tmp_path, offset=0.1)
        out_dir = str(tmp_path / "report")
        assert main(["evaluate", est, gt, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "report.txt")) as fh:
            lines = fh.read().splitlines()
        pairs = [line.split(" = ") for line in lines if not line.startswith("#")]
        assert len(pairs) == 9
        for key, value in pairs:
            assert key.isidentifier()
            float(value)

    def test_heading_wrap(self, tmp_path, capsys):
        t = np.array([0.0])
        psi = np.pi - 0.01
        rot = np.array(
            [[np.cos(psi), -np.sin(psi), 0], [np.sin(psi), np.cos(psi), 0], [0, 0, 1.0]]
        )
        gt_path = str(tmp_path / "gt.csv")
        save_ground_truth(gt_path, [(0.0, Pose(rot, np.zeros(3)))])
        est_path = str(tmp_path / "est.csv")
        save_estimates(est_path, [(0.0, Pose(rot.T, np.zeros(3)), None)])
        assert main(["evaluate", est_path, gt_path]) == 0
        out = capsys.readouterr().out
        rms_psi = float(out.split("rms_psi = ")[1].splitlines()[0])
        # -psi vs psi near pi wraps to a small 2*(pi - psi) error
        assert rms_psi == pytest.approx(0.02, abs=1e-9)

    def test_disjoint_time_ranges_exit_3(self, tmp_path, capsys):
        est, _ = self.make_pair(tmp_path)
        gt = [(100.0 + k, Pose.identity()) for k in range(3)]
        gt_path = str(tmp_path / "late.csv")
        save_ground_truth(gt_path, gt)
        assert main(["evaluate", est, gt_path, "--max-dt", "0.5"]) == 3


class TestIcpDebug:
    def clouds(self, tmp_path, rng, shift=(0.0, 0.0, 0.0)):
        pts = 2.0 * rng.uniform(-1, 1, (40, 3))
        a = str(tmp_path / "a.xyz")
        b = str(tmp_path / "b.xyz")
        save_xyz(PointCloud(pts), a)
        save_xyz(PointCloud(pts + np.asarray(shift)), b)
        return a, b

    def test_identity_alignment(self, tmp_path, rng, capsys):
        a, b = self.clouds(tmp_path, rng)
        assert main(["icp-debug", a, b]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "condition number" in out

    def test_recovers_shift(self, tmp_path, rng, capsys):
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))
        assert main(["icp-debug", a, b]) == 0
        out = capsys.readouterr().out
        row_line = out.split("row-major R then p):\n")[1].splitlines()[0]
        values = [float(v) for v in row_line.split()]
        assert np.allclose(values[9:], [0.05, -0.02, 0.0], atol=1e-6)

    def test_covariance_uses_config_sigma(self, tmp_path, rng, capsys):
        # Doubling icp.sigma must quadruple the printed covariance: it is the
        # covariance the alignment itself reported.
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))

        def covariance(*extra):
            assert main(["icp-debug", a, b, *extra]) == 0
            block = capsys.readouterr().out.split("covariance:\n")[1].splitlines()[:6]
            return np.array([[float(v) for v in line.split()] for line in block])

        default = covariance()
        cfg = write_config(tmp_path, "icp.sigma = 0.1\n", name="icp.cfg")
        assert covariance("--config", cfg) == pytest.approx(4.0 * default, rel=1e-5)

    def test_collinear_exit_4(self, tmp_path, capsys):
        pts = np.outer(np.linspace(0, 1, 15), [1.0, 0, 0])
        a = str(tmp_path / "line.xyz")
        save_xyz(PointCloud(pts), a)
        assert main(["icp-debug", a, a]) == 4
