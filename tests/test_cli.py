import filecmp
import hashlib
import os

import numpy as np
import pytest

from conftest import WAYPOINT_GRID
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


def evaluate_report(tmp_path, est, log_dir, name="report"):
    """``evaluate`` of ``est`` against the log's ground truth, as a dict of
    the report's values."""
    out_dir = str(tmp_path / name)
    assert main(["evaluate", est, os.path.join(log_dir, "ground_truth.csv"), "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "report.txt")) as fh:
        return dict(line.split(" = ") for line in fh.read().splitlines() if not line.startswith("#"))


def log_digest(log_dir):
    """sha256 over ground_truth.csv, odometry.csv and every file under scans/,
    each as its relative path, a NUL byte and its bytes, in sorted order."""
    names = ["ground_truth.csv", "odometry.csv"]
    names += sorted(os.path.join("scans", name) for name in os.listdir(os.path.join(log_dir, "scans")))
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(log_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


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
        assert len(log.odometry.t) == 100
        assert len(log.scans) == 10
        assert len(log.ground_truth.t) == 101
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

    @pytest.mark.parametrize(
        "text,digest",
        [
            (
                "scenario.kind = straight\nscenario.speed = 0.25\nscenario.duration = 1.0\n"
                "scenario.veer_rate = 0.1\nseed = 3\n",
                "4e340ebdd89167b805de344525e6688d72043b98f7050b3b4e7427f37afa34f2",
            ),
            (
                "scenario.kind = straight\nscenario.speed = 0.25\nscenario.length = 0.3\nseed = 4\n",
                "1a1c126bd46fc17b1116445426e654ca179e23fb5160299b1f3760a37c725573",
            ),
            (
                "scenario.kind = circle\nscenario.speed = 0.3\nscenario.radius = 1.5\n"
                "scenario.duration = 1.0\nseed = 5\n",
                "fdc987b06cdf2d18d12c40534dc635ad3d0d5f009cb819e6d8567a4fa9a1b4dc",
            ),
            (
                "scenario.kind = circle\nscenario.speed = 0.3\nscenario.radius = 1.5\n"
                "scenario.turns = 0.03\nseed = 6\n",
                "7938f1ffa06e334bacd21b8ac86b305f132c67535ad8fc3adda818bd9f75f50b",
            ),
            (
                "world.kind = corridor\nworld.corridor_spacing = 0.1\nworld.corridor_height = 0.6\n"
                "scenario.kind = straight\nscenario.duration = 1.0\nscenario.veer_rate = 0.05\n"
                "rates.range_max = 4\nseed = 7\n",
                "fa5ce59bf798412b970853545b3826c46ca8e3fc812a8dbfbbe32bd23a976238",
            ),
            (
                "scenario.kind = waypoints\nscenario.waypoints = 0.5 0; 0 0\nscenario.speed = 0.5\nseed = 8\n",
                "c0c41ab7445551b3b086f1a179a2d9e842d38393474023c9308e2c5d3b973881",
            ),
        ],
        ids=["straight-veer", "straight-length", "circle", "circle-turns", "corridor-noisy", "waypoints-u-turn"],
    )
    def test_simulator_bytes_pinned(self, tmp_path, text, digest):
        # Straight and circle logs, with an explicit duration and with one
        # derived from the geometry, are pinned to the bytes the simulator
        # wrote before waypoint paths became twist segments; a noisy corridor
        # of non-default spacing and height and a U-turn waypoint path to the
        # bytes it wrote while worlds were sampled from wall objects. The
        # digests assume IEEE doubles and numpy's sin, cos and sqrt as of numpy 2.
        cfg = write_config(tmp_path, text)
        out = str(tmp_path / "log")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert log_digest(out) == digest

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg, "--out", a])
        main(["simulate", "--config", cfg, "--seed", "99", "--out", b])
        assert not filecmp.cmp(os.path.join(a, "odometry.csv"), os.path.join(b, "odometry.csv"), shallow=False)

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        # numpy's generator refuses a negative seed with a traceback.
        out = tmp_path / "log"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exit_2_names_key_and_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scenario.kind = straight\nscenario.velocity = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "scenario.velocity" in err
        assert ":2" in err

    @pytest.mark.parametrize(
        "text,names",
        [
            ("world.kind = corridor\nworld.corridor_spacing = 0", "world.corridor_spacing"),
            ("scenario.kind = circle\nscenario.radius = 0", "scenario.radius"),
            ("scenario.kind = waypoints\nscenario.waypoints = 1 2 3", "scenario.waypoints"),
            ("scenario.kind = circle\nscenario.turns = 0", "scenario.turns"),
            ("scenario.duration = 0.001", "duration"),
            ("scenario.kind = waypoints\nscenario.waypoints = 0 0; 0 0", "scenario.waypoints"),
            ("scenario.kind = waypoints\nscenario.waypoints = 1 nan", "scenario.waypoints"),
            ("scenario.kind = waypoints\nscenario.waypoints = 1e308 0; -1e308 0", "scenario.waypoints"),
            ("rates.range_max = 0", "rates.range_max"),
            ("rates.range_max = -1", "rates.range_max"),
            ("rates.fov = 0", "rates.fov"),
            ("rates.odometry_hz = inf", "rates.odometry_hz"),
            ("scenario.duration = 1e10\nrates.odometry_hz = 1e300\nrates.scan_hz = 1e300", "scenario.duration"),
            ("noise.gyro_sigma = inf", "noise.gyro_sigma"),
            ("noise.gyro_sigma = nan", "noise.gyro_sigma"),
            ("rates.cloud_sigma = inf", "rates.cloud_sigma"),
            ("rates.cloud_sigma = nan", "rates.cloud_sigma"),
            ("scenario.speed = inf\nscenario.duration = 1.0", "scenario.speed"),
            ("world.kind = corridor\nworld.corridor_spacing = inf", "world.corridor_spacing"),
            ("world.kind = corridor\nworld.corridor_length = inf", "world.corridor_length"),
            ("world.kind = corridor\nworld.corridor_height = inf", "world.corridor_height"),
            ("world.kind = corridor\nworld.corridor_length = 1e300", "world.corridor_length = 1e+300"),
            ("world.kind = corridor\nworld.corridor_spacing = 1e-9", "world.corridor_spacing = 1e-09"),
        ],
        ids=[
            "corridor_spacing", "radius", "waypoints", "turns", "duration", "waypoints_no_leg",
            "waypoints_nan", "waypoints_overflow", "range_max_zero", "range_max_negative", "fov_zero", "odometry_hz_inf",
            "steps_overflow", "gyro_sigma_inf", "gyro_sigma_nan", "cloud_sigma_inf", "cloud_sigma_nan", "speed_inf",
            "corridor_spacing_inf", "corridor_length_inf", "corridor_height_inf", "corridor_length_huge",
            "corridor_spacing_tiny",
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, text, names):
        # Each of these used to end in a traceback, in a log with no
        # odometry samples and no scans, in a log with no scans, in a log of
        # NaN ground truth or NaN meta, or in a world of gigabytes.
        cfg = write_config(tmp_path, text + "\n")
        out = tmp_path / "log"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and names in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("short")
    cfg = write_config(tmp, SHORT_SCENARIO)
    assert main(["simulate", "--config", cfg, "--out", str(tmp / "log")]) == 0
    return str(tmp / "log")


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
        # the matcher and the filter must start there rather than at the
        # identity.
        cfg = write_config(tmp_path, WAYPOINTS_Y_FIRST_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", mode, "--out", est]) == 0
        values = evaluate_report(tmp_path, est, log_dir)
        assert float(values["rms_psi_deg"]) < 2.0
        assert float(values["rms_x"]) < 0.05
        assert float(values["rms_y"]) < 0.05

    @pytest.mark.parametrize("mode", ["iekf", "dead-reckoning"])
    def test_filter_starts_at_true_initial_pose(self, tmp_path, mode):
        # Same +y-first scenario with the default filter.init_* (zero): they
        # are the initial error in the start frame, so the filter's first row
        # is the true initial pose, and dead reckoning alone keeps the heading.
        cfg = write_config(tmp_path, WAYPOINTS_Y_FIRST_SCENARIO)
        log_dir = str(tmp_path / "log")
        main(["simulate", "--config", cfg, "--out", log_dir])
        est = str(tmp_path / "est.csv")
        assert main(["run", log_dir, "--mode", mode, "--out", est]) == 0
        _, x, y, _, psi, _ = load_estimates(est)
        _, gt_x, gt_y, gt_psi = ground_truth_planar(
            load_ground_truth(os.path.join(log_dir, "ground_truth.csv"))
        )
        assert abs(x[0] - gt_x[0]) < 1e-9
        assert abs(y[0] - gt_y[0]) < 1e-9
        assert abs(psi[0] - gt_psi[0]) < 1e-9
        assert float(evaluate_report(tmp_path, est, log_dir)["rms_psi_deg"]) < 1.0

    def test_covariance_independent_of_initial_estimate(self, tmp_path, short_log):
        # The paper's claim, end to end: the invariant filter linearizes on
        # the odometry alone and its error is defined in the body frame, so
        # P, and hence every gain, is the same whatever the estimate. Only the
        # estimate itself differs with the initial error.
        runs = []
        for heading in (0, 90, 179):
            cfg = write_config(tmp_path, f"filter.init_heading_deg = {heading}\n"
                               "filter.init_x = 0.7\nfilter.p0_rot = 2.5\n")
            est = str(tmp_path / f"est_{heading}.csv")
            assert main(["run", short_log, "--mode", "iekf", "--config", cfg, "--out", est]) == 0
            runs.append(load_estimates(est))
        (t, *_, psi, P), *others = runs
        assert len(np.unique(P[:, 0, 0])) > 10  # P moves: predictions and updates
        for t_other, *_, psi_other, P_other in others:
            assert np.array_equal(t_other, t)
            assert np.array_equal(P_other, P)
            assert not np.array_equal(psi_other, psi)

    def test_naive_matcher_anchors_at_true_initial_pose(self, tmp_path):
        # Same +y-first scenario. Chained ICP without an odometry prior need
        # not follow the 90 deg turn in place from t = 2.0 to 4.0 s, so only
        # the first leg is checked: the anchor alone must put it on the true
        # heading.
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

    @pytest.mark.parametrize("name", WAYPOINT_GRID)
    def test_waypoint_path_iekf_beats_dead_reckoning(self, tmp_path, capsys, name):
        # U-turns, reversals, repeated points and cut or held paths simulate
        # and replay. The odometry noise is five times the default, so that
        # dead reckoning drifts beyond the scan matcher's noise floor on
        # these paths of at most 16 s, and the filter must do better.
        waypoints, duration = WAYPOINT_GRID[name]
        text = "scenario.kind = waypoints\nscenario.speed = 0.5\n"
        text += "scenario.waypoints = " + "; ".join(f"{x} {y}" for x, y in waypoints) + "\n"
        if duration is not None:
            text += f"scenario.duration = {duration}\n"
        text += "noise.gyro_sigma = 0.05\nnoise.velocity_sigma = 0.1\nseed = 0\n"
        log_dir = str(tmp_path / "log")
        assert main(["simulate", "--config", write_config(tmp_path, text), "--out", log_dir]) == 0
        rms = {}
        for mode in ("iekf", "dead-reckoning"):
            est = str(tmp_path / f"{mode}.csv")
            assert main(["run", log_dir, "--mode", mode, "--out", est]) == 0
            values = evaluate_report(tmp_path, est, log_dir, name=mode)
            rms[mode] = np.hypot(float(values["rms_x"]), float(values["rms_y"])), float(values["rms_psi_deg"])
        assert rms["iekf"][0] <= rms["dead-reckoning"][0]
        assert rms["iekf"][1] <= rms["dead-reckoning"][1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "key,value",
        [("gyro_cov_diag", "abc"), ("velocity_cov_diag", "1e-4 1e-4"), ("velocity_cov_diag", None)],
        ids=["non-numeric", "two-values", "missing"],
    )
    def test_bad_meta_covariance_exit_3(self, tmp_path, capsys, key, value):
        # The recorded process noise is log content like cloud_sigma: a bad
        # or missing covariance is a parse error naming the meta file and
        # the key, not a config error.
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        log_dir = tmp_path / "log"
        main(["simulate", "--config", cfg, "--out", str(log_dir)])
        meta = log_dir / "meta"
        lines = [line for line in meta.read_text().splitlines() if not line.startswith(key)]
        if value is not None:
            lines.append(f"{key} = {value}")
        meta.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["run", str(log_dir), "--out", str(tmp_path / "est.csv")]) == 3
        err = capsys.readouterr().err
        assert str(meta) in err and key in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "est.csv").exists()

    def test_missing_log_dir_exit_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize(
        "text,code",
        [
            ("icp.max_iterations = 0", 2),
            ("icp.convergence_tol = 0", 2),
            ("icp.max_correspondence_dist = -1", 2),
            ("icp.sigma = 0", 2),
            ("filter.p0_rot = -1", 2),
            ("filter.p0_pos = 0", 0),
            ("filter.init_x = inf", 2),
            ("filter.init_heading_deg = nan", 2),
            ("filter.p0_rot = inf", 2),
            ("icp.sigma = inf", 2),
        ],
    )
    def test_bad_value_exit_2(self, short_log, tmp_path, capsys, text, code):
        # A value its settings object refuses is a config error naming the
        # key, not a traceback or a numerical failure later in the filter.
        # The non-finite ones exited 0 with NaN estimates, inf covariances,
        # or (icp.sigma) every update lost.
        cfg = write_config(tmp_path, text + "\n")
        est = tmp_path / "est.csv"
        capsys.readouterr()
        assert main(["run", short_log, "--config", cfg, "--out", str(est)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error:") and text.split(" =")[0] in err
            assert len(err.splitlines()) == 1
            assert not est.exists()
        else:
            assert err == ""

    def test_non_numeric_meta_exit_3(self, tmp_path, capsys):
        # The log is outside input: a bad meta value is a parse error that
        # names the file, like a bad row in any other log file.
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        log_dir = tmp_path / "log"
        main(["simulate", "--config", cfg, "--out", str(log_dir)])
        meta = log_dir / "meta"
        lines = [
            "cloud_sigma = abc" if line.startswith("cloud_sigma") else line
            for line in meta.read_text().splitlines()
        ]
        meta.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["run", str(log_dir), "--out", str(tmp_path / "est.csv")]) == 3
        err = capsys.readouterr().err
        assert str(meta) in err and "abc" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["ground_truth.csv", "odometry.csv"])
    def test_header_only_table_exit_3(self, tmp_path, capsys, name):
        # A header-only ground truth used to end in an IndexError traceback; a
        # header-only odometry table exited 0 with an estimate file of no rows
        # (dead-reckoning) or of rows at the scan times only (iekf).
        cfg = write_config(tmp_path, SHORT_SCENARIO)
        log_dir = tmp_path / "log"
        main(["simulate", "--config", cfg, "--out", str(log_dir)])
        path = log_dir / name
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        est = tmp_path / "est.csv"
        for mode in ("iekf", "dead-reckoning"):
            capsys.readouterr()
            assert main(["run", str(log_dir), "--mode", mode, "--out", str(est)]) == 3
            err = capsys.readouterr().err
            assert str(path) in err and "no rows" in err
            assert len(err.splitlines()) == 1
        assert not est.exists()

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


# Short logs of the benchmark's two workloads: two seconds of the room circle,
# and the dense corridor, whose 0.02 m rejection radius drops some pairs.
REPLAY_PINS = {
    "room-circle": (
        "scenario.kind = circle\nscenario.speed = 0.3\nscenario.radius = 1.5\n"
        "scenario.turns = 2\nscenario.duration = 2.0\n",
        {
            "iekf": "19ea14220ee58b0d04866a9f7c36e0fb9f08f6d8e6cfac8edcd9ded7338ab3fe",
            "dead-reckoning": "61abac741c0ea8a95e2a2e7fd95daa97fe6b3dce82c352c1b9854c641e359c54",
            "naive-scan-match": "a92099c38a68506c716bbca34ec3302d04089442eea165a4f71b42faacc4f9ad",
            "scan-match-only": "15c2e5044c1bab2570e0fa123720baae50f03e5174d09e3fce9671b6a14a9041",
            "report": "de341686ef5d960db034a5b62d9f7d1332ce1974fecec93971d5c07f0e4f4d99",
            "errors": "0812f89eea44b30ff31331fad57ae23c1f2086e071c1aed8ea42e719a78f476c",
        },
    ),
    "corridor-dense": (
        "world.kind = corridor\nscenario.kind = straight\nscenario.speed = 0.25\n"
        "scenario.duration = 0.4\nrates.range_max = 12\nrates.cloud_sigma = 0\n"
        "icp.max_correspondence_dist = 0.02\nicp.max_iterations = 100\n"
        "icp.convergence_tol = 1e-10\n",
        {
            "iekf": "15a7cdcfc4245ce067ef149599f0afbacc108d40acf10078144f9ea9696cbd7b",
            "dead-reckoning": "be3c4963617645e75a83240d07d68ed468b9a722a4917b54711727ba0716b0ce",
            "naive-scan-match": "f54508c78d679a9752c3780fd25601dc2b0ff82821f14368f1de3430b8805ff5",
            "scan-match-only": "1c7c40ca25dc2e8fb2ac3da0e5dba5e0d4581b11219b224c48cc6d68c855281c",
            "report": "0534ebd4c4aee6aa4d336332648740be500f0ccf862051620d63728df835d7ad",
            "errors": "ee05baf1d74d17294ac84c93e8504e0ca597452e812f80cc84e36e37ed94af3e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAY_PINS))
def test_replay_bytes_pinned(tmp_path, name):
    # estimates_<mode>.csv in every mode, and the iekf report, pinned to the
    # bytes written before ICP cached its per-alignment invariants; the iekf
    # errors.csv, pinned to the bytes written before `evaluate` read only the
    # columns it scores. Like the simulator digests, these assume IEEE doubles
    # and numpy 2's sin, cos and sqrt.
    text, digests = REPLAY_PINS[name]
    cfg = write_config(tmp_path, text)
    log_dir = str(tmp_path / "log")
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", log_dir]) == 0
    found = {}
    for mode in MODES:
        est = str(tmp_path / f"estimates_{mode}.csv")
        assert main(["run", log_dir, "--mode", mode, "--config", cfg, "--out", est]) == 0
        with open(est, "rb") as fh:
            found[mode] = hashlib.sha256(fh.read()).hexdigest()
    report_dir = str(tmp_path / "report")
    gt = os.path.join(log_dir, "ground_truth.csv")
    assert main(["evaluate", str(tmp_path / "estimates_iekf.csv"), gt, "--out", report_dir]) == 0
    for key, name in (("report", "report.txt"), ("errors", "errors.csv")):
        with open(os.path.join(report_dir, name), "rb") as fh:
            found[key] = hashlib.sha256(fh.read()).hexdigest()
    assert found == digests


class TestEvaluate:
    def make_pair(self, tmp_path, offset=0.0):
        t = np.arange(11) * 0.1
        translations = np.column_stack([0.5 * t, np.zeros((len(t), 2))])
        gt_path = str(tmp_path / "gt.csv")
        save_ground_truth(gt_path, (t, np.tile(np.eye(3), (len(t), 1, 1)), translations))
        zero = np.zeros_like(t)
        est_path = str(tmp_path / "est.csv")
        save_estimates(est_path, (t, 0.5 * t + offset, zero, zero, zero, np.zeros((len(t), 6, 6))))
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
        save_ground_truth(gt_path, ([0.0], rot[None], np.zeros((1, 3))))
        est_path = str(tmp_path / "est.csv")
        save_estimates(est_path, (t, [0.0], [0.0], [0.0], [-psi], np.zeros((1, 6, 6))))
        assert main(["evaluate", est_path, gt_path]) == 0
        out = capsys.readouterr().out
        rms_psi = float(out.split("rms_psi = ")[1].splitlines()[0])
        # -psi vs psi near pi wraps to a small 2*(pi - psi) error
        assert rms_psi == pytest.approx(0.02, abs=1e-9)

    def test_header_only_ground_truth_exit_3(self, tmp_path, capsys):
        # This ended in an IndexError traceback with exit 1.
        est, gt = self.make_pair(tmp_path)
        with open(gt) as fh:
            header = fh.readline()
        with open(gt, "w") as fh:
            fh.write(header)
        assert main(["evaluate", est, gt]) == 3
        err = capsys.readouterr().err
        assert gt in err and "no rows" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("column, value", [(0, "nan"), (1, "nan"), (2, "inf"), (4, "-inf")])
    def test_non_finite_estimate_exit_3(self, tmp_path, capsys, column, value):
        # A nan x exited 0 and printed rms_x = nan.
        est, gt = self.make_pair(tmp_path)
        with open(est) as fh:
            lines = fh.read().splitlines()
        row = lines[4].split(",")
        row[column] = value
        lines[4] = ",".join(row)
        with open(est, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out_dir = str(tmp_path / "report")
        assert main(["evaluate", est, gt, "--out", out_dir]) == 3
        captured = capsys.readouterr()
        assert f"{est}:5: non-finite" in captured.err
        assert captured.out == ""
        assert not os.path.exists(out_dir)

    def test_disjoint_time_ranges_exit_3(self, tmp_path, capsys):
        est, _ = self.make_pair(tmp_path)
        gt_path = str(tmp_path / "late.csv")
        save_ground_truth(gt_path, (100.0 + np.arange(3), np.tile(np.eye(3), (3, 1, 1)), np.zeros((3, 3))))
        assert main(["evaluate", est, gt_path, "--max-dt", "0.5"]) == 3

    @pytest.mark.parametrize("max_dt", ["-1", "-inf", "nan"])
    def test_bad_max_dt_exit_2(self, tmp_path, capsys, max_dt):
        # These exited 3 with "time ranges do not overlap", a wrong reason:
        # the pair scores with the default tolerance.
        est, gt = self.make_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", est, gt, f"--max-dt={max_dt}"])
        assert exc.value.code == 2
        assert "--max-dt" in capsys.readouterr().err

    @pytest.mark.parametrize("max_dt", ["0", "inf"])
    def test_zero_and_inf_max_dt_accepted(self, tmp_path, capsys, max_dt):
        est, gt = self.make_pair(tmp_path)
        assert main(["evaluate", est, gt, "--max-dt", max_dt]) == 0
        assert "rms_x = 0.0" in capsys.readouterr().out


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

    def test_sigma_flag_overrides_config_sigma(self, tmp_path, rng, capsys):
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))

        def covariance(*extra):
            assert main(["icp-debug", a, b, *extra]) == 0
            block = capsys.readouterr().out.split("covariance:\n")[1].splitlines()[:6]
            return np.array([[float(v) for v in line.split()] for line in block])

        cfg = write_config(tmp_path, "icp.sigma = 0.1\n", name="icp.cfg")
        flag = covariance("--sigma", "0.2")
        assert np.array_equal(covariance("--sigma", "0.2", "--config", cfg), flag)
        assert covariance("--config", cfg) == pytest.approx(flag / 4.0, rel=1e-5)

    @pytest.mark.parametrize("sigma", ["inf", "-inf", "nan"])
    def test_non_finite_sigma_flag_exit_2(self, tmp_path, rng, capsys, sigma):
        # `--sigma inf` exited 0 and printed a covariance of inf/-inf
        # entries, where icp.sigma = inf in a config exits 2.
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))
        with pytest.raises(SystemExit) as exc:
            main(["icp-debug", a, b, f"--sigma={sigma}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--sigma" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "initial",
        [
            "1 2 3",
            "1 0 0 0 1 0 0 0 1 0 0 0 0",
            "a b",
            "1 0 0 0 1 0 0 0 1 nan 0 0",
            "1 0 0 0 1 0 0 0 1 0 inf 0",
            "1.01 0 0 0 1 0 0 0 1 0 0 0",
            "1 0 0 0 1 0 0 0 -1 0 0 0",
        ],
    )
    def test_bad_initial_flag_exit_2(self, tmp_path, rng, capsys, initial):
        # A wrong count, a word or a non-finite entry ended in a traceback
        # with exit 1; a stretched rotation block aligned a scaled cloud and
        # exited 0.
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))
        with pytest.raises(SystemExit) as exc:
            main(["icp-debug", a, b, f"--initial={initial}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--initial" in captured.err
        assert captured.out == ""

    def test_initial_flag_starts_the_alignment(self, tmp_path, rng, capsys):
        a, b = self.clouds(tmp_path, rng, shift=(0.05, -0.02, 0.0))
        assert main(["icp-debug", a, b, "--initial", "1 0 0 0 1 0 0 0 1 0.04 -0.01 0"]) == 0
        out = capsys.readouterr().out
        row_line = out.split("row-major R then p):\n")[1].splitlines()[0]
        values = [float(v) for v in row_line.split()]
        assert np.allclose(values[9:], [0.05, -0.02, 0.0], atol=1e-6)

    def test_collinear_exit_4(self, tmp_path, capsys):
        pts = np.outer(np.linspace(0, 1, 15), [1.0, 0, 0])
        a = str(tmp_path / "line.xyz")
        save_xyz(PointCloud(pts), a)
        assert main(["icp-debug", a, a]) == 4
