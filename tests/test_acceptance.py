"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them). Thresholds are pinned here and must not
be loosened without revisiting the release notes.
"""

import filecmp
import time

import numpy as np

from conftest import random_twist, rot_z
from iekf_slam.cli import main as cli_main
from iekf_slam.errors import DegenerateGeometryError
from iekf_slam.icp import IcpConfig, icp_align, icp_covariance, information_matrix, solve_linear_alignment
from iekf_slam.iekf import FilterState, NoiseConfig, PoseMeasurement, linearize, predict, update
from iekf_slam.metrics import evaluate_series, ground_truth_planar
from iekf_slam.pipeline import run_pipeline
from iekf_slam.pointcloud import BODY, PointCloud
from iekf_slam.se3 import Pose, exp_se3, log_se3, project_pi, wrap_angle
from iekf_slam.simulator import (
    SensorRates,
    TrajectorySpec,
    corridor_world,
    default_world,
    run_scenario,
)

N_SEEDS = 20
RMS_POS_LIMIT = 0.10  # m, per axis
RMS_HEADING_LIMIT = np.radians(3.0)
RUNTIME_LIMIT = 30.0  # s per seed
FINAL_POSE_LIMIT = 0.15  # m, circle loop closure


def _report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


def _score(estimates, ground_truth):
    """RMS report of the pipeline's estimate columns against the simulator truth."""
    t, x, y, _, psi, _ = estimates
    gt_t, gt_x, gt_y, gt_psi = ground_truth_planar(ground_truth)
    return evaluate_series(t, x, y, psi, gt_t, gt_x, gt_y, gt_psi, max_dt=1e-6)


def _run_seed(spec, seed, mode="iekf", world=None, rates=None, icp_cfg=None, init=None):
    world = default_world() if world is None else world
    rates = SensorRates() if rates is None else rates
    icp_cfg = IcpConfig() if icp_cfg is None else icp_cfg
    init = FilterState.initial() if init is None else init
    noise = NoiseConfig()
    log = run_scenario(world, spec, rates, noise, seed)
    return log, run_pipeline(log, mode, noise, init, icp_cfg)


def test_straight_line_accuracy():
    spec = TrajectorySpec(kind="straight", speed=0.25, length=8.0)
    worst = {"x": 0.0, "y": 0.0, "psi": 0.0, "runtime": 0.0}
    for seed in range(N_SEEDS):
        start = time.perf_counter()
        log, estimates = _run_seed(spec, seed)
        elapsed = time.perf_counter() - start
        score = _score(estimates, log.ground_truth)
        worst["x"] = max(worst["x"], score.rms_x)
        worst["y"] = max(worst["y"], score.rms_y)
        worst["psi"] = max(worst["psi"], score.rms_psi)
        worst["runtime"] = max(worst["runtime"], elapsed)
    ok = (
        worst["x"] <= RMS_POS_LIMIT
        and worst["y"] <= RMS_POS_LIMIT
        and worst["psi"] <= RMS_HEADING_LIMIT
        and worst["runtime"] <= RUNTIME_LIMIT
    )
    _report(
        "criterion 1, straight-line accuracy",
        ok,
        f"worst rms x {worst['x']:.4f} m, y {worst['y']:.4f} m, "
        f"psi {np.degrees(worst['psi']):.3f} deg, runtime {worst['runtime']:.1f} s/seed",
    )


def test_two_circle_accuracy_and_closure():
    spec = TrajectorySpec(kind="circle", speed=0.3, radius=1.5, turns=2.0)
    worst = {"x": 0.0, "y": 0.0, "psi": 0.0, "final": 0.0}
    for seed in range(N_SEEDS):
        log, estimates = _run_seed(spec, seed)
        score = _score(estimates, log.ground_truth)
        _, x, y, *_ = estimates
        final_err = np.linalg.norm([x[-1], y[-1]] - log.ground_truth.translations[-1, :2])
        worst["x"] = max(worst["x"], score.rms_x)
        worst["y"] = max(worst["y"], score.rms_y)
        worst["psi"] = max(worst["psi"], score.rms_psi)
        worst["final"] = max(worst["final"], final_err)
    ok = (
        worst["x"] <= RMS_POS_LIMIT
        and worst["y"] <= RMS_POS_LIMIT
        and worst["psi"] <= RMS_HEADING_LIMIT
        and worst["final"] <= FINAL_POSE_LIMIT
    )
    _report(
        "criterion 2, two-circle accuracy and loop closure",
        ok,
        f"worst rms x {worst['x']:.4f} m, y {worst['y']:.4f} m, "
        f"psi {np.degrees(worst['psi']):.3f} deg, final {worst['final']:.4f} m",
    )


def test_group_operation_suite():
    rng = np.random.default_rng(2024)
    round_trip = 0.0
    for _ in range(1000):
        t = random_twist(rng, rot_scale=3.0 / np.sqrt(3.0), trans_scale=5.0)
        round_trip = max(round_trip, np.max(np.abs(log_se3(exp_se3(t)) - t)))

    # the same base twists at every scale, so the error ratios isolate the
    # decay order instead of mixing per-sample constants
    scales = (1e-1, 1e-2, 1e-3)
    base = [random_twist(rng, 1.0, 1.0) for _ in range(50)]
    errs = []
    for s in scales:
        errs.append(
            np.mean([np.linalg.norm(project_pi(exp_se3(s * t)) - log_se3(exp_se3(s * t))) for t in base])
        )
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]

    inv_err = 0.0
    for _ in range(100):
        t = random_twist(rng, 1.0, 2.0)
        diff = exp_se3(t).inverse().matrix() - exp_se3(-t).matrix()
        inv_err = max(inv_err, np.max(np.abs(diff)))

    ok = round_trip < 1e-9 and all(o >= 1.9 for o in orders) and inv_err < 1e-9
    _report(
        "criterion 3, group operation suite",
        ok,
        f"round trip {round_trip:.2e}, projection decay orders "
        f"{', '.join(f'{o:.2f}' for o in orders)}, inverse {inv_err:.2e}",
    )


def test_alignment_recovery_suite():
    rng = np.random.default_rng(7)
    cfg = IcpConfig(max_iterations=100, convergence_tol=1e-10, max_correspondence_dist=np.inf)
    recovery = 0.0
    for _ in range(20):
        cloud = PointCloud(2.0 * rng.uniform(-1, 1, (60, 3)), BODY)
        axis = rng.standard_normal(3)
        axis *= np.radians(10.0) / np.linalg.norm(axis)
        shift = rng.standard_normal(3)
        shift *= 0.2 / np.linalg.norm(shift)
        delta = exp_se3(np.concatenate([axis, shift]))
        target = PointCloud(delta.apply(cloud.points), BODY)
        result = icp_align(cloud, target, cfg)
        recovery = max(recovery, np.max(np.abs(result.delta_pose.matrix() - delta.matrix())))

    monotone = True
    for _ in range(100):
        cloud = PointCloud(2.0 * rng.uniform(-1, 1, (40, 3)), BODY)
        delta = exp_se3(random_twist(rng, 0.1, 0.1))
        noisy = delta.apply(cloud.points) + 0.01 * rng.standard_normal((40, 3))
        costs = icp_align(cloud, PointCloud(noisy, BODY), cfg).cost_history
        monotone &= all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(costs, costs[1:]))

    line = PointCloud(np.outer(np.linspace(0, 1, 15), [1.0, 0, 0]), BODY)
    try:
        icp_align(line, line, cfg)
        rejected = False
    except DegenerateGeometryError:
        rejected = True

    ok = recovery <= 1e-6 and monotone and rejected
    _report(
        "criterion 4, alignment recovery suite",
        ok,
        f"worst recovery {recovery:.2e}, monotone {monotone}, collinear rejected {rejected}",
    )


def test_covariance_against_monte_carlo():
    rng = np.random.default_rng(11)
    cloud = PointCloud(2.0 * rng.uniform(-1, 1, (20, 3)), BODY)
    sigma = 0.05
    analytic = sigma**2 * np.linalg.inv(information_matrix(cloud.points))
    estimates = np.empty((5000, 6))
    for k in range(5000):
        noise = sigma * rng.standard_normal((20, 3))
        estimates[k], _ = solve_linear_alignment(cloud.points, noise)
    empirical = np.cov(estimates.T)
    scale = np.sqrt(np.outer(np.diag(analytic), np.diag(analytic)))
    strong = np.abs(analytic) > 0.1 * scale
    worst_ratio = np.max(np.abs(empirical[strong] / analytic[strong] - 1.0))
    exact = np.allclose(icp_covariance(cloud, sigma), len(cloud) * analytic, rtol=1e-12)
    ok = worst_ratio < 0.2 and exact
    _report(
        "criterion 5, covariance versus Monte Carlo",
        ok,
        f"worst entry deviation {worst_ratio:.1%}, rescaled output exact {exact}",
    )


def test_filter_structural_properties():
    rng = np.random.default_rng(3)
    sample = ([0.1, -0.2, 0.3], [1.0, 0.5, -0.1])
    bit_identical = np.array_equal(linearize(*sample), linearize(*sample))

    noise = NoiseConfig()
    state = FilterState.initial()
    sym_pd = True
    for k in range(10_000):
        state = predict(state, rng.standard_normal(3), rng.standard_normal(3), 0.002, noise)
        if k % 50 == 0:
            target = state.pose @ exp_se3(0.01 * random_twist(rng))
            state = update(state, PoseMeasurement(target, 1e-3 * np.eye(6), 0.0))
        sym_pd &= bool(np.array_equal(state.covariance, state.covariance.T))
    sym_pd &= bool(np.min(np.linalg.eigvalsh(state.covariance)) > 0)

    from iekf_slam.iekf import innovation

    invariance = 0.0
    pose = exp_se3(random_twist(rng, 1.0, 2.0))
    measured = pose @ exp_se3(random_twist(rng, 0.3, 0.3))
    base = innovation(FilterState(pose, np.eye(6)), PoseMeasurement(measured, np.eye(6), 0.0))
    for _ in range(10):
        g = exp_se3(random_twist(rng, 1.5, 4.0))
        shifted = innovation(
            FilterState(g @ pose, np.eye(6)), PoseMeasurement(g @ measured, np.eye(6), 0.0)
        )
        invariance = max(invariance, np.max(np.abs(shifted - base)))

    prior = FilterState(exp_se3(random_twist(rng, 1.0, 2.0)), 1e-3 * np.eye(6))
    target = prior.pose @ exp_se3(1e-4 * random_twist(rng))
    no_trust = update(prior, PoseMeasurement(target, 1e9 * np.eye(6), 0.0))
    full_trust = update(prior, PoseMeasurement(target, 1e-12 * np.eye(6), 0.0))
    limits = no_trust.pose.is_close(prior.pose, tol=1e-9) and full_trust.pose.is_close(
        target, tol=1e-7
    )

    ok = bit_identical and sym_pd and invariance < 1e-12 and limits
    _report(
        "criterion 6, filter structural properties",
        ok,
        f"linearization bit-identical {bit_identical}, covariance symmetric PD {sym_pd}, "
        f"innovation shift {invariance:.2e}, gain limits {limits}",
    )


def test_recovery_from_large_heading_error():
    spec = TrajectorySpec(kind="straight", speed=0.25, duration=12.0)
    init = FilterState.initial(pose=Pose(rot_z(np.pi / 2), np.zeros(3)), rot_var=2.5)
    converged = 0
    worst = 0.0
    for seed in range(N_SEEDS):
        log, estimates = _run_seed(spec, seed, init=init)
        gt_t, _, _, gt_psi = ground_truth_planar(log.ground_truth)
        err = np.inf
        t, _, _, _, psi, _ = estimates
        late = np.flatnonzero(t >= 10.0)
        if late.size:
            k = late[0]
            j = int(np.argmin(np.abs(gt_t - t[k])))
            err = abs(wrap_angle(psi[k] - gt_psi[j]))
        worst = max(worst, err)
        if err < np.radians(5.0):
            converged += 1
    ok = converged >= 18
    _report(
        "criterion 7, recovery from a 90 degree initial heading error",
        ok,
        f"{converged}/{N_SEEDS} seeds below 5 deg at t = 10 s, worst "
        f"{np.degrees(worst):.2f} deg",
    )


def test_featureless_corridor_behaviour():
    spec = TrajectorySpec(kind="straight", speed=0.25, duration=20.0)
    world = corridor_world()
    rates = SensorRates(cloud_sigma=0.0, range_max=2.0)
    # correspondence radius below the wall grid pitch: stops the scan window's
    # leading edge from pairing across columns and dragging the fit
    icp_cfg = IcpConfig(max_iterations=100, convergence_tol=1e-10, max_correspondence_dist=0.02)

    log, naive = _run_seed(
        spec, 0, mode="naive-scan-match", world=world, rates=rates, icp_cfg=icp_cfg
    )
    naive_advance = np.max(np.linalg.norm(np.column_stack(naive[1:4]), axis=1))

    worst = {"x": 0.0, "y": 0.0, "psi": 0.0}
    for seed in range(3):
        log, estimates = _run_seed(
            spec, seed, mode="scan-match-only", world=world, rates=rates, icp_cfg=icp_cfg
        )
        score = _score(estimates, log.ground_truth)
        worst["x"] = max(worst["x"], score.rms_x)
        worst["y"] = max(worst["y"], score.rms_y)
        worst["psi"] = max(worst["psi"], score.rms_psi)

    ok = (
        naive_advance < 0.01
        and worst["x"] <= RMS_POS_LIMIT
        and worst["y"] <= RMS_POS_LIMIT
        and worst["psi"] <= RMS_HEADING_LIMIT
    )
    _report(
        "criterion 8, featureless corridor",
        ok,
        f"naive advance {naive_advance:.2e} m; aided rms x {worst['x']:.4f} m, "
        f"y {worst['y']:.4f} m, psi {np.degrees(worst['psi']):.3f} deg",
    )


def test_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("scenario.kind = straight\nscenario.duration = 6.0\nseed = 17\n")
    outputs = []
    for run in ("first", "second"):
        base = tmp_path / run
        log_dir = str(base / "log")
        est = str(base / "estimates.csv")
        report_dir = str(base / "report")
        assert cli_main(["simulate", "--config", str(cfg), "--out", log_dir]) == 0
        assert cli_main(["run", log_dir, "--mode", "iekf", "--out", est]) == 0
        assert cli_main(
            ["evaluate", est, f"{log_dir}/ground_truth.csv", "--out", report_dir]
        ) == 0
        outputs.append(report_dir)
    identical = filecmp.cmp(
        f"{outputs[0]}/report.txt", f"{outputs[1]}/report.txt", shallow=False
    ) and filecmp.cmp(f"{outputs[0]}/errors.csv", f"{outputs[1]}/errors.csv", shallow=False)
    _report("criterion 9, end-to-end determinism", identical, "report and error series byte-identical")
