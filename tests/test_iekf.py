import numpy as np
import pytest

from conftest import odometry_columns, random_pose, random_twist, rot_z
from iekf_slam import iekf
from iekf_slam.errors import MeasurementRejectedError, NumericalFailureError, TimingError
from iekf_slam.iekf import (
    FilterState,
    NoiseConfig,
    PoseMeasurement,
    innovation,
    linearize,
    predict,
    run_filter,
    update,
)
from iekf_slam.se3 import Pose, exp_se3, skew


def meas(pose, cov, t=0.0):
    return PoseMeasurement(pose, cov, t)


def reference_run_filter(odometry, measurements, noise, init):
    """Oracle: the event loop calling ``predict`` and ``update`` once per
    event, which ``run_filter`` replaced with a batched schedule."""
    state = init
    last_sample = None
    samples = list(zip(odometry.t.tolist(), odometry.omega, odometry.mu))
    odo_iter = iter(samples)
    meas_iter = iter(measurements)
    odo = next(odo_iter, None)
    m = next(meas_iter, None)
    prev_t = -np.inf
    while odo is not None or m is not None:
        take_odo = m is None or (odo is not None and odo[0] <= m.timestamp)
        t = odo[0] if take_odo else m.timestamp
        if t < prev_t:
            raise TimingError(f"out-of-order timestamp {t} after {prev_t}")
        prev_t = t
        if t > state.timestamp:
            if last_sample is not None:
                state = predict(state, *last_sample[1:], t - state.timestamp, noise)
            else:
                state = FilterState(state.pose, state.covariance, t)
        if take_odo:
            last_sample = odo
            odo = next(odo_iter, None)
        else:
            try:
                state = update(state, m)
            except MeasurementRejectedError:
                pass
            m = next(meas_iter, None)
        yield state


class TestLinearize:
    def test_zero_sample(self):
        a = linearize(np.zeros(3), np.zeros(3))
        assert np.array_equal(a, np.zeros((6, 6)))

    def test_block_pattern(self):
        a = linearize([0, 0, 1.0], [1.0, 0, 0])
        assert np.array_equal(a[:3, :3], -skew([0, 0, 1.0]))
        assert np.array_equal(a[3:, :3], -skew([1.0, 0, 0]))
        assert np.array_equal(a[3:, 3:], -skew([0, 0, 1.0]))
        assert np.array_equal(a[:3, 3:], np.zeros((3, 3)))

    def test_random_samples_match_block_formula(self, rng):
        for _ in range(100):
            omega, mu = rng.standard_normal(3), rng.standard_normal(3)
            a = linearize(omega, mu)
            assert np.array_equal(a[:3, :3], -skew(omega))
            assert np.array_equal(a[3:, :3], -skew(mu))
            assert np.array_equal(a[3:, 3:], -skew(omega))

    def test_state_independent_by_construction(self):
        # signature admits no pose; repeated calls are bit-identical
        s = ([0.1, -0.2, 0.3], [1.0, 0.5, -0.1])
        assert np.array_equal(linearize(*s), linearize(*s))


class TestPredict:
    def test_zero_twist_grows_p_by_q(self):
        state = FilterState.initial()
        noise = NoiseConfig()
        out = predict(state, np.zeros(3), np.zeros(3), 0.02, noise)
        assert out.pose.is_close(Pose.identity(), tol=0)
        assert np.allclose(out.covariance, state.covariance + 0.02 * noise.q_block(), atol=1e-15)

    def test_constant_yaw_rate_integrates_heading(self):
        state = FilterState.initial()
        noise = NoiseConfig()
        sample = ([0, 0, 1.0], np.zeros(3))
        dt, n = 0.01, 157
        for _ in range(n):
            state = predict(state, *sample, dt, noise)
        assert np.max(np.abs(state.pose.rotation - rot_z(n * dt))) < 1e-9

    def test_p_stays_symmetric_over_many_steps(self, rng):
        state = FilterState.initial()
        noise = NoiseConfig()
        for _ in range(10_000):
            state = predict(state, rng.standard_normal(3), rng.standard_normal(3), 0.002, noise)
            p = state.covariance
            assert np.array_equal(p, p.T)
        assert np.min(np.linalg.eigvalsh(state.covariance)) > 0

    def test_non_positive_dt(self):
        with pytest.raises(TimingError):
            predict(FilterState.initial(), np.zeros(3), np.zeros(3), 0.0, NoiseConfig())

    def test_infinite_dt(self):
        # An infinite step has no substep count: refused, not run as no substeps.
        with pytest.raises(TimingError, match="infinite"):
            predict(FilterState.initial(), np.zeros(3), np.zeros(3), np.inf, NoiseConfig())
        odometry = odometry_columns([0.0, np.inf], np.zeros(3), [0.25, 0, 0])
        with pytest.raises(TimingError, match="infinite"):
            run_filter(odometry, [], NoiseConfig(), FilterState.initial())

    def test_large_dt_substepped(self):
        # dt above the cap must still integrate, matching many explicit substeps
        noise = NoiseConfig()
        sample = ([0, 0, 0.5], [0.3, 0, 0])
        one = predict(FilterState.initial(), *sample, 0.5, noise)
        many = FilterState.initial()
        for _ in range(5):
            many = predict(many, *sample, 0.1, noise)
        assert one.pose.is_close(many.pose, tol=1e-12)
        assert np.allclose(one.covariance, many.covariance, atol=1e-12)


class TestInnovation:
    def test_zero_when_equal(self, rng):
        pose = random_pose(rng)
        state = FilterState(pose, np.eye(6))
        assert np.allclose(innovation(state, meas(pose, np.eye(6))), 0, atol=1e-12)

    def test_small_twist_second_order(self, rng):
        pose = random_pose(rng)
        state = FilterState(pose, np.eye(6))
        t = 1e-3 * random_twist(rng)
        z = innovation(state, meas(pose @ exp_se3(t), np.eye(6)))
        assert np.linalg.norm(z - t) < 1e-5

    def test_left_invariance(self, rng):
        state_pose = random_pose(rng)
        meas_pose = state_pose @ exp_se3(random_twist(rng, 0.3, 0.3))
        z0 = innovation(FilterState(state_pose, np.eye(6)), meas(meas_pose, np.eye(6)))
        for _ in range(10):
            g = random_pose(rng, 1.7, 5.0)
            z1 = innovation(
                FilterState(g @ state_pose, np.eye(6)), meas(g @ meas_pose, np.eye(6))
            )
            assert np.max(np.abs(z1 - z0)) < 1e-12


class TestUpdate:
    def test_no_information_limit(self, rng):
        state = FilterState(random_pose(rng), 1e-3 * np.eye(6))
        target = state.pose @ exp_se3(0.1 * random_twist(rng))
        out = update(state, meas(target, 1e9 * np.eye(6)))
        assert out.pose.is_close(state.pose, tol=1e-9)

    def test_full_trust_limit(self, rng):
        state = FilterState(random_pose(rng), 1e-3 * np.eye(6))
        # the innovation approximates the log map to second order, so shrink
        # the offset enough for the cubic remainder to sit below tolerance
        target = state.pose @ exp_se3(1e-4 * random_twist(rng))
        out = update(state, meas(target, 1e-12 * np.eye(6)))
        assert out.pose.is_close(target, tol=1e-7)

    def test_scalar_kalman_gain_per_axis(self, rng):
        # diagonal P and C: the gain reduces to p/(p+c) per axis
        p_diag = rng.uniform(0.1, 1.0, 6)
        c_diag = rng.uniform(0.1, 1.0, 6)
        state = FilterState(Pose.identity(), np.diag(p_diag))
        out = update(state, meas(Pose.identity(), np.diag(c_diag)))
        expected = p_diag - p_diag**2 / (p_diag + c_diag)
        assert np.allclose(np.diag(out.covariance), expected, atol=1e-12)

    def test_trace_decreases(self, rng):
        state = FilterState(random_pose(rng), np.diag(rng.uniform(0.1, 1.0, 6)))
        out = update(state, meas(state.pose, np.eye(6)))
        assert np.trace(out.covariance) < np.trace(state.covariance)

    def test_p_symmetric_pd_after_mixed_run(self, rng):
        state = FilterState.initial()
        noise = NoiseConfig()
        for k in range(2000):
            state = predict(state, rng.standard_normal(3), rng.standard_normal(3), 0.01, noise)
            if k % 10 == 0:
                target = state.pose @ exp_se3(0.01 * random_twist(rng))
                state = update(state, meas(target, 1e-3 * np.eye(6)))
            assert np.array_equal(state.covariance, state.covariance.T)
        assert np.min(np.linalg.eigvalsh(state.covariance)) > 0


class TestRunFilter:
    def make_streams(self, duration=2.0, odo_hz=50.0, scan_hz=5.0):
        dt = 1.0 / odo_hz
        n = int(round(duration * odo_hz))
        odometry = odometry_columns([k * dt for k in range(n)], np.zeros(3), [0.25, 0, 0])
        stride = int(odo_hz / scan_hz)
        times = [k * dt for k in range(stride, n + 1, stride)]
        measurements = [
            meas(Pose(np.eye(3), np.array([0.25 * t, 0, 0])), 1e-3 * np.eye(6), t) for t in times
        ]
        return odometry, measurements

    def test_dead_reckoning_on_empty_measurements(self):
        odometry, _ = self.make_streams()
        t, _, p, _ = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        assert len(t) == len(odometry.t)
        # zero-noise samples: exact integration of the constant twist
        assert np.allclose(p[-1], [0.25 * t[-1], 0, 0], atol=1e-9)

    def test_event_counts_and_prediction_ratio(self):
        odometry, measurements = self.make_streams(duration=1.0)
        t, _, _, _ = run_filter(odometry, measurements, NoiseConfig(), FilterState.initial())
        assert len(t) == len(odometry.t) + len(measurements)
        # between consecutive measurements: exactly 10 odometry events
        meas_times = {m.timestamp for m in measurements}
        gaps, count = [], 0
        for now, prev in zip(t[1:].tolist(), t[:-1].tolist()):
            if now in meas_times and now == prev:
                gaps.append(count)
                count = 0
            else:
                count += 1
        assert all(g == 10 for g in gaps[1:])

    def test_tracks_noisy_measurements(self, rng):
        odometry, measurements = self.make_streams(duration=4.0)
        t, _, p, _ = run_filter(odometry, measurements, NoiseConfig(), FilterState.initial())
        assert np.linalg.norm(p[-1] - [0.25 * t[-1], 0, 0]) < 1e-6

    def test_out_of_order_rejected(self):
        odometry = odometry_columns([0.1, 0.0], np.zeros(3), np.zeros(3))
        with pytest.raises(TimingError):
            run_filter(odometry, [], NoiseConfig(), FilterState.initial())

    def test_consistency_3sigma_envelope(self, rng):
        # measurements drawn from the modeled output noise: the final position
        # error stays inside the 3-sigma envelope implied by P in >= 99/100 runs
        noise = NoiseConfig()
        c_meas = np.diag([1e-4] * 3 + [4e-4] * 3)
        chol = np.linalg.cholesky(c_meas)
        hits = 0
        for trial in range(100):
            trng = np.random.default_rng(1000 + trial)
            truth = Pose.identity()
            state = FilterState.initial()
            twist = np.array([0, 0, 0.2, 0.25, 0, 0])
            dt = 0.02
            for k in range(200):
                truth = truth @ exp_se3(dt * twist)
                omega = twist[:3] + 0.01 * trng.standard_normal(3)
                mu = twist[3:] + 0.02 * trng.standard_normal(3)
                state = predict(state, omega, mu, dt, noise)
                if (k + 1) % 10 == 0:
                    nu = chol @ trng.standard_normal(6)
                    state = update(state, meas(truth @ exp_se3(nu), c_meas))
            err = np.linalg.norm(state.pose.translation - truth.translation)
            bound = 3.0 * np.sqrt(np.trace(state.covariance[3:, 3:]))
            if err <= bound:
                hits += 1
        assert hits >= 99


class TestRunFilterMatchesReference:
    """run_filter's columns against the per-event predict/update oracle, row
    by row: times and covariances bit-identical, poses within 1e-15."""

    @staticmethod
    def assert_matches(odometry, measurements, noise=None, init=None):
        noise = noise if noise is not None else NoiseConfig()
        init = init if init is not None else FilterState.initial()
        got = run_filter(odometry, measurements, noise, init)
        want = list(reference_run_filter(odometry, measurements, noise, init))
        t, R, p, P = got
        n = len(want)
        assert (t.shape, R.shape, p.shape, P.shape) == ((n,), (n, 3, 3), (n, 3), (n, 6, 6))
        for i, w in enumerate(want):
            assert t[i] == w.timestamp
            assert np.array_equal(P[i], w.covariance)
            assert np.allclose(R[i], w.pose.rotation, rtol=0, atol=1e-15)
            assert np.allclose(p[i], w.pose.translation, rtol=0, atol=1e-15)
        return got

    @staticmethod
    def noisy_odometry(rng, times):
        omega, mu = [], []
        for _ in times:
            omega.append([0, 0, 0.2] + 0.01 * rng.standard_normal(3))
            mu.append([0.25, 0, 0] + 0.02 * rng.standard_normal(3))
        return odometry_columns(times, omega, mu)

    @staticmethod
    def measurements_near(rng, columns, times, cov=None):
        t, R, p, _ = columns
        by_time = {tk: Pose(rk, pk) for tk, rk, pk in zip(t.tolist(), R, p)}
        cov = cov if cov is not None else np.diag([1e-4] * 3 + [4e-4] * 3)
        return [
            meas(by_time[t] @ exp_se3(0.01 * random_twist(rng)), cov, t) for t in times
        ]

    def test_regular_streams(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(200)])
        truth = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        times = [0.02 * k for k in range(10, 200, 10)]
        self.assert_matches(odometry, self.measurements_near(rng, truth, times))

    def test_rejected_measurement(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(60)])
        truth = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        ms = self.measurements_near(rng, truth, [0.2, 0.4, 0.6, 0.8])
        ms[1] = meas(ms[1].measured_pose, np.full((6, 6), np.nan), 0.4)
        with pytest.raises(MeasurementRejectedError):
            update(FilterState.initial(), ms[1])
        t, _, _, P = self.assert_matches(odometry, ms)
        at = np.flatnonzero(t == 0.4)
        # odometry first on the tie, then the rejected update leaves it as is
        assert len(at) == 2
        assert np.array_equal(P[at[0]], P[at[1]])

    def test_equal_timestamps(self, rng):
        # repeated odometry times, measurements on odometry times and on
        # each other's times
        times = sorted([0.02 * k for k in range(40)] + [0.1, 0.1, 0.3])
        odometry = self.noisy_odometry(rng, times)
        truth = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        ms = self.measurements_near(rng, truth, [0.1, 0.2, 0.2, 0.3, 0.3])
        self.assert_matches(odometry, ms)

    def test_long_gap_is_substepped(self, rng):
        times = [0.02 * k for k in range(10)] + [0.18 + 0.35, 0.18 + 0.35 + 0.137, 1.5]
        odometry = self.noisy_odometry(rng, times)
        truth = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        ms = self.measurements_near(rng, truth, [0.08]) + [
            meas(Pose.identity(), 1e-2 * np.eye(6), 1.2),
        ]
        self.assert_matches(odometry, ms)

    def test_state_time_accumulates_like_predict(self, rng):
        # 0.327 + (0.993 - 0.327) rounds to 0.9929999999999999: the state
        # time is t_prev + dt, as predict returns it, and the odometry sample
        # at 0.993 then triggers a sub-ulp prediction step
        odometry = self.noisy_odometry(rng, [0.0, 0.327, 0.993, 1.2])
        ms = [meas(Pose.identity(), 1e-3 * np.eye(6), 0.993)]
        t = self.assert_matches(odometry, ms)[0]
        assert t[2] == 0.327 + (0.993 - 0.327) != 0.993

    def test_measurement_before_first_odometry(self, rng):
        odometry = self.noisy_odometry(rng, [0.5 + 0.02 * k for k in range(30)])
        ms = [
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.0),
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.25),
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.7),
        ]
        t = self.assert_matches(odometry, ms)[0]
        assert t[1] == 0.25

    def test_odometry_after_last_measurement(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(100)])
        truth = run_filter(odometry, [], NoiseConfig(), FilterState.initial())
        t = self.assert_matches(odometry, self.measurements_near(rng, truth, [0.2, 0.4]))[0]
        assert t[-1] == odometry.t[-1]

    def test_no_events(self):
        columns = run_filter(odometry_columns([], np.zeros(3), np.zeros(3)), [], NoiseConfig(), FilterState.initial())
        assert [c.shape for c in columns] == [(0,), (0, 3, 3), (0, 3), (0, 6, 6)]


class TestRunFilterChecks:
    def test_covariance_losing_pd_mid_interval_raises(self, monkeypatch):
        # Q with a negative gyro variance: zero-twist odometry gives Phi = I,
        # so P[0, 0] falls by 3e-5 per 0.02 s step and P stops being positive
        # definite at t = 0.08 s, inside the first interval (measurement at 0.2).
        # The interval's check runs before the update that ends it, so update
        # is never called.
        updated_at = []

        def spy(state, m):
            updated_at.append(state.timestamp)
            return update(state, m)

        monkeypatch.setattr(iekf, "update", spy)
        odometry = odometry_columns([0.02 * k for k in range(30)], np.zeros(3), np.zeros(3))
        ms = [meas(Pose.identity(), 1e-3 * np.eye(6), 0.2)]
        run_filter(odometry, ms, NoiseConfig(), FilterState.initial())
        assert updated_at == [0.2]
        updated_at.clear()
        noise = NoiseConfig(np.diag([-1.5e-3, 1e-4, 1e-4]), 1e-4 * np.eye(3))
        with pytest.raises(NumericalFailureError, match="after predict"):
            run_filter(odometry, ms, noise, FilterState.initial())
        assert updated_at == []

    def test_out_of_order_measurements_rejected(self):
        odometry = odometry_columns([0.02 * k for k in range(10)], np.zeros(3), np.zeros(3))
        ms = [meas(Pose.identity(), np.eye(6), 0.1), meas(Pose.identity(), np.eye(6), 0.05)]
        with pytest.raises(TimingError):
            run_filter(odometry, ms, NoiseConfig(), FilterState.initial())
