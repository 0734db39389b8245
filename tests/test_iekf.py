import numpy as np
import pytest

from conftest import random_pose, random_twist, rot_z
from iekf_slam.errors import MeasurementRejectedError, NumericalFailureError, TimingError
from iekf_slam.iekf import (
    FilterState,
    NoiseConfig,
    OdometrySample,
    innovation,
    linearize,
    predict,
    run_filter,
    update,
)
from iekf_slam.scan_matching import PoseMeasurement
from iekf_slam.se3 import Pose, exp_se3, skew


def meas(pose, cov, t=0.0):
    return PoseMeasurement(pose, cov, t)


def reference_run_filter(odometry, measurements, noise, init):
    """Oracle: the event loop calling ``predict`` and ``update`` once per
    event, which ``run_filter`` replaced with a batched schedule."""
    state = init
    last_sample = None
    odo_iter = iter(odometry)
    meas_iter = iter(measurements)
    odo = next(odo_iter, None)
    m = next(meas_iter, None)
    prev_t = -np.inf
    while odo is not None or m is not None:
        take_odo = m is None or (odo is not None and odo.timestamp <= m.timestamp)
        t = odo.timestamp if take_odo else m.timestamp
        if t < prev_t:
            raise TimingError(f"out-of-order timestamp {t} after {prev_t}")
        prev_t = t
        if t > state.timestamp:
            if last_sample is not None:
                state = predict(state, last_sample, t - state.timestamp, noise)
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
        m = linearize(OdometrySample(np.zeros(3), np.zeros(3), 0.0))
        assert np.array_equal(m.A, np.zeros((6, 6)))
        assert np.array_equal(m.B, -np.eye(6))
        assert np.array_equal(m.C, np.eye(6))
        assert np.array_equal(m.D, np.eye(6))

    def test_block_pattern(self):
        m = linearize(OdometrySample([0, 0, 1.0], [1.0, 0, 0], 0.0))
        assert np.array_equal(m.A[:3, :3], -skew([0, 0, 1.0]))
        assert np.array_equal(m.A[3:, :3], -skew([1.0, 0, 0]))
        assert np.array_equal(m.A[3:, 3:], -skew([0, 0, 1.0]))
        assert np.array_equal(m.A[:3, 3:], np.zeros((3, 3)))

    def test_random_samples_match_block_formula(self, rng):
        for _ in range(100):
            s = OdometrySample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
            m = linearize(s)
            assert np.array_equal(m.A[:3, :3], -skew(s.omega))
            assert np.array_equal(m.A[3:, :3], -skew(s.mu))
            assert np.array_equal(m.A[3:, 3:], -skew(s.omega))

    def test_state_independent_by_construction(self):
        # signature admits no pose; repeated calls are bit-identical
        s = OdometrySample([0.1, -0.2, 0.3], [1.0, 0.5, -0.1], 0.0)
        a = linearize(s)
        b = linearize(s)
        assert np.array_equal(a.A, b.A)


class TestPredict:
    def test_zero_twist_grows_p_by_q(self):
        state = FilterState.initial()
        noise = NoiseConfig()
        out = predict(state, OdometrySample(np.zeros(3), np.zeros(3), 0.0), 0.02, noise)
        assert out.pose.is_close(Pose.identity(), tol=0)
        assert np.allclose(out.covariance, state.covariance + 0.02 * noise.q_block(), atol=1e-15)

    def test_constant_yaw_rate_integrates_heading(self):
        state = FilterState.initial()
        noise = NoiseConfig()
        sample = OdometrySample([0, 0, 1.0], np.zeros(3), 0.0)
        dt, n = 0.01, 157
        for _ in range(n):
            state = predict(state, sample, dt, noise)
        assert np.max(np.abs(state.pose.rotation - rot_z(n * dt))) < 1e-9

    def test_p_stays_symmetric_over_many_steps(self, rng):
        state = FilterState.initial()
        noise = NoiseConfig()
        for _ in range(10_000):
            sample = OdometrySample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
            state = predict(state, sample, 0.002, noise)
            p = state.covariance
            assert np.array_equal(p, p.T)
        assert np.min(np.linalg.eigvalsh(state.covariance)) > 0

    def test_non_positive_dt(self):
        with pytest.raises(TimingError):
            predict(FilterState.initial(), OdometrySample(np.zeros(3), np.zeros(3), 0.0), 0.0, NoiseConfig())

    def test_large_dt_substepped(self):
        # dt above the cap must still integrate, matching many explicit substeps
        noise = NoiseConfig()
        sample = OdometrySample([0, 0, 0.5], [0.3, 0, 0], 0.0)
        one = predict(FilterState.initial(), sample, 0.5, noise)
        many = FilterState.initial()
        for _ in range(5):
            many = predict(many, sample, 0.1, noise)
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
            sample = OdometrySample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
            state = predict(state, sample, 0.01, noise)
            if k % 10 == 0:
                target = state.pose @ exp_se3(0.01 * random_twist(rng))
                state = update(state, meas(target, 1e-3 * np.eye(6)))
            assert np.array_equal(state.covariance, state.covariance.T)
        assert np.min(np.linalg.eigvalsh(state.covariance)) > 0


class TestRunFilter:
    def make_streams(self, duration=2.0, odo_hz=50.0, scan_hz=5.0):
        dt = 1.0 / odo_hz
        n = int(round(duration * odo_hz))
        odometry = [OdometrySample(np.zeros(3), [0.25, 0, 0], k * dt) for k in range(n)]
        stride = int(odo_hz / scan_hz)
        times = [k * dt for k in range(stride, n + 1, stride)]
        measurements = [
            meas(Pose(np.eye(3), np.array([0.25 * t, 0, 0])), 1e-3 * np.eye(6), t) for t in times
        ]
        return odometry, measurements

    def test_dead_reckoning_on_empty_measurements(self):
        odometry, _ = self.make_streams()
        states = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
        assert len(states) == len(odometry)
        # zero-noise samples: exact integration of the constant twist
        final = states[-1]
        assert np.allclose(final.pose.translation, [0.25 * final.timestamp, 0, 0], atol=1e-9)

    def test_event_counts_and_prediction_ratio(self):
        odometry, measurements = self.make_streams(duration=1.0)
        states = list(run_filter(odometry, measurements, NoiseConfig(), FilterState.initial()))
        assert len(states) == len(odometry) + len(measurements)
        # between consecutive measurements: exactly 10 odometry events
        meas_times = {m.timestamp for m in measurements}
        gaps, count = [], 0
        for st, prev in zip(states[1:], states[:-1]):
            if st.timestamp in meas_times and st.timestamp == prev.timestamp:
                gaps.append(count)
                count = 0
            else:
                count += 1
        assert all(g == 10 for g in gaps[1:])

    def test_tracks_noisy_measurements(self, rng):
        odometry, measurements = self.make_streams(duration=4.0)
        states = list(run_filter(odometry, measurements, NoiseConfig(), FilterState.initial()))
        final = states[-1]
        assert np.linalg.norm(final.pose.translation - [0.25 * final.timestamp, 0, 0]) < 1e-6

    def test_out_of_order_rejected(self):
        odometry = [
            OdometrySample(np.zeros(3), np.zeros(3), 0.1),
            OdometrySample(np.zeros(3), np.zeros(3), 0.0),
        ]
        with pytest.raises(TimingError):
            list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))

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
                sample = OdometrySample(
                    twist[:3] + 0.01 * trng.standard_normal(3),
                    twist[3:] + 0.02 * trng.standard_normal(3),
                    k * dt,
                )
                state = predict(state, sample, dt, noise)
                if (k + 1) % 10 == 0:
                    nu = chol @ trng.standard_normal(6)
                    state = update(state, meas(truth @ exp_se3(nu), c_meas))
            err = np.linalg.norm(state.pose.translation - truth.translation)
            bound = 3.0 * np.sqrt(np.trace(state.covariance[3:, 3:]))
            if err <= bound:
                hits += 1
        assert hits >= 99


class TestRunFilterMatchesReference:
    """run_filter against the per-event predict/update oracle: covariances
    bit-identical, poses within 1e-15."""

    @staticmethod
    def assert_matches(odometry, measurements, noise=None, init=None):
        noise = noise if noise is not None else NoiseConfig()
        init = init if init is not None else FilterState.initial()
        got = list(run_filter(odometry, measurements, noise, init))
        want = list(reference_run_filter(odometry, measurements, noise, init))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.timestamp == w.timestamp
            assert np.array_equal(g.covariance, w.covariance)
            assert np.allclose(g.pose.rotation, w.pose.rotation, rtol=0, atol=1e-15)
            assert np.allclose(g.pose.translation, w.pose.translation, rtol=0, atol=1e-15)
        return got

    @staticmethod
    def noisy_odometry(rng, times):
        return [
            OdometrySample(
                [0, 0, 0.2] + 0.01 * rng.standard_normal(3),
                [0.25, 0, 0] + 0.02 * rng.standard_normal(3),
                t,
            )
            for t in times
        ]

    @staticmethod
    def measurements_near(rng, states, times, cov=None):
        by_time = {s.timestamp: s.pose for s in states}
        cov = cov if cov is not None else np.diag([1e-4] * 3 + [4e-4] * 3)
        return [
            meas(by_time[t] @ exp_se3(0.01 * random_twist(rng)), cov, t) for t in times
        ]

    def test_regular_streams(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(200)])
        truth = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
        times = [0.02 * k for k in range(10, 200, 10)]
        self.assert_matches(odometry, self.measurements_near(rng, truth, times))

    def test_rejected_measurement(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(60)])
        truth = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
        ms = self.measurements_near(rng, truth, [0.2, 0.4, 0.6, 0.8])
        ms[1] = meas(ms[1].measured_pose, np.full((6, 6), np.nan), 0.4)
        with pytest.raises(MeasurementRejectedError):
            update(FilterState.initial(), ms[1])
        states = self.assert_matches(odometry, ms)
        at = [k for k, s in enumerate(states) if s.timestamp == 0.4]
        # odometry first on the tie, then the rejected update leaves it as is
        assert len(at) == 2
        assert np.array_equal(states[at[0]].covariance, states[at[1]].covariance)

    def test_equal_timestamps(self, rng):
        # repeated odometry times, measurements on odometry times and on
        # each other's times
        times = sorted([0.02 * k for k in range(40)] + [0.1, 0.1, 0.3])
        odometry = self.noisy_odometry(rng, times)
        truth = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
        ms = self.measurements_near(rng, truth, [0.1, 0.2, 0.2, 0.3, 0.3])
        self.assert_matches(odometry, ms)

    def test_long_gap_is_substepped(self, rng):
        times = [0.02 * k for k in range(10)] + [0.18 + 0.35, 0.18 + 0.35 + 0.137, 1.5]
        odometry = self.noisy_odometry(rng, times)
        truth = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
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
        states = self.assert_matches(odometry, ms)
        assert states[2].timestamp == 0.327 + (0.993 - 0.327) != 0.993

    def test_measurement_before_first_odometry(self, rng):
        odometry = self.noisy_odometry(rng, [0.5 + 0.02 * k for k in range(30)])
        ms = [
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.0),
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.25),
            meas(exp_se3(0.01 * random_twist(rng)), 1e-3 * np.eye(6), 0.7),
        ]
        states = self.assert_matches(odometry, ms)
        assert states[1].timestamp == 0.25

    def test_odometry_after_last_measurement(self, rng):
        odometry = self.noisy_odometry(rng, [0.02 * k for k in range(100)])
        truth = list(run_filter(odometry, [], NoiseConfig(), FilterState.initial()))
        states = self.assert_matches(odometry, self.measurements_near(rng, truth, [0.2, 0.4]))
        assert states[-1].timestamp == odometry[-1].timestamp

    def test_no_events(self):
        assert list(run_filter([], [], NoiseConfig(), FilterState.initial())) == []


class TestRunFilterChecks:
    def test_covariance_losing_pd_mid_interval_raises(self):
        # Q with a negative gyro variance: zero-twist odometry gives Phi = I,
        # so P[0, 0] falls by 3e-5 per 0.02 s step and P stops being positive
        # definite at t = 0.08 s, inside the first interval (measurement at 0.2).
        noise = NoiseConfig(np.diag([-1.5e-3, 1e-4, 1e-4]), 1e-4 * np.eye(3))
        odometry = [OdometrySample(np.zeros(3), np.zeros(3), 0.02 * k) for k in range(30)]
        ms = [meas(Pose.identity(), 1e-3 * np.eye(6), 0.2)]
        yielded = []
        with pytest.raises(NumericalFailureError):
            for state in run_filter(odometry, ms, noise, FilterState.initial()):
                yielded.append(state)
        for state in yielded:
            np.linalg.cholesky(state.covariance)
            assert state.timestamp < 0.08

    def test_out_of_order_measurements_rejected(self):
        odometry = [OdometrySample(np.zeros(3), np.zeros(3), 0.02 * k) for k in range(10)]
        ms = [meas(Pose.identity(), np.eye(6), 0.1), meas(Pose.identity(), np.eye(6), 0.05)]
        with pytest.raises(TimingError):
            list(run_filter(odometry, ms, NoiseConfig(), FilterState.initial()))
