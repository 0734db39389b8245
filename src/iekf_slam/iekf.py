"""Left-invariant EKF on SE(3).

The linearization of the invariant error dynamics depends only on the
measured body-frame velocities, never on the estimated pose:

    A = [[-S(omega), 0], [-S(mu), -S(omega)]],  B = -I,  C = I,  D = I

Covariance propagates by an Euler step of the Riccati drift between scans;
each pose measurement applies the equivalent discrete update with gain
K = P (P + C_meas)^-1 and the multiplicative correction pose * exp(K z),
z = vee(pi(pose^-1 * measured)).

:func:`schedule` is the one place where odometry is merged with a second
timestamped stream; ``run_filter`` and both scan matchers in ``pipeline``
step through its events. Because A never sees the pose, ``run_filter``
computes every odometry increment (one ``exp_se3_many`` call) and every
transition matrix Phi = I + hA (one stacked array) for the whole stream
before the sequential pass, which only composes poses, applies the
covariance recursion shared with :func:`predict` and fuses measurements.
Positive definiteness is checked over every propagated P with one stacked
Cholesky per interval between measurements, before that interval's states
are yielded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementRejectedError, NumericalFailureError, TimingError
from .scan_matching import PoseMeasurement
from .se3 import Pose, exp_se3, exp_se3_many, project_pi, skew_many

MAX_PREDICT_SUBSTEP = 0.1  # s


@dataclass(frozen=True)
class OdometrySample:
    """Body-frame angular (rad/s) and linear (m/s) velocity at one instant."""

    omega: np.ndarray
    mu: np.ndarray
    timestamp: float

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))

    def twist(self):
        return np.concatenate([self.omega, self.mu])


@dataclass(frozen=True)
class NoiseConfig:
    """Process noise covariances of the additive body-frame sensor noise."""

    gyro_cov: np.ndarray = field(default_factory=lambda: (0.01**2) * np.eye(3))
    velocity_cov: np.ndarray = field(default_factory=lambda: (0.02**2) * np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "gyro_cov", np.asarray(self.gyro_cov, dtype=float))
        object.__setattr__(self, "velocity_cov", np.asarray(self.velocity_cov, dtype=float))

    @staticmethod
    def from_sigmas(gyro_sigma=0.01, velocity_sigma=0.02):
        return NoiseConfig(gyro_sigma**2 * np.eye(3), velocity_sigma**2 * np.eye(3))

    def q_block(self):
        """6x6 block-diagonal process covariance (B = -I makes B Q B^T = Q)."""
        q = np.zeros((6, 6))
        q[:3, :3] = self.gyro_cov
        q[3:, 3:] = self.velocity_cov
        return q


@dataclass(frozen=True)
class LinearizedMatrices:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class FilterState:
    pose: Pose
    covariance: np.ndarray  # 6x6 symmetric PD
    timestamp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))

    @staticmethod
    def initial(pose=None, rot_var=1e-4, pos_var=1e-4, timestamp=0.0):
        p0 = np.diag([rot_var] * 3 + [pos_var] * 3)
        return FilterState(pose if pose is not None else Pose.identity(), p0, timestamp)


def _velocities(samples):
    """(N, 3) angular and (N, 3) linear velocities of a sequence of samples."""
    omega = np.array([s.omega for s in samples], dtype=float).reshape(-1, 3)
    mu = np.array([s.mu for s in samples], dtype=float).reshape(-1, 3)
    return omega, mu


def _system_matrices(omega, mu):
    """Stacked A = [[-S(omega), 0], [-S(mu), -S(omega)]] for (N, 3) velocities."""
    s_omega = skew_many(omega)
    a = np.zeros((s_omega.shape[0], 6, 6))
    a[:, :3, :3] = -s_omega
    a[:, 3:, :3] = -skew_many(mu)
    a[:, 3:, 3:] = -s_omega
    return a


def linearize(sample: OdometrySample) -> LinearizedMatrices:
    """State-independent linearization: a function of the odometry sample alone."""
    a = _system_matrices(sample.omega, sample.mu)[0]
    return LinearizedMatrices(A=a, B=-np.eye(6), C=np.eye(6), D=np.eye(6))


def odometry_increments(dts, samples):
    """Pose increments exp(dt_k * twist_k) of paired steps and held samples,
    as ``exp_se3_many``'s (rotations, translations)."""
    omega, mu = _velocities(samples)
    dts = np.asarray(dts, dtype=float).reshape(-1, 1)
    return exp_se3_many(dts * np.concatenate([omega, mu], axis=1))


def _require_pd(p, context):
    """Raise NumericalFailureError unless ``p`` (one matrix or a stack) is
    positive definite."""
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"covariance not positive definite after {context}") from exc


def _substeps(dt):
    """Number and length of the covariance substeps over dt (each <= 0.1 s)."""
    n_sub = max(1, math.ceil(dt / MAX_PREDICT_SUBSTEP))
    return n_sub, dt / n_sub


def _propagate_covariance(p, phi, hq, n_sub):
    """n_sub steps of P <- phi P phi^T + hQ, each followed by symmetrization."""
    for _ in range(n_sub):
        p = phi @ p @ phi.T + hq
        p = (p + p.T) / 2.0
    return p


def predict(state: FilterState, sample: OdometrySample, dt: float, noise: NoiseConfig) -> FilterState:
    """Propagate pose exactly (constant twist over dt) and P by first-order
    steps of the Riccati drift, substepping so no step exceeds 0.1 s.

    Each substep applies (I + hA) P (I + hA)^T + hQ: the Euler step of
    dP = (AP + PA^T + Q) dt plus the h^2 A P A^T completion, which keeps P
    positive definite even for very lopsided priors."""
    if dt <= 0:
        raise TimingError(f"non-positive prediction step dt={dt}")
    n_sub, h = _substeps(dt)
    phi = np.eye(6) + h * linearize(sample).A
    p = _propagate_covariance(state.covariance, phi, h * noise.q_block(), n_sub)
    pose = state.pose @ exp_se3(dt * sample.twist())
    _require_pd(p, "predict")
    return FilterState(pose, p, state.timestamp + dt)


def innovation(state: FilterState, meas: PoseMeasurement):
    """Twist-valued innovation vee(pi(pose^-1 * measured)); left-invariant."""
    return project_pi(state.pose.inverse() @ meas.measured_pose)


def update(state: FilterState, meas: PoseMeasurement) -> FilterState:
    """Discrete measurement update with C = D = I: K = P (P + C_meas)^-1,
    multiplicative correction through exp, Joseph-form covariance update."""
    p = state.covariance
    s = p + meas.covariance
    try:
        gain = np.linalg.solve(s.T, p.T).T
    except np.linalg.LinAlgError as exc:
        raise MeasurementRejectedError("singular innovation covariance") from exc
    if not np.all(np.isfinite(gain)):
        raise MeasurementRejectedError("non-finite Kalman gain")
    z = innovation(state, meas)
    pose = state.pose @ exp_se3(gain @ z)
    i_k = np.eye(6) - gain
    p_new = i_k @ p @ i_k.T + gain @ meas.covariance @ gain.T
    p_new = (p_new + p_new.T) / 2.0
    _require_pd(p_new, "update")
    return FilterState(pose, p_new, state.timestamp)


def schedule(odometry, others, t0):
    """Merge timestamp-sorted odometry with a second timestamped stream.

    This is the one event walk of every replay mode: the filter merges
    odometry with pose measurements, the matchers merge it with scans. Items
    need only a ``.timestamp``.

    Returns (events, dts, samples), one event per item in merged order: an
    event is (step index or -1, state time after it, the ``others`` item or
    None for odometry). Prediction step k spans dts[k] on the held
    samples[k]. The contract:

    - Zero-order hold: each odometry sample drives the state from its own
      time up to the next event that is later.
    - Odometry comes first on equal timestamps.
    - The state starts at ``t0``. It takes a step only when an event is later
      than the state and an odometry sample is held; the new state time is
      ``t_prev + dt``, exactly as :func:`predict` accumulates it. An event
      that is later with no sample held yet moves the state time to the
      event's time without a step; an event at or before the state time
      leaves the state where it is.
    - An out-of-order timestamp in the merged stream raises TimingError.
    """
    events, dts, samples = [], [], []
    t_state, prev_t, held = t0, -np.inf, None
    odo_iter, other_iter = iter(odometry), iter(others)
    odo, other = next(odo_iter, None), next(other_iter, None)
    while odo is not None or other is not None:
        take_odo = other is None or (odo is not None and odo.timestamp <= other.timestamp)
        t = odo.timestamp if take_odo else other.timestamp
        if t < prev_t:
            raise TimingError(f"out-of-order timestamp {t} after {prev_t}")
        prev_t = t
        step = -1
        if t > t_state:
            if held is not None:
                dt = t - t_state
                step = len(dts)
                dts.append(dt)
                samples.append(held)
                t_state = t_state + dt
            else:
                t_state = t
        if take_odo:
            events.append((step, t_state, None))
            held = odo
            odo = next(odo_iter, None)
        else:
            events.append((step, t_state, other))
            other = next(other_iter, None)
    return events, dts, samples


def run_filter(odometry, measurements, noise: NoiseConfig, init: FilterState):
    """Run timestamp-sorted odometry and measurement streams through
    predict/update; yields the filter state after every event.

    The events and their timing come from :func:`schedule` (zero-order hold,
    odometry first on ties), called up front so an out-of-order timestamp
    raises TimingError before anything is yielded. A failed update
    (rejected measurement) leaves the state on prediction. Every increment
    and transition matrix is computed in one batch, and the states of each
    interval between measurements are yielded once all of their covariances
    pass the positive-definiteness check.
    """
    events, dts, samples = schedule(odometry, measurements, init.timestamp)
    substeps = [_substeps(dt) for dt in dts]
    rotations, translations = odometry_increments(dts, samples)
    phis = _system_matrices(*_velocities(samples))  # becomes I + hA in place
    phis *= np.array([h for _, h in substeps], dtype=float).reshape(-1, 1, 1)
    phis += np.eye(6)
    q = noise.q_block()

    pose, p = init.pose, init.covariance
    pending, predicted = [], []
    for step, t, meas in events:
        if step >= 0:
            n_sub, h = substeps[step]
            p = _propagate_covariance(p, phis[step], h * q, n_sub)
            pose = pose @ Pose(rotations[step], translations[step])
            predicted.append(p)
        state = FilterState(pose, p, t)
        if meas is None:
            pending.append(state)
            continue
        if predicted:
            _require_pd(predicted, "predict")
        yield from pending
        pending, predicted = [], []
        try:
            state = update(state, meas)
        except MeasurementRejectedError:
            pass
        pose, p = state.pose, state.covariance
        yield state
    if predicted:
        _require_pd(predicted, "predict")
    yield from pending
