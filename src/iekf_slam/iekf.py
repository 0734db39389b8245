"""Left-invariant EKF on SE(3).

The linearization of the invariant error dynamics depends only on the
measured body-frame velocities, never on the estimated pose:

    A = [[-S(omega), 0], [-S(mu), -S(omega)]],  B = -I,  C = I,  D = I

The error propagates exactly: over a step dt its transition is
Phi = expm(dt A) = Ad(increment^-1) = [[R^T, 0], [-R^T S(p), R^T]], with
(R, p) = exp(dt (omega, mu)) the increment the pose composes, and every
step, however long, sets P <- Phi P Phi^T + dt Q. Each pose measurement
applies the discrete update with gain K = P (P + C_meas)^-1 and the
multiplicative correction pose * exp(K z), z = pi(pose^-1 * measured) as a
twist (``project_pi``).

:func:`schedule` is the one place where odometry is merged with a second
timestamped stream; ``run_filter`` and the scan matcher in ``pipeline``
step through its events, which index the odometry columns (t, omega, mu).
The matcher's ``Measurements`` columns reach ``update`` a row at a time.
Because Phi never sees the pose, ``run_filter`` builds every step's
increment, Phi and dt Q in one ``_prediction_steps`` batch before the
sequential pass, which only composes poses, propagates P, fuses
measurements and writes each event's state into preallocated columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MeasurementRejectedError, NumericalFailureError, TimingError
from .se3 import Pose, exp_se3, exp_se3_many, project_pi, skew_many

_I6 = np.eye(6)
_I6.flags.writeable = False


class PoseMeasurement(NamedTuple):
    """Absolute pose measurement with the covariance of its body-frame twist noise."""

    measured_pose: Pose
    covariance: np.ndarray  # 6x6
    timestamp: float = 0.0


class Measurements(NamedTuple):
    """Pose measurements as columns: t (m,), rotations (m, 3, 3), translations (m, 3), covariances (m, 6, 6)."""

    t: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    covariances: np.ndarray


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


class FilterState(NamedTuple):
    """Pose, covariance and time of the filter; takes its arrays as given."""

    pose: Pose
    covariance: np.ndarray  # 6x6 symmetric PD, float
    timestamp: float = 0.0

    @staticmethod
    def initial(pose=None, rot_var=1e-4, pos_var=1e-4, timestamp=0.0):
        if not (rot_var >= 0 and pos_var >= 0):
            raise ValueError("initial variances rot_var and pos_var must be >= 0")
        p0 = np.diag([rot_var] * 3 + [pos_var] * 3)
        return FilterState(pose if pose is not None else Pose.identity(), p0, timestamp)


def linearize(omega, mu) -> np.ndarray:
    """A = [[-S(omega), 0], [-S(mu), -S(omega)]] of the state-independent
    linearization, a function of the odometry velocities alone (B = -I,
    C = I and D = I are constant): (6, 6) for one sample, stacked for (N, 3).
    The filter runs its exponential, the Phi of ``_prediction_steps``."""
    s_omega = skew_many(omega)
    a = np.zeros((s_omega.shape[0], 6, 6))
    a[:, :3, :3] = -s_omega
    a[:, 3:, :3] = -skew_many(mu)
    a[:, 3:, 3:] = -s_omega
    return a if np.ndim(omega) == 2 else a[0]


def odometry_increments(dts, omega, mu):
    """Pose increments exp(dt_k * (omega_k, mu_k)) of paired rows of steps and
    (N, 3) velocities, as ``exp_se3_many``'s (rotations, translations)."""
    dts = np.asarray(dts, dtype=float).reshape(-1, 1)
    return exp_se3_many(dts * np.concatenate([omega, mu], axis=1))


def _require_pd(p, context):
    """Raise NumericalFailureError unless ``p`` (one matrix or a stack) is
    finite and positive definite; ``np.linalg.cholesky`` does not raise on NaN."""
    if not np.isfinite(p).all():
        raise NumericalFailureError(f"covariance not finite after {context}")
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"covariance not positive definite after {context}") from exc


def _prediction_steps(dts, omega, mu, noise: NoiseConfig):
    """The increments (R, p) of ``odometry_increments``, the transitions
    Phi = Ad((R, p)^-1) = expm(dt A) and the noise terms dt Q of paired rows
    of steps and (N, 3) velocities, each stacked; TimingError on an infinite step."""
    dts = np.asarray(dts, dtype=float)
    if not np.isfinite(dts).all():
        raise TimingError("infinite prediction step")
    rotations, translations = odometry_increments(dts, omega, mu)
    rts = rotations.transpose(0, 2, 1)
    phis = np.block([[rts, np.zeros_like(rts)], [-(rts @ skew_many(translations)), rts]])
    return rotations, translations, phis, dts[:, None, None] * noise.q_block()


def _propagate_covariance(p, phi, hq):
    """One step P <- phi P phi^T + hq, followed by symmetrization."""
    p = phi.dot(p).dot(phi.T) + hq
    return (p + p.T) / 2.0


def predict(state: FilterState, omega, mu, dt: float, noise: NoiseConfig) -> FilterState:
    """Propagate the pose (constant twist over dt) and P by the exact
    transition, P <- Phi P Phi^T + dt Q with Phi = Ad(increment^-1), in one
    step of any length, built by ``_prediction_steps`` as in ``run_filter``."""
    if dt <= 0:
        raise TimingError(f"non-positive prediction step dt={dt}")
    rotations, translations, phis, hqs = _prediction_steps([dt], [omega], [mu], noise)
    p = _propagate_covariance(state.covariance, phis[0], hqs[0])
    pose = state.pose @ Pose(rotations[0], translations[0])
    _require_pd(p, "predict")
    return FilterState(pose, p, state.timestamp + dt)


def innovation(state: FilterState, meas: PoseMeasurement):
    """Twist-valued innovation pi(pose^-1 * measured); left-invariant."""
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
    pose = state.pose @ exp_se3(gain.dot(z))
    i_k = _I6 - gain
    p_new = i_k.dot(p).dot(i_k.T) + gain.dot(meas.covariance).dot(gain.T)
    p_new = (p_new + p_new.T) / 2.0
    _require_pd(p_new, "update")
    return FilterState(pose, p_new, state.timestamp)


def schedule(odometry_t, other_t, t0):
    """Merge the sorted timestamps of odometry with those of a second stream.

    This is the one event walk of every replay mode: the filter merges
    odometry with pose measurements, the matchers merge it with scans.

    Returns (events, dts, held), one event per timestamp in merged order: an
    event is (step index or -1, state time after it, index into ``other_t``
    or None for odometry). Prediction step k spans dts[k] on the odometry
    sample held[k], an index into the odometry columns. The contract:

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
    odo_t, other_t = np.asarray(odometry_t, dtype=float).tolist(), np.asarray(other_t, dtype=float).tolist()
    events, dts, held = [], [], []
    t_state, prev_t, last = t0, -math.inf, None
    i = j = 0
    while i < len(odo_t) or j < len(other_t):
        take_odo = j == len(other_t) or (i < len(odo_t) and odo_t[i] <= other_t[j])
        t = odo_t[i] if take_odo else other_t[j]
        if t < prev_t:
            raise TimingError(f"out-of-order timestamp {t} after {prev_t}")
        prev_t = t
        step = -1
        if t > t_state:
            if last is not None:
                dt = t - t_state
                step = len(dts)
                dts.append(dt)
                held.append(last)
                t_state = t_state + dt
            else:
                t_state = t
        if take_odo:
            events.append((step, t_state, None))
            last = i
            i += 1
        else:
            events.append((step, t_state, j))
            j += 1
    return events, np.array(dts, dtype=float), np.array(held, dtype=np.intp)


def _require_predicted_pd(covariances, stepped):
    """_require_pd over the rows of ``covariances`` that a prediction step wrote."""
    if stepped.any():
        _require_pd(covariances[stepped], "predict")


def run_filter(odometry, measurements: Measurements, noise: NoiseConfig, init: FilterState):
    """Run timestamp-sorted ``Odometry`` columns (t, omega, mu) and
    ``Measurements`` columns through predict/update; returns the filter state after
    every event as columns t (n,), R (n, 3, 3), p (n, 3) and P (n, 6, 6).

    The events and their timing come from :func:`schedule` (zero-order hold,
    odometry first on ties), so an out-of-order timestamp raises TimingError
    before any step. A failed update (rejected measurement) leaves the state
    on prediction. The covariances predicted in each interval between
    measurements pass one positive-definiteness check before the update
    that ends it.
    """
    events, dts, held = schedule(odometry.t, measurements.t, init.timestamp)
    rotations, translations, phis, hqs = _prediction_steps(dts, odometry.omega[held], odometry.mu[held], noise)

    n = len(events)
    t_col, r_col, p_col, cov_col = np.empty(n), np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 6, 6))
    stepped = np.array([step >= 0 for step, _, _ in events], dtype=bool)
    pose, p = init.pose, init.covariance
    start = 0  # first row of the current interval
    for i, (step, t, j) in enumerate(events):
        if step >= 0:
            p = _propagate_covariance(p, phis[step], hqs[step])
            pose = pose @ Pose(rotations[step], translations[step])
        cov_col[i] = p
        if j is not None:
            _require_predicted_pd(cov_col[start : i + 1], stepped[start : i + 1])
            start = i + 1
            measured = Pose(measurements.rotations[j], measurements.translations[j])
            meas = PoseMeasurement(measured, measurements.covariances[j], measurements.t[j])
            try:
                state = update(FilterState(pose, p, t), meas)
            except MeasurementRejectedError:
                pass
            else:
                pose, p = state.pose, state.covariance
                cov_col[i] = p
        t_col[i], (r_col[i], p_col[i]) = t, pose
    _require_predicted_pd(cov_col[start:], stepped[start:])
    return t_col, r_col, p_col, cov_col
