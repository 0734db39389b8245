"""``iekf.schedule`` on timestamp arrays against the object walk it replaced:
the same events, steps and state times, bit for bit, on merged streams with
ties, duplicate timestamps, second-stream items before the first odometry
sample, and out-of-order input."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iekf_slam.errors import TimingError
from iekf_slam.iekf import schedule


@dataclass(frozen=True, eq=False)
class Item:  # compared by identity
    timestamp: float


def object_schedule(odometry, others, t0):
    """The walk over objects with a ``.timestamp`` that ``schedule`` took
    before it took timestamp arrays: events hold the ``others`` item, and
    steps the held odometry sample."""
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


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def assert_same_schedule(odometry_t, other_t, t0):
    odometry, others = [Item(t) for t in odometry_t], [Item(t) for t in other_t]
    try:
        want = object_schedule(odometry, others, t0)
    except TimingError:
        with pytest.raises(TimingError):
            schedule(np.array(odometry_t), other_t, t0)
        return False
    events, dts, held = schedule(np.array(odometry_t), other_t, t0)
    want_events, want_dts, want_samples = want
    assert [step for step, _, _ in events] == [step for step, _, _ in want_events]
    assert bits([t for _, t, _ in events]) == bits([t for _, t, _ in want_events])
    assert [j for _, _, j in events] == [None if item is None else others.index(item) for _, _, item in want_events]
    assert dts.dtype == np.float64 and bits(dts) == bits(want_dts)
    assert held.dtype == np.intp and [odometry[k] for k in held] == want_samples
    return True


# Times on a coarse grid, so that ties and duplicates are common, plus sums
# like 0.1 + 0.2 whose state time t_prev + dt is not the event's time.
TIMES = st.one_of(
    st.integers(0, 40).map(lambda k: 0.05 * k),
    st.sampled_from([0.1 + 0.2, 0.3, 0.327, 0.993, 1.0 / 3.0, 2.0 / 3.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    odometry_t=st.lists(TIMES, max_size=30),
    other_t=st.lists(TIMES, max_size=12),
    t0=st.sampled_from([0.0, -1.0, 0.3, 0.5]),
    sort=st.booleans(),
)
def test_matches_object_walk(odometry_t, other_t, t0, sort):
    # Unsorted input is out of order unless it happens to be sorted; both
    # walks must then raise TimingError.
    if sort:
        odometry_t, other_t = sorted(odometry_t), sorted(other_t)
    assert_same_schedule(odometry_t, other_t, t0)


@pytest.mark.parametrize(
    "odometry_t, other_t",
    [
        ([0.0, 0.1, 0.1, 0.2], [0.1, 0.1, 0.2]),  # ties and duplicates, odometry first
        ([0.5, 0.6, 0.7], [0.0, 0.25, 0.5]),  # items before the first odometry sample
        ([0.0, 0.327, 0.993, 1.2], [0.993]),  # 0.327 + (0.993 - 0.327) != 0.993
        ([], [0.1, 0.2]),
        ([0.0, 0.1], []),
        ([], []),
    ],
)
def test_edge_cases(odometry_t, other_t):
    assert assert_same_schedule(odometry_t, other_t, 0.0)


@pytest.mark.parametrize(
    "odometry_t, other_t",
    [([0.1, 0.0], []), ([0.0, 0.2], [0.3, 0.1]), ([0.0, 0.5], [0.2, 0.1]), ([0.3], [0.1, 0.0])],
)
def test_out_of_order_raises(odometry_t, other_t):
    assert not assert_same_schedule(odometry_t, other_t, 0.0)
