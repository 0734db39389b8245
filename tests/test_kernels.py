import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iekf_slam import kernels
from iekf_slam.se3 import Pose
from iekf_slam.simulator import SensorRates, corridor_world, render_scan


def brute_force(src, tgt):
    idx, dist = [], []
    for p in src:
        d = np.linalg.norm(tgt - p, axis=1)
        i = int(np.argmin(d))
        idx.append(i)
        dist.append(d[i])
    return np.array(idx), np.array(dist)


def reference_nearest(source, target, max_dist):
    """Unblocked oracle: the whole (N, M) squared-distance matrix at once,
    with the same per-pair arithmetic as the kernel."""
    source = np.ascontiguousarray(source, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    if target.shape[0] == 0:
        n = source.shape[0]
        return np.full(n, -1, dtype=np.int64), np.full(n, np.inf)
    d2 = ((source[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
    indices = np.argmin(d2, axis=1).astype(np.int64)
    distances = np.sqrt(d2[np.arange(source.shape[0]), indices])
    rejected = distances > max_dist
    indices[rejected] = -1
    distances[rejected] = np.inf
    return indices, distances


def assert_matches_reference(src, tgt, max_dist):
    """batch_nearest equals the oracle, which runs on 256 source rows at a
    time (each row's result depends on that row alone) to bound memory."""
    idx, dist = kernels.batch_nearest(src, tgt, max_dist)
    assert idx.dtype == np.int64 and dist.dtype == np.float64
    rows = 256
    for start in range(0, max(len(src), 1), rows):
        ref_idx, ref_dist = reference_nearest(src[start : start + rows], tgt, max_dist)
        assert np.array_equal(idx[start : start + rows], ref_idx)
        assert np.array_equal(dist[start : start + rows], ref_dist)
    return idx, dist


@pytest.fixture
def sweep_only(monkeypatch):
    """Fail any brute-force search, so a passing call was served by the sweep."""

    def refuse(source, target):
        raise AssertionError("brute-force path taken")

    monkeypatch.setattr(kernels, "_brute_nearest", refuse)


def lattice(spacing, nx, nz):
    """A wall of points on a (spacing x spacing) grid in the x-z plane at y = 0."""
    gx, gz = np.meshgrid(spacing * np.arange(nx), spacing * np.arange(nz), indexing="ij")
    return np.column_stack([gx.ravel(), np.zeros(gx.size), gz.ravel()])


def test_matches_linear_scan(rng):
    src = rng.uniform(-5, 5, (100, 3))
    tgt = rng.uniform(-5, 5, (1000, 3))
    idx, dist = kernels.batch_nearest(src, tgt, np.inf)
    ref_idx, ref_dist = brute_force(src, tgt)
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(dist, ref_dist, atol=1e-12)


def test_matches_unblocked_reference(rng):
    block = kernels.BLOCK_ROWS
    # With 1,500 targets the larger sources pass SWEEP_MIN_PAIRS, so finite
    # radii go through the sweep; coordinates straddle zero.
    for m in (300, 1500):
        tgt = rng.uniform(-5, 5, (m, 3))
        for n in (0, 1, block, 3 * block, 3 * block + 17):
            src = rng.uniform(-5, 5, (n, 3))
            for max_dist in (np.inf, 1.0, 0.2):
                assert_matches_reference(src, tgt, max_dist)
    assert 3 * block * 1500 >= kernels.SWEEP_MIN_PAIRS > (3 * block + 17) * 300


def test_ties_across_block_boundary():
    # Cell centres of a unit grid are equidistant from four grid points, so
    # every query is an exact four-way tie; 121 queries fill one block and
    # part of the next.
    gx, gy = np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij")
    tgt = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    cx, cy = np.meshgrid(np.arange(11.0) + 0.5, np.arange(11.0) + 0.5, indexing="ij")
    src = np.column_stack([cx.ravel(), cy.ravel(), np.zeros(cx.size)])
    assert kernels.BLOCK_ROWS < len(src) < 2 * kernels.BLOCK_ROWS
    idx, dist = kernels.batch_nearest(src, tgt, np.inf)
    ref_idx, ref_dist = reference_nearest(src, tgt, np.inf)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    for p, i in zip(src, idx):
        d2 = ((tgt - p) ** 2).sum(axis=1)
        tied = np.flatnonzero(d2 == d2.min())
        assert len(tied) == 4
        assert i == tied[0]


@pytest.mark.parametrize("max_dist", [0.05, 0.0354, 0.02])
def test_grid_path_lattice_ties(sweep_only, max_dist):
    # Wall points on the 5 cm lattice of the corridor world, queried at square
    # centres (about 0.0354 m from four lattice points) and edge midpoints
    # (0.025 m from two). Rounding splits some of these ties, but hundreds
    # stay exact two- and four-way ties.
    tgt = lattice(0.05, 40, 12)
    centres = tgt[:, [0, 2]].reshape(40, 12, 2)[:-1, :-1].reshape(-1, 2) + 0.025
    src = np.column_stack([centres[:, 0], np.zeros(len(centres)), centres[:, 1]])
    src = np.vstack([src, tgt[:200] + [0.025, 0.0, 0.0]])
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    idx, dist = assert_matches_reference(src, tgt, max_dist)
    ties = []
    for p, i in zip(src, idx):
        d2 = ((tgt - p) ** 2).sum(axis=1)
        tied = np.flatnonzero(d2 == d2.min())
        ties.append(len(tied))
        assert i in (-1, tied[0])
    assert ties.count(2) > 100 and ties.count(4) > 50
    assert np.count_nonzero(idx >= 0) == {0.05: len(src), 0.0354: len(src), 0.02: 0}[max_dist]


def check_queries_at_exactly_max_dist(tgt):
    # Powers of two keep every coordinate and distance exact: each query is
    # exactly max_dist from a target along one axis, and after the x and z
    # offsets just as far from the next lattice point (a two-way tie).
    max_dist = 0.25
    offsets = np.array([[max_dist, 0, 0], [0, max_dist, 0], [0, -max_dist, 0], [0, 0, max_dist]])
    src = (tgt[:, None, :] + offsets[None]).reshape(-1, 3)
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    idx, dist = assert_matches_reference(src, tgt, max_dist)
    assert np.all(idx >= 0)
    assert np.all(dist == max_dist)
    _, dist = assert_matches_reference(src, tgt, np.nextafter(max_dist, 0))
    assert np.all(np.isinf(dist))
    return src


def test_queries_at_exactly_max_dist():
    # A 30 x 20 wall is too square for the sweep: each query's slab holds one
    # or two whole columns of 20 points, 60,000 candidates against a cap of
    # 64 x 600, so the call falls back to brute force.
    tgt = lattice(0.5, 30, 20)
    src = check_queries_at_exactly_max_dist(tgt)
    assert kernels._sweep_nearest(src, kernels.Target(tgt), 0.25) is None


def test_sweep_path_queries_at_exactly_max_dist(sweep_only):
    # A 200 x 3 wall: slabs hold three to six candidates each.
    check_queries_at_exactly_max_dist(lattice(0.5, 200, 3))


@pytest.mark.parametrize("max_dist", [0.05, 0.1, 0.025])
def test_grid_path_queries_offset_by_max_dist(rng, sweep_only, max_dist):
    # Lattice points off the origin, queried max_dist away along one axis:
    # the computed distances land within an ulp or two of max_dist, and the
    # slab bounds within rounding of a target coordinate.
    tgt = 0.05 * rng.integers(-40, 40, (600, 3)) + 1.3
    axes = np.eye(3)[rng.integers(0, 3, 300)] * rng.choice([-1.0, 1.0], (300, 1))
    src = tgt[rng.integers(0, 600, 300)] + max_dist * axes
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    idx, _ = assert_matches_reference(src, tgt, max_dist)
    assert np.count_nonzero(idx >= 0) > 100


def test_sweep_path_extreme_span_to_radius(rng, sweep_only):
    # A 1 micron radius against a 20 m span (2e7 radii): q +- pad must still
    # round within the margin.
    tgt = rng.uniform(-10, 10, (800, 3))
    src = np.vstack([tgt[:200] + rng.uniform(-4e-7, 4e-7, (200, 3)), rng.uniform(-10, 10, (200, 3))])
    assert np.ptp(tgt, axis=0).min() > 19
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    idx, _ = assert_matches_reference(src, tgt, 1e-6)
    assert np.array_equal(idx[:200], np.arange(200))
    assert np.all(idx[200:] == -1)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_sweep_path_walls_along_each_axis(rng, sweep_only, axis):
    # A 5 cm wall long along ``axis``, queried by noisy copies of its points:
    # the sweep must pick that axis, or the slabs would overfill.
    wall = lattice(0.05, 200, 8)
    tgt = wall[:, [[0, 1, 2], [1, 0, 2], [2, 1, 0]][axis]]
    assert np.argmax(np.ptp(tgt, axis=0)) == axis
    src = tgt[rng.permutation(len(tgt))] + rng.normal(0, 0.02, tgt.shape)
    idx, _ = assert_matches_reference(src, tgt, 0.05)
    assert np.count_nonzero(idx >= 0) > len(src) // 2


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=60),
    st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=1, max_size=40),
    st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]),
    st.sampled_from([0.0, 1e-9, 0.01, 0.2]),
    st.integers(0, 2**32 - 1),
)
def test_sweep_matches_reference_on_small_lattices(target_cells, source_cells, max_dist, jitter, seed):
    # Points on a quarter-unit lattice: exact ties and exact max_dist
    # distances are common. A jittered cloud moves every point by up to
    # ``jitter`` per axis, so slab bounds fall between lattice keys and keys
    # repeat less. SWEEP_MIN_PAIRS is lowered so the sweep takes these small
    # clouds.
    rng = np.random.default_rng(seed)
    tgt = 0.25 * np.array(target_cells, dtype=float)
    src = 0.25 * np.array(source_cells, dtype=float).reshape(-1, 3)
    tgt += rng.uniform(-jitter, jitter, tgt.shape)
    src += rng.uniform(-jitter, jitter, src.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "SWEEP_MIN_PAIRS", 0)
        assert_matches_reference(src, tgt, max_dist)


def slab_bounds(src, tgt, max_dist):
    """Each query's slab as [start, stop) in the target's sorted order, with
    the sweep's own sort and pad."""
    axis, _, keys = kernels.Target(tgt).sorted_axis
    pad = max_dist * (1.0 + kernels.MARGIN)
    starts = np.searchsorted(keys, src[:, axis] - pad, side="left")
    return starts, np.searchsorted(keys, src[:, axis] + pad, side="right")


def test_sweep_path_slabs_at_the_ends(rng, sweep_only):
    # Queries about the first and last keys of a 600-point wall, and past
    # them: table slots past the end clip to the last sorted target, and a
    # slab that starts past the last key holds only such slots.
    tgt = lattice(0.05, 200, 3)
    ends = np.array([-0.3, -0.06, -0.02, 0.0, 0.01, 0.03, 9.92, 9.95, 9.97, 10.0, 10.02, 10.3])
    src = np.column_stack([np.tile(ends, 60), rng.uniform(-0.01, 0.01, 720), rng.uniform(-0.02, 0.12, 720)])
    starts, stops = slab_bounds(src, tgt, 0.05)
    k = (stops - starts).max()
    assert np.any(starts == 0) and np.any(stops == len(tgt))
    assert np.any(starts == len(tgt)) and np.any(stops == 0)
    assert np.any((starts + k > len(tgt)) & (stops > starts))
    idx, _ = assert_matches_reference(src, tgt, 0.05)
    assert np.count_nonzero(idx >= 0) > 200
    # The queries with empty slabs alone: every table slot is a filler.
    empty = src[stops == starts]
    assert len(empty) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    idx, _ = assert_matches_reference(empty, tgt, 0.05)
    assert np.all(idx == -1)


def test_sweep_path_empty_slabs_beside_full_ones(rng, sweep_only):
    # A wall with a 2 m gap, queried alternately on the wall and in the gap:
    # empty slabs sit next to full ones in source order.
    wall = lattice(0.05, 200, 3)
    tgt = wall[(wall[:, 0] < 4.0) | (wall[:, 0] > 6.0)]
    on_wall = tgt[rng.integers(0, len(tgt), 200)] + rng.uniform(-0.02, 0.02, (200, 3))
    in_gap = np.column_stack([rng.uniform(4.2, 5.8, 200), np.zeros(200), rng.uniform(0, 0.4, 200)])
    src = np.stack([on_wall, in_gap], axis=1).reshape(-1, 3)
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    starts, stops = slab_bounds(src, tgt, 0.05)
    counts = stops - starts
    assert np.all(counts[1::2] == 0) and np.any(counts[::2] == counts.max())
    idx, _ = assert_matches_reference(src, tgt, 0.05)
    assert np.all(idx[1::2] == -1) and np.count_nonzero(idx[::2] >= 0) > 100


def test_skewed_target_declines_before_allocating(rng, paths):
    # A dense column of 300 points on a sparse wall: the one query beside the
    # column has a 300-candidate slab, so a table for all 1,000 queries would
    # exceed BLOCK_ROWS * M slots, although the slabs hold a few thousand
    # candidates in total.
    wall = np.column_stack([0.5 * np.arange(200), np.zeros(200), np.zeros(200)])
    column = np.column_stack([np.full(300, 50.0), np.full(300, 0.1), 0.01 * np.arange(300)])
    tgt = np.vstack([wall, column])
    src = np.vstack([[50.0, 0.05, 1.0], wall[rng.integers(0, 200, 999)] + rng.uniform(-0.1, 0.1, (999, 3))])
    starts, stops = slab_bounds(src, tgt, 0.25)
    counts = stops - starts
    assert len(src) * counts.max() > kernels.BLOCK_ROWS * len(tgt) >= counts.sum()
    prepared = kernels.Target(tgt)
    prepared.sorted_axis  # sorted outside the traced region: the peak is the decision's
    tracemalloc.start()
    try:
        assert kernels._sweep_nearest(src, prepared, 0.25) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Less than one (k, N) array of int64 slots.
    assert peak < 8 * len(src) * counts.max() // 4
    idx, _ = assert_matches_reference(src, tgt, 0.25)
    assert paths == ["brute"] and idx[0] >= 200


def test_dense_cube_falls_back_with_bounded_memory(rng):
    # Slabs as wide as the whole cloud: every target is a candidate of every
    # query, so the sweep would hold N x M candidates; brute force is used.
    src = rng.uniform(0, 0.5, (2000, 3))
    tgt = rng.uniform(0, 0.5, (2000, 3))
    tracemalloc.start()
    try:
        idx, dist = kernels.batch_nearest(src, tgt, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for start in range(0, len(src), 250):
        ref_idx, ref_dist = reference_nearest(src[start : start + 250], tgt, 0.5)
        assert np.array_equal(idx[start : start + 250], ref_idx)
        assert np.array_equal(dist[start : start + 250], ref_dist)


def test_sweep_declines_dense_cube(rng):
    # The decision comes from the slab counts, before any candidate exists.
    src = rng.uniform(0, 0.5, (2000, 3))
    tgt = rng.uniform(0, 0.5, (2000, 3))
    assert kernels._sweep_nearest(src, kernels.Target(tgt), 0.5) is None


def test_memory_stays_bounded(rng):
    src = rng.uniform(-5, 5, (2000, 3))
    tgt = rng.uniform(-5, 5, (2000, 3))
    tracemalloc.start()
    try:
        kernels.batch_nearest(src, tgt, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tie_breaks_to_lowest_index():
    tgt = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    idx, dist = kernels.batch_nearest(np.zeros((1, 3)), tgt, np.inf)
    assert idx[0] == 0
    assert dist[0] == pytest.approx(1.0)


def test_rejection():
    tgt = np.array([[10.0, 0, 0]])
    idx, dist = kernels.batch_nearest(np.zeros((1, 3)), tgt, 1.0)
    assert idx[0] == -1
    assert np.isinf(dist[0])


def test_empty_target():
    idx, dist = kernels.batch_nearest(np.zeros((2, 3)), np.zeros((0, 3)), np.inf)
    assert np.all(idx == -1)


def corridor_scan_pair(cloud_sigma, range_max):
    """Two simulated corridor scans 5 cm apart along the corridor, the second
    moved into the first one's frame (source, target)."""
    world, rng = corridor_world(), np.random.default_rng(0)
    rates = SensorRates(cloud_sigma=cloud_sigma, range_max=range_max)
    step = Pose(np.eye(3), np.array([0.05, 0.0, 0.0]))
    target = render_scan(world, Pose.identity(), rates, rng)
    source = step.apply(render_scan(world, step, rates, rng))
    return source, target


def test_sweep_path_on_noise_free_corridor_scans(sweep_only):
    src, tgt = corridor_scan_pair(cloud_sigma=0.0, range_max=12.0)
    assert len(src) > 2000 and len(tgt) > 2000
    idx, _ = assert_matches_reference(src, tgt, 0.02)
    assert np.count_nonzero(idx >= 0) > len(src) // 2


def test_noisy_corridor_scans_fall_back():
    src, tgt = corridor_scan_pair(cloud_sigma=0.05, range_max=4.0)
    assert len(src) * len(tgt) >= kernels.SWEEP_MIN_PAIRS
    assert kernels._sweep_nearest(src, kernels.Target(tgt), 0.5) is None
    idx, _ = assert_matches_reference(src, tgt, 0.5)
    assert np.all(idx >= 0)


@pytest.fixture
def paths(monkeypatch):
    """The path that served each batch_nearest call: "sweep" or "brute"."""
    served = []
    sweep, brute = kernels._sweep_nearest, kernels._brute_nearest

    def spy_sweep(source, target, max_dist):
        found = sweep(source, target, max_dist)
        if found is not None:
            served.append("sweep")
        return found

    def spy_brute(source, target):
        served.append("brute")
        return brute(source, target)

    monkeypatch.setattr(kernels, "_sweep_nearest", spy_sweep)
    monkeypatch.setattr(kernels, "_brute_nearest", spy_brute)
    return served


def assert_prepared_matches_arrays(tgt, sources, max_dist):
    """One Target searched from every source equals batch_nearest on the
    plain arrays, bit for bit."""
    prepared = kernels.Target(tgt)
    assert len(prepared) == len(tgt)
    for src in sources:
        idx, dist = kernels.batch_nearest(src, prepared, max_dist)
        ref_idx, ref_dist = kernels.batch_nearest(src, tgt, max_dist)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist, equal_nan=True)


class TestPreparedTarget:
    """A Target prepared once serves every search path as a plain array does."""

    def test_brute_force(self, rng, paths):
        tgt = rng.uniform(-2, 2, (50, 3))
        sources = [tgt + rng.normal(0, 0.05, tgt.shape) for _ in range(4)]
        for max_dist in (np.inf, 0.5, 0.05):
            assert_prepared_matches_arrays(tgt, sources, max_dist)
        assert set(paths) == {"brute"}

    def test_sweep(self, paths):
        src, tgt = corridor_scan_pair(cloud_sigma=0.0, range_max=12.0)
        moves = [Pose(np.eye(3), np.array([dx, 0.0, 0.0])) for dx in (0.0, 0.01, -0.02)]
        assert_prepared_matches_arrays(tgt, [move.apply(src) for move in moves], 0.02)
        assert set(paths) == {"sweep"}

    def test_overfilled_slab_then_sweep(self, rng, paths):
        # The same target refused by the sweep for a dense cube of queries,
        # then swept for sparse ones.
        tgt = rng.uniform(0, 0.5, (2000, 3))
        dense = rng.uniform(0, 0.5, (2000, 3))
        sparse = rng.uniform(0, 0.5, (100, 3))
        assert kernels._sweep_nearest(dense, kernels.Target(tgt), 0.5) is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "SWEEP_MIN_PAIRS", 0)
            assert_prepared_matches_arrays(tgt, [dense, sparse, dense], 0.01)
        assert paths.count("sweep") == 2 and "brute" in paths

    def test_far_off_and_non_finite_coordinates(self, rng, paths):
        wall = lattice(0.05, 200, 8)
        queries = wall + rng.normal(0, 0.02, wall.shape)
        far = queries.copy()
        far[0] = [kernels.MAX_SPAN * 0.05, 0.0, 0.0]
        non_finite = queries.copy()
        non_finite[1] = [np.nan, 0.0, 0.0]
        non_finite[2] = [0.0, np.inf, 0.0]
        assert_prepared_matches_arrays(wall, [queries, far, non_finite, queries], 0.05)
        assert paths == ["sweep"] * 2 + ["brute"] * 4 + ["sweep"] * 2  # prepared, then plain, per source
        for bad in ([kernels.MAX_SPAN * 0.05, 0.0, 0.0], [np.nan, 0.0, 0.0]):
            tgt = np.vstack([wall, bad])
            paths.clear()
            assert_prepared_matches_arrays(tgt, [queries, queries], 0.05)
            assert set(paths) == {"brute"}

    def test_empty_target(self, paths):
        for tgt in (np.zeros((0, 3)), []):
            prepared = kernels.Target(tgt)
            assert len(prepared) == 0
            for src in (np.zeros((2, 3)), np.zeros((0, 3))):
                idx, dist = kernels.batch_nearest(src, prepared, 0.5)
                assert np.array_equal(idx, np.full(len(src), -1)) and np.all(np.isinf(dist))
        assert paths == []

    @pytest.mark.parametrize("max_dist", [0.05, 0.0354, np.inf])
    def test_lattice_ties(self, max_dist, paths):
        tgt = lattice(0.05, 40, 12)
        centres = tgt[:, [0, 2]].reshape(40, 12, 2)[:-1, :-1].reshape(-1, 2) + 0.025
        src = np.column_stack([centres[:, 0], np.zeros(len(centres)), centres[:, 1]])
        edges = tgt[:200] + [0.025, 0.0, 0.0]
        assert_prepared_matches_arrays(tgt, [src, edges, np.vstack([src, edges])], max_dist)
        assert set(paths) == ({"brute"} if max_dist == np.inf else {"sweep", "brute"})
        idx, _ = kernels.batch_nearest(np.vstack([src, edges]), kernels.Target(tgt), max_dist)
        ref_idx, _ = reference_nearest(np.vstack([src, edges]), tgt, max_dist)
        assert np.array_equal(idx, ref_idx)
