import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iekf_slam import kernels


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
    idx, dist = kernels.batch_nearest(src, tgt, max_dist)
    ref_idx, ref_dist = reference_nearest(src, tgt, max_dist)
    assert idx.dtype == np.int64 and dist.dtype == np.float64
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    return idx, dist


@pytest.fixture
def grid_only(monkeypatch):
    """Fail any brute-force search, so a passing call was served by the grid."""

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
    # With 1,500 targets the larger sources pass GRID_MIN_PAIRS, so finite
    # radii go through the grid; coordinates straddle zero.
    for m in (300, 1500):
        tgt = rng.uniform(-5, 5, (m, 3))
        for n in (0, 1, block, 3 * block, 3 * block + 17):
            src = rng.uniform(-5, 5, (n, 3))
            for max_dist in (np.inf, 1.0, 0.2):
                assert_matches_reference(src, tgt, max_dist)
    assert 3 * block * 1500 >= kernels.GRID_MIN_PAIRS > (3 * block + 17) * 300


def test_grid_ties_across_block_boundary():
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
def test_grid_path_lattice_ties(grid_only, max_dist):
    # Wall points on the 5 cm lattice of the corridor world, queried at cell
    # centres (about 0.0354 m from four lattice points) and edge midpoints
    # (0.025 m from two). Rounding splits some of these ties, but hundreds
    # stay exact two- and four-way ties.
    tgt = lattice(0.05, 40, 12)
    centres = tgt[:, [0, 2]].reshape(40, 12, 2)[:-1, :-1].reshape(-1, 2) + 0.025
    src = np.column_stack([centres[:, 0], np.zeros(len(centres)), centres[:, 1]])
    src = np.vstack([src, tgt[:200] + [0.025, 0.0, 0.0]])
    assert len(src) * len(tgt) >= kernels.GRID_MIN_PAIRS
    idx, dist = assert_matches_reference(src, tgt, max_dist)
    ties = []
    for p, i in zip(src, idx):
        d2 = ((tgt - p) ** 2).sum(axis=1)
        tied = np.flatnonzero(d2 == d2.min())
        ties.append(len(tied))
        assert i in (-1, tied[0])
    assert ties.count(2) > 100 and ties.count(4) > 50
    assert np.count_nonzero(idx >= 0) == {0.05: len(src), 0.0354: len(src), 0.02: 0}[max_dist]


def test_grid_path_queries_at_exactly_max_dist(grid_only):
    # Powers of two keep every coordinate and distance exact: each query is
    # exactly max_dist from a target along one axis, and after the x and z
    # offsets just as far from the next lattice point (a two-way tie).
    max_dist = 0.25
    tgt = lattice(0.5, 30, 20)
    offsets = np.array([[max_dist, 0, 0], [0, max_dist, 0], [0, -max_dist, 0], [0, 0, max_dist]])
    src = (tgt[:, None, :] + offsets[None]).reshape(-1, 3)
    assert len(src) * len(tgt) >= kernels.GRID_MIN_PAIRS
    idx, dist = assert_matches_reference(src, tgt, max_dist)
    assert np.all(idx >= 0)
    assert np.all(dist == max_dist)
    _, dist = assert_matches_reference(src, tgt, np.nextafter(max_dist, 0))
    assert np.all(np.isinf(dist))


@pytest.mark.parametrize("max_dist", [0.05, 0.1, 0.025])
def test_grid_path_queries_offset_by_max_dist(rng, grid_only, max_dist):
    # Lattice points off the origin, queried max_dist away along one axis:
    # the computed distances land within an ulp or two of max_dist, and the
    # cell coordinates within rounding of a cell boundary.
    tgt = 0.05 * rng.integers(-40, 40, (600, 3)) + 1.3
    axes = np.eye(3)[rng.integers(0, 3, 300)] * rng.choice([-1.0, 1.0], (300, 1))
    src = tgt[rng.integers(0, 600, 300)] + max_dist * axes
    assert len(src) * len(tgt) >= kernels.GRID_MIN_PAIRS
    idx, _ = assert_matches_reference(src, tgt, max_dist)
    assert np.count_nonzero(idx >= 0) > 100


def test_grid_path_extreme_span_to_radius(rng, grid_only):
    # 2e7 cells of 1 micron per axis: a linear cell key over the whole span
    # would need about 8e21 values, beyond int64.
    tgt = rng.uniform(-10, 10, (800, 3))
    src = np.vstack([tgt[:200] + rng.uniform(-4e-7, 4e-7, (200, 3)), rng.uniform(-10, 10, (200, 3))])
    assert np.ptp(tgt, axis=0).min() > 19
    assert len(src) * len(tgt) >= kernels.GRID_MIN_PAIRS
    idx, _ = assert_matches_reference(src, tgt, 1e-6)
    assert np.array_equal(idx[:200], np.arange(200))
    assert np.all(idx[200:] == -1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=60),
    st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=1, max_size=40),
    st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]),
)
def test_grid_matches_reference_on_small_lattices(target_cells, source_cells, max_dist):
    # Points on a quarter-unit lattice: exact ties and exact max_dist
    # distances are common. GRID_MIN_PAIRS is lowered so the grid takes
    # these small clouds.
    tgt = 0.25 * np.array(target_cells, dtype=float)
    src = 0.25 * np.array(source_cells, dtype=float).reshape(-1, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "GRID_MIN_PAIRS", 0)
        assert_matches_reference(src, tgt, max_dist)


def test_dense_cube_falls_back_with_bounded_memory(rng):
    # Cells as wide as the whole cloud: every target is a candidate of every
    # query, so the grid would hold N x M candidates; brute force is used.
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
