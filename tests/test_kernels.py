import tracemalloc

import numpy as np
import pytest

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


def test_matches_linear_scan(rng):
    src = rng.uniform(-5, 5, (100, 3))
    tgt = rng.uniform(-5, 5, (1000, 3))
    idx, dist = kernels.batch_nearest(src, tgt, np.inf)
    ref_idx, ref_dist = brute_force(src, tgt)
    assert np.array_equal(idx, ref_idx)
    assert np.allclose(dist, ref_dist, atol=1e-12)


def test_matches_unblocked_reference(rng):
    block = kernels.BLOCK_ROWS
    tgt = rng.uniform(-5, 5, (300, 3))
    for n in (0, 1, block, 3 * block, 3 * block + 17):
        src = rng.uniform(-5, 5, (n, 3))
        for max_dist in (np.inf, 1.0, 0.2):
            idx, dist = kernels.batch_nearest(src, tgt, max_dist)
            ref_idx, ref_dist = reference_nearest(src, tgt, max_dist)
            assert idx.dtype == np.int64 and dist.dtype == np.float64
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(dist, ref_dist)


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
