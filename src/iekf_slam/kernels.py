"""Exact nearest-neighbour correspondence search in numpy.

``batch_nearest`` chooses one of two exact paths from its inputs alone:

- Grid: taken when ``max_dist`` is finite and N * M >= GRID_MIN_PAIRS. The
  target is hashed into cubic cells a hair wider than ``max_dist`` and sorted
  by cell key; each source point is compared only with the targets in its
  3 x 3 x 3 neighbouring cells, found with ``searchsorted``. Every target
  within ``max_dist`` of the point lies in one of those cells, so whatever
  brute force would accept is among the candidates.
- Brute force: everything else, including every ``max_dist = inf`` call, and
  grids whose neighbourhoods would hold more than BLOCK_ROWS * M candidates
  in total (cells coarse against the point density). The source cloud is
  processed BLOCK_ROWS rows at a time, so the squared-distance temporary is
  BLOCK_ROWS x M.

Both paths compute a pair's squared distance as ``dx*dx + dy*dy + dz*dz``
and break ties to the lowest target index, so they return the same bits, and
both keep memory linear in the cloud sizes. The grid is rebuilt on every
call.
"""

import numpy as np

BLOCK_ROWS = 64
# Below this many source x target pairs brute force is faster than building
# the grid (measured crossover between 256 x 256 and 512 x 512 points).
GRID_MIN_PAIRS = 2**17
# Cells are this much wider than max_dist, so rounding in the cell
# coordinates cannot push a target within max_dist out of a point's
# neighbourhood ...
CELL_MARGIN = 1e-6
# ... as long as the target spans fewer cells than this along every axis;
# wider spans use brute force.
MAX_CELL_SPAN = 2**30


def batch_nearest(source, target, max_dist):
    """For each source point, index and distance of its nearest target point.

    Ties break to the lowest target index. Points beyond ``max_dist`` get
    index -1 and distance inf; ``np.inf`` disables rejection.
    Returns (indices int64 (N,), distances float64 (N,)).
    """
    source = np.ascontiguousarray(source, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    n, m = source.shape[0], target.shape[0]
    if m == 0:
        return np.full(n, -1, dtype=np.int64), np.full(n, np.inf)
    found = None
    if 0 < max_dist < np.inf and n * m >= GRID_MIN_PAIRS:
        found = _grid_nearest(source, target, max_dist)
    indices, distances = _brute_nearest(source, target) if found is None else found
    rejected = distances > max_dist
    indices[rejected] = -1
    distances[rejected] = np.inf
    return indices, distances


def _brute_nearest(source, target):
    """Nearest target of every source point, over all pairs."""
    tx, ty, tz = (np.ascontiguousarray(column) for column in target.T)
    n = source.shape[0]
    indices = np.empty(n, dtype=np.int64)
    distances = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        block = source[start:stop]
        d2 = _squared_distances(block[:, 0:1], block[:, 1:2], block[:, 2:3], tx, ty, tz)
        # argmin returns the first (lowest-index) minimum.
        best = np.argmin(d2, axis=1)
        indices[start:stop] = best
        distances[start:stop] = np.sqrt(d2[np.arange(block.shape[0]), best])
    return indices, distances


def _squared_distances(sx, sy, sz, tx, ty, tz):
    """dx*dx + dy*dy + dz*dz, evaluated in that order, broadcasting."""
    d2 = sx - tx
    d2 *= d2
    d = sy - ty
    d *= d
    d2 += d
    np.subtract(sz, tz, out=d)
    d *= d
    d2 += d
    return d2


def _grid_nearest(source, target, max_dist):
    """Nearest target within the 3 x 3 x 3 cells around every source point.

    Points with no candidate get -1 / inf. Returns None when the grid cannot
    be used: non-finite coordinates, a target spanning MAX_CELL_SPAN cells or
    more, or more than BLOCK_ROWS * M candidates in total.
    """
    n, m = source.shape[0], target.shape[0]
    cell = max_dist * (1.0 + CELL_MARGIN)
    origin = target.min(axis=0)
    span = np.floor((target.max(axis=0) - origin) / cell)
    bounds = np.concatenate([span, source.min(axis=0), source.max(axis=0)])
    if not (np.all(np.isfinite(bounds)) and span.max() < MAX_CELL_SPAN):
        return None

    # Integer cell coordinates: targets land in [0, span]; queries are
    # clipped to [-2, span + 2], which keeps far-off points far off without
    # letting them overflow.
    target_cells = np.floor((target - origin) / cell).astype(np.int64)
    query_cells = np.clip(np.floor((source - origin) / cell), -2, span + 2).astype(np.int64)

    # Rank the occupied cell coordinates along each axis so the linear key
    # stays below M**3, however wide the span is in cells.
    xs, rank_x = np.unique(target_cells[:, 0], return_inverse=True)
    ys, rank_y = np.unique(target_cells[:, 1], return_inverse=True)
    zs, rank_z = np.unique(target_cells[:, 2], return_inverse=True)
    if len(xs) * len(ys) * len(zs) >= 2**62:
        return None
    keys = (rank_x * len(ys) + rank_y) * len(zs) + rank_z
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    # For each query, nine (x, y) columns of cells; within one column the
    # occupied z cells in [z - 1, z + 1] have consecutive keys.
    qx, qy, qz = query_cells.T
    steps = np.array([-1, 0, 1])
    col_x = _occupied_rank(xs, qx[:, None] + steps)
    col_y = _occupied_rank(ys, qy[:, None] + steps)
    base = (col_x[:, :, None] * len(ys) + col_y[:, None, :]).reshape(n, 9) * len(zs)
    z_lo = np.searchsorted(zs, qz - 1, side="left")[:, None]
    z_hi = np.searchsorted(zs, qz + 1, side="right")[:, None]
    occupied = ((col_x[:, :, None] >= 0) & (col_y[:, None, :] >= 0)).reshape(n, 9)
    starts = np.searchsorted(keys, base + z_lo).ravel()
    lengths = np.searchsorted(keys, base + z_hi).ravel() - starts
    lengths[~occupied.ravel()] = 0
    total = int(lengths.sum())
    if total > BLOCK_ROWS * m:
        return None

    # Flatten the ranges into positions in the sorted keys, grouped by query
    # in source order, and map them back to target indices.
    range_offsets = np.cumsum(lengths) - lengths
    positions = np.arange(total) + np.repeat(starts - range_offsets, lengths)
    counts = lengths.reshape(n, 9).sum(axis=1)
    query = np.repeat(np.arange(n), counts)
    candidates = order[positions]
    d2 = _squared_distances(
        source[query, 0],
        source[query, 1],
        source[query, 2],
        target[candidates, 0],
        target[candidates, 1],
        target[candidates, 2],
    )

    indices = np.full(n, -1, dtype=np.int64)
    distances = np.full(n, np.inf)
    has = counts > 0
    if not np.any(has):
        return indices, distances
    firsts = (np.cumsum(counts) - counts)[has]
    best_d2 = np.minimum.reduceat(d2, firsts)
    # Among a query's candidates at the minimum, the lowest target index.
    tied = d2 == np.repeat(best_d2, counts[has])
    indices[has] = np.minimum.reduceat(np.where(tied, candidates, m), firsts)
    distances[has] = np.sqrt(best_d2)
    return indices, distances


def _occupied_rank(values, cells):
    """Index of each of ``cells`` in the sorted ``values``, or -1 if absent."""
    pos = np.minimum(np.searchsorted(values, cells), len(values) - 1)
    return np.where(values[pos] == cells, pos, -1)
