"""Exact nearest-neighbour correspondence search in numpy.

``batch_nearest`` searches a target for every point of a source cloud. The
target may be a plain (M, 3) array or a ``Target``, the same cloud prepared
for repeated searches: ICP prepares its target once per alignment and
searches it once per iteration. A plain array is prepared on entry, so every
call runs the same code. ``len(target)`` is M either way.

``batch_nearest`` chooses one of two exact paths from its inputs alone:

- Sweep: taken when ``max_dist`` is finite and N * M >= SWEEP_MIN_PAIRS.
  The target is sorted along the axis of its largest extent, and each source
  point is compared only with the targets whose coordinate on that axis lies
  within a hair more than ``max_dist`` of its own, found with two
  ``searchsorted`` calls. Every target within ``max_dist`` of the point is
  in that slab, so whatever brute force would accept is among the
  candidates. Both clouds are held as one contiguous array per coordinate,
  so the candidate pairs are gathered with 1-D takes. A ``Target`` sorts
  itself, and finds its largest coordinate magnitude, on the first sweep
  that searches it, and keeps both.
- Brute force: everything else, including every ``max_dist = inf`` call,
  non-finite or far-off coordinates, and slabs that would hold more than
  BLOCK_ROWS * M candidates in total. The source cloud is processed
  BLOCK_ROWS rows at a time, so the squared-distance temporary is
  BLOCK_ROWS x M.

Both paths compute a pair's squared distance as ``dx*dx + dy*dy + dz*dz``
and break ties to the lowest target index, so they return the same bits, and
both keep memory linear in the cloud sizes.

The sweep prunes along one axis only. That suits the clouds this package
makes, walls and sparse landmarks that are long along at least one axis, but
on a volumetric cloud (say, points filling a cube several radii wide) the
slabs overfill and the call falls back to brute force, where a voxel grid
would still prune.
"""

from functools import cached_property

import numpy as np

BLOCK_ROWS = 64
# Brute force serves calls with fewer source x target pairs than this. On
# corridor wall scans the sweep is already faster at 181 x 181 points
# (0.13 against 0.23 ms on a 2-CPU x86 machine), so the bound is
# conservative; it keeps 50-point room scans on brute force.
SWEEP_MIN_PAIRS = 2**17
# Slabs reach this much further than max_dist, so rounding in q +- pad
# cannot leave out a target within max_dist ...
MARGIN = 1e-6
# ... as long as every coordinate is smaller than this many max_dist in
# magnitude (the rounding then stays below 2**-23 * max_dist); larger ones
# use brute force.
MAX_SPAN = 2**30


class Target:
    """A target cloud prepared for repeated searches: its coordinates as one
    contiguous float64 array each, ``columns`` (3, M)."""

    def __init__(self, points):
        self.columns = np.asarray(points, dtype=np.float64).T.copy()

    def __len__(self):
        return self.columns.shape[-1]

    @cached_property
    def max_abs(self):
        """Largest coordinate magnitude; NaN when any coordinate is NaN."""
        return np.max(np.abs(self.columns))

    @cached_property
    def sorted_axis(self):
        """(axis of the largest extent, stable order along it, sorted keys)."""
        cols = self.columns
        axis = int(np.argmax(cols.max(axis=1) - cols.min(axis=1)))
        order = np.argsort(cols[axis], kind="stable")
        return axis, order, cols[axis][order]


def batch_nearest(source, target, max_dist):
    """For each source point, index and distance of its nearest target point.

    ``target`` is an (M, 3) array or a ``Target``. Ties break to the lowest
    target index. Points beyond ``max_dist`` get index -1 and distance inf;
    ``np.inf`` disables rejection.
    Returns (indices int64 (N,), distances float64 (N,)).
    """
    source = np.ascontiguousarray(source, dtype=np.float64)
    if not isinstance(target, Target):
        target = Target(target)
    n, m = source.shape[0], len(target)
    if m == 0:
        return np.full(n, -1, dtype=np.int64), np.full(n, np.inf)
    found = None
    if 0 < max_dist < np.inf and n * m >= SWEEP_MIN_PAIRS:
        found = _sweep_nearest(source, target, max_dist)
    indices, distances = _brute_nearest(source, target) if found is None else found
    rejected = distances > max_dist
    indices[rejected] = -1
    distances[rejected] = np.inf
    return indices, distances


def _brute_nearest(source, target):
    """Nearest target of every source point, over all pairs."""
    tx, ty, tz = target.columns
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


def _sweep_nearest(source, target, max_dist):
    """Nearest target within the slab of half-width max_dist around every
    source point, along the target's widest axis.

    Points with no candidate get -1 / inf. Returns None when the sweep cannot
    be used: a coordinate that is non-finite or not below MAX_SPAN * max_dist
    in magnitude, or more than BLOCK_ROWS * M candidates in total.
    """
    n, m = source.shape[0], len(target)
    limit = MAX_SPAN * max_dist
    # The comparisons are False for NaN, so non-finite inputs fail them too.
    if not (np.all(np.abs(source) < limit) and target.max_abs < limit):
        return None
    axis, order, keys = target.sorted_axis
    # One contiguous array per coordinate, so the gathers below are 1-D takes.
    source_cols = source.T.copy()
    pad = max_dist * (1.0 + MARGIN)
    starts = np.searchsorted(keys, source_cols[axis] - pad, side="left")
    counts = np.searchsorted(keys, source_cols[axis] + pad, side="right") - starts
    total = int(counts.sum())
    if total > BLOCK_ROWS * m:
        return None

    # Each query's candidates are a run of the sorted targets; flatten the
    # runs in source order and map them back to target indices.
    firsts = np.cumsum(counts) - counts
    candidates = order[np.arange(total) + np.repeat(starts - firsts, counts)]
    query = np.repeat(np.arange(n), counts)
    pairs = [column[query] for column in source_cols] + [column[candidates] for column in target.columns]
    # The source columns and the query rows are not needed past the gathers;
    # freed here, they do not add to the distance step's peak.
    del source_cols, query
    d2 = _squared_distances(*pairs)

    indices = np.full(n, -1, dtype=np.int64)
    distances = np.full(n, np.inf)
    has = counts > 0
    if not np.any(has):
        return indices, distances
    best_d2 = np.minimum.reduceat(d2, firsts[has])
    # Among a query's candidates at the minimum, the lowest target index.
    tied = d2 == np.repeat(best_d2, counts[has])
    indices[has] = np.minimum.reduceat(np.where(tied, candidates, m), firsts[has])
    distances[has] = np.sqrt(best_d2)
    return indices, distances
