"""Exact nearest-neighbour correspondence search in numpy.

``batch_nearest`` searches a target for every point of a source cloud. The
target may be a plain (M, 3) array or a ``Target``, the same cloud prepared
for repeated searches: ICP prepares its target once per alignment and
searches it once per iteration. A plain array is prepared on entry, so every
call runs the same code. ``len(target)`` is M either way.

``batch_nearest`` chooses one of two exact paths from its inputs alone:

- Sweep: taken when ``max_dist`` is finite and N * M >= SWEEP_MIN_PAIRS.
  The target is sorted along the axis of its largest extent, and each source
  point's slab is the run of sorted targets whose coordinate on that axis
  lies within a hair more than ``max_dist`` of its own, found with two
  ``searchsorted`` calls. Every target within ``max_dist`` of the point is
  in that slab, so whatever brute force would accept is among the
  candidates. The candidates form a (k, N) table, k the largest slab: column
  i holds query i's slab, filled out with the sorted targets after it. A
  filler outside the slab lies more than ``max_dist`` away along the axis,
  so it can neither be accepted nor tie a minimum within ``max_dist``, and
  the table needs no mask. A ``Target`` sorts itself, and finds its largest
  coordinate magnitude, on the first sweep that searches it, and keeps both.
- Brute force: everything else, including every ``max_dist = inf`` call,
  non-finite or far-off coordinates, and tables of more than BLOCK_ROWS * M
  slots (N * k), decided from the slab bounds before any candidate exists.
  The source cloud is processed BLOCK_ROWS rows at a time, so the
  squared-distance temporary is BLOCK_ROWS x M.

Both paths compute a pair's squared distance as ``dx*dx + dy*dy + dz*dz``
and break ties to the lowest target index, so they return the same bits, and
both keep memory linear in the cloud sizes.

The sweep prunes along one axis only. That suits the clouds this package
makes, walls and sparse landmarks that are long along at least one axis.
Two kinds of cloud fall back to brute force. On a volumetric one (say,
points filling a cube several radii wide) every slab overfills, where a
voxel grid would still prune. On a skewed one, such as a dense column beside
a sparse wall, one full slab sets k for every query, so the table overfills
while the slabs hold few candidates in total. Sizing the work by that total
takes per-query bookkeeping that costs more on wall scans than the filler.
"""

from functools import cached_property

import numpy as np

BLOCK_ROWS = 64
# Brute force serves calls with fewer source x target pairs than this. On a
# 5 cm wall lattice the sweep is already faster at 102 x 102 points (0.05
# against 0.10 ms on a 2-CPU x86 machine), so the bound is conservative.
# On room-like clouds (points on a room's four walls, max_dist 0.5 m) it
# breaks even at 100-150 points and is slower at 50 (0.05 against 0.03 ms),
# so the bound keeps 50-point room scans on brute force.
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
    """Nearest target among the candidates of the slab of half-width max_dist
    around every source point, along the target's widest axis.

    A point with an empty slab gets a target beyond max_dist, which
    ``batch_nearest`` rejects. Returns None when the sweep cannot be used: a
    coordinate that is non-finite or not below MAX_SPAN * max_dist in
    magnitude, or a candidate table of more than BLOCK_ROWS * M slots.
    """
    n, m = source.shape[0], len(target)
    limit = MAX_SPAN * max_dist
    # The comparisons are False for NaN, so non-finite inputs fail them too.
    if not (np.all(np.abs(source) < limit) and target.max_abs < limit):
        return None
    axis, order, keys = target.sorted_axis
    # One contiguous array per coordinate, broadcast down the table's rows.
    source_cols = source.T.copy()
    pad = max_dist * (1.0 + MARGIN)
    starts = np.searchsorted(keys, source_cols[axis] - pad, side="left")
    stops = np.searchsorted(keys, source_cols[axis] + pad, side="right")
    k = int(np.max(stops - starts, initial=1))
    if n * k > BLOCK_ROWS * m:
        return None

    # Column i holds query i's slab in sorted order, filled out to k rows with
    # the sorted targets after it (the last one repeated past the end). A
    # filler outside the slab lies beyond q + pad, or below q - pad when the
    # slab starts past the last key: more than max_dist away, so it can
    # neither be accepted nor tie a minimum within max_dist.
    candidates = order.take(np.minimum(np.arange(k)[:, None] + starts, m - 1))
    d2 = _squared_distances(*source_cols, *(column.take(candidates) for column in target.columns))
    best = d2.min(axis=0)
    # Among a query's candidates at the minimum, the lowest target index.
    candidates[d2 != best] = m
    return candidates.min(axis=0), np.sqrt(best)
