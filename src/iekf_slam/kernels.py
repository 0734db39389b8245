"""Exact brute-force correspondence search in numpy.

The source cloud is processed BLOCK_ROWS rows at a time, so the squared
distance temporary is BLOCK_ROWS x M x 3, not N x M x 3, and memory stays
linear in the cloud sizes. Each row's arithmetic does not depend on the
block it falls in, so results are the same for any block size.
"""

import numpy as np

BLOCK_ROWS = 64


def batch_nearest(source, target, max_dist):
    """For each source point, index and distance of its nearest target point.

    Ties break to the lowest target index. Points beyond ``max_dist`` get
    index -1 and distance inf; ``np.inf`` disables rejection.
    Returns (indices int64 (N,), distances float64 (N,)).
    """
    source = np.ascontiguousarray(source, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    n = source.shape[0]
    if target.shape[0] == 0:
        return np.full(n, -1, dtype=np.int64), np.full(n, np.inf)
    indices = np.empty(n, dtype=np.int64)
    distances = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        block = source[start:stop]
        d2 = ((block[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
        # argmin returns the first (lowest-index) minimum.
        best = np.argmin(d2, axis=1)
        indices[start:stop] = best
        distances[start:stop] = np.sqrt(d2[np.arange(block.shape[0]), best])
    rejected = distances > max_dist
    indices[rejected] = -1
    distances[rejected] = np.inf
    return indices, distances
