"""Maximum-norm neighbour search over rescaled point configurations.

Neighbour separation throughout the package is measured in the maximum
norm; with that convention the per-point safety cubes used by the
randomized covering are pairwise disjoint, which the Euclidean convention
does not guarantee.  Every ball is closed: a point at distance exactly r
lies within r.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree


class SpatialIndex:
    """k-d tree over the points, answering max-norm range queries."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        self.points = pts
        self.n = pts.shape[0]
        # the sliding-midpoint build without node compaction is the fastest
        # to construct on lattice and Poisson centres; answers do not depend
        # on the build
        self._tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)

    def query(self, centers: np.ndarray, radii):
        """Pairs (c, j) with point j within radii[c] of centers[c], an (m, d) array."""
        hits = self._tree.query_ball_point(np.atleast_2d(centers), radii, p=np.inf)
        counts = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
        c = np.repeat(np.arange(len(hits), dtype=np.int64), counts)
        j = np.fromiter(chain.from_iterable(hits), dtype=np.int64, count=c.size)
        return c, j

    def close_pairs(self, max_dist: float):
        """All unordered pairs (i, j), i < j, with distance <= max_dist."""
        pairs = self._tree.query_pairs(max_dist, p=np.inf, output_type="ndarray")
        return pairs[:, 0], pairs[:, 1]

    def nearest_neighbor_distances(self, cap: float = 1.0) -> np.ndarray:
        """Per-point distance to the nearest other point, capped at ``cap``."""
        if self.n < 2:
            return np.full(self.n, cap, dtype=float)
        # a neighbour at exactly ``cap`` is reported as cap whether or not
        # the tree's bound admits it, so the bound needs no widening
        dist, _ = self._tree.query(self.points, k=2, p=np.inf, distance_upper_bound=cap)
        return np.minimum(dist[:, 1], cap)
