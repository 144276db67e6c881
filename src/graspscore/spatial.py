"""Exact k-nearest-neighbor index over surface sample points.

A cKDTree does the heavy lifting, but it is used only to shortlist
candidates: final distances are recomputed with numpy and results are
ordered by (distance, point index), so the output is identical to a brute
force linear scan, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import KTooLarge

# Relative slack when deciding whether the k-th neighbor distance is tied
# with the (k+1)-th; generous against last-ulp drift between the tree's
# metric and numpy's.
_TIE_RTOL = 1e-9


@dataclass
class SpatialIndex:
    """Point set with normals, indexed for nearest-neighbor queries."""

    points: np.ndarray
    normals: np.ndarray
    _tree: cKDTree = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=float)
        self.normals = np.ascontiguousarray(self.normals, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if self.points.shape != self.normals.shape:
            raise ValueError("normals must match points")
        if len(self.points) == 0:
            raise ValueError("cannot index an empty point set")
        self._tree = cKDTree(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_mesh(cls, mesh) -> "SpatialIndex":
        if mesh.surface_points is None:
            raise ValueError("mesh has no surface samples; call with_surface_samples first")
        return cls(mesh.surface_points, mesh.surface_normals)

    def knn_batch(self, queries: np.ndarray, k: int):
        """Exact k nearest neighbors for a batch of queries.

        Args:
            queries: (q, 3) query points.
            k: neighbor count, 1 <= k <= len(index).

        Returns:
            (indices (q, k), distances (q, k)) ordered per query by
            ascending distance with ties broken by ascending point index.

        Raises:
            KTooLarge: when k exceeds the number of indexed points.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        n = len(self.points)
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > n:
            raise KTooLarge(f"k={k} exceeds index size {n}")

        probe = min(k + 1, n)
        _, idx = self._tree.query(queries, k=probe)
        idx = idx.reshape(len(queries), probe)

        diff = self.points[idx] - queries[:, None, :]
        dist = np.sqrt(np.einsum("qkj,qkj->qk", diff, diff))
        order = np.lexsort((idx, dist), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)

        if probe > k:
            # A tie straddling the k-th slot means the shortlist may have
            # picked the wrong members; redo those queries from a ball query.
            risky = np.flatnonzero(dist[:, k] <= dist[:, k - 1] * (1.0 + _TIE_RTOL) + 1e-300)
            for qi in risky:
                idx[qi, :k], dist[qi, :k] = self._ball_exact(queries[qi], k, dist[qi, k - 1])
        return idx[:, :k], dist[:, :k]

    def _ball_exact(self, query: np.ndarray, k: int, kth_dist: float):
        r = kth_dist * (1.0 + _TIE_RTOL) + 1e-300
        cand = np.asarray(self._tree.query_ball_point(query, r), dtype=np.int64)
        diff = self.points[cand] - query
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((cand, d))[:k]
        return cand[order], d[order]

