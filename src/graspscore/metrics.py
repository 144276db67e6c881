"""Per-grasp physical quality terms and their weighted combination.

Four terms make up the hybrid score:

* ``s_t``  force-closure bin score (computed in :mod:`.closure`),
* ``s_f``  flatness: neighborhood normal consistency at the contacts
  (``s_f1``) times the alignment of the contact line with the contact
  normals (``s_f2``),
* ``s_g``  closeness of the contact line to the gravity center, from the
  raw point-to-line distance ``s_g_raw``,
* ``s_c``  fingertip clearance, from the raw endpoint/contact distance
  ``s_c_raw``.

:func:`score_contacts` computes the raw columns of valid contacts, each
within one contact's row; :func:`combine_scores` then min-max normalizes
the raw distances over a candidate set and forms the weighted sum,
inverting the gravity term so that 1 is best for every component. Both
``label`` and ``eval`` score through these two functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closure import FrictionBins, closure_scores
from .gripper import ContactArrays
from .spatial import SpatialIndex

# Score columns of a label row, in file order.
SCORE_COLUMNS = ("s_t", "s_f1", "s_f2", "s_f", "s_g_raw", "s_g", "s_c_raw", "s_c", "s_hybrid")
# Neighbors per contact in the flatness term's normal consistency.
DEFAULT_KNN_K = 10


@dataclass(frozen=True)
class MetricWeights:
    """Convex weights of the four score components."""

    lambda_t: float = 0.7
    lambda_f: float = 0.2
    lambda_g: float = 0.05
    lambda_c: float = 0.05

    def __post_init__(self):
        vals = (self.lambda_t, self.lambda_f, self.lambda_g, self.lambda_c)
        if not all(0.0 <= v < math.inf for v in vals):  # NaN fails too
            raise ValueError("weights must be finite and nonnegative")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(vals)!r}")

    @classmethod
    def parse(cls, text: str) -> "MetricWeights":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("weights need exactly 4 comma-separated values")
        return cls(*parts)


def neighborhood_normal_consistency(
    points: np.ndarray, normals: np.ndarray, index: SpatialIndex, k: int
) -> np.ndarray:
    """Mean cosine between each query normal and its k neighbors' normals.

    The per-query mean is clamped to [0, 1]; opposing normals would
    otherwise drive it negative.
    """
    points = np.atleast_2d(points)
    normals = np.atleast_2d(normals)
    idx, _ = index.knn_batch(points, k)
    neigh = index.normals[idx]                       # (q, k, 3)
    cos = np.einsum("qkj,qj->qk", neigh, normals)
    return np.clip(cos.mean(axis=1), 0.0, 1.0)


def score_contacts(
    contacts: ContactArrays,
    index: SpatialIndex,
    gravity_center: np.ndarray,
    bins: FrictionBins = FrictionBins(),
    knn_k: int = DEFAULT_KNN_K,
) -> tuple[np.ndarray, ...]:
    """Raw score columns (s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw) of valid contacts.

    s_f1 averages the clamped neighborhood normal consistency of the two
    contacts; s_f2 averages |cos| between the contact line and each contact
    normal; s_f is their product. s_g_raw is the distance of the gravity
    center from the infinite contact line (smaller is better); s_c_raw is
    the smaller of the two fingertip-to-contact distances.
    """
    p_cl, p_cr, n_l, n_r, v_a, p_el, p_er = contacts
    s_t = closure_scores(v_a, n_l, n_r, bins)

    cons_l = neighborhood_normal_consistency(p_cl, n_l, index, knn_k)
    cons_r = neighborhood_normal_consistency(p_cr, n_r, index, knn_k)
    s_f1 = (cons_l + cons_r) / 2.0
    s_f2 = (np.abs(np.einsum("ij,ij->i", n_l, v_a)) + np.abs(np.einsum("ij,ij->i", n_r, v_a))) / 2.0
    s_f = s_f1 * s_f2

    chord = p_cr - p_cl
    s_g_raw = np.linalg.norm(
        np.cross(p_cl - gravity_center, p_cr - gravity_center), axis=1
    ) / np.linalg.norm(chord, axis=1)
    s_c_raw = np.minimum(
        np.linalg.norm(p_el - p_cl, axis=1), np.linalg.norm(p_er - p_cr, axis=1)
    )
    return s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant or empty column maps to all zeros."""
    if len(values) == 0:
        return np.zeros_like(values)
    lo = values.min()
    rng = values.max() - lo
    if rng <= 0.0:
        return np.zeros_like(values)
    return (values - lo) / rng


def combine_scores(
    s_t: np.ndarray, s_f: np.ndarray, s_g_raw: np.ndarray, s_c_raw: np.ndarray,
    weights: MetricWeights = MetricWeights(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s_g, s_c, s_hybrid) across one candidate set.

    s_g is 1 minus the normalized gravity distance (near the gravity center
    is best); s_c is the normalized clearance (more clearance is best).
    Constant raw columns normalize to 0, so s_g becomes 1 and s_c becomes 0
    for every grasp.
    """
    s_g = 1.0 - _minmax_normalize(s_g_raw)
    s_c = _minmax_normalize(s_c_raw)
    hybrid = weights.lambda_t * s_t + weights.lambda_f * s_f + weights.lambda_g * s_g + weights.lambda_c * s_c
    return s_g, s_c, hybrid
