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

Raw distances are min-max normalized over a candidate set before the
weighted sum; the distance-based gravity term is inverted there so that
1 is best for every component.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateContacts, InvalidFrame
from .gripper import ContactFrame
from .spatial import SpatialIndex

_NAN = float("nan")


@dataclass(frozen=True)
class MetricWeights:
    """Convex weights of the four score components."""

    lambda_t: float = 0.7
    lambda_f: float = 0.2
    lambda_g: float = 0.05
    lambda_c: float = 0.05

    def __post_init__(self):
        vals = (self.lambda_t, self.lambda_f, self.lambda_g, self.lambda_c)
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(vals)!r}")

    @classmethod
    def parse(cls, text: str) -> "MetricWeights":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("weights need exactly 4 comma-separated values")
        return cls(*parts)


@dataclass(frozen=True)
class ScoreBreakdown:
    """All score components of one grasp.

    ``s_g``, ``s_c`` and ``s_hybrid`` stay NaN until
    :func:`normalize_and_combine` fills them from the candidate set.
    """

    s_t: float
    s_f1: float
    s_f2: float
    s_f: float
    s_g_raw: float
    s_c_raw: float
    s_g: float = _NAN
    s_c: float = _NAN
    s_hybrid: float = _NAN

    FIELD_ORDER = ("s_t", "s_f1", "s_f2", "s_f", "s_g_raw", "s_g", "s_c_raw", "s_c", "s_hybrid")

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in self.FIELD_ORDER)


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


def flatness_score(frame: ContactFrame, index: SpatialIndex, k: int = 10):
    """Flatness terms (s_f1, s_f2, s_f) of one contact frame.

    s_f1 averages the clamped neighborhood normal consistency of the two
    contacts; s_f2 averages |cos| between the contact line and each contact
    normal; s_f is their product.
    """
    if not frame.valid:
        raise InvalidFrame("cannot score an invalid frame")
    pts = np.stack([frame.p_cl, frame.p_cr])
    nrm = np.stack([frame.v_ql, frame.v_qr])
    s_f1 = float(neighborhood_normal_consistency(pts, nrm, index, k).mean())
    s_f2 = float(np.mean(np.abs(nrm @ frame.v_a)))
    return s_f1, s_f2, s_f1 * s_f2


def gravity_score(frame: ContactFrame, gravity_center: np.ndarray) -> float:
    """Distance of the gravity center from the infinite contact line.

    This is the raw (unnormalized) value; smaller is better.
    """
    if not frame.valid:
        raise InvalidFrame("cannot score an invalid frame")
    gc = np.asarray(gravity_center, dtype=float)
    chord = frame.p_cr - frame.p_cl
    denom = np.linalg.norm(chord)
    if denom < 1e-12:
        raise DegenerateContacts("contact points coincide")
    return float(np.linalg.norm(np.cross(frame.p_cl - gc, frame.p_cr - gc)) / denom)


def collision_score(frame: ContactFrame) -> float:
    """Smaller of the two fingertip-to-contact distances (raw value)."""
    if not frame.valid:
        raise InvalidFrame("cannot score an invalid frame")
    d_l = np.linalg.norm(frame.p_el - frame.p_cl)
    d_r = np.linalg.norm(frame.p_er - frame.p_cr)
    return float(min(d_l, d_r))


def _minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a constant or empty column maps to all zeros."""
    if len(values) == 0:
        return np.zeros_like(values)
    lo = values.min()
    rng = values.max() - lo
    if rng <= 0.0:
        return np.zeros_like(values)
    return (values - lo) / rng


def normalize_and_combine(
    breakdowns: list[ScoreBreakdown], weights: MetricWeights = MetricWeights()
) -> list[ScoreBreakdown]:
    """List form of :func:`combine_scores`; returns new instances."""
    raw = np.array([(b.s_t, b.s_f, b.s_g_raw, b.s_c_raw) for b in breakdowns], dtype=float).reshape(-1, 4)
    s_g, s_c, hybrid = combine_scores(*raw.T, weights)
    return [
        dataclasses.replace(b, s_g=g, s_c=c, s_hybrid=h)
        for b, g, c, h in zip(breakdowns, s_g.tolist(), s_c.tolist(), hybrid.tolist())
    ]


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
