"""Antipodal force-closure test and its binned score.

A grasp passes at friction coefficient mu when the contact line direction
falls inside both friction cones: the angle between v_a and the inward
left-contact normal, and between -v_a and the inward right-contact normal,
must each stay within atan(mu). The score sweeps a fixed ladder of mu bins
and rewards passing at low friction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFrame
from .gripper import ContactArrays, ContactFrame

DEFAULT_BINS = tuple(round(0.1 * m, 10) for m in range(1, 11))


@dataclass(frozen=True)
class FrictionBins:
    """Strictly increasing, positive friction coefficients to sweep."""

    mus: tuple[float, ...] = DEFAULT_BINS

    def __post_init__(self):
        if not self.mus:
            raise ValueError("need at least one friction bin")
        if any(m <= 0 for m in self.mus):
            raise ValueError("friction coefficients must be positive")
        if any(b <= a for a, b in zip(self.mus, self.mus[1:])):
            raise ValueError("friction bins must be strictly increasing")

    @property
    def cone_half_angles(self) -> np.ndarray:
        return np.arctan(np.asarray(self.mus))


def antipodal_force_closure(frame: ContactFrame, mu: float) -> bool:
    """Whether the contact pair is force-closed at friction mu.

    Normals in the frame point outward; the test uses their negations as
    the friction cone axes. Boundary angles (exactly atan(mu)) pass.
    """
    if not frame.valid:
        raise InvalidFrame("cannot evaluate force closure on an invalid frame")
    limit = np.arctan(mu)
    return bool(_worst_cone_angle(frame) <= limit)


def _worst_cone_angle(frame: ContactFrame) -> float:
    a_l = np.arccos(np.clip(np.dot(frame.v_a, -frame.v_ql), -1.0, 1.0))
    a_r = np.arccos(np.clip(np.dot(-frame.v_a, -frame.v_qr), -1.0, 1.0))
    return float(max(a_l, a_r))


def force_closure_score(frame: ContactFrame, bins: FrictionBins = FrictionBins()) -> float:
    """Score 1.1 - mu_min over the bin ladder, or 0 when no bin passes.

    With the default ten bins the result lands exactly on the decimal grid
    {0, 0.1, ..., 1.0}; smaller friction (a more robust grasp) scores
    higher.
    """
    if not frame.valid:
        raise InvalidFrame("cannot score an invalid frame")
    return _score_from_angle(_worst_cone_angle(frame), bins)


def _score_from_angle(angle: float, bins: FrictionBins) -> float:
    limits = bins.cone_half_angles
    i = int(np.searchsorted(limits, angle, side="left"))
    if i >= len(limits):
        return 0.0
    return float(np.round(1.1 - bins.mus[i], 10))


def force_closure_scores(frames: list[ContactFrame], bins: FrictionBins = FrictionBins()) -> np.ndarray:
    """Vectorized force_closure_score over valid frames."""
    contacts = ContactArrays.stack(frames)
    return closure_scores(contacts.v_a, contacts.v_ql, contacts.v_qr, bins)


def closure_scores(
    v_a: np.ndarray, v_ql: np.ndarray, v_qr: np.ndarray, bins: FrictionBins = FrictionBins()
) -> np.ndarray:
    """force_closure_score over (n, 3) rows of contact-line and normal vectors."""
    a_l = np.arccos(np.clip(-np.einsum("ij,ij->i", v_a, v_ql), -1.0, 1.0))
    a_r = np.arccos(np.clip(np.einsum("ij,ij->i", v_a, v_qr), -1.0, 1.0))
    worst = np.maximum(a_l, a_r)

    limits = bins.cone_half_angles
    idx = np.searchsorted(limits, worst, side="left")
    mus = np.asarray(bins.mus)
    scores = np.zeros(len(worst))
    passing = idx < len(limits)
    scores[passing] = np.round(1.1 - mus[idx[passing]], 10)
    return scores
