"""Antipodal force-closure test and its binned score.

A grasp passes at friction coefficient mu when the contact line direction
falls inside both friction cones: the angle between v_a and the inward
left-contact normal, and between -v_a and the inward right-contact normal,
must each stay within atan(mu). The score sweeps a fixed ladder of mu bins
and rewards passing at low friction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_BINS = tuple(round(0.1 * m, 10) for m in range(1, 11))


@dataclass(frozen=True)
class FrictionBins:
    """Strictly increasing, positive friction coefficients to sweep."""

    mus: tuple[float, ...] = DEFAULT_BINS

    def __post_init__(self):
        if not self.mus:
            raise ValueError("need at least one friction bin")
        if not all(0.0 < m < math.inf for m in self.mus):  # NaN fails too
            raise ValueError("friction coefficients must be positive and finite")
        if any(b <= a for a, b in zip(self.mus, self.mus[1:])):
            raise ValueError("friction bins must be strictly increasing")

    @property
    def cone_half_angles(self) -> np.ndarray:
        return np.arctan(np.asarray(self.mus))


def closure_scores(
    v_a: np.ndarray, v_ql: np.ndarray, v_qr: np.ndarray, bins: FrictionBins = FrictionBins()
) -> np.ndarray:
    """Closure score of each (n, 3) row of contact-line and outward normal vectors.

    A row scores 1.1 - mu_min, rounded to 10 decimals, where mu_min is the
    smallest bin whose cone half-angle atan(mu) holds both the left and the
    right cone angle (boundary angles pass), or 0 when no bin does. With
    the default ten bins the result lands exactly on the decimal grid
    {0, 0.1, ..., 1.0}; smaller friction (a more robust grasp) scores
    higher.
    """
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
