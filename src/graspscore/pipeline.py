"""End-to-end labeling: enumerate candidates on a mesh and score them.

Candidates, contacts and scores stay parallel arrays from ray hit to the
final weighted sum, and end as the columns of one label table. Every raw
score is reduced within one candidate's row, so it does not depend on how
many candidates are scored together.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateGrid, candidate_arrays
from .config import PipelineConfig
from .labels import LabelTable, check_object_id
from .mesh import TriangleMesh, mass_properties, with_surface_samples
from .metrics import combine_scores, score_contacts
from .spatial import SpatialIndex

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabelSummary:
    """Counts and score histograms from one labeling run."""

    n_enumerated: int
    n_skipped: int
    n_labeled: int
    closure_histogram: tuple[int, ...]
    hybrid_histogram: tuple[int, ...]


def label_mesh(
    mesh: TriangleMesh,
    object_id: str,
    config: PipelineConfig = PipelineConfig(),
    seed: int = 0,
) -> tuple[LabelTable, LabelSummary]:
    """Generate, score, and package every valid grasp candidate of a mesh.

    Args:
        mesh: triangle mesh in meters; surface samples are attached here
            (seeded) if not already present.
        object_id: id of the table; checked before any work.
        config: pipeline tunables.
        seed: RNG seed for surface sampling.

    Returns:
        (table, summary). Table rows keep enumeration order.
    """
    check_object_id(object_id)
    if mesh.surface_points is None:
        mesh = with_surface_samples(mesh, config.surface_density, seed)
    index = SpatialIndex.from_mesh(mesh)
    gravity_center = mass_properties(mesh).gravity_center
    gripper = config.gripper()

    grid = CandidateGrid.build(
        mesh,
        n_seeds=config.n_seeds,
        n_views=config.n_views,
        n_rotations=config.n_rotations,
        depths=gripper.depth_levels,
    )
    batch = candidate_arrays(mesh, grid, gripper, config.width_clearance)
    s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw = score_contacts(
        batch.contacts, index, gravity_center, config.bins(), config.knn_k)
    s_g, s_c, s_hybrid = combine_scores(s_t, s_f, s_g_raw, s_c_raw, config.weights())

    table = LabelTable(object_id, np.column_stack([
        batch.rotations.reshape(-1, 9), batch.translations, batch.widths, batch.depths,
        s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid,
    ]))
    summary = LabelSummary(
        n_enumerated=batch.n_enumerated,
        n_skipped=batch.n_skipped,
        n_labeled=len(table),
        closure_histogram=_histogram(s_t),
        hybrid_histogram=_histogram(s_hybrid),
    )
    logger.info(
        "labeled %s: %d candidates (%d cells skipped)",
        object_id, summary.n_labeled, summary.n_skipped,
    )
    return table, summary


def _histogram(values, bins: int = 10) -> tuple[int, ...]:
    """Counts over [0, 1] split into equal bins, top edge inclusive."""
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=bins, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)
