"""End-to-end labeling: enumerate candidates on a mesh and score them.

Each ray cast's candidates are scored as they land and only their label
rows are kept. Every raw score is reduced within one candidate's row, so
that gives the bytes of scoring the whole set at once; the min-max
columns are then filled once, over the whole table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateGrid, candidate_arrays
from .config import PipelineConfig
from .labels import LabelTable, check_object_id
from .mesh import TriangleMesh, mass_properties, with_surface_samples
from .metrics import score_contacts
from .spatial import SpatialIndex

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LabelSummary:
    """Counts and score histograms from one labeling run."""

    n_enumerated: int
    n_labeled: int
    closure_histogram: tuple[int, ...]
    hybrid_histogram: tuple[int, ...]

    n_skipped = property(lambda self: self.n_enumerated - self.n_labeled)


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

    grid = CandidateGrid.build(mesh, n_seeds=config.n_seeds, n_views=config.n_views,
                               n_rotations=config.n_rotations, depths=gripper.depth_levels)
    blocks = []  # each cast's rows; s_g, s_c and s_hybrid are left to rescored
    for batch in candidate_arrays(mesh, grid, gripper, config.width_clearance):
        s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw = score_contacts(
            batch.contacts, index, gravity_center, config.bins(), config.knn_k)
        zero = np.zeros(len(s_t))
        blocks.append(np.column_stack([batch.rotations.reshape(-1, 9), batch.translations, batch.widths,
                                       batch.depths, s_t, s_f1, s_f2, s_f, s_g_raw, zero, s_c_raw, zero, zero]))
    table = LabelTable(object_id, np.concatenate(blocks))
    del blocks  # no row block outlives the concatenation
    table = table.rescored(config.weights())
    summary = LabelSummary(grid.size, len(table), _histogram(table.column("s_t")),
                           _histogram(table.column("s_hybrid")))
    logger.info("labeled %s: %d candidates (%d cells skipped)", object_id, summary.n_labeled, summary.n_skipped)
    return table, summary


def _histogram(values, bins: int = 10) -> tuple[int, ...]:
    """Counts over [0, 1] split into equal bins, top edge inclusive."""
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=bins, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)
