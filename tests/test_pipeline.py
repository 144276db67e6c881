import numpy as np
import pytest

from graspscore import (
    CandidateGrid,
    PipelineConfig,
    SpatialIndex,
    combine_scores,
    label_mesh,
    mass_properties,
    score_contacts,
    transform_mesh,
)
from graspscore.gripper import ContactArrays

from conftest import GraspPose, frame_from_approach, one_line_contacts, random_rotation

TINY = PipelineConfig(n_seeds=12, n_views=10, n_rotations=4)


def test_label_mesh_accounting(cube):
    table, summary = label_mesh(cube, "cube", TINY)
    assert summary.n_labeled == len(table) > 0
    assert summary.n_enumerated == 12 * 10 * 4 * 4
    assert summary.n_skipped == summary.n_enumerated - summary.n_labeled
    assert sum(summary.closure_histogram) == summary.n_labeled
    assert sum(summary.hybrid_histogram) == summary.n_labeled
    assert table.object_id == "cube"
    assert table.values.shape == (len(table), 23)
    assert np.isfinite(table.values).all()
    for name in ("s_hybrid", "s_t"):
        assert (table.column(name) >= 0.0).all() and (table.column(name) <= 1.0).all()


def test_label_mesh_checks_object_id_first(cube, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("labeling started")

    monkeypatch.setattr("graspscore.pipeline.SpatialIndex.from_mesh", refuse)
    with pytest.raises(ValueError, match="object_id"):
        label_mesh(cube, "a,b", TINY)


def _per_candidate_rows(mesh, config):
    """Label rows from a per-candidate loop: one one-line contacts_on_lines
    call and one GraspPose per grid cell, the contact line normalized and
    the width set from a per-row np.linalg.norm, then the array scorers
    over the stacked contacts. Returns the (n, 23) values of the label
    columns after object_id."""
    gripper = config.gripper()
    grid = CandidateGrid.build(mesh, n_seeds=config.n_seeds, n_views=config.n_views,
                               n_rotations=config.n_rotations, depths=gripper.depth_levels)
    cells = [(frame_from_approach(-view, theta), depth)
             for view in grid.views for theta in grid.rotations for depth in grid.depths]

    poses, rows = [], []
    for seed in grid.seed_points:
        for rotation, depth in cells:
            search = GraspPose(rotation=rotation, translation=seed, width=gripper.max_width,
                               depth=float(depth))
            hit = one_line_contacts(mesh, search)
            if not len(hit.p_cl):
                continue
            gap = hit.p_cr[0] - hit.p_cl[0]
            separation = np.linalg.norm(gap)
            pose = GraspPose(rotation=rotation, translation=np.array(seed),
                             width=min(float(separation) + config.width_clearance, gripper.max_width),
                             depth=float(depth))
            jaw = pose.width / 2.0 * pose.closing_axis
            poses.append(pose)
            rows.append(hit._replace(v_a=(gap / separation)[None, :], p_el=(pose.center - jaw)[None, :],
                                     p_er=(pose.center + jaw)[None, :]))
    s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw = score_contacts(
        ContactArrays(*map(np.concatenate, zip(*rows))), SpatialIndex.from_mesh(mesh),
        mass_properties(mesh).gravity_center, config.bins(), config.knn_k)
    s_g, s_c, s_hybrid = combine_scores(s_t, s_f, s_g_raw, s_c_raw, config.weights())
    scores = np.column_stack([s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid])
    return np.array([[*p.rotation.ravel(), *p.translation, p.width, p.depth, *row]
                     for p, row in zip(poses, scores)])


@pytest.mark.parametrize("shape", ["cube", "icosphere", "moved_icosphere"])
def test_label_mesh_matches_per_candidate_loop(shape, cube, icosphere):
    if shape == "cube":
        mesh = cube
    elif shape == "icosphere":
        mesh = icosphere
    else:
        rng = np.random.default_rng(21)
        mesh = transform_mesh(icosphere, random_rotation(rng), rng.uniform(-0.5, 0.5, size=3))
    config = PipelineConfig(n_seeds=6, n_views=8, n_rotations=3)
    table, summary = label_mesh(mesh, shape, config)
    want = _per_candidate_rows(mesh, config)
    assert len(want) > 50
    assert summary.n_labeled == len(want)
    assert table.object_id == shape
    # bit for bit, so -0.0 and 0.0 count as different
    assert np.array_equal(table.values.view(np.int64), want.view(np.int64))
