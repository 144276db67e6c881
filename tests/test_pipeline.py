import numpy as np
import pytest

from graspscore import (
    CandidateGrid,
    ContactFrame,
    GraspPose,
    PipelineConfig,
    SpatialIndex,
    label_mesh,
    mass_properties,
    normalize_and_combine,
    score_frames,
    transform_mesh,
)
from graspscore.geometry import frame_from_approach
from graspscore.gripper import resolve_contacts_batch

from conftest import random_rotation

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


def test_label_mesh_builds_no_per_candidate_objects(cube, monkeypatch):
    def refuse(self):
        raise AssertionError(f"label_mesh built a {type(self).__name__}")

    monkeypatch.setattr(GraspPose, "__post_init__", refuse)
    monkeypatch.setattr(ContactFrame, "__post_init__", refuse)
    table, _ = label_mesh(cube, "cube", TINY)
    assert len(table)


def _per_candidate_rows(mesh, config):
    """Label rows from a per-candidate loop: one GraspPose and one
    ContactFrame per valid cell, the contact line normalized and the width
    set from a per-row np.linalg.norm, then the list scorers. Returns the
    (n, 23) values of the label columns after object_id."""
    gripper = config.gripper()
    grid = CandidateGrid.build(mesh, n_seeds=config.n_seeds, n_views=config.n_views,
                               n_rotations=config.n_rotations, depths=gripper.depth_levels)
    cells = [(frame_from_approach(-view, theta), depth)
             for view in grid.views for theta in grid.rotations for depth in grid.depths]
    rotations = np.array([rot for rot, _ in cells])
    depths = np.array([depth for _, depth in cells])
    search = np.full(len(cells), gripper.max_width)

    poses, frames = [], []
    for seed in grid.seed_points:
        hits = resolve_contacts_batch(mesh, rotations, np.broadcast_to(seed, (len(cells), 3)),
                                      search, depths)
        for (rotation, depth), hit in zip(cells, hits):
            if not hit.valid:
                continue
            gap = hit.p_cr - hit.p_cl
            separation = np.linalg.norm(gap)
            pose = GraspPose(rotation=rotation, translation=np.array(seed),
                             width=min(float(separation) + config.width_clearance, gripper.max_width),
                             depth=float(depth))
            jaw = pose.width / 2.0 * pose.closing_axis
            poses.append(pose)
            frames.append(ContactFrame(p_cl=hit.p_cl, p_cr=hit.p_cr, v_ql=hit.v_ql, v_qr=hit.v_qr,
                                       v_a=gap / separation,
                                       p_el=pose.center - jaw, p_er=pose.center + jaw))
    breakdowns = normalize_and_combine(
        score_frames(frames, SpatialIndex.from_mesh(mesh), mass_properties(mesh).gravity_center, config),
        config.weights())
    return np.array([[*p.rotation.ravel(), *p.translation, p.width, p.depth, *b.as_tuple()]
                     for p, b in zip(poses, breakdowns)])


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
