import tracemalloc

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
    with_surface_samples,
)
from graspscore import candidates
from graspscore.gripper import ContactArrays
from graspscore.primitives import make_icosphere

from conftest import GraspPose, all_candidates, frame_from_approach, one_line_contacts, random_rotation

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


def _whole_set_values(mesh, grid, config):
    """Label values scored over the whole candidate set at once: one
    score_contacts, one combine_scores and one column_stack over every
    chunk of candidate_arrays joined."""
    batch = all_candidates(mesh, grid, config.gripper(), config.width_clearance)
    s_t, s_f1, s_f2, s_f, s_g_raw, s_c_raw = score_contacts(
        batch.contacts, SpatialIndex.from_mesh(mesh), mass_properties(mesh).gravity_center,
        config.bins(), config.knn_k)
    s_g, s_c, s_hybrid = combine_scores(s_t, s_f, s_g_raw, s_c_raw, config.weights())
    return np.column_stack([
        batch.rotations.reshape(-1, 9), batch.translations, batch.widths, batch.depths,
        s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid,
    ])


def _grid_of(mesh, config):
    """The grid label_mesh builds for ``mesh`` under ``config``."""
    return CandidateGrid.build(mesh, n_seeds=config.n_seeds, n_views=config.n_views,
                               n_rotations=config.n_rotations, depths=config.gripper().depth_levels)


def _far_seed_grid(mesh, config):
    """The standard grid with one more seed, 1 m off the mesh, in the middle:
    every cell of that seed misses."""
    grid = _grid_of(mesh, config)
    seeds = grid.seed_points
    middle = len(seeds) // 2
    far = seeds[:middle].tolist() + [[1.0, 1.0, 1.0]] + seeds[middle:].tolist()
    return CandidateGrid(np.array(far), grid.views, grid.rotations, grid.depths)


@pytest.mark.parametrize("shape", ["cube", "l_prism", "icosphere4", "far_seed"])
def test_label_mesh_scored_cast_by_cast_equals_the_whole_set(shape, cube, l_prism, monkeypatch):
    """One seed per ray cast, so every seed's rows are scored apart; the
    table still equals the whole-set one bit for bit."""
    monkeypatch.setattr(candidates, "_LINES_PER_CALL", 1)
    config = PipelineConfig(n_seeds=6, n_views=8, n_rotations=3)
    if shape == "icosphere4":
        mesh = with_surface_samples(make_icosphere(0.03, 4), seed=0)
    else:
        mesh = l_prism if shape == "l_prism" else cube
    if shape == "far_seed":
        grid = _far_seed_grid(mesh, config)
        monkeypatch.setattr(CandidateGrid, "build", classmethod(lambda cls, *args, **kwargs: grid))
        chunks = list(candidates.candidate_arrays(mesh, grid, config.gripper(), config.width_clearance))
        assert len(chunks) == 7 and len(chunks[3].widths) == 0
        assert all(len(chunk.widths) for chunk in chunks[:3] + chunks[4:])
    else:
        grid = _grid_of(mesh, config)
    want = _whole_set_values(mesh, grid, config)
    table, summary = label_mesh(mesh, shape, config)
    assert len(want) > 50
    assert (summary.n_enumerated, summary.n_labeled) == (grid.size, len(want))
    assert np.array_equal(table.values.view(np.int64), want.view(np.int64))


def test_label_mesh_holds_no_whole_set_contacts(cube):
    """Scored cast by cast, labeling peaks well below the whole-set path,
    which holds every candidate's contacts and raw scores at once."""
    config = PipelineConfig(n_seeds=16, n_views=300, n_rotations=12)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole_set = peak(lambda: _whole_set_values(cube, _grid_of(cube, config), config))
    streamed = peak(lambda: label_mesh(cube, "cube", config))
    assert streamed < 0.6 * whole_set, (streamed, whole_set)
