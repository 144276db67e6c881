import numpy as np
import pytest

from graspscore import GripperModel
from graspscore.candidates import (
    CandidateEnumerator,
    CandidateGrid,
    farthest_point_sampling,
    generate_views,
)
from graspscore.geometry import frames_from_approaches
from graspscore.primitives import make_plate

from conftest import GraspPose, all_candidates, frame_from_approach, one_line_contacts


def test_views_single_is_north_pole():
    views = generate_views(1)
    assert views.shape == (1, 3)
    assert np.array_equal(views, [[0.0, 0.0, 1.0]])


def test_views_pair_is_well_spread():
    a, b = generate_views(2)
    angle = np.arccos(np.clip(np.dot(a, b), -1, 1))
    assert angle >= np.pi / 2


def test_views_unit_norm():
    views = generate_views(300)
    assert views.shape == (300, 3)
    assert np.max(np.abs(np.linalg.norm(views, axis=1) - 1.0)) < 1e-12


def test_views_cover_sphere_evenly():
    views = generate_views(300)
    dots = np.clip(views @ views.T, -1.0, 1.0)
    np.fill_diagonal(dots, -2.0)
    nn_angle = np.arccos(dots.max(axis=1))
    # a perfectly uniform packing would give sqrt(4*pi/n) spacing
    assert nn_angle.min() > 0.5 * np.sqrt(4 * np.pi / 300)
    assert nn_angle.max() / nn_angle.mean() < 1.5


def _fps_oracle(points, count, start=0):
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while len(chosen) < count:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen)


def test_fps_collinear_hand_case():
    points = np.zeros((5, 3))
    points[:, 0] = np.arange(5.0)
    assert np.array_equal(farthest_point_sampling(points, 3), [0, 4, 2])


def test_fps_matches_greedy_oracle():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(200, 3))
    got = farthest_point_sampling(points, 20)
    assert np.array_equal(got, _fps_oracle(points, 20))
    assert np.array_equal(got, farthest_point_sampling(points, 20))


def test_fps_full_count_is_permutation():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(30, 3))
    idx = farthest_point_sampling(points, 30)
    assert sorted(idx) == list(range(30))


def test_grid_build_layout(icosphere):
    grid = CandidateGrid.build(icosphere, n_seeds=10, n_views=7, n_rotations=5)
    assert grid.seed_points.shape == (10, 3)
    assert grid.views.shape == (7, 3)
    assert np.allclose(grid.rotations, np.pi * np.arange(5) / 5)
    assert np.array_equal(grid.depths, [0.01, 0.02, 0.03, 0.04])


def test_grid_requires_samples(icosphere):
    from graspscore.mesh import TriangleMesh

    bare = TriangleMesh(vertices=icosphere.vertices, faces=icosphere.faces,
                        vertex_normals=icosphere.vertex_normals,
                        watertight=True, degenerate_dropped=0)
    with pytest.raises(ValueError):
        CandidateGrid.build(bare, n_seeds=4, n_views=4, n_rotations=2)


def test_frame_from_approach_properties():
    def frame_of(approach, theta):
        return frames_from_approaches(approach[None, :], np.array([theta]))[0, 0]

    rng = np.random.default_rng(5)
    for _ in range(50):
        approach = rng.normal(size=3)
        approach /= np.linalg.norm(approach)
        theta = rng.uniform(0, np.pi)
        frame = frame_of(approach, theta)
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(frame) > 0
        assert np.allclose(frame[:, 2], approach, atol=1e-12)
    base = frame_of(np.array([0.0, 0.0, 1.0]), 0.0)
    quarter = frame_of(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    want_x = np.cos(np.pi / 2) * base[:, 0] + np.sin(np.pi / 2) * base[:, 1]
    assert np.allclose(quarter[:, 0], want_x, atol=1e-12)


@pytest.mark.parametrize("n_views,n_rotations", [(36, 6), (300, 12), (18, 6), (1, 4), (1000, 24)])
def test_grid_frames_match_scalar_frames(n_views, n_rotations):
    # The batched frames of candidate_arrays, bit for bit the scalar ones.
    views = generate_views(n_views)
    angles = np.pi * np.arange(n_rotations) / n_rotations
    want = np.array([[frame_from_approach(-view, theta) for theta in angles] for view in views])
    got = frames_from_approaches(-views, angles)
    assert got.shape == (n_views, n_rotations, 3, 3)
    assert got.tobytes() == want.tobytes()


def test_enumerator_accounting(icosphere):
    grid = CandidateGrid.build(icosphere, n_seeds=6, n_views=8, n_rotations=2)
    stream = CandidateEnumerator(icosphere, grid, GripperModel())
    produced = list(stream)
    total = 6 * 8 * 2 * 4
    assert stream.n_enumerated == total
    assert stream.n_skipped == total - len(produced)
    assert 0 < len(produced) <= total
    # each item is one row of candidate_arrays, in order
    batch = all_candidates(icosphere, grid, GripperModel())
    columns = (batch.rotations, batch.translations, batch.widths, batch.depths, *batch.contacts)
    assert (grid.size, grid.size - len(batch.widths)) == (stream.n_enumerated, stream.n_skipped)
    for i, row in enumerate(produced):
        assert type(row) is tuple and len(row) == len(columns)
        assert all(np.array_equal(value, column[i]) for value, column in zip(row, columns))


def test_candidate_pose_contract(icosphere):
    gripper = GripperModel()
    grid = CandidateGrid.build(icosphere, n_seeds=6, n_views=8, n_rotations=2)
    seeds = {tuple(p) for p in grid.seed_points}
    batch = all_candidates(icosphere, grid, gripper)
    contacts = batch.contacts
    assert len(batch.widths) > 0
    assert all(len(column) == len(batch.widths) for column in (batch.rotations, batch.translations,
                                                                batch.depths, *contacts))
    for i, width in enumerate(batch.widths.tolist()):
        pose = GraspPose(batch.rotations[i], batch.translations[i], width, float(batch.depths[i]))
        assert tuple(pose.translation) in seeds
        assert pose.depth in (0.01, 0.02, 0.03, 0.04)
        assert pose.width <= gripper.max_width
        separation = np.linalg.norm(contacts.p_cr[i] - contacts.p_cl[i])
        assert pose.width == pytest.approx(min(separation + 0.01, gripper.max_width))
        # approach vector of the contact pair lies along the closing axis
        assert np.dot(contacts.v_a[i], pose.closing_axis) > 1 - 1e-9
        assert np.linalg.norm(contacts.p_er[i] - contacts.p_el[i]) == pytest.approx(pose.width)


def test_enumeration_deterministic(icosphere):
    grid = CandidateGrid.build(icosphere, n_seeds=5, n_views=6, n_rotations=2)
    first, second = (all_candidates(icosphere, grid, GripperModel()) for _ in range(2))
    assert len(first.widths) > 0
    for a, b in zip((first.rotations, first.translations, first.widths, first.depths, *first.contacts),
                    (second.rotations, second.translations, second.widths, second.depths, *second.contacts)):
        # bit for bit
        assert a.tobytes() == b.tobytes()


def _sideways_pose(center_z, depth):
    rot = np.column_stack([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    return GraspPose(rotation=rot, translation=np.array([0.0, 0.0, center_z + depth]),
                     width=0.085, depth=depth)


def test_plate_wider_than_gripper_rejects_sideways_grasp():
    wide = make_plate((0.12, 0.04, 0.004))
    assert len(one_line_contacts(wide, _sideways_pose(-0.002, 0.004)).p_cl) == 0


def test_narrow_plate_accepts_sideways_grasp():
    narrow = make_plate((0.04, 0.04, 0.004))
    contacts = one_line_contacts(narrow, _sideways_pose(-0.002, 0.004))
    assert len(contacts.p_cl) == 1
    assert np.allclose(contacts.p_cl, [[-0.02, 0, -0.002]], atol=1e-9)
    assert np.allclose(contacts.p_cr, [[0.02, 0, -0.002]], atol=1e-9)
