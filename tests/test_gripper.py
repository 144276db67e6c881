import numpy as np
import pytest

from graspscore import GripperModel, gripper_collides, labels, transform_mesh
from graspscore.candidates import CandidateGrid, candidate_arrays
from graspscore.gripper import _gripper_frame, contacts_on_lines
from graspscore.mesh import TriangleMesh
from graspscore.primitives import make_box, make_icosphere

from conftest import (
    GraspPose,
    closest_on_triangle,
    collision_box_corners,
    one_line_contacts,
    pose_fields,
    random_rotation,
)


def _pose_closing_x(center, width, depth):
    """Closing along +x, approaching along -z, grasp center at ``center``."""
    rot = np.column_stack([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    translation = np.asarray(center, dtype=float) - depth * rot[:, 2]
    return GraspPose(rotation=rot, translation=translation, width=width, depth=depth)


def test_cube_centered_grasp():
    cube = make_box((1.0, 1.0, 1.0))
    contacts = one_line_contacts(cube, _pose_closing_x((0, 0, 0), 1.2, 0.25))
    assert len(contacts.p_cl) == 1
    assert np.allclose(contacts.p_cl, [[-0.5, 0, 0]], atol=1e-12)
    assert np.allclose(contacts.p_cr, [[0.5, 0, 0]], atol=1e-12)
    assert np.allclose(contacts.v_a, [[1, 0, 0]], atol=1e-12)
    assert np.allclose(contacts.p_el, [[-0.6, 0, 0]], atol=1e-12)
    assert np.allclose(contacts.p_er, [[0.6, 0, 0]], atol=1e-12)
    # interpolated vertex normals on a sparse cube lean toward the corners,
    # so only the dominant component is pinned down
    assert contacts.v_ql[0, 0] < -0.9
    assert contacts.v_qr[0, 0] > 0.9


def test_grasp_above_object_misses():
    cube = make_box((0.04, 0.04, 0.04))
    assert len(one_line_contacts(cube, _pose_closing_x((0, 0, 1.0), 0.05, 0.01)).p_cl) == 0


def test_icosphere_diametral_contacts():
    sphere = make_icosphere(0.03, 3)
    contacts = one_line_contacts(sphere, _pose_closing_x((0, 0, 0), 0.07, 0.03))
    assert len(contacts.p_cl) == 1
    p_cl, p_cr, v_ql, v_qr, v_a, _, _ = (a[0] for a in contacts)
    separation = np.linalg.norm(p_cr - p_cl)
    assert abs(separation - 0.06) < 2e-3
    ang_l = np.arccos(np.clip(np.dot(v_ql, -v_a), -1, 1))
    ang_r = np.arccos(np.clip(np.dot(v_qr, v_a), -1, 1))
    assert ang_l < 0.06
    assert ang_r < 0.06


def test_back_face_hit_is_invalid():
    # the left ray starts inside the cube and exits through the +x face
    cube = make_box((0.04, 0.04, 0.04))
    assert len(one_line_contacts(cube, _pose_closing_x((0.015, 0, 0), 0.02, 0.01)).p_cl) == 0


def test_rays_starting_inside_without_reach_are_invalid():
    cube = make_box((0.04, 0.04, 0.04))
    assert len(one_line_contacts(cube, _pose_closing_x((0, 0, 0), 0.02, 0.01)).p_cl) == 0


def test_resolve_rigid_equivariance():
    sphere = make_icosphere(0.03, 3)
    pose = _pose_closing_x((0, 0, 0.005), 0.07, 0.02)
    base = one_line_contacts(sphere, pose)
    assert len(base.p_cl) == 1
    rng = np.random.default_rng(9)
    for _ in range(10):
        rot = random_rotation(rng)
        trans = rng.uniform(-0.5, 0.5, 3)
        moved_mesh = transform_mesh(sphere, rot, trans)
        moved_pose = GraspPose(rotation=rot @ pose.rotation,
                               translation=rot @ pose.translation + trans,
                               width=pose.width, depth=pose.depth)
        moved = one_line_contacts(moved_mesh, moved_pose)
        assert len(moved.p_cl) == 1
        for name in ("p_cl", "p_cr", "p_el", "p_er"):
            want = getattr(base, name) @ rot.T + trans
            assert np.all(np.abs(getattr(moved, name) - want) < 1e-6), name
        for name in ("v_ql", "v_qr", "v_a"):
            want = getattr(base, name) @ rot.T
            assert np.all(np.abs(getattr(moved, name) - want) < 1e-6), name


def test_contact_frame_invariants_on_candidates(icosphere):
    gripper = GripperModel()
    grid = CandidateGrid.build(icosphere, n_seeds=8, n_views=10, n_rotations=3)
    v0, v1, v2 = icosphere.face_corners()
    # a point within 1e-6 of a face lies in its bounding box grown by 1e-6
    lo = np.minimum(np.minimum(v0, v1), v2) - 1e-6
    hi = np.maximum(np.maximum(v0, v1), v2) + 1e-6
    contacts = candidate_arrays(icosphere, grid, gripper).contacts
    assert len(contacts.p_cl) > 0
    assert (np.linalg.norm(contacts.p_cr - contacts.p_cl, axis=1) <= gripper.max_width + 1e-12).all()
    for v in (contacts.v_a, contacts.v_ql, contacts.v_qr):
        assert (np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-6).all()
    for p in np.concatenate([contacts.p_cl[::37], contacts.p_cr[::37]]):
        near = np.flatnonzero(((lo <= p) & (p <= hi)).all(axis=1))
        assert any(closest_on_triangle(p, v0[i], v1[i], v2[i]) < 1e-6 for i in near)


def test_batch_matches_single(icosphere):
    rng = np.random.default_rng(13)
    poses = []
    for _ in range(20):
        rot = random_rotation(rng)
        translation = rot[:, 2] * -0.03
        poses.append(GraspPose(rotation=rot, translation=translation,
                               width=0.07, depth=0.03))
    valid, contacts, _ = contacts_on_lines(
        icosphere,
        np.stack([p.center for p in poses]),
        np.stack([p.closing_axis for p in poses]),
        np.array([p.width / 2.0 for p in poses]),
    )
    rows = iter(range(len(contacts.p_cl)))
    for pose, batched_valid in zip(poses, valid):
        single = one_line_contacts(icosphere, pose)
        assert len(single.p_cl) == batched_valid
        if batched_valid:
            row = next(rows)
            for name in single._fields:
                assert np.array_equal(getattr(single, name)[0], getattr(contacts, name)[row]), name
    assert valid.any()


def _two_sheets(gap):
    """Two parallel unit squares in the planes x = 0 (normal -x) and
    x = gap (normal +x): a slab whose sides face outward."""
    square = np.array([[0.0, -1, -1], [0.0, 1, -1], [0.0, 1, 1], [0.0, -1, 1]])
    vertices = np.vstack([square, square + [gap, 0.0, 0.0]])
    faces = np.array([[0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7]])
    normals = np.repeat([[-1.0, 0, 0], [1.0, 0, 0]], 4, axis=0)
    return TriangleMesh(vertices, faces, normals, watertight=False)


def test_coincident_contacts_are_dropped():
    # Both rays hit a front face; the line is kept only when the contacts
    # are at least 1e-12 apart, since the contact line needs a direction.
    for gap, resolved in ((1e-3, True), (1e-13, False)):
        valid, contacts, separation = contacts_on_lines(
            _two_sheets(gap), np.array([[gap / 2, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]),
            np.array([0.02]))
        assert valid.tolist() == [resolved]
        assert len(contacts.p_cl) == len(separation) == int(resolved)
        assert contacts.v_a.tolist() == [[1.0, 0.0, 0.0]] * int(resolved)


# --- collision checking ---

def _box_axes(corners):
    """Recover origin and edge vectors from the 8-corner layout."""
    origin = corners[0]
    return origin, (corners[4] - origin, corners[2] - origin, corners[1] - origin)


def _collides_oracle(points, grasp, gripper, margin):
    for corners in collision_box_corners(grasp, gripper):
        origin, edges = _box_axes(corners)
        inside = np.ones(len(points), dtype=bool)
        for edge in edges:
            length = np.linalg.norm(edge)
            u = edge / length
            t = (points - origin) @ u
            inside &= (t >= -margin) & (t <= length + margin)
            if not inside.any():
                break
        if inside.any():
            return True
    return False


def test_collision_empty_scene():
    pose = _pose_closing_x((0, 0, 0), 0.05, 0.02)
    assert not gripper_collides(np.zeros((0, 3)), *pose_fields(pose), GripperModel())


def test_collision_point_at_fingertip():
    gripper = GripperModel()
    pose = _pose_closing_x((0, 0, 0), 0.05, 0.02)
    tip_local = np.array([-(0.05 / 2 + gripper.finger_thickness / 2), 0.0, pose.depth])
    tip_world = pose.rotation @ tip_local + pose.translation
    assert gripper_collides(tip_world[None, :], *pose_fields(pose), gripper)


def test_collision_matches_oracle():
    rng = np.random.default_rng(21)
    points = rng.uniform(-0.08, 0.08, size=(10000, 3))
    gripper = GripperModel()
    margin = 0.001
    disagreements = 0
    for _ in range(200):
        rot = random_rotation(rng)
        pose = GraspPose(rotation=rot, translation=rng.uniform(-0.05, 0.05, 3),
                         width=rng.uniform(0.02, 0.085), depth=rng.choice([0.01, 0.02, 0.03, 0.04]))
        got = gripper_collides(points, *pose_fields(pose), gripper, margin)
        want = _collides_oracle(points, pose, gripper, margin)
        disagreements += got != want
    assert disagreements == 0


def test_gripper_frame_maps_a_point_alike_alone_and_in_any_batch():
    """The broad phase of eval's collision filter maps points in batches;
    its verdicts stand only if each point gets the bits it gets alone."""
    rng = np.random.default_rng(24)
    n, k = 7, 50
    # rotations that scale lengths, as the orthonormality rule allows
    rotations = np.array([random_rotation(rng) for _ in range(n)]) * rng.uniform(1 - 4.9e-6, 1 + 4.9e-6, (n, 1, 1))
    translations = rng.uniform(-3.0, 3.0, (n, 3))
    points = translations[:, None, :] + rng.normal(0.0, 0.05, (n, k, 3))
    batch = _gripper_frame(points, rotations[:, None], translations[:, None])
    flat = _gripper_frame(points.reshape(-1, 3), np.repeat(rotations, k, axis=0), np.repeat(translations, k, axis=0))
    assert batch.shape == (n, k, 3) and flat.shape == (n * k, 3)
    assert np.allclose(batch, np.matmul(points - translations[:, None, :], rotations), rtol=0.0, atol=1e-15)
    for i in range(n):
        rows = _gripper_frame(points[i], rotations[i], translations[i])  # as gripper_collides maps them
        for j in range(k):
            alone = _gripper_frame(points[i, j], rotations[i], translations[i]).tobytes()
            assert alone == batch[i, j].tobytes() == flat[i * k + j].tobytes() == rows[j].tobytes()


def test_collision_monotone_in_margin():
    rng = np.random.default_rng(22)
    points = rng.uniform(-0.06, 0.06, size=(500, 3))
    gripper = GripperModel()
    for _ in range(50):
        rot = random_rotation(rng)
        pose = GraspPose(rotation=rot, translation=rng.uniform(-0.08, 0.08, 3),
                         width=0.06, depth=0.02)
        hits = [gripper_collides(points, *pose_fields(pose), gripper, m) for m in (0.0, 0.002, 0.01)]
        for tight, loose in zip(hits, hits[1:]):
            assert (not tight) or loose


def _row_flagged(rotation, translation, width, depth) -> bool:
    """Whether the label and prediction readers flag this pose as a row."""
    row = np.concatenate([np.ravel(rotation), translation, [width, depth, 0.5]])
    return bool(labels._flagged_rows(row[None, :])[0])


def test_grasp_pose_validation():
    """The one-pose oracle and the readers' row check refuse the same poses."""
    assert not _row_flagged(np.eye(3), np.zeros(3), 0.05, 0.02)
    GraspPose(rotation=np.eye(3), translation=np.zeros(3), width=0.05, depth=0.02)
    bad_rot = np.eye(3)
    bad_rot[0, 0] = 2.0
    reflect = np.diag([1.0, 1.0, -1.0])
    for rotation, width, depth in ((bad_rot, 0.05, 0.02), (reflect, 0.05, 0.02), (np.eye(3), -0.01, 0.02),
                                   (np.eye(3), 0.05, 0.0)):
        assert _row_flagged(rotation, np.zeros(3), width, depth)
        with pytest.raises(ValueError):
            GraspPose(rotation=rotation, translation=np.zeros(3), width=width, depth=depth)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grasp_pose_rejects_non_finite_translation(value):
    translation = np.array([0.0, value, 0.0])
    assert _row_flagged(np.eye(3), translation, 0.05, 0.02)
    with pytest.raises(ValueError, match="translation must be finite"):
        GraspPose(rotation=np.eye(3), translation=translation, width=0.05, depth=0.02)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.01])
@pytest.mark.parametrize("field", ["max_width", "finger_length", "finger_thickness", "depth_levels"])
def test_gripper_model_rejects_non_finite_and_non_positive_sizes(field, value):
    kwargs = {field: (0.02, value) if field == "depth_levels" else value}
    match = "depth levels" if field == "depth_levels" else "dimensions"
    with pytest.raises(ValueError, match=f"{match} must be positive and finite"):
        GripperModel(**kwargs)


def test_collision_body_layout():
    gripper = GripperModel()
    boxes = gripper.collision_body(0.06, 0.03)
    assert boxes.shape == (3, 2, 3)
    assert np.all(boxes[:, 0, :] <= boxes[:, 1, :])
    # fingertips end at the grasp-center plane
    assert boxes[0, 1, 2] == pytest.approx(0.03)
    assert boxes[1, 1, 2] == pytest.approx(0.03)


def _scalar_body(gripper, width, depth):
    """The collision boxes of one grasp, written out box by box."""
    t, h = gripper.finger_thickness, gripper.finger_thickness / 2.0
    half_w, heel = width / 2.0, depth - gripper.finger_length
    return np.array([
        [[-half_w - t, -h, heel], [-half_w, h, depth]],
        [[half_w, -h, heel], [half_w + t, h, depth]],
        [[-half_w - t, -h, heel - t], [half_w + t, h, heel]],
    ])


@pytest.mark.parametrize("gripper", [GripperModel(), GripperModel(0.2, 0.1, 0.013, (0.005,))])
def test_collision_body_broadcasts_bit_for_bit(gripper):
    rng = np.random.default_rng(23)
    widths = rng.uniform(1e-4, gripper.max_width, (7, 5))
    depths = rng.choice([0.01, 0.02, 0.03, 0.04, 1e-9, 0.1 / 3.0], (7, 5))
    bodies = gripper.collision_body(widths, depths)
    assert bodies.shape == (7, 5, 3, 2, 3) and bodies.dtype == np.float64
    for (i, j), width in np.ndenumerate(widths):
        depth = depths[i, j]
        want = _scalar_body(gripper, float(width), float(depth))
        assert np.array_equal(bodies[i, j].view(np.int64), want.view(np.int64))
        assert np.array_equal(gripper.collision_body(float(width), float(depth)).view(np.int64), want.view(np.int64))
    # one depth for a row of widths, and a scalar: the same bodies
    row = gripper.collision_body(widths[0], depths[0, 0])
    assert np.array_equal(row[1], _scalar_body(gripper, float(widths[0, 1]), float(depths[0, 0])))
    assert gripper.collision_body(0.05, 0.02).shape == (3, 2, 3)
    assert gripper.collision_body(np.zeros(0), np.zeros(0)).shape == (0, 3, 2, 3)
