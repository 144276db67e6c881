import numpy as np
import pytest

from graspscore import (
    ContactFrame,
    GraspPose,
    GripperModel,
    closest_surface_point,
    enumerate_candidates,
    gripper_collides,
    resolve_contacts,
    transform_mesh,
)
from graspscore.candidates import CandidateGrid
from graspscore.gripper import collision_box_corners, resolve_contacts_batch
from graspscore.primitives import make_box, make_icosphere

from conftest import random_rotation


def _pose_closing_x(center, width, depth):
    """Closing along +x, approaching along -z, grasp center at ``center``."""
    rot = np.column_stack([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    translation = np.asarray(center, dtype=float) - depth * rot[:, 2]
    return GraspPose(rotation=rot, translation=translation, width=width, depth=depth)


def test_cube_centered_grasp():
    cube = make_box((1.0, 1.0, 1.0))
    gripper = GripperModel(max_width=1.5, finger_length=0.8,
                           finger_thickness=0.05, depth_levels=(0.25,))
    frame = resolve_contacts(cube, _pose_closing_x((0, 0, 0), 1.2, 0.25), gripper)
    assert frame.valid
    assert np.allclose(frame.p_cl, [-0.5, 0, 0], atol=1e-12)
    assert np.allclose(frame.p_cr, [0.5, 0, 0], atol=1e-12)
    assert np.allclose(frame.v_a, [1, 0, 0], atol=1e-12)
    assert np.allclose(frame.p_el, [-0.6, 0, 0], atol=1e-12)
    assert np.allclose(frame.p_er, [0.6, 0, 0], atol=1e-12)
    # interpolated vertex normals on a sparse cube lean toward the corners,
    # so only the dominant component is pinned down
    assert frame.v_ql[0] < -0.9
    assert frame.v_qr[0] > 0.9


def test_grasp_above_object_misses():
    cube = make_box((0.04, 0.04, 0.04))
    frame = resolve_contacts(cube, _pose_closing_x((0, 0, 1.0), 0.05, 0.01), GripperModel())
    assert not frame.valid


def test_icosphere_diametral_contacts():
    sphere = make_icosphere(0.03, 3)
    frame = resolve_contacts(sphere, _pose_closing_x((0, 0, 0), 0.07, 0.03), GripperModel())
    assert frame.valid
    separation = np.linalg.norm(frame.p_cr - frame.p_cl)
    assert abs(separation - 0.06) < 2e-3
    ang_l = np.arccos(np.clip(np.dot(frame.v_ql, -frame.v_a), -1, 1))
    ang_r = np.arccos(np.clip(np.dot(frame.v_qr, frame.v_a), -1, 1))
    assert ang_l < 0.06
    assert ang_r < 0.06


def test_back_face_hit_is_invalid():
    # the left ray starts inside the cube and exits through the +x face
    cube = make_box((0.04, 0.04, 0.04))
    frame = resolve_contacts(cube, _pose_closing_x((0.015, 0, 0), 0.02, 0.01), GripperModel())
    assert not frame.valid


def test_rays_starting_inside_without_reach_are_invalid():
    cube = make_box((0.04, 0.04, 0.04))
    frame = resolve_contacts(cube, _pose_closing_x((0, 0, 0), 0.02, 0.01), GripperModel())
    assert not frame.valid


def test_resolve_rigid_equivariance():
    sphere = make_icosphere(0.03, 3)
    gripper = GripperModel()
    pose = _pose_closing_x((0, 0, 0.005), 0.07, 0.02)
    base = resolve_contacts(sphere, pose, gripper)
    assert base.valid
    rng = np.random.default_rng(9)
    for _ in range(10):
        rot = random_rotation(rng)
        trans = rng.uniform(-0.5, 0.5, 3)
        moved_mesh = transform_mesh(sphere, rot, trans)
        moved_pose = GraspPose(rotation=rot @ pose.rotation,
                               translation=rot @ pose.translation + trans,
                               width=pose.width, depth=pose.depth)
        moved = resolve_contacts(moved_mesh, moved_pose, gripper)
        assert moved.valid
        for name in ("p_cl", "p_cr", "p_el", "p_er"):
            want = rot @ getattr(base, name) + trans
            assert np.all(np.abs(getattr(moved, name) - want) < 1e-6), name
        for name in ("v_ql", "v_qr", "v_a"):
            want = rot @ getattr(base, name)
            assert np.all(np.abs(getattr(moved, name) - want) < 1e-6), name


def test_contact_frame_invariants_on_candidates(icosphere):
    gripper = GripperModel()
    grid = CandidateGrid.build(icosphere, n_seeds=8, n_views=10, n_rotations=3)
    count = 0
    for pose, frame in enumerate_candidates(icosphere, grid, gripper):
        assert frame.valid
        assert np.linalg.norm(frame.p_cr - frame.p_cl) <= gripper.max_width + 1e-12
        for v in (frame.v_a, frame.v_ql, frame.v_qr):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6
        if count % 37 == 0:
            for p in (frame.p_cl, frame.p_cr):
                _, _, dist = closest_surface_point(icosphere, p)
                assert dist < 1e-6
        count += 1
    assert count > 0


def test_batch_matches_single(icosphere):
    gripper = GripperModel()
    rng = np.random.default_rng(13)
    poses = []
    for _ in range(20):
        rot = random_rotation(rng)
        translation = rot[:, 2] * -0.03
        poses.append(GraspPose(rotation=rot, translation=translation,
                               width=0.07, depth=0.03))
    frames = resolve_contacts_batch(
        icosphere,
        np.stack([p.rotation for p in poses]),
        np.stack([p.translation for p in poses]),
        np.array([p.width for p in poses]),
        np.array([p.depth for p in poses]),
    )
    for pose, batched in zip(poses, frames):
        single = resolve_contacts(icosphere, pose, gripper)
        assert single.valid == batched.valid
        if single.valid:
            assert np.array_equal(single.p_cl, batched.p_cl)
            assert np.array_equal(single.v_qr, batched.v_qr)


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
    assert not gripper_collides(np.zeros((0, 3)), pose, GripperModel())


def test_collision_point_at_fingertip():
    gripper = GripperModel()
    pose = _pose_closing_x((0, 0, 0), 0.05, 0.02)
    tip_local = np.array([-(0.05 / 2 + gripper.finger_thickness / 2), 0.0, pose.depth])
    tip_world = pose.rotation @ tip_local + pose.translation
    assert gripper_collides(tip_world[None, :], pose, gripper)


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
        got = gripper_collides(points, pose, gripper, margin)
        want = _collides_oracle(points, pose, gripper, margin)
        disagreements += got != want
    assert disagreements == 0


def test_collision_monotone_in_margin():
    rng = np.random.default_rng(22)
    points = rng.uniform(-0.06, 0.06, size=(500, 3))
    gripper = GripperModel()
    for _ in range(50):
        rot = random_rotation(rng)
        pose = GraspPose(rotation=rot, translation=rng.uniform(-0.08, 0.08, 3),
                         width=0.06, depth=0.02)
        hits = [gripper_collides(points, pose, gripper, m) for m in (0.0, 0.002, 0.01)]
        for tight, loose in zip(hits, hits[1:]):
            assert (not tight) or loose


def test_grasp_pose_validation():
    bad_rot = np.eye(3)
    bad_rot[0, 0] = 2.0
    with pytest.raises(ValueError):
        GraspPose(rotation=bad_rot, translation=np.zeros(3), width=0.05, depth=0.02)
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        GraspPose(rotation=reflect, translation=np.zeros(3), width=0.05, depth=0.02)
    with pytest.raises(ValueError):
        GraspPose(rotation=np.eye(3), translation=np.zeros(3), width=-0.01, depth=0.02)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grasp_pose_rejects_non_finite_translation(value):
    with pytest.raises(ValueError, match="translation must be finite"):
        GraspPose(rotation=np.eye(3), translation=np.array([0.0, value, 0.0]), width=0.05, depth=0.02)


def test_contact_frame_unit_check():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        ContactFrame(p_cl=z, p_cr=z, v_ql=np.array([2.0, 0, 0]), v_qr=np.array([1.0, 0, 0]),
                     v_a=np.array([1.0, 0, 0]), p_el=z, p_er=z)
    assert not ContactFrame.invalid().valid


def test_collision_body_layout():
    gripper = GripperModel()
    boxes = gripper.collision_body(0.06, 0.03)
    assert boxes.shape == (3, 2, 3)
    assert np.all(boxes[:, 0, :] <= boxes[:, 1, :])
    # fingertips end at the grasp-center plane
    assert boxes[0, 1, 2] == pytest.approx(0.03)
    assert boxes[1, 1, 2] == pytest.approx(0.03)
