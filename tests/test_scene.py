import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from graspscore import (
    GraspPose,
    GripperModel,
    PredictedGrasp,
    PredictionTable,
    SceneInstance,
    build_scene,
    evaluate_ap,
    gripper_collides,
    grasp_nms,
    load_scene_instances,
    save_scene,
)
from graspscore import geometry, scene
from graspscore.errors import ParseError, UnknownObjectId

import _scenes
from conftest import random_rotation


def _pose(translation, rotation=None, width=0.05, depth=0.02):
    if rotation is None:
        rotation = np.eye(3)
    return GraspPose(rotation=rotation, translation=np.asarray(translation, dtype=float),
                     width=width, depth=depth)


# --- NMS ---

def test_nms_suppresses_duplicate():
    poses = [_pose([0, 0, 0]), _pose([0, 0, 0])]
    kept = grasp_nms(poses, np.array([0.9, 0.8]))
    assert kept.tolist() == [0]


def test_nms_keeps_distant_pair():
    poses = [_pose([0, 0, 0]), _pose([1, 0, 0])]
    kept = grasp_nms(poses, np.array([0.8, 0.9]))
    assert kept.tolist() == [1, 0]


def test_nms_tie_breaks_by_input_order():
    poses = [_pose([0, 0, 0]), _pose([0, 0, 0]), _pose([1, 0, 0])]
    kept = grasp_nms(poses, np.array([0.5, 0.5, 0.5]))
    assert kept.tolist() == [0, 2]


def test_nms_requires_both_distances_close():
    quarter = Rotation.from_euler("z", 90, degrees=True).as_matrix()
    near_far_rot = [_pose([0, 0, 0]), _pose([0.001, 0, 0], rotation=quarter)]
    assert len(grasp_nms(near_far_rot, np.array([0.9, 0.8]))) == 2
    far_near_rot = [_pose([0, 0, 0]), _pose([0.05, 0, 0])]
    assert len(grasp_nms(far_near_rot, np.array([0.9, 0.8]))) == 2
    near_both = [_pose([0, 0, 0]), _pose([0.001, 0, 0])]
    assert len(grasp_nms(near_both, np.array([0.9, 0.8]))) == 1


def test_nms_empty():
    assert grasp_nms([], np.zeros(0)).shape == (0,)


def _nms_reference(poses, scores, trans_thresh=0.03, rot_thresh=np.deg2rad(30.0)):
    order = sorted(range(len(poses)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        for j in kept:
            d_t = np.linalg.norm(poses[i].translation - poses[j].translation)
            d_r = Rotation.from_matrix(poses[j].rotation.T @ poses[i].rotation).magnitude()
            if d_t < trans_thresh and d_r < rot_thresh:
                break
        else:
            kept.append(i)
    return kept


def _random_cluster(rng, n=100):
    poses = [_pose(rng.uniform(0, 0.04, 3), rotation=random_rotation(rng)) for _ in range(n)]
    scores = rng.permutation(np.linspace(0.1, 0.9, n))
    return poses, scores


def test_nms_matches_reference_greedy():
    rng = np.random.default_rng(31)
    for _ in range(5):
        poses, scores = _random_cluster(rng)
        kept = grasp_nms(poses, scores)
        assert kept.tolist() == _nms_reference(poses, scores)
        assert 0 < len(kept) < len(poses)


def test_nms_survivors_pass_pairwise_scan():
    rng = np.random.default_rng(32)
    poses, scores = _random_cluster(rng)
    kept = grasp_nms(poses, scores)
    assert int(np.argmax(scores)) in kept.tolist()
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            i, j = kept[a], kept[b]
            d_t = np.linalg.norm(poses[i].translation - poses[j].translation)
            d_r = Rotation.from_matrix(poses[i].rotation.T @ poses[j].rotation).magnitude()
            assert d_t >= 0.03 or d_r >= np.deg2rad(30.0)


def _nms_exhaustive(poses, scores, trans_thresh=0.03, rot_thresh=np.deg2rad(30.0)):
    """The all-kept-grasps scan ``grasp_nms`` replaced, kept as its oracle."""
    if isinstance(poses, PredictionTable):
        poses = [poses.grasp(i).pose for i in range(len(poses))]
    translations = np.array([g.translation for g in poses])
    rotations = np.array([g.rotation for g in poses])
    kept = []
    for i in np.lexsort((np.arange(len(poses)), -np.asarray(scores, dtype=float))):
        if kept:
            d_t = np.linalg.norm(translations[kept] - translations[i], axis=1)
            tr = np.einsum("kab,ab->k", rotations[kept], rotations[i])
            d_r = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            if np.any((d_t < trans_thresh) & (d_r < rot_thresh)):
                continue
        kept.append(int(i))
    return kept


def _assert_nms_matches(poses, scores, trans_thresh=0.03, rot_thresh=np.deg2rad(30.0)):
    kept = grasp_nms(poses, scores, trans_thresh, rot_thresh)
    assert kept.dtype == np.int64
    assert kept.tolist() == _nms_exhaustive(poses, scores, trans_thresh, rot_thresh)
    return kept


@pytest.mark.parametrize("trans_thresh", [0.01, 0.03, 0.1])
def test_nms_grid_matches_exhaustive_over_many_cells(trans_thresh):
    rng = np.random.default_rng(34)
    n = 600
    # a wide spread plus tight clusters: sparse and crowded cells
    spread = rng.uniform(-0.3, 0.3, (n // 2, 3))
    clusters = rng.uniform(-0.3, 0.3, (6, 3))[rng.integers(0, 6, n - n // 2)] + rng.normal(0, 0.01, (n - n // 2, 3))
    poses = [_pose(t, rotation=random_rotation(rng)) for t in np.vstack([spread, clusters])]
    scores = rng.choice(np.linspace(0.0, 1.0, 50), n)  # many ties
    kept = _assert_nms_matches(poses, scores, trans_thresh)
    assert 0 < len(kept) < n
    few = slice(0, n, 3)
    assert grasp_nms(poses[few], scores[few], trans_thresh).tolist() == _nms_reference(
        poses[few], scores[few], trans_thresh)


def test_nms_pairs_at_threshold_and_across_cell_faces():
    thresh = 0.25  # exact in binary, so every distance below is exact
    face = thresh * (1.0 + scene._CELL_PAD)  # first cell boundary on each axis
    poses, scores = [], []
    for k, offset in enumerate([-3, -1, 1, 2, 4]):
        # dyadic, so each step below is exactly trans_thresh long
        base = np.round(np.array([offset, 2 * offset, -offset]) * face * 2.0**20) / 2.0**20
        poses.append(_pose(base))
        scores.append(1.0 - k / 10)
        for step in ([thresh, 0, 0], [0, -thresh, 0], [0, 0, thresh]):
            poses.append(_pose(base + step))
            scores.append(0.5)
    # pairs just closer than trans_thresh that straddle cell faces on 1-3 axes
    boundary = face * np.array([1.0, -2.0, 3.0])
    gap = thresh * (1.0 - 1e-9) / 2.0
    for axes in ([1, 0, 0], [1, 1, 0], [1, 1, 1]):
        step = gap * np.asarray(axes, dtype=float) / np.sqrt(sum(axes))
        poses += [_pose(boundary - step), _pose(boundary + step)]
        scores += [0.9, 0.8]
    kept = _assert_nms_matches(poses, np.asarray(scores), thresh)
    kept_set = set(kept.tolist())
    assert all(i in kept_set for i in range(20))  # every at-threshold pair kept
    assert len(kept_set) == 20 + 1  # the straddling pairs suppress all but one


def test_nms_zero_translation_threshold_keeps_everything():
    rng = np.random.default_rng(35)
    poses = [_pose([0.0, 0.0, 0.0])] * 5 + [_pose(rng.uniform(0, 0.01, 3)) for _ in range(20)]
    scores = rng.uniform(0, 1, len(poses))
    kept = _assert_nms_matches(poses, scores, trans_thresh=0.0)
    assert sorted(kept.tolist()) == list(range(len(poses)))
    assert _assert_nms_matches(poses[:5], scores[:5], trans_thresh=0.0).tolist() == [
        int(i) for i in np.argsort(-scores[:5], kind="stable")]


@pytest.mark.parametrize("rot_thresh", [np.pi, 4.0])
def test_nms_rotation_threshold_at_least_pi(rot_thresh):
    rng = np.random.default_rng(36)
    flip = np.diag([1.0, -1.0, -1.0])  # a half turn: d_r is pi
    poses = [_pose(rng.uniform(0, 0.08, 3), rotation=random_rotation(rng)) for _ in range(150)]
    poses += [_pose([0.2, 0.2, 0.2]), _pose([0.2, 0.2, 0.2], rotation=flip)]
    scores = rng.uniform(0, 1, len(poses))
    _assert_nms_matches(poses, scores, rot_thresh=rot_thresh)


@pytest.mark.parametrize("scale", [1e6, 1e15, 1e100])
def test_nms_far_from_origin(scale):
    rng = np.random.default_rng(37)
    origin = np.array([scale, -scale, 0.5 * scale])
    local = rng.uniform(0, 0.1, (200, 3))
    poses = [_pose(origin + t, rotation=random_rotation(rng)) for t in local]
    poses += [_pose(-origin), _pose(-origin)]  # far apart from the rest
    scores = rng.uniform(0, 1, len(poses))
    kept = _assert_nms_matches(poses, scores)
    assert len(kept) < len(poses)


# --- scene composition and serialization ---

def test_build_scene_merges_transformed_clouds(icosphere):
    library = {"ball": icosphere}
    rot = Rotation.from_euler("y", 40, degrees=True).as_matrix()
    instances = [
        SceneInstance("ball", np.eye(3), np.array([0.0, 0.0, 0.0])),
        SceneInstance("ball", rot, np.array([0.3, 0.0, 0.0])),
    ]
    layout = build_scene(instances, library, table_height=-0.1)
    n = len(icosphere.surface_points)
    assert layout.scene_cloud.shape == (2 * n, 3)
    assert np.array_equal(layout.scene_cloud[:n], icosphere.surface_points)
    want = icosphere.surface_points @ rot.T + [0.3, 0.0, 0.0]
    assert np.allclose(layout.scene_cloud[n:], want, atol=1e-15)


def test_build_scene_unknown_object(icosphere):
    with pytest.raises(UnknownObjectId):
        build_scene([SceneInstance("ghost", np.eye(3), np.zeros(3))],
                    {"ball": icosphere}, table_height=0.0)


def test_scene_json_round_trip(tmp_path, icosphere):
    rot = random_rotation(np.random.default_rng(33))
    instances = [
        SceneInstance("ball", np.eye(3), np.array([0.1, 0.2, 0.3])),
        SceneInstance("ball", rot, np.array([-0.4, 0.0, 0.05])),
    ]
    layout = build_scene(instances, {"ball": icosphere}, table_height=-0.12)
    path = tmp_path / "scene.json"
    save_scene(str(path), layout)
    doc = json.loads(path.read_text())
    assert set(doc) == {"table_height", "instances"}

    loaded, table = load_scene_instances(str(path))
    assert table == -0.12
    assert len(loaded) == 2
    for got, want in zip(loaded, instances):
        assert got.object_id == want.object_id
        assert np.allclose(got.rotation, want.rotation, atol=1e-15)
        assert np.allclose(got.translation, want.translation, atol=1e-15)


@pytest.mark.parametrize("missing", ["instances", "table_height"])
def test_scene_json_missing_key(tmp_path, missing):
    doc = {"table_height": 0.0, "instances": []}
    del doc[missing]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_scene_instances(str(path))
    assert str(path) in str(err.value)
    assert repr(missing) in str(err.value)


# --- the AP protocol fixtures ---

@pytest.fixture(scope="module")
def sphere_world():
    library = _scenes.sphere_library()
    return library, _scenes.sphere_scene(library)


def test_perfect_predictor_maps_to_one(sphere_world):
    library, layout = sphere_world
    report = evaluate_ap(_scenes.perfect_predictions(), layout, library, _scenes.CLOSURE_ONLY)
    assert report.map_value == 1.0
    assert report.ap_values == (1.0,) * 6
    assert report.n_evaluated == 50
    assert report.n_filtered_nms == 0
    assert report.n_filtered_collision == 0
    assert not report.empty_after_filtering
    assert min(report.true_scores) == 1.0


def test_zero_predictor_maps_to_one_sixth(sphere_world):
    library, layout = sphere_world
    report = evaluate_ap(_scenes.zero_predictions(), layout, library, _scenes.CLOSURE_ONLY)
    assert abs(report.map_value - 1.0 / 6.0) <= 1e-9
    assert report.ap_values[0] == 1.0
    assert report.ap_values[1:] == (0.0,) * 5
    assert report.n_evaluated == 50
    assert max(report.true_scores) == 0.0


def test_good25_matches_summation_oracle(sphere_world):
    library, layout = sphere_world
    report = evaluate_ap(_scenes.good25_predictions(), layout, library, _scenes.CLOSURE_ONLY)
    assert abs(report.map_value - _scenes.good25_oracle_map()) <= 1e-9
    assert report.true_scores[:25] == (1.0,) * 25
    assert report.true_scores[25:] == (0.0,) * 25
    mid = sum(min(k, 25) / k for k in range(1, 51)) / 50
    for ap in report.ap_values[1:]:
        assert ap == pytest.approx(mid, abs=1e-12)


def test_eval_report_invariants(sphere_world):
    library, layout = sphere_world
    report = evaluate_ap(_scenes.good25_predictions(), layout, library, _scenes.CLOSURE_ONLY)
    assert report.map_value == pytest.approx(np.mean(report.ap_values), abs=1e-15)
    assert all(0.0 <= ap <= 1.0 for ap in report.ap_values)
    assert list(report.ap_values) == sorted(report.ap_values, reverse=True)
    assert len(report.true_scores) == report.n_evaluated
    doc = report.as_dict()
    assert doc["map"] == report.map_value
    assert doc["n_evaluated"] == 50
    assert len(doc["ap_values"]) == len(doc["thresholds"]) == 6


def test_eval_counts_nms_suppression(sphere_world):
    library, layout = sphere_world
    preds = _scenes.perfect_predictions()
    preds.append(PredictedGrasp(preds[0].pose, 0.99, _scenes.SPHERE_ID))
    report = evaluate_ap(preds, layout, library, _scenes.CLOSURE_ONLY)
    assert report.n_filtered_nms == 1
    assert report.n_evaluated == 50
    assert report.map_value == 1.0


def test_eval_counts_collision_filter(sphere_world):
    library, layout = sphere_world
    preds = _scenes.perfect_predictions()
    # width below the sphere diameter puts the fingers inside the cloud
    squeeze = _scenes.diametral_grasp(_scenes.grid_position(0), np.array([1.0, 0.0, 0.0]))
    bad = GraspPose(rotation=squeeze.rotation, translation=squeeze.translation,
                    width=0.05, depth=squeeze.depth)
    preds.append(PredictedGrasp(bad, 2.0, _scenes.SPHERE_ID))
    report = evaluate_ap(preds, layout, library, _scenes.CLOSURE_ONLY)
    assert report.n_filtered_collision == 1
    assert report.n_evaluated == 50
    assert report.map_value == 1.0


def test_eval_below_table_filters_everything(sphere_world):
    library, _ = sphere_world
    instances = [SceneInstance(_scenes.SPHERE_ID, np.eye(3), np.zeros(3))]
    layout = build_scene(instances, library, table_height=10.0)
    preds = _scenes.perfect_predictions()[:3]
    report = evaluate_ap(preds, layout, library, _scenes.CLOSURE_ONLY)
    assert report.empty_after_filtering
    assert report.map_value == 0.0
    assert report.ap_values == (0.0,) * 6
    assert report.n_evaluated == 0
    assert report.n_filtered_collision == 3


def test_eval_unknown_object_id(sphere_world):
    library, layout = sphere_world
    stray = PredictedGrasp(_scenes.perfect_predictions()[0].pose, 0.9, "ghost")
    with pytest.raises(UnknownObjectId):
        evaluate_ap([stray], layout, library, _scenes.CLOSURE_ONLY)


def test_eval_empty_predictions(sphere_world):
    library, layout = sphere_world
    report = evaluate_ap([], layout, library, _scenes.CLOSURE_ONLY)
    assert report.empty_after_filtering
    assert report.n_predictions == 0
    assert report.map_value == 0.0


# --- scene file validation ---

def _scene_doc():
    return {
        "table_height": -0.1,
        "instances": [
            {"object_id": "ball", "rotation": np.eye(3).ravel().tolist(), "translation": [0.0, 0.0, 0.0]},
            {"object_id": "ball", "rotation": np.eye(3).ravel().tolist(), "translation": [0.3, 0.0, 0.0]},
        ],
    }


@pytest.mark.parametrize("key, value, message", [
    ("translation", [0.3, float("nan"), 0.0], "translation"),
    ("translation", [0.3, 0.0, float("inf")], "translation"),
    ("translation", [0.3, 0.0], "translation"),
    ("rotation", [2.0, 0, 0, 0, 1, 0, 0, 0, 1], "rotation"),
    ("rotation", [1.0, 0, 0, 0, 1, 0, 0, 0, -1], "rotation"),
    ("rotation", [1.0, 0, 0, 0, float("nan"), 0, 0, 0, 1], "rotation"),
    ("rotation", [1.0, 0, 0, 0, 1, 0, 0, 0], "malformed"),
])
def test_scene_json_bad_instance(tmp_path, key, value, message):
    doc = _scene_doc()
    doc["instances"][1][key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message) as err:
        load_scene_instances(str(path))
    assert str(path) in str(err.value)
    assert "instance 1" in str(err.value)


def test_scene_json_nan_table_height(tmp_path):
    doc = _scene_doc()
    doc["table_height"] = float("nan")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="table_height") as err:
        load_scene_instances(str(path))
    assert str(path) in str(err.value)


def test_scene_json_rotation_within_tolerance(tmp_path):
    doc = _scene_doc()
    near = np.eye(3)
    near[0, 1] = near[1, 0] = 4e-9
    doc["instances"][1]["rotation"] = near.ravel().tolist()
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    instances, table = load_scene_instances(str(path))
    assert table == -0.1
    assert np.array_equal(instances[1].rotation, near)


# --- collision broad phase ---

def _collision_verdicts(cloud, poses, gripper=GripperModel(), margin=0.001):
    """Broad-phase verdicts next to the all-points ones, per pose."""
    got, want = [], []
    shortlists = list(scene._collision_shortlists(cloud, poses, gripper, margin))
    assert len(shortlists) == len(poses)
    for pose, shortlist in zip(poses, shortlists):
        if shortlist is None:
            points = cloud
        else:
            assert shortlist.dtype == np.intp
            assert np.all(np.diff(shortlist) > 0)  # sorted, no repeats
            points = cloud[shortlist]
        got.append(gripper_collides(points, pose, gripper, margin))
        want.append(gripper_collides(cloud, pose, gripper, margin))
    return got, want


def _grasps_near(rng, centers, n, spread=0.07):
    poses = []
    for c in centers[rng.integers(0, len(centers), n)]:
        poses.append(GraspPose(rotation=random_rotation(rng), translation=c + rng.uniform(-spread, spread, 3),
                               width=rng.uniform(0.02, 0.085), depth=float(rng.choice([0.01, 0.02, 0.03, 0.04]))))
    return poses


@pytest.fixture(scope="module")
def clutter(desk_meshes):
    rng = np.random.default_rng(38)
    library = {name: desk_meshes[name] for name in ("cube", "cylinder", "icosphere", "l_prism")}
    instances = []
    for slot, name in enumerate(["cube", "cylinder", "icosphere", "l_prism", "cube"]):
        yaw = Rotation.from_euler("z", rng.uniform(0, 360), degrees=True).as_matrix()
        lift = -float(library[name].vertices[:, 2].min())
        instances.append(SceneInstance(name, yaw, np.array([0.09 * (slot % 3), 0.09 * (slot // 3), lift])))
    layout = build_scene(instances, library, table_height=0.0)
    return library, layout


@pytest.mark.parametrize("margin", [0.001, 0.0])
def test_collision_shortlists_match_all_points(clutter, margin):
    _, layout = clutter
    rng = np.random.default_rng(39)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = _grasps_near(rng, centers, 2 * scene._COLLISION_CHUNK + 45)
    got, want = _collision_verdicts(layout.scene_cloud, poses, margin=margin)
    assert got == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("margin", [0.001, 0.0])
@pytest.mark.parametrize("axes", ["xyz", "yzx", "zxy", "flip_xy", "flip_yz"])
def test_collision_points_on_inflated_faces(margin, axes):
    rotation = {
        "xyz": np.eye(3),
        "yzx": np.eye(3)[[1, 2, 0]],
        "zxy": np.eye(3)[[2, 0, 1]],
        "flip_xy": np.diag([-1.0, -1.0, 1.0]),
        "flip_yz": np.diag([1.0, -1.0, -1.0]),
    }[axes]
    gripper = GripperModel()
    pose = GraspPose(rotation=rotation, translation=np.zeros(3), width=0.05, depth=0.02)
    boxes = gripper.collision_body(pose.width, pose.depth)
    face_points = []
    for lo, hi in zip(boxes[:, 0] - margin, boxes[:, 1] + margin):
        mid = (lo + hi) / 2.0
        for axis in range(3):
            for bound, outward in ((lo, -np.inf), (hi, np.inf)):
                on = mid.copy()
                on[axis] = bound[axis]
                off = on.copy()
                off[axis] = np.nextafter(bound[axis], outward)
                face_points.append((on, off))
    # with a signed-permutation rotation and no translation, gripper-frame
    # coordinates come back bit for bit, so "on" lies exactly on the face
    clouds, flags = [], []
    for on, off in face_points:
        on_w, off_w = rotation @ on, rotation @ off
        clouds += [on_w[None], off_w[None], np.vstack([off_w, on_w, off_w + 0.2])]
        flags += [True, None, True]
    for cloud, flag in zip(clouds, flags):
        got, want = _collision_verdicts(cloud, [pose], gripper, margin)
        assert got == want
        if flag:
            assert want == [True]


def test_collision_points_on_faces_of_turned_grasps():
    rng = np.random.default_rng(40)
    gripper = GripperModel()
    poses, clouds = [], []
    for _ in range(60):
        pose = _grasps_near(rng, np.zeros((1, 3)), 1, spread=0.5)[0]
        boxes = gripper.collision_body(pose.width, pose.depth)
        lo, hi = boxes[:, 0] - 0.001, boxes[:, 1] + 0.001
        local = rng.uniform(lo[0], hi[0], (40, 3))
        axis = rng.integers(0, 3, 40)
        local[np.arange(40), axis] = np.where(rng.random(40) < 0.5, lo[0][axis], hi[0][axis])
        poses.append(pose)
        clouds.append(local @ pose.rotation.T + pose.translation)
    for pose, cloud in zip(poses, clouds):
        got, want = _collision_verdicts(cloud, [pose])
        assert got == want


def test_collision_empty_cloud():
    rng = np.random.default_rng(41)
    poses = _grasps_near(rng, np.zeros((1, 3)), 5)
    cloud = np.zeros((0, 3))
    got, want = _collision_verdicts(cloud, poses)
    assert got == want == [False] * 5
    assert all(len(s) == 0 for s in scene._collision_shortlists(cloud, poses, GripperModel(), 0.001))


@pytest.mark.parametrize("n_points", [1, 2, 5, scene._NEAREST - 1, scene._NEAREST, scene._NEAREST + 1])
def test_collision_cloud_smaller_than_nearest_count(n_points):
    rng = np.random.default_rng(42 + n_points)
    cloud = rng.uniform(-0.05, 0.05, (n_points, 3))
    poses = _grasps_near(rng, np.zeros((1, 3)), 200, spread=0.05)
    for k, pose in enumerate(poses[:60]):  # put some cloud point inside one box of these
        lo, hi = GripperModel().collision_body(pose.width, pose.depth)[k % 3]
        inside = rng.uniform(lo, hi)
        poses[k] = GraspPose(rotation=pose.rotation, translation=cloud[k % n_points] - pose.rotation @ inside,
                             width=pose.width, depth=pose.depth)
    got, want = _collision_verdicts(cloud, poses)
    assert got == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("width, margin", [(1e300, 0.001), (0.05, float("nan")), (0.05, float("inf"))])
def test_collision_unusable_body_tests_whole_cloud(width, margin):
    rng = np.random.default_rng(47)
    cloud = rng.uniform(-0.05, 0.05, (300, 3))
    poses = [GraspPose(rotation=p.rotation, translation=p.translation, width=width, depth=p.depth)
             for p in _grasps_near(rng, np.zeros((1, 3)), 20, spread=0.05)]
    shortlists = list(scene._collision_shortlists(cloud, poses, GripperModel(), margin))
    assert shortlists == [None] * len(poses)
    got, want = _collision_verdicts(cloud, poses, margin=margin)
    assert got == want


def _at_tolerance(rotation, kind):
    """Move a rotation to the edge of what GraspPose accepts."""
    if kind == "shear":  # off-diagonal of R^T R near atol = 1e-8
        sym = np.array([[0.0, 4e-9, -4e-9], [4e-9, 0.0, 4e-9], [-4e-9, 4e-9, 0.0]])
        return rotation @ (np.eye(3) + sym)
    # diagonal of R^T R near 1 - 1e-5, which allclose's rtol still accepts
    return rotation * (1.0 - 4.9e-6)


@pytest.mark.parametrize("kind", ["shear", "shrink"])
def test_collision_rotations_at_tolerance(clutter, kind):
    _, layout = clutter
    rng = np.random.default_rng(43)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = [GraspPose(rotation=_at_tolerance(p.rotation, kind), translation=p.translation,
                       width=p.width, depth=p.depth) for p in _grasps_near(rng, centers, 150)]
    got, want = _collision_verdicts(layout.scene_cloud, poses)
    assert got == want


def test_collision_far_corner_of_a_shrinking_rotation():
    """A point just inside the far corner of the body, under a rotation that
    shrinks lengths by 4.9e-6, is found although 32+ points sit nearer each
    box centre; the shortlist ball must grow with that scale."""
    gripper = GripperModel()
    rotation = _at_tolerance(Rotation.from_euler("xyz", [20, -35, 50], degrees=True).as_matrix(), "shrink")
    pose = GraspPose(rotation=rotation, translation=np.array([0.1, -0.2, 0.3]), width=0.05, depth=0.02)
    boxes = gripper.collision_body(pose.width, pose.depth)
    lo, hi = boxes[:, 0] - 0.001, boxes[:, 1] + 0.001
    inner = hi[1, 0] - 0.05 - 2 * 0.001 - 1e-4  # clear of the finger faces
    gap = np.array([[sx * x, y, z] for sx in (-1, 1) for x in np.linspace(0.0, inner, 8)
                    for y in (-0.004, 0.0, 0.004) for z in np.linspace(lo[2, 2] + 0.013, hi[0, 2] - 0.002, 10)])
    corner = np.array([hi[1, 0], hi[1, 1], lo[2, 2]]) - 2e-8 * np.array([1, 1, -1])
    local = np.vstack([gap, corner])
    cloud = np.linalg.solve(rotation.T, local.T).T + pose.translation
    assert not gripper_collides(cloud[:-1], pose, gripper, 0.001)
    got, want = _collision_verdicts(cloud, [pose], gripper)
    assert want == [True]
    assert got == want


# --- evaluate_ap against the exhaustive filters ---

def _clutter_predictions(layout, n=700, seed=44):
    rng = np.random.default_rng(seed)
    centers = np.array([inst.translation for inst in layout.instances])
    ids = [inst.object_id for inst in layout.instances]
    preds = []
    for pose in _grasps_near(rng, centers, n):
        nearest = int(np.argmin(np.linalg.norm(centers - pose.center, axis=1)))
        object_id = ids[nearest] if rng.random() < 0.5 else None
        preds.append(PredictedGrasp(pose, float(rng.choice(np.linspace(0, 1, 40))), object_id))
    preds += [PredictedGrasp(p.pose, p.predicted_score, p.object_id) for p in preds[:50]]  # duplicates
    return preds


def _all_points(cloud, poses, gripper, margin):
    for _ in poses:
        yield None


def test_evaluate_ap_matches_exhaustive_filters(clutter, monkeypatch):
    library, layout = clutter
    preds = _clutter_predictions(layout)
    got = evaluate_ap(preds, layout, library).as_dict()

    monkeypatch.setattr(scene, "_collision_shortlists", _all_points)
    monkeypatch.setattr(scene, "grasp_nms",
                        lambda g, s, t, r: np.asarray(_nms_exhaustive(g, s, t, r), dtype=np.int64))
    want = evaluate_ap(preds, layout, library).as_dict()
    assert got == want
    assert want["n_filtered_nms"] > 50 and want["n_filtered_collision"] > 0 and want["n_evaluated"] > 0


def test_evaluate_ap_tests_each_nms_survivor_once(clutter, monkeypatch):
    library, layout = clutter
    preds = _clutter_predictions(layout, n=300, seed=45)
    calls = []

    def counting(points, grasp, gripper, margin):
        calls.append(grasp)
        return gripper_collides(points, grasp, gripper, margin)

    monkeypatch.setattr(scene, "gripper_collides", counting)
    evaluate_ap(preds, layout, library)
    kept = grasp_nms([p.pose for p in preds], np.array([p.predicted_score for p in preds]))

    def pose_key(g):
        return g.rotation.tobytes(), g.translation.tobytes(), g.width, g.depth

    # evaluate_ap builds its own GraspPose per survivor, so poses compare by value
    assert [pose_key(g) for g in calls] == [pose_key(preds[i].pose) for i in kept]


def test_evaluate_ap_builds_poses_only_for_nms_survivors(clutter, monkeypatch):
    library, layout = clutter
    table = PredictionTable.from_grasps(_clutter_predictions(layout, n=300, seed=47))
    built = []
    original = GraspPose.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GraspPose, "__post_init__", counting)
    report = evaluate_ap(table, layout, library)
    # one per NMS survivor, plus one object-frame pose per evaluated grasp
    assert len(built) == len(table) - report.n_filtered_nms + report.n_evaluated
    assert report.n_filtered_nms > 0


def test_evaluate_ap_poses_each_instance_once(clutter, monkeypatch):
    library, layout = clutter
    preds = _clutter_predictions(layout, n=300, seed=46)
    posed = []
    original = geometry.transform_points

    def counting(points, rotation, translation):
        posed.append(id(rotation))
        return original(points, rotation, translation)

    monkeypatch.setattr(geometry, "transform_points", counting)
    report = evaluate_ap(preds, layout, library)
    assert report.n_evaluated > 1
    assert len(posed) == len(set(posed)) <= len(layout.instances)
