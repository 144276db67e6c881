import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from graspscore import (
    GraspPose,
    PredictedGrasp,
    SceneInstance,
    build_scene,
    evaluate_ap,
    grasp_nms,
    load_scene_instances,
    save_scene,
)
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
            if d_t < 0.03 and d_r < rot_thresh:
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
