import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from graspscore import (
    GripperModel,
    PredictionTable,
    SceneInstance,
    SpatialIndex,
    build_scene,
    combine_scores,
    evaluate_ap,
    gripper_collides,
    grasp_nms,
    load_scene_instances,
    mass_properties,
    save_scene,
    score_contacts,
    with_surface_samples,
)
from graspscore import geometry, metrics, scene
from graspscore.candidates import generate_views
from graspscore.errors import ParseError, UnknownObjectId
from graspscore.primitives import make_icosphere

import _scenes
from conftest import (
    GraspPose,
    associate_oracle,
    collision_box_corners,
    nearest_shortlists,
    one_line_contacts,
    pose_fields,
    prediction_table,
    random_rotation,
)


def _pose(translation, rotation=None, width=0.05, depth=0.02):
    if rotation is None:
        rotation = np.eye(3)
    return GraspPose(rotation=rotation, translation=np.asarray(translation, dtype=float),
                     width=width, depth=depth)


# --- NMS ---

@pytest.fixture
def tree_calls(monkeypatch):
    """What scene's KD-trees are asked: the candidate pairs the NMS broad
    phase finds, and the distance bound of each nearest-point query and the
    ball count of each cover query of the collision filter."""
    calls = {"pairs": 0, "bounds": [], "balls": []}

    class Recording(cKDTree):
        def sparse_distance_matrix(self, other, max_distance, **kwargs):
            near = super().sparse_distance_matrix(other, max_distance, **kwargs)
            calls["pairs"] += len(near)
            return near

        def query_pairs(self, r, **kwargs):
            pairs = super().query_pairs(r, **kwargs)
            calls["pairs"] += len(pairs)
            return pairs

        def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
            calls["bounds"].append(distance_upper_bound)
            return super().query(x, k=k, distance_upper_bound=distance_upper_bound, **kwargs)

        def query_ball_point(self, x, r, **kwargs):
            calls["balls"].append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr(scene, "cKDTree", Recording)
    return calls

def _pose_columns(poses):
    """(rotations, translations) of a ``PredictionTable`` or a list of ``GraspPose``."""
    if isinstance(poses, PredictionTable):
        return poses.rotations, poses.translations
    return (np.array([p.rotation for p in poses]).reshape(-1, 3, 3),
            np.array([p.translation for p in poses]).reshape(-1, 3))


def _nms(poses, scores, *thresholds):
    return grasp_nms(*_pose_columns(poses), scores, *thresholds)


def test_nms_suppresses_duplicate():
    poses = [_pose([0, 0, 0]), _pose([0, 0, 0])]
    kept = _nms(poses, np.array([0.9, 0.8]))
    assert kept.tolist() == [0]


def test_nms_keeps_distant_pair():
    poses = [_pose([0, 0, 0]), _pose([1, 0, 0])]
    kept = _nms(poses, np.array([0.8, 0.9]))
    assert kept.tolist() == [1, 0]


def test_nms_tie_breaks_by_input_order():
    poses = [_pose([0, 0, 0]), _pose([0, 0, 0]), _pose([1, 0, 0])]
    kept = _nms(poses, np.array([0.5, 0.5, 0.5]))
    assert kept.tolist() == [0, 2]


def test_nms_requires_both_distances_close():
    quarter = Rotation.from_euler("z", 90, degrees=True).as_matrix()
    near_far_rot = [_pose([0, 0, 0]), _pose([0.001, 0, 0], rotation=quarter)]
    assert len(_nms(near_far_rot, np.array([0.9, 0.8]))) == 2
    far_near_rot = [_pose([0, 0, 0]), _pose([0.05, 0, 0])]
    assert len(_nms(far_near_rot, np.array([0.9, 0.8]))) == 2
    near_both = [_pose([0, 0, 0]), _pose([0.001, 0, 0])]
    assert len(_nms(near_both, np.array([0.9, 0.8]))) == 1


def test_nms_empty():
    assert grasp_nms(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros(0)).shape == (0,)


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
        kept = _nms(poses, scores)
        assert kept.tolist() == _nms_reference(poses, scores)
        assert 0 < len(kept) < len(poses)


def test_nms_survivors_pass_pairwise_scan():
    rng = np.random.default_rng(32)
    poses, scores = _random_cluster(rng)
    kept = _nms(poses, scores)
    assert int(np.argmax(scores)) in kept.tolist()
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            i, j = kept[a], kept[b]
            d_t = np.linalg.norm(poses[i].translation - poses[j].translation)
            d_r = Rotation.from_matrix(poses[i].rotation.T @ poses[j].rotation).magnitude()
            assert d_t >= 0.03 or d_r >= np.deg2rad(30.0)


def _nms_exhaustive(rotations, translations, scores, trans_thresh=0.03, rot_thresh=np.deg2rad(30.0)):
    """The all-kept-grasps scan ``grasp_nms`` replaced, kept as its oracle."""
    kept = []
    for i in np.lexsort((np.arange(len(scores)), -np.asarray(scores, dtype=float))):
        if kept:
            d_t = np.linalg.norm(translations[kept] - translations[i], axis=1)
            tr = np.einsum("kab,ab->k", rotations[kept], rotations[i])
            d_r = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            if np.any((d_t < trans_thresh) & (d_r < rot_thresh)):
                continue
        kept.append(int(i))
    return kept


def _assert_nms_matches(poses, scores, trans_thresh=0.03, rot_thresh=np.deg2rad(30.0)):
    columns = _pose_columns(poses)
    kept = grasp_nms(*columns, scores, trans_thresh, rot_thresh)
    assert kept.dtype == np.int64
    assert kept.tolist() == _nms_exhaustive(*columns, scores, trans_thresh, rot_thresh)
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
    assert _nms(poses[few], scores[few], trans_thresh).tolist() == _nms_reference(
        poses[few], scores[few], trans_thresh)


def test_nms_pairs_at_threshold_and_across_cell_faces():
    thresh = 0.25  # exact in binary, so every distance below is exact
    face = thresh * (1.0 + 1e-3)  # a cell boundary of the former translation grid
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


def _nms_table(rng, n, clusters=40, copies=0.2):
    """Clustered predictions with many score ties; the last ``copies`` of
    the rows repeat earlier rows, half exactly and half turned by about
    3e-7 rad and moved by about 1e-4 m."""
    n_copies = int(n * copies)
    n_base = n - n_copies
    centres = rng.uniform(-0.15, 0.15, (clusters, 3))
    bases = Rotation.from_quat(rng.normal(size=(clusters, 4)))
    which = rng.integers(0, clusters, n_base)
    values = np.zeros((n, 15))
    turned = bases[which] * Rotation.from_rotvec(rng.normal(0, 0.3, (n_base, 3)))
    values[:n_base, :9] = turned.as_matrix().reshape(-1, 9)
    values[:n_base, 9:12] = centres[which] + rng.normal(0, 0.01, (n_base, 3))
    values[:, 12:14] = [0.05, 0.02]
    source = rng.integers(0, n_base, n_copies)
    values[n_base:] = values[source]
    nudged = np.arange(n_base, n, 2)
    turn = Rotation.from_rotvec(rng.normal(0, 3e-7, (len(nudged), 3)))
    values[nudged, :9] = (Rotation.from_matrix(values[nudged, :9].reshape(-1, 3, 3)) * turn).as_matrix().reshape(-1, 9)
    values[nudged, 9:12] += rng.normal(0, 1e-4, (len(nudged), 3))
    values[:, 14] = rng.choice(np.linspace(0.0, 1.0, 50), n)
    return PredictionTable(values, [None] * n)


def _visit_order(scores):
    return np.lexsort((np.arange(len(scores)), -np.asarray(scores))).tolist()


@pytest.mark.parametrize("rot_thresh", [1e-6, 0.0, -1.0, float("nan"), np.pi, 4.0, 2 * np.pi])
def test_nms_rotation_threshold_edges(rot_thresh):
    table = _nms_table(np.random.default_rng(60), 2 * scene._NMS_BLOCK + 200)
    kept = _assert_nms_matches(table, table.scores, rot_thresh=rot_thresh)
    if rot_thresh > 0:
        assert len(kept) < len(table)
    else:  # NaN, zero or negative: d_r < rot_thresh never holds
        assert kept.tolist() == _visit_order(table.scores)


@pytest.mark.parametrize("trans_thresh", [float("nan"), float("inf"), 1e-12])
def test_nms_translation_threshold_edges(trans_thresh):
    table = _nms_table(np.random.default_rng(61), 2 * scene._NMS_BLOCK + 200)
    kept = _assert_nms_matches(table, table.scores, trans_thresh=trans_thresh)
    if trans_thresh != trans_thresh:
        assert kept.tolist() == _visit_order(table.scores)
    elif trans_thresh == 1e-12:
        # only the exact copies (every other copy row) fall within 1e-12 m
        # of another row, and each group of identical poses keeps one
        n_exact = len(range(len(table) - int(0.2 * len(table)) + 1, len(table), 2))
        assert len(kept) == len(table) - n_exact
    else:
        assert len(kept) < len(table) // 5  # rotation alone decides, so few survive


def test_nms_duplicates_and_ties_across_block_boundary():
    block = scene._NMS_BLOCK
    table = _nms_table(np.random.default_rng(62), 2 * block + 40, copies=0.0)
    values = table.values.copy()
    values[:, 14] = 0.5  # all tied: grasps are visited in input order
    copies = {block: block - 1, block + 1: block - 2, 2 * block: 0, 2 * block + 1: block}
    for later, earlier in copies.items():
        values[later] = values[earlier]
    table = PredictionTable(values, [None] * len(values))
    kept = _assert_nms_matches(table, table.scores)
    assert kept.tolist() == sorted(kept.tolist())
    # a later copy is suppressed by its source, or by whatever suppressed it
    assert not set(copies) & set(kept.tolist())


@pytest.mark.parametrize("kind", ["shrink", "grow", "shear"])
@pytest.mark.parametrize("rot_thresh", [1e-6, 1e-3, np.deg2rad(30.0)])
def test_nms_rotations_at_tolerance(kind, rot_thresh):
    """Rotations at the edge of what GraspPose accepts. Scaled up by
    4.9e-6, two rotations whose closing axes are over 5e-3 apart can still
    have a computed angle of 0, so the embedding needs an absolute slack
    next to 2 sin(rot_thresh / 2)."""
    rng = np.random.default_rng(63)
    scale = {"shrink": 1.0 - 4.9e-6, "grow": 1.0 + 4.9e-6}.get(kind)
    poses = []
    for phi in np.linspace(0.0, 6e-3, 60):
        base = random_rotation(rng)
        turned = base @ Rotation.from_euler("z", phi).as_matrix()
        t = rng.uniform(-0.1, 0.1, 3)
        for r, shift in ((base, 0.0), (turned, 0.01)):
            r = _at_tolerance(r, "shear") if scale is None else r * scale
            poses.append(_pose(t + shift, rotation=r))
    scores = rng.choice(np.linspace(0.0, 1.0, 7), len(poses))
    kept = _assert_nms_matches(poses, scores, rot_thresh=rot_thresh)
    if kind == "grow" and rot_thresh == 1e-6:
        suppressed = set(range(len(poses))) - set(kept.tolist())
        gaps = [np.linalg.norm(poses[i].rotation[:, 0] - poses[i ^ 1].rotation[:, 0]) for i in suppressed]
        assert max(gaps) > 5e-3 > 1000 * 2.0 * np.sin(rot_thresh / 2.0)


def test_nms_pairs_near_both_thresholds_far_from_origin():
    """Suppressing pairs near 1e12 m, a few float steps apart and close to
    both thresholds. Divided by trans_thresh alone, translations that large
    round by enough that most of these pairs would land farther apart than
    sqrt(2) in the embedding."""
    rng = np.random.default_rng(64)
    trans_thresh, rot_thresh = 1e-3, 2.0
    step = np.spacing(1e12)  # 1.2e-4, the float step on [5.5e11, 1.1e12)
    phi = 2.0 * np.arcsin(0.999 * np.sin(rot_thresh / 2.0))  # just under rot_thresh
    turn = Rotation.from_euler("z", phi).as_matrix()
    poses, scores = [], []
    for _ in range(300):
        t = rng.uniform(6e11, 1e12, 3) * rng.choice([-1.0, 1.0], 3)
        shift = step * rng.permutation([7.0, 4.0, 1.0]) * rng.choice([-1.0, 1.0], 3)  # 9.9e-4 long
        r = random_rotation(rng)
        poses += [_pose(t, rotation=r), _pose(t + shift, rotation=r @ turn)]
        scores += [0.9, 0.1]
    kept = _assert_nms_matches(poses, np.asarray(scores), trans_thresh, rot_thresh)
    assert kept.tolist() == list(range(0, 600, 2))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    clusters=st.integers(1, 12),
    trans_thresh=st.one_of(st.floats(1e-4, 0.3), st.sampled_from([0.0, 1e-12, float("inf"), float("nan")])),
    rot_thresh=st.one_of(st.floats(1e-6, 4.0), st.sampled_from([0.0, np.pi, 2 * np.pi, float("nan")])),
    block=st.sampled_from([1, 3, 16, 64, 512]),
)
def test_nms_matches_exhaustive_on_clustered_poses(seed, n, clusters, trans_thresh, rot_thresh, block):
    table = _nms_table(np.random.default_rng(seed), n, clusters=clusters)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scene, "_NMS_BLOCK", block)
        _assert_nms_matches(table, table.scores, trans_thresh, rot_thresh)


# A one-query_pairs NMS holds every candidate pair at once: at the default
# thresholds on these 20k poses, 3.2M pairs, whose sorting and gathers peak
# near 74 MiB; with trans_thresh=inf and rot_thresh=pi every pair of the
# 20k is a candidate.
_NMS_PEAK_BOUND = 16 * 2**20


@pytest.mark.parametrize("trans_thresh, rot_thresh", [(0.03, np.deg2rad(30.0)), (np.inf, np.pi)])
def test_nms_memory_is_bounded(trans_thresh, rot_thresh):
    table = _nms_table(np.random.default_rng(70), 20000, copies=0.0)
    tracemalloc.start()
    try:
        # the pose columns are copies of the table, made inside the window
        kept = grasp_nms(table.rotations, table.translations, table.scores, trans_thresh, rot_thresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(kept) < len(table)
    assert peak < _NMS_PEAK_BOUND


# Finite translations far from the rest: one coordinate, all three, both signs.
_FAR_TRANSLATIONS = [(0.0, 1e12, 0.0), (0.0, 1e308, 0.0), (0.0, -1e308, 0.0), (1e308, -1e308, 1e308)]


def test_nms_grasps_far_from_the_rest_match_exhaustive():
    table = _nms_table(np.random.default_rng(71), 2 * scene._NMS_BLOCK + 200)
    values = table.values.copy()
    rows = [3, scene._NMS_BLOCK - 1, scene._NMS_BLOCK + 7, len(values) - 1]
    values[rows, 9:12] = _FAR_TRANSLATIONS
    values[rows[:2], 14] = 1.0  # two are visited first
    table = PredictionTable(values, [None] * len(values))
    with np.errstate(over="ignore"):  # the oracle's overflowing distances are too far to suppress
        kept = _assert_nms_matches(table, table.scores)
    assert set(rows) <= set(kept.tolist()) and len(kept) < len(table)


@pytest.mark.parametrize("far", _FAR_TRANSLATIONS)
def test_nms_grasp_far_from_the_rest_adds_no_candidate_pair(far, tree_calls):
    """A far grasp does not squeeze the others together in the embedding:
    visited last, so that every block keeps its members, it leaves the
    broad phase's candidate pairs as they were."""
    table = _nms_table(np.random.default_rng(73), 2 * scene._NMS_BLOCK + 200)
    kept = grasp_nms(table.rotations, table.translations, table.scores)
    pairs, tree_calls["pairs"] = tree_calls["pairs"], 0
    values = np.vstack([table.values, table.values[:1]])
    values[-1, 9:12] = far
    values[-1, 14] = -1.0
    grown = PredictionTable(values, [None] * len(values))
    assert grasp_nms(grown.rotations, grown.translations, grown.scores).tolist() == [*kept.tolist(), len(table)]
    assert tree_calls["pairs"] == pairs > 0


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


def test_build_scene_samples_each_mesh_once_and_leaves_the_library(monkeypatch, cube):
    bare = make_icosphere(0.03, 2)
    library = {"ball": bare, "cube": cube}
    sampled = []

    def counting(mesh, density, seed):
        sampled.append((mesh, density, seed))
        return with_surface_samples(mesh, density, seed)

    monkeypatch.setattr(scene, "with_surface_samples", counting)
    instances = [SceneInstance("ball", np.eye(3), np.zeros(3)),
                 SceneInstance("cube", np.eye(3), np.array([0.2, 0.0, 0.0])),
                 SceneInstance("ball", np.eye(3), np.array([0.4, 0.0, 0.0]))]
    layout = build_scene(instances, library, table_height=0.0, density=800.0, seed=5)

    assert set(library) == {"ball", "cube"} and library["ball"] is bare and library["cube"] is cube
    assert bare.surface_points is None
    assert len(sampled) == 1 and sampled[0][0] is bare and sampled[0][1:] == (800.0, 5)
    assert set(layout.meshes) == {"ball", "cube"} and layout.meshes["cube"] is cube
    ball = layout.meshes["ball"]
    assert np.array_equal(ball.surface_points, with_surface_samples(bare, 800.0, 5).surface_points)
    n, m = len(ball.surface_points), len(cube.surface_points)
    assert np.array_equal(layout.scene_cloud[:n], ball.surface_points)
    assert np.array_equal(layout.scene_cloud[n + m:], ball.surface_points + [0.4, 0.0, 0.0])


def test_scene_json_round_trip(tmp_path):
    rot = random_rotation(np.random.default_rng(33))
    instances = [
        SceneInstance("ball", np.eye(3), np.array([0.1, 0.2, 0.3])),
        SceneInstance("ball", rot, np.array([-0.4, 0.0, 0.05])),
    ]
    path = tmp_path / "scene.json"
    save_scene(str(path), instances, -0.12)
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


# --- instance association ---

def _association_cases(layout, rng, n=120):
    """Grasp centres near the instances, each bound to the nearest
    instance's id, to another id of the scene, or to none."""
    centers = np.array([inst.translation for inst in layout.instances])
    ids = sorted({inst.object_id for inst in layout.instances})
    points = centers[rng.integers(0, len(centers), n)] + rng.uniform(-0.06, 0.06, (n, 3))
    object_ids = []
    for p in points:
        kind = rng.integers(3)
        if kind == 0:
            object_ids.append(None)
        elif kind == 1:
            object_ids.append(layout.instances[associate_oracle(p, None, layout)].object_id)
        else:
            object_ids.append(ids[rng.integers(len(ids))])
    return points, object_ids


def test_associate_matches_per_grasp_oracle(clutter):
    layout = clutter
    points, object_ids = _association_cases(layout, np.random.default_rng(60))
    got = scene._associate(points, object_ids, layout)
    want = [associate_oracle(p, oid, layout) for p, oid in zip(points, object_ids)]
    assert got.tolist() == want
    nearest = [associate_oracle(p, None, layout) for p in points]
    # bound grasps whose nearest instance has another id, and unbound ones
    assert any(oid is not None and w != k for oid, w, k in zip(object_ids, want, nearest))
    assert any(oid is None for oid in object_ids)
    # both cube instances are picked by some grasp
    cubes = [k for k, inst in enumerate(layout.instances) if inst.object_id == "cube"]
    assert set(cubes) <= set(want)


def test_associate_exact_tie_goes_to_the_earlier_instance(icosphere, cube):
    """Two balls mirrored through the origin: every grasp at the origin is
    exactly as far from both, and goes to the one listed first."""
    shift = np.array([0.1, 0.0, 0.0])
    for first, second in (("ball", "other"), ("other", "ball")):
        library = {"ball": icosphere, "other": icosphere, "cube": cube}
        layout = build_scene([SceneInstance("cube", np.eye(3), np.array([0.0, 0.5, 0.0])),
                              SceneInstance(first, np.eye(3), shift),
                              SceneInstance(second, np.eye(3), -shift),
                              SceneInstance(first, np.eye(3), -shift)], library, table_height=0.0)
        d = [np.min(np.linalg.norm(icosphere.vertices + t, axis=1)) for t in (shift, -shift)]
        assert d[0] == d[1]
        object_ids = [None, first, second]
        got = scene._associate(np.zeros((3, 3)), object_ids, layout)
        assert got.tolist() == [associate_oracle(np.zeros(3), oid, layout) for oid in object_ids] == [1, 1, 2]


def _oracle_error(centers, object_ids, layout):
    try:
        for center, object_id in zip(centers, object_ids):
            associate_oracle(center, object_id, layout)
    except UnknownObjectId as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("scene_ids, object_ids, message", [
    (["cube"], ["cube", "ghost", "phantom"], "prediction references object 'ghost' not in scene"),
    (["cube"], [None, "phantom", "ghost"], "prediction references object 'phantom' not in scene"),
    ([], [None, "ghost"], "prediction has no object_id and the scene is empty"),
    ([], ["ghost", None], "prediction references object 'ghost' not in scene"),
])
def test_associate_names_the_first_failing_grasp(cube, scene_ids, object_ids, message):
    layout = build_scene([SceneInstance(oid, np.eye(3), np.zeros(3)) for oid in scene_ids],
                         {"cube": cube}, table_height=0.0)
    centers = np.zeros((len(object_ids), 3))
    with pytest.raises(UnknownObjectId) as err:
        scene._associate(centers, object_ids, layout)
    assert str(err.value) == message == _oracle_error(centers, object_ids, layout)


# --- the AP protocol fixtures ---

_NO_PREDICTIONS = PredictionTable(np.zeros((0, 15)), ())


def _with_copy_of_first(table, score):
    """``table`` and, at its end, a copy of its first row scored ``score``."""
    copy = table.values[0].copy()
    copy[14] = score
    return PredictionTable(np.vstack([table.values, copy]), table.object_ids + table.object_ids[:1])


@pytest.fixture(scope="module")
def sphere_world():
    return _scenes.sphere_scene(_scenes.sphere_library())


def test_perfect_predictor_maps_to_one(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_scenes.perfect_predictions(), layout, _scenes.CLOSURE_ONLY)
    assert report.map_value == 1.0
    assert report.ap_values == (1.0,) * 6
    assert report.n_evaluated == 50
    assert report.n_filtered_nms == 0
    assert report.n_filtered_collision == 0
    assert not report.empty_after_filtering
    assert min(report.true_scores) == 1.0


def test_zero_predictor_maps_to_one_sixth(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_scenes.zero_predictions(), layout, _scenes.CLOSURE_ONLY)
    assert abs(report.map_value - 1.0 / 6.0) <= 1e-9
    assert report.ap_values[0] == 1.0
    assert report.ap_values[1:] == (0.0,) * 5
    assert report.n_evaluated == 50
    assert max(report.true_scores) == 0.0


def test_good25_matches_summation_oracle(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_scenes.good25_predictions(), layout, _scenes.CLOSURE_ONLY)
    assert abs(report.map_value - _scenes.good25_oracle_map()) <= 1e-9
    assert report.true_scores[:25] == (1.0,) * 25
    assert report.true_scores[25:] == (0.0,) * 25
    mid = sum(min(k, 25) / k for k in range(1, 51)) / 50
    for ap in report.ap_values[1:]:
        assert ap == pytest.approx(mid, abs=1e-12)


def test_eval_report_invariants(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_scenes.good25_predictions(), layout, _scenes.CLOSURE_ONLY)
    assert report.map_value == pytest.approx(np.mean(report.ap_values), abs=1e-15)
    assert all(0.0 <= ap <= 1.0 for ap in report.ap_values)
    assert list(report.ap_values) == sorted(report.ap_values, reverse=True)
    assert len(report.true_scores) == report.n_evaluated
    doc = report.as_dict()
    assert doc["map"] == report.map_value
    assert doc["n_evaluated"] == 50
    assert len(doc["ap_values"]) == len(doc["thresholds"]) == 6


def test_eval_counts_nms_suppression(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_with_copy_of_first(_scenes.perfect_predictions(), 0.99), layout, _scenes.CLOSURE_ONLY)
    assert report.n_filtered_nms == 1
    assert report.n_evaluated == 50
    assert report.map_value == 1.0


def test_eval_counts_collision_filter(sphere_world):
    layout = sphere_world
    preds = _scenes.perfect_predictions()
    # width below the sphere diameter puts the fingers inside the cloud
    squeeze = _scenes.diametral_grasp(_scenes.grid_position(0), np.array([1.0, 0.0, 0.0]))
    bad = prediction_table([GraspPose(rotation=squeeze.rotation, translation=squeeze.translation,
                                      width=0.05, depth=squeeze.depth)], [2.0], [_scenes.SPHERE_ID])
    preds = PredictionTable(np.vstack([preds.values, bad.values]), preds.object_ids + bad.object_ids)
    report = evaluate_ap(preds, layout, _scenes.CLOSURE_ONLY)
    assert report.n_filtered_collision == 1
    assert report.n_evaluated == 50
    assert report.map_value == 1.0


def test_eval_below_table_filters_everything(sphere_world):
    instances = [SceneInstance(_scenes.SPHERE_ID, np.eye(3), np.zeros(3))]
    layout = build_scene(instances, sphere_world.meshes, table_height=10.0)
    preds = _scenes.perfect_predictions()
    report = evaluate_ap(PredictionTable(preds.values[:3], preds.object_ids[:3]), layout, _scenes.CLOSURE_ONLY)
    assert report.empty_after_filtering
    assert report.map_value == 0.0
    assert report.ap_values == (0.0,) * 6
    assert report.n_evaluated == 0
    assert report.n_filtered_collision == 3


def _below_table_mask(poses, table_height, gripper=GripperModel()):
    """``scene._below_table`` on the columns of a list of ``GraspPose``."""
    bodies = gripper.collision_body(np.array([p.width for p in poses]), np.array([p.depth for p in poses]))
    return scene._below_table(*_pose_columns(poses), bodies, table_height).tolist()


def _below_table_oracle(pose, table_height, gripper=GripperModel()):
    """One grasp at a time: its lowest world box corner against the table."""
    if not np.isfinite(table_height):
        return False
    return bool(collision_box_corners(pose, gripper)[..., 2].min() < table_height)


def test_below_table_mask_matches_corner_oracle():
    rng = np.random.default_rng(52)
    poses = _grasps_near(rng, np.zeros((1, 3)), 300, spread=0.1)
    poses += [GraspPose(_at_tolerance(p.rotation, "shrink"), p.translation, p.width, p.depth) for p in poses[:50]]
    for table_height in (-0.12, -0.05, 0.0, 0.03, np.nan, np.inf, -np.inf):
        want = [_below_table_oracle(p, table_height) for p in poses]
        assert _below_table_mask(poses, table_height) == want
        if np.isfinite(table_height) and table_height > -0.1:
            assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("k", range(6))
def test_below_table_at_the_lowest_corner(k):
    """A table exactly at a grasp's lowest corner does not filter it; one
    float step higher does, one step lower does not."""
    rng = np.random.default_rng(53 + k)
    pose, = _grasps_near(rng, np.zeros((1, 3)), 1)
    if k == 1:  # a signed permutation: every corner coordinate exact
        pose = GraspPose(np.diag([1.0, -1.0, -1.0]), pose.translation, pose.width, pose.depth)
    elif k == 2:
        pose = GraspPose(_at_tolerance(pose.rotation, "shrink"), pose.translation, pose.width, pose.depth)
    lowest = float(collision_box_corners(pose, GripperModel())[..., 2].min())
    others = _grasps_near(rng, np.zeros((1, 3)), 20)
    for table_height, below in ((lowest, False), (np.nextafter(lowest, np.inf), True),
                                (np.nextafter(lowest, -np.inf), False)):
        poses = others[:k] + [pose] + others[k:]
        got = _below_table_mask(poses, table_height)
        assert got == [_below_table_oracle(p, table_height) for p in poses]
        assert got[k] == below


def test_eval_unknown_object_id(sphere_world):
    layout = sphere_world
    stray = PredictionTable(_scenes.perfect_predictions().values[:1], ("ghost",))
    with pytest.raises(UnknownObjectId):
        evaluate_ap(stray, layout, _scenes.CLOSURE_ONLY)


def test_eval_empty_predictions(sphere_world):
    layout = sphere_world
    report = evaluate_ap(_NO_PREDICTIONS, layout, _scenes.CLOSURE_ONLY)
    assert report.empty_after_filtering
    assert report.n_predictions == 0
    assert report.map_value == 0.0


# --- the config's evaluation settings reach evaluate_ap ---

def test_eval_config_nms_threshold_zero_suppresses_nothing(sphere_world):
    layout = sphere_world
    table = _with_copy_of_first(_scenes.perfect_predictions(), 0.99)
    assert evaluate_ap(table, layout, _scenes.CLOSURE_ONLY).n_filtered_nms == 1
    config = replace(_scenes.CLOSURE_ONLY, nms_trans_thresh=0.0)
    report = evaluate_ap(table, layout, config)
    assert report.n_filtered_nms == 0
    assert report.n_evaluated == 50


def test_eval_config_collision_margin_inflates_the_fingers(sphere_world):
    """The finger inner faces of a diametral pinch sit 0.035 m from the
    centre of the 0.03 m sphere; a 0.01 m margin puts the sphere inside
    the inflated fingers, so every grasp collides."""
    layout = sphere_world
    table = _scenes.perfect_predictions()
    assert evaluate_ap(table, layout, _scenes.CLOSURE_ONLY).n_filtered_collision == 0
    report = evaluate_ap(table, layout, replace(_scenes.CLOSURE_ONLY, collision_margin=0.01))
    assert report.n_filtered_collision == 50
    assert report.empty_after_filtering and report.n_evaluated == 0


def test_eval_config_score_thresholds_make_the_report(sphere_world):
    layout = sphere_world
    table = _scenes.good25_predictions()
    report = evaluate_ap(table, layout, replace(_scenes.CLOSURE_ONLY, score_thresholds=(0.25, 1.0)))
    assert report.thresholds == (0.25, 1.0)
    mid = sum(min(k, 25) / k for k in range(1, 51)) / 50
    assert report.ap_values == pytest.approx((mid, mid), abs=1e-12)
    empty = evaluate_ap(_NO_PREDICTIONS, layout,
                        replace(_scenes.CLOSURE_ONLY, score_thresholds=(0.5,)))
    assert empty.thresholds == (0.5,) and empty.ap_values == (0.0,)


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


@pytest.mark.parametrize("height", [float("inf"), float("-inf")])
def test_scene_json_infinite_table_height(tmp_path, height):
    doc = _scene_doc()
    doc["table_height"] = height
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="table_height must be finite") as err:
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

def _shortlists(cloud, poses, gripper, margin, generator=scene._collision_shortlists):
    """``scene._collision_shortlists`` (or its oracle) on the columns of a list of ``GraspPose``."""
    bodies = np.array([gripper.collision_body(p.width, p.depth) for p in poses]).reshape(-1, 3, 2, 3)
    return generator(cloud, *_pose_columns(poses), bodies, margin)


def _within_range(cloud, pose, gripper, margin, bound=1e100):
    """Whether the cloud, the pose's translation and its inflated boxes all
    lie within ``bound`` of the origin (NaN does not)."""
    boxes = gripper.collision_body(pose.width, pose.depth)
    values = np.concatenate([np.ravel(cloud), pose.translation, np.ravel(boxes - margin), np.ravel(boxes + margin)])
    return bool((np.abs(values) < bound).all())


def _collision_verdicts(cloud, poses, gripper=GripperModel(), margin=0.001):
    """Broad-phase verdicts next to the all-points ones, per pose.

    Each shortlist is checked as the evidence for its verdict: its points,
    sorted and without repeats, are each inside by ``gripper_collides`` on
    that one point, and it is empty exactly when no cloud point is inside.
    It may be None (the whole cloud) only for a body, pose or cloud not
    well within float range. It is None, or empty, exactly when the
    nearest-32 generator's (``conftest.nearest_shortlists``) is.
    """
    got, want = [], []
    shortlists = list(_shortlists(cloud, poses, gripper, margin))
    oracle = list(_shortlists(cloud, poses, gripper, margin, nearest_shortlists))
    assert len(shortlists) == len(oracle) == len(poses)
    for pose, shortlist, old in zip(poses, shortlists, oracle):
        collides = gripper_collides(cloud, *pose_fields(pose), gripper, margin)
        assert (shortlist is None) == (old is None)
        if shortlist is None:
            assert not _within_range(cloud, pose, gripper, margin)
            points = cloud
        else:
            assert shortlist.dtype == np.intp
            assert np.all(np.diff(shortlist) > 0)  # sorted, no repeats
            assert all(gripper_collides(cloud[i], *pose_fields(pose), gripper, margin) for i in shortlist)
            assert (len(shortlist) > 0) == (len(old) > 0) == collides
            points = cloud[shortlist]
        got.append(gripper_collides(points, *pose_fields(pose), gripper, margin))
        want.append(collides)
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
    return build_scene(instances, library, table_height=0.0)


@pytest.mark.parametrize("margin", [0.001, 0.0])
def test_collision_shortlists_match_all_points(clutter, margin):
    layout = clutter
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
    assert all(len(s) == 0 for s in _shortlists(cloud, poses, GripperModel(), 0.001))


@pytest.mark.parametrize("n_points", [1, 2, 5, 31, 32, 33])
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
def test_collision_unusable_body_tests_whole_cloud(width, margin, tree_calls):
    rng = np.random.default_rng(47)
    cloud = rng.uniform(-0.05, 0.05, (300, 3))
    poses = [GraspPose(rotation=p.rotation, translation=p.translation, width=width, depth=p.depth)
             for p in _grasps_near(rng, np.zeros((1, 3)), 20, spread=0.05)]
    shortlists = list(_shortlists(cloud, poses, GripperModel(), margin))
    assert shortlists == [None] * len(poses)
    assert tree_calls["balls"] == [0]  # no ball is open for the cover
    got, want = _collision_verdicts(cloud, poses, margin=margin)
    assert got == want


def test_collision_grasps_posed_near_the_float_limit(clutter):
    """Grasps whose translation is finite but whose distances to the cloud
    overflow, among ordinary ones: each gets the whole cloud's verdict."""
    layout = clutter
    rng = np.random.default_rng(52)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = _grasps_near(rng, centers, 60)
    far = [(0.0, 1e308, 0.0), (1e308, -1e308, 1e308), (0.0, -1e308, 0.0), (1e160, 0.0, -1e160)]
    for k, t in enumerate(far):
        pose = poses[10 * k]
        poses[10 * k] = GraspPose(pose.rotation, np.array(t), pose.width, pose.depth)
    got, want = _collision_verdicts(layout.scene_cloud, poses)
    assert got == want
    assert not any(want[::10][:len(far)]) and any(want)


def _at_tolerance(rotation, kind):
    """Move a rotation to the edge of what GraspPose accepts."""
    if kind == "shear":  # off-diagonal of R^T R near atol = 1e-8
        sym = np.array([[0.0, 4e-9, -4e-9], [4e-9, 0.0, 4e-9], [-4e-9, 4e-9, 0.0]])
        return rotation @ (np.eye(3) + sym)
    # diagonal of R^T R near 1 - 1e-5, which allclose's rtol still accepts
    return rotation * (1.0 - 4.9e-6)


@pytest.mark.parametrize("kind", ["shear", "shrink"])
def test_collision_rotations_at_tolerance(clutter, kind):
    layout = clutter
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
    assert not gripper_collides(cloud[:-1], *pose_fields(pose), gripper, 0.001)
    got, want = _collision_verdicts(cloud, [pose], gripper)
    assert want == [True]
    assert got == want


# --- the ball cover of the collision broad phase ---

def _cover_probes(lo, hi):
    """Gripper-frame points on the cover's seams: the corners of each cut
    between two pieces of a box and the box's own corners (the ends of the
    cut), each as given, one float step out of the box and one step in."""
    probes = []
    for l, h in zip(lo, hi):
        extent = h - l
        axis = int(np.argmax(extent))
        u, v = [a for a in range(3) if a != axis]
        pieces = int(np.ceil(extent[axis] / np.sort(extent)[1]))
        centre = (l + h) / 2.0
        for p in range(pieces + 1):
            for cu in (l[u], h[u]):
                for cv in (l[v], h[v]):
                    q = np.empty(3)
                    q[axis], q[u], q[v] = l[axis] + p * extent[axis] / pieces if p < pieces else h[axis], cu, cv
                    away = np.where(q >= centre, np.inf, -np.inf)
                    probes += [q, np.nextafter(q, away), np.nextafter(q, -away)]
    return np.array(probes)


def _decoys(rng, lo, hi, per_box=32 + 8):
    """Gripper-frame points just outside the face of each box nearest its
    centre, outside every box: nearer each box centre than any probe, so
    the nearest-32 oracle's pre-test decides nothing and its cover must.
    No probe lies within half a box side of a ball centre, so the cover
    decides in ``_collision_shortlists`` too."""
    decoys = []
    for l, h in zip(lo, hi):
        half = (h - l) / 2.0
        thin = int(np.argmin(half))
        points = (l + h) / 2.0 + rng.uniform(-0.1, 0.1, (per_box, 3)) * half
        points[:, thin] = h[thin] + 0.01 * half[thin]
        decoys.append(points)
    decoys = np.vstack(decoys)
    inside = ((decoys[:, None] >= lo - 1e-9) & (decoys[:, None] <= hi + 1e-9)).all(axis=2).any(axis=1)
    return decoys[~inside]


def _assert_cover_cases(pose, gripper, margin, exact=False):
    """Each probe, next to the decoys, gets the whole cloud's verdict."""
    boxes = gripper.collision_body(pose.width, pose.depth)
    lo, hi = boxes[:, 0] - margin, boxes[:, 1] + margin
    decoys = _decoys(np.random.default_rng(49), lo, hi)
    assert len(decoys) >= 3 * 32

    def to_world(local):
        if exact:  # a signed permutation and no translation: bit for bit
            return local @ pose.rotation.T
        return np.linalg.solve(pose.rotation.T, local.T).T + pose.translation

    clear = to_world(decoys)
    assert not gripper_collides(clear, *pose_fields(pose), gripper, margin)
    verdicts = []
    for probe in _cover_probes(lo, hi):
        got, want = _collision_verdicts(np.vstack([clear, to_world(probe[None])]), [pose], gripper, margin)
        assert got == want
        verdicts += want
    if exact:  # on or one step inside a box face: inside
        assert verdicts[0::3] == verdicts[2::3] == [True] * (len(verdicts) // 3)
    assert True in verdicts


@pytest.mark.parametrize("margin", [0.001, 0.0])
@pytest.mark.parametrize("kind", ["xyz", "zxy", "flip_yz", "shrink", "grow", "shear"])
def test_collision_points_on_cover_seams_and_corners(margin, kind):
    gripper = GripperModel()
    exact = {"xyz": np.eye(3), "zxy": np.eye(3)[[2, 0, 1]], "flip_yz": np.diag([1.0, -1.0, -1.0])}
    if kind in exact:
        rotation, translation = exact[kind], np.zeros(3)
    else:
        rotation = Rotation.from_euler("xyz", [20, -35, 50], degrees=True).as_matrix()
        rotation = rotation * (1.0 + 4.9e-6) if kind == "grow" else _at_tolerance(rotation, kind)
        translation = np.array([0.1, -0.2, 0.3])
    pose = GraspPose(rotation=rotation, translation=translation, width=0.05, depth=0.02)
    _assert_cover_cases(pose, gripper, margin, exact=kind in exact)


class _SlabGripper(GripperModel):
    """Collision boxes that are thin slabs, their two short sides 100x apart."""

    def collision_body(self, width, depth):
        return np.array([
            [[-0.05, -0.005, -0.00005], [0.05, 0.005, 0.00005]],
            [[0.02, -0.05, 0.01], [0.0201, 0.05, 0.02]],
            [[-0.03, 0.02, -0.04], [-0.02, 0.0201, 0.06]],
        ])


@pytest.mark.parametrize("kind", ["exact", "turned", "grow"])
def test_collision_thin_slabs_under_the_cover(kind):
    rotation = Rotation.from_euler("xyz", [-40, 15, 70], degrees=True).as_matrix()
    if kind == "exact":
        rotation = np.diag([1.0, -1.0, -1.0])
    elif kind == "grow":
        rotation = rotation * (1.0 + 4.9e-6)
    pose = GraspPose(rotation=rotation, translation=np.zeros(3) if kind == "exact" else np.array([0.3, 0.1, -0.2]),
                     width=0.05, depth=0.02)
    for margin in (0.0, 1e-6):
        _assert_cover_cases(pose, _SlabGripper(), margin, exact=kind == "exact")


def test_collision_clear_grasp_gets_an_empty_shortlist():
    gripper = GripperModel()
    pose = GraspPose(rotation=random_rotation(np.random.default_rng(50)), translation=np.array([0.1, 0.0, 0.2]),
                     width=0.05, depth=0.02)
    boxes = gripper.collision_body(pose.width, pose.depth)
    lo, hi = boxes[:, 0] - 0.001, boxes[:, 1] + 0.001
    decoys = _decoys(np.random.default_rng(51), lo, hi)
    cloud = np.vstack([decoys @ pose.rotation.T + pose.translation, [[5.0, 5.0, 5.0]]])
    shortlist, = _shortlists(cloud, [pose], gripper, 0.001)
    assert shortlist is not None and shortlist.dtype == np.intp and len(shortlist) == 0
    assert not gripper_collides(cloud, *pose_fields(pose), gripper, 0.001)


# --- the nearest-point pre-test of the collision broad phase ---

def test_collision_shortlists_match_the_nearest_32_oracle(clutter):
    """The NMS survivors of an eval-clutter op, in size: the verdicts of
    the generator the pre-test replaced, most settled by one point."""
    layout = clutter
    cloud, gripper = layout.scene_cloud, GripperModel()
    rng = np.random.default_rng(48)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = _grasps_near(rng, centers, 1650)
    shortlists = list(_shortlists(cloud, poses, gripper, 0.001))
    oracle = list(_shortlists(cloud, poses, gripper, 0.001, nearest_shortlists))
    # the whole cloud's verdicts, from the points within each body's
    # bounding ball (an accepted rotation scales lengths by under 1e-5)
    want = []
    for pose in poses:
        reach = np.linalg.norm(np.abs(gripper.collision_body(pose.width, pose.depth)) + 0.001, axis=-1).max()
        near = cloud[np.linalg.norm(cloud - pose.translation, axis=1) <= reach * (1.0 + 1e-4)]
        want.append(gripper_collides(near, *pose_fields(pose), gripper, 0.001))
    for pose, shortlist, old, collides in zip(poses, shortlists, oracle, want):
        assert np.all(np.diff(shortlist) > 0)
        assert (len(shortlist) > 0) == (len(old) > 0) == collides
        assert all(gripper_collides(cloud[i], *pose_fields(pose), gripper, 0.001) for i in shortlist)
    assert 0 < sum(want) < len(want)
    assert sum(len(s) == 1 for s in shortlists) > 0.8 * sum(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_collision_pre_test_bound_comes_from_finite_sides(clutter, tree_calls, bad):
    """Grasps with a non-finite box side, in a chunk of ordinary ones, get
    the whole cloud; the others keep a finite bound and their verdicts."""
    layout = clutter
    rng = np.random.default_rng(53)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = _grasps_near(rng, centers, 40)
    rotations, translations = _pose_columns(poses)
    gripper = GripperModel()
    bodies = np.array([gripper.collision_body(p.width, p.depth) for p in poses])
    bodies[0, 2, 1, 0] = bad  # one side of the palm
    bodies[1] = bad  # every side
    bodies[2, :, 0, 1] = -bad  # lo on y
    shortlists = list(scene._collision_shortlists(layout.scene_cloud, rotations, translations, bodies, 0.001))
    oracle = list(nearest_shortlists(layout.scene_cloud, rotations, translations, bodies, 0.001))
    assert shortlists[:3] == oracle[:3] == [None] * 3
    sides = (bodies[3:, :, 1] - bodies[3:, :, 0] + 0.002).min()
    assert tree_calls["bounds"] == [pytest.approx(sides / 2.0, rel=1e-9)]
    for pose, shortlist, old in zip(poses[3:], shortlists[3:], oracle[3:]):
        collides = gripper_collides(layout.scene_cloud, *pose_fields(pose), gripper, 0.001)
        assert (len(shortlist) > 0) == (len(old) > 0) == collides
    assert any(len(s) > 0 for s in shortlists[3:])


# A gripper whose sizes, poses and box centres are exact in binary: fingers
# 2**-7 thick and 2**-4 long, opened 2**-4 at a depth of 2**-6, so the
# pre-test's bound is 2**-8, half a finger's thickness.
_DYADIC = GripperModel(max_width=0.125, finger_length=2.0**-4, finger_thickness=2.0**-7)
_DYADIC_POSE = GraspPose(rotation=np.eye(3), translation=np.zeros(3), width=2.0**-4, depth=2.0**-6)


@pytest.mark.parametrize("where", ["centre", "corner", "outside"])
def test_collision_cloud_of_one_point(where, tree_calls):
    """A one-point cloud: at a ball centre the pre-test settles it, at a box
    corner the cover must, and outside every box the shortlist is empty."""
    lo, hi = _DYADIC.collision_body(_DYADIC_POSE.width, _DYADIC_POSE.depth)[1]
    point = {"centre": [(lo[0] + hi[0]) / 2.0, 0.0, hi[2] - 2.0**-8],
             "corner": hi, "outside": hi + 2.0**-10}[where]
    cloud = np.array([point])
    got, want = _collision_verdicts(cloud, [_DYADIC_POSE], _DYADIC, 0.0)
    assert got == want == [where != "outside"]
    tree_calls["balls"].clear()
    shortlist, = _shortlists(cloud, [_DYADIC_POSE], _DYADIC, 0.0)
    assert shortlist.tolist() == ([0] if want[0] else [])
    boxes = _DYADIC.collision_body(_DYADIC_POSE.width, _DYADIC_POSE.depth)
    n_balls = len(scene._ball_cover(np.eye(3)[None], np.zeros((1, 3)), boxes[None, :, 0], boxes[None, :, 1])[0])
    assert tree_calls["balls"] == [0 if where == "centre" else n_balls]


@pytest.mark.parametrize("step", ["in", "on", "out"])
def test_collision_cloud_point_at_the_bound_from_a_ball_centre(step, tree_calls):
    """A point 2**-8 (the bound) from a finger ball's centre along the
    closing axis lies on the finger's outer face; one float step nearer it
    is inside and the pre-test settles it, one step farther it is clear."""
    lo, hi = _DYADIC.collision_body(_DYADIC_POSE.width, _DYADIC_POSE.depth)[1]
    centre = np.array([(lo[0] + hi[0]) / 2.0, 0.0, lo[2] + 2.0**-8])
    assert hi[0] - centre[0] == 2.0**-8
    point = centre + [2.0**-8, 0.0, 0.0]
    point[0] = {"in": np.nextafter(point[0], 0.0), "on": point[0], "out": np.nextafter(point[0], 1.0)}[step]
    cloud = np.vstack([point, [[5.0, 5.0, 5.0]]])
    got, want = _collision_verdicts(cloud, [_DYADIC_POSE], _DYADIC, 0.0)
    assert got == want == [step != "out"]
    assert tree_calls["bounds"][0] == 2.0**-8
    if step == "in":
        assert tree_calls["balls"][0] == 0


def test_collision_nearest_point_outside_leaves_the_grasp_to_the_cover(tree_calls):
    """The point nearest a fingertip ball's centre lies within the bound but
    beyond the fingertip, outside every box; a point just inside a palm
    corner, farther than the bound from every ball centre, decides."""
    gripper = GripperModel()
    pose = GraspPose(rotation=Rotation.from_euler("xyz", [30, -20, 110], degrees=True).as_matrix(),
                     translation=np.array([0.2, 0.1, -0.3]), width=0.05, depth=0.02)
    boxes = gripper.collision_body(pose.width, pose.depth)
    lo, hi = boxes[:, 0] - 0.001, boxes[:, 1] + 0.001
    inner = (hi - lo).min() / 2.0
    tip = np.array([(lo[1, 0] + hi[1, 0]) / 2.0, 0.0, hi[1, 2] + 2e-4])
    corner = lo[2] + 1e-6
    cloud = np.linalg.solve(pose.rotation.T, np.array([tip, corner]).T).T + pose.translation

    _, world, _ = scene._ball_cover(pose.rotation[None], pose.translation[None], lo[None], hi[None])
    distance = np.linalg.norm(world[:, None] - cloud, axis=2)
    assert distance[:, 0].min() < inner < distance[:, 1].min()
    assert not gripper_collides(cloud[:1], *pose_fields(pose), gripper, 0.001)
    got, want = _collision_verdicts(cloud, [pose], gripper)
    assert got == want == [True]
    shortlist, = _shortlists(cloud, [pose], gripper, 0.001)
    assert shortlist.tolist() == [1]
    assert tree_calls["balls"][0] == len(world)


# Gathering a rotation and the boxes for every (grasp, point) pair of one
# ball around each grasp's union box peaks near 29 MiB on this input.
_COLLISION_PEAK_BOUND = 8 * 2**20


def test_collision_shortlists_memory_is_bounded(clutter):
    layout = clutter
    rng = np.random.default_rng(48)
    centers = np.array([inst.translation for inst in layout.instances])
    poses = _grasps_near(rng, centers, 1650)  # the NMS survivors of an eval-clutter op
    tracemalloc.start()
    try:
        lengths = [-1 if s is None else len(s)
                   for s in _shortlists(layout.scene_cloud, poses, GripperModel(), 0.001)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lengths) == len(poses) and 0 < lengths.count(0) < len(poses)
    assert peak < _COLLISION_PEAK_BOUND


@pytest.fixture(scope="module")
def one_sphere_group():
    """One turned and shifted sphere with six grasps on it: three diametral
    pinches, two chord pinches and, ranked third, a diametral pinch moved
    5 cm along its finger axis so that its closing line misses the sphere.
    All six survive NMS and the collision filter."""
    center = np.array([0.1, -0.05, 0.02])
    inst = SceneInstance(_scenes.SPHERE_ID, random_rotation(np.random.default_rng(3)), center)
    layout = build_scene([inst], _scenes.sphere_library(), table_height=_scenes.TABLE_HEIGHT)
    poses = [_scenes.diametral_grasp(center, view) for view in generate_views(4)]
    miss = poses[2]
    poses[2] = GraspPose(miss.rotation, miss.translation + 0.05 * miss.rotation[:, 1], miss.width, miss.depth)
    poses += [_scenes.chord_grasp(center, phi) for phi in (0.3, 1.5)]
    table = prediction_table(poses, [0.9 - 0.1 * i for i in range(len(poses))], [_scenes.SPHERE_ID] * len(poses))
    return layout, inst, poses, table


def test_eval_scores_match_per_grasp_oracle_under_default_weights(one_sphere_group):
    layout, inst, poses, table = one_sphere_group
    report = evaluate_ap(table, layout)
    assert (report.n_evaluated, report.n_filtered_nms, report.n_filtered_collision) == (len(poses), 0, 0)

    # Per grasp: the pose in the object frame, a one-line contacts_on_lines
    # and a one-row score_contacts; then combine_scores over the resolvable
    # ones.
    mesh = layout.meshes[_scenes.SPHERE_ID]
    index = SpatialIndex.from_mesh(mesh)
    gravity_center = mass_properties(mesh).gravity_center
    resolved, rows = [], []
    for i, pose in enumerate(poses):
        local = GraspPose(inst.rotation.T @ pose.rotation, inst.rotation.T @ (pose.translation - inst.translation),
                          pose.width, pose.depth)
        contacts = one_line_contacts(mesh, local)
        if len(contacts.p_cl):
            resolved.append(i)
            rows.append([c[0] for c in score_contacts(contacts, index, gravity_center)])
    s_t, _, _, s_f, s_g_raw, s_c_raw = np.array(rows).T
    want = np.zeros(len(poses))
    want[resolved] = combine_scores(s_t, s_f, s_g_raw, s_c_raw)[2]

    assert resolved == [0, 1, 3, 4, 5]
    assert report.true_scores == tuple(want.tolist())
    # every term moves the hybrid: closure levels differ, and the gravity and
    # clearance columns are not constant, so normalization is in play
    assert len(set(s_t)) > 1 and np.ptp(s_g_raw) > 0 and np.ptp(s_c_raw) > 0
    assert len(set(report.true_scores)) == len(poses)


def test_evaluate_ap_scores_through_the_label_path(one_sphere_group, monkeypatch):
    layout, _, poses, table = one_sphere_group
    calls = []

    def spy(original, rows):
        def wrapped(*args, **kwargs):
            calls.append((original.__name__, rows(args[0])))
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scene, "score_contacts", spy(metrics.score_contacts, lambda c: len(c.p_cl)))
    monkeypatch.setattr(scene, "combine_scores", spy(metrics.combine_scores, len))
    report = evaluate_ap(table, layout)
    # one group: its five resolvable grasps are scored and combined together
    assert calls == [("score_contacts", 5), ("combine_scores", 5)]
    assert report.n_evaluated == len(poses)


def test_evaluate_ap_normalizes_per_instance_and_indexes_each_object_once(icosphere, monkeypatch):
    """Two instances of one sphere and one of another id, two grasps on
    each, ranked so the groups interleave: three normalization groups, one
    ``SpatialIndex`` per object id, and each group scores as it would alone."""
    centers = [_scenes.grid_position(i) for i in range(3)]
    ids = [_scenes.SPHERE_ID, "ball", _scenes.SPHERE_ID]
    library = {**_scenes.sphere_library(), "ball": icosphere}
    instances = [SceneInstance(oid, np.eye(3), c) for oid, c in zip(ids, centers)]
    layout = build_scene(instances, library, table_height=_scenes.TABLE_HEIGHT)
    views = generate_views(6)
    poses = [_scenes.diametral_grasp(centers[i % 3], views[i]) for i in range(6)]
    poses[4] = _scenes.chord_grasp(centers[1], 0.7)
    preds = prediction_table(poses, [0.9 - 0.1 * i for i in range(6)], [ids[i % 3] for i in range(6)])

    indexed, groups = [], []
    from_mesh = SpatialIndex.from_mesh

    def counting_index(cls, mesh):
        indexed.append(mesh)
        return from_mesh(mesh)

    def counting_combine(*args, **kwargs):
        groups.append(len(args[0]))
        return metrics.combine_scores(*args, **kwargs)

    monkeypatch.setattr(SpatialIndex, "from_mesh", classmethod(counting_index))
    monkeypatch.setattr(scene, "combine_scores", counting_combine)
    report = evaluate_ap(preds, layout)
    assert report.n_evaluated == 6 and groups == [2, 2, 2]
    assert len(indexed) == 2 and {id(m) for m in indexed} == {id(layout.meshes[oid]) for oid in set(ids)}

    for k, inst in enumerate(instances):
        alone = build_scene([inst], library, table_height=_scenes.TABLE_HEIGHT)
        rows = [i for i in range(6) if i % 3 == k]
        alone_preds = PredictionTable(preds.values[rows], [preds.object_ids[i] for i in rows])
        want = evaluate_ap(alone_preds, alone).true_scores
        assert tuple(report.true_scores[i] for i in rows) == want
    assert len(set(report.true_scores)) > 2


# --- evaluate_ap against the exhaustive filters ---

def _clutter_predictions(layout, n=700, seed=44):
    rng = np.random.default_rng(seed)
    centers = np.array([inst.translation for inst in layout.instances])
    ids = [inst.object_id for inst in layout.instances]
    poses, scores, object_ids = _grasps_near(rng, centers, n), [], []
    for pose in poses:
        nearest = int(np.argmin(np.linalg.norm(centers - pose.center, axis=1)))
        object_ids.append(ids[nearest] if rng.random() < 0.5 else None)
        scores.append(float(rng.choice(np.linspace(0, 1, 40))))
    table = prediction_table(poses, scores, object_ids)
    return PredictionTable(np.vstack([table.values, table.values[:50]]), table.object_ids + table.object_ids[:50])


def _all_points(cloud, rotations, translations, bodies, margin):
    for _ in rotations:
        yield None


def test_evaluate_ap_matches_exhaustive_filters(clutter, monkeypatch):
    layout = clutter
    preds = _clutter_predictions(layout)
    got = evaluate_ap(preds, layout).as_dict()

    monkeypatch.setattr(scene, "_collision_shortlists", _all_points)
    monkeypatch.setattr(scene, "grasp_nms",
                        lambda *args: np.asarray(_nms_exhaustive(*args), dtype=np.int64))
    want = evaluate_ap(preds, layout).as_dict()
    assert got == want
    assert want["n_filtered_nms"] > 50 and want["n_filtered_collision"] > 0 and want["n_evaluated"] > 0


def test_evaluate_ap_tests_each_nms_survivor_once(clutter, monkeypatch):
    layout = clutter
    preds = _clutter_predictions(layout, n=300, seed=45)
    calls = []

    def counting(points, rotation, translation, width, depth, gripper, margin):
        calls.append((rotation, translation, width, depth))
        return gripper_collides(points, rotation, translation, width, depth, gripper, margin)

    monkeypatch.setattr(scene, "gripper_collides", counting)
    report = evaluate_ap(preds, layout)
    kept = grasp_nms(preds.rotations, preds.translations, preds.scores)
    assert 0 < report.n_filtered_nms and len(calls) == len(kept)

    # the arguments are the table's rows of the kept grasps, in visit order, bit for bit
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64)

    assert all(np.shape(c[0]) == (3, 3) and np.shape(c[1]) == (3,) for c in calls)
    assert np.array_equal(bits([c[0] for c in calls]), bits(preds.rotations[kept]))
    assert np.array_equal(bits([c[1] for c in calls]), bits(preds.translations[kept]))
    assert np.array_equal(bits([c[2] for c in calls]), bits(preds.values[kept, 12]))
    assert np.array_equal(bits([c[3] for c in calls]), bits(preds.values[kept, 13]))


def test_evaluate_ap_poses_each_instance_once(clutter, monkeypatch):
    layout = clutter
    preds = _clutter_predictions(layout, n=300, seed=46)
    posed = []
    original = geometry.transform_points

    def counting(points, rotation, translation):
        posed.append(id(rotation))
        return original(points, rotation, translation)

    monkeypatch.setattr(geometry, "transform_points", counting)
    report = evaluate_ap(preds, layout)
    assert report.n_evaluated > 1
    assert len(posed) == len(set(posed)) <= len(layout.instances)
