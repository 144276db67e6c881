import numpy as np
import pytest

from graspscore import (
    GraspPose,
    MetricWeights,
    SpatialIndex,
    combine_scores,
    neighborhood_normal_consistency,
    score_contacts,
)
from graspscore.gripper import ContactArrays
from graspscore.labels import LABEL_COLUMNS
from graspscore.metrics import SCORE_COLUMNS

from conftest import one_line_contacts

# Raw score columns returned by score_contacts.
_S_T, _S_F1, _S_F2, _S_F, _S_G_RAW, _S_C_RAW = range(6)


def _two_plane_index(gap=0.02, step=0.002, half=0.01):
    xs = np.arange(-half, half + step / 2, step)
    xy = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    bottom = np.column_stack([xy, np.zeros(len(xy))])
    top = np.column_stack([xy, np.full(len(xy), gap)])
    points = np.vstack([bottom, top])
    normals = np.vstack([
        np.tile([0.0, 0.0, -1.0], (len(bottom), 1)),
        np.tile([0.0, 0.0, 1.0], (len(top), 1)),
    ])
    return SpatialIndex(points, normals), gap


def _contacts(p_cl, p_cr, v_ql, v_qr, v_a, p_el, p_er):
    """One-row ContactArrays from 3-vectors."""
    return ContactArrays(*(np.asarray(v, dtype=float).reshape(1, 3)
                           for v in (p_cl, p_cr, v_ql, v_qr, v_a, p_el, p_er)))


def _pinch(gap, v_ql=(0.0, 0.0, -1.0), v_qr=(0.0, 0.0, 1.0)):
    return _contacts(p_cl=[0.0, 0.0, 0.0], p_cr=[0.0, 0.0, gap], v_ql=v_ql, v_qr=v_qr,
                     v_a=[0.0, 0.0, 1.0], p_el=[0.0, 0.0, -0.005], p_er=[0.0, 0.0, gap + 0.005])


def _scores(contacts, index=None, gravity_center=np.zeros(3)):
    if index is None:
        index, _ = _two_plane_index()
    return [float(col[0]) for col in score_contacts(contacts, index, gravity_center)]


def test_flat_patch_scores_perfectly():
    index, gap = _two_plane_index()
    s = _scores(_pinch(gap), index)
    assert s[_S_F1] == 1.0
    assert s[_S_F2] == 1.0
    assert s[_S_F] == 1.0


def test_grazing_contact_has_zero_alignment():
    index, gap = _two_plane_index()
    s = _scores(_pinch(gap, v_ql=(1.0, 0.0, 0.0), v_qr=(1.0, 0.0, 0.0)), index)
    assert s[_S_F2] == 0.0
    assert s[_S_F] == 0.0


def test_consistency_clamps_opposing_normals():
    index, _ = _two_plane_index()
    got = neighborhood_normal_consistency(
        np.array([[0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]), index, k=10)
    assert got.shape == (1,)
    assert got[0] == 0.0


def _oracle_knn_rows(points, query, k):
    d = np.linalg.norm(points - query, axis=1)
    return np.lexsort((np.arange(len(points)), d))[:k]


def test_flatness_matches_bruteforce_on_sphere(icosphere):
    index = SpatialIndex.from_mesh(icosphere)
    rot = np.column_stack([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    pose = GraspPose(rotation=rot, translation=np.array([0.0, 0.0, 0.03]),
                     width=0.07, depth=0.03)
    contacts = one_line_contacts(icosphere, pose)
    assert len(contacts.p_cl) == 1
    s = _scores(contacts, index)
    frame = contacts.frame(0)

    acc = 0.0
    for p, n in ((frame.p_cl, frame.v_ql), (frame.p_cr, frame.v_qr)):
        rows = _oracle_knn_rows(index.points, p, 10)
        acc += np.clip(np.mean(index.normals[rows] @ n), 0.0, 1.0)
    assert s[_S_F1] == pytest.approx(acc / 2.0, abs=1e-9)
    assert s[_S_F2] > 0.999
    assert s[_S_F] == pytest.approx(s[_S_F1] * s[_S_F2], abs=1e-12)


def test_gravity_distance_examples():
    level = _contacts(p_cl=[-1.0, 0.0, 0.0], p_cr=[1.0, 0.0, 0.0],
                      v_ql=[-1.0, 0.0, 0.0], v_qr=[1.0, 0.0, 0.0], v_a=[1.0, 0.0, 0.0],
                      p_el=[-1.1, 0.0, 0.0], p_er=[1.1, 0.0, 0.0])
    assert _scores(level)[_S_G_RAW] < 1e-12
    lifted = level._replace(p_cl=np.array([[-1.0, 0.0, 1.0]]), p_cr=np.array([[1.0, 0.0, 1.0]]))
    assert _scores(lifted)[_S_G_RAW] == pytest.approx(1.0, abs=1e-12)


def test_gravity_matches_projection_oracle():
    rng = np.random.default_rng(17)
    p_cl = rng.uniform(-1, 1, (200, 3))
    p_cr = rng.uniform(-1, 1, (200, 3))
    keep = np.linalg.norm(p_cr - p_cl, axis=1) >= 1e-3
    p_cl, p_cr = p_cl[keep], p_cr[keep]
    v_a = (p_cr - p_cl) / np.linalg.norm(p_cr - p_cl, axis=1, keepdims=True)
    contacts = ContactArrays(p_cl, p_cr, -v_a, v_a, v_a, p_cl - 0.01 * v_a, p_cr + 0.01 * v_a)
    gc = rng.uniform(-1, 1, 3)
    index, _ = _two_plane_index()
    got = score_contacts(contacts, index, gc)[_S_G_RAW]
    rel = gc - p_cl
    want = np.linalg.norm(rel - np.einsum("ij,ij->i", rel, v_a)[:, None] * v_a, axis=1)
    assert got == pytest.approx(want, abs=1e-9)


def test_collision_score_takes_worse_side():
    loose = _contacts(p_cl=[-0.02, 0.0, 0.0], p_cr=[0.02, 0.0, 0.0],
                      v_ql=[-1.0, 0.0, 0.0], v_qr=[1.0, 0.0, 0.0], v_a=[1.0, 0.0, 0.0],
                      p_el=[-0.025, 0.0, 0.0], p_er=[0.023, 0.0, 0.0])
    assert _scores(loose)[_S_C_RAW] == pytest.approx(0.003, abs=1e-12)
    snug = loose._replace(p_el=loose.p_cl, p_er=loose.p_cr)
    assert _scores(snug)[_S_C_RAW] == 0.0


def _combine(s_t=(0.5,), s_f=(0.5,), g_raw=(0.01,), c_raw=(0.002,), weights=MetricWeights()):
    columns = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (s_t, s_f, g_raw, c_raw)))
    return combine_scores(*columns, weights)


def test_single_candidate_normalization():
    s_g, s_c, hybrid = _combine(s_t=[1.0], s_f=[0.5])
    assert s_g.tolist() == [1.0]
    assert s_c.tolist() == [0.0]
    assert hybrid[0] == pytest.approx(0.7 + 0.2 * 0.5 + 0.05, abs=1e-12)


def test_normalization_conventions():
    s_g, s_c, hybrid = _combine(g_raw=[0.0, 1.0, 3.0], c_raw=2.0,
                                weights=MetricWeights(0.0, 0.0, 1.0, 0.0))
    assert s_g.tolist() == pytest.approx([1.0, 2.0 / 3.0, 0.0])
    assert s_c.tolist() == [0.0, 0.0, 0.0]
    assert hybrid.tolist() == s_g.tolist()


def test_closure_only_weights_pass_through():
    _, _, hybrid = _combine(s_t=[0.0, 0.3, 1.0], weights=MetricWeights(1.0, 0.0, 0.0, 0.0))
    assert hybrid.tolist() == [0.0, 0.3, 1.0]


def test_gravity_weight_separates_extremes():
    _, _, hybrid = _combine(g_raw=[0.0, 0.04])
    assert hybrid[0] - hybrid[1] == pytest.approx(0.05, abs=1e-12)


def test_normalized_terms_are_monotone():
    s_g, s_c, _ = _combine(g_raw=[0.0, 0.01, 0.02, 0.05], c_raw=[0.0, 0.001, 0.004, 0.01])
    assert s_g.tolist() == sorted(s_g.tolist(), reverse=True)
    assert s_c.tolist() == sorted(s_c.tolist())
    assert ((0.0 <= s_g) & (s_g <= 1.0) & (0.0 <= s_c) & (s_c <= 1.0)).all()


def test_inputs_not_modified():
    g_raw = np.array([0.01, 0.03])
    c_raw = np.array([0.002, 0.002])
    _combine(g_raw=g_raw, c_raw=c_raw)
    assert g_raw.tolist() == [0.01, 0.03]
    assert c_raw.tolist() == [0.002, 0.002]


def test_empty_batch():
    empty = np.zeros(0)
    assert all(col.shape == (0,) for col in combine_scores(empty, empty, empty, empty))
    no_contacts = ContactArrays(*(np.zeros((0, 3)) for _ in ContactArrays._fields))
    index, _ = _two_plane_index()
    assert all(col.shape == (0,) for col in score_contacts(no_contacts, index, np.zeros(3)))


def test_weights_validation():
    with pytest.raises(ValueError):
        MetricWeights(0.7, 0.2, 0.05, 0.1)
    with pytest.raises(ValueError):
        MetricWeights(-0.1, 0.9, 0.1, 0.1)
    assert MetricWeights.parse("0.7,0.2,0.05,0.05") == MetricWeights()
    assert MetricWeights.parse("1,0,0,0").lambda_t == 1.0
    with pytest.raises(ValueError):
        MetricWeights.parse("0.5,0.5")
    with pytest.raises(ValueError):
        MetricWeights.parse("0.5,0.5,0.5,0.5")


@pytest.mark.parametrize("weights", [
    (float("nan"), 0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, float("nan")),
    (float("inf"), 0.0, 0.0, 1.0),
    (float("inf"), float("-inf"), 0.0, 1.0),
])
def test_weights_reject_non_finite(weights):
    with pytest.raises(ValueError, match="finite"):
        MetricWeights(*weights)
    with pytest.raises(ValueError, match="finite"):
        MetricWeights.parse(",".join(map(str, weights)))


def test_score_columns_order():
    assert SCORE_COLUMNS == ("s_t", "s_f1", "s_f2", "s_f", "s_g_raw", "s_g", "s_c_raw", "s_c", "s_hybrid")
    assert LABEL_COLUMNS[-len(SCORE_COLUMNS):] == SCORE_COLUMNS
