import numpy as np
import pytest

from graspscore import FrictionBins, closure_scores
from graspscore.geometry import unit, unit_rows

from conftest import random_rotation


def _rows(v_ql, v_qr, v_a=(1.0, 0.0, 0.0)):
    """One (1, 3) row each of the contact line and the two outward normals."""
    return tuple(unit(np.asarray(v, dtype=float))[None, :] for v in (v_a, v_ql, v_qr))


def _score(v_ql, v_qr, v_a=(1.0, 0.0, 0.0), bins=FrictionBins()):
    return float(closure_scores(*_rows(v_ql, v_qr, v_a), bins)[0])


def _passes(v_a, v_ql, v_qr, mu):
    """Force closure at friction mu, per row: a one-bin ladder scores
    1.1 - mu on a pass and 0 on a fail."""
    return closure_scores(v_a, v_ql, v_qr, FrictionBins((mu,))) != 0.0


def _random_unit_rows(rng, n):
    """(v_a, v_ql, v_qr), each n random unit rows."""
    return tuple(unit_rows(v) for v in rng.normal(size=(3, n, 3)))


def test_perfect_antipodal_pair():
    rows = _rows([-1, 0, 0], [1, 0, 0])
    assert _passes(*rows, 0.1)[0]
    assert _score([-1, 0, 0], [1, 0, 0]) == 1.0


def test_forty_five_degree_normals():
    rows = _rows([-1, -1, 0], [1, 1, 0])
    assert not _passes(*rows, 0.5)[0]
    assert _passes(*rows, 1.5)[0]


def test_thirty_degree_normals_score():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    assert _score([-c, -s, 0], [c, -s, 0]) == 0.5


def test_score_zero_past_last_bin():
    ang = np.deg2rad(50.0)
    v_ql = [-np.cos(ang), -np.sin(ang), 0]
    assert _score(v_ql, [1, 0, 0]) == 0.0
    assert not _passes(*_rows(v_ql, [1, 0, 0]), 1.0)[0]


def _inside(v, axis, mu):
    # v lies inside a cone of half-angle atan(mu) around axis u exactly
    # when v.u > 0 and |v x u| <= mu * (v.u); no trig involved
    d = np.einsum("ij,ij->i", v, axis)
    return (d > 0) & (np.linalg.norm(np.cross(v, axis), axis=1) <= mu * d)


def _oracle_scores(v_a, v_ql, v_qr, bins=FrictionBins()):
    """1.1 - (smallest passing mu) per row by the cross-product test, else 0."""
    want = np.zeros(len(v_a))
    for mu in reversed(bins.mus):
        passing = _inside(v_a, -v_ql, mu) & _inside(-v_a, -v_qr, mu)
        want[passing] = round(1.1 - mu, 10)
    return want


def test_scores_live_on_decimal_grid():
    rng = np.random.default_rng(7)
    v_a, v_ql, v_qr = _random_unit_rows(rng, 300)
    a = np.deg2rad(np.linspace(1.0, 60.0, 100))
    zero = np.zeros_like(a)
    v_a = np.vstack([v_a, np.tile([1.0, 0.0, 0.0], (len(a), 1))])
    v_ql = np.vstack([v_ql, np.column_stack([-np.cos(a), -np.sin(a), zero])])
    v_qr = np.vstack([v_qr, np.column_stack([np.cos(a), -np.sin(a), zero])])
    scores = closure_scores(v_a, v_ql, v_qr)
    assert set(scores.tolist()) == {round(0.1 * k, 10) for k in range(11)}
    assert np.array_equal(scores, _oracle_scores(v_a, v_ql, v_qr))


def test_pass_is_monotone_in_friction():
    rng = np.random.default_rng(8)
    rows = _random_unit_rows(rng, 200)
    passes = np.column_stack([_passes(*rows, 0.1 * k) for k in range(1, 11)])
    assert (np.diff(passes.astype(int), axis=1) >= 0).all()


def test_matches_cross_product_oracle():
    rng = np.random.default_rng(11)
    v_a, v_ql, v_qr = _random_unit_rows(rng, 500)
    for mu in (0.3, 0.7, 1.0):
        want = _inside(v_a, -v_ql, mu) & _inside(-v_a, -v_qr, mu)
        assert np.array_equal(_passes(v_a, v_ql, v_qr, mu), want)


def test_score_rotation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(100):
        rows = _random_unit_rows(rng, 1)
        rot = random_rotation(rng)
        moved = tuple(v @ rot.T for v in rows)
        assert np.array_equal(closure_scores(*moved), closure_scores(*rows))


def test_custom_bins():
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    assert _score([-c, -s, 0], [c, -s, 0], bins=FrictionBins((0.25, 0.75))) == 0.35


def test_bins_validation():
    with pytest.raises(ValueError):
        FrictionBins(())
    with pytest.raises(ValueError):
        FrictionBins((0.0, 0.5))
    with pytest.raises(ValueError):
        FrictionBins((0.5, 0.5))
    with pytest.raises(ValueError):
        FrictionBins((0.5, 0.3))


@pytest.mark.parametrize("mus", [(0.1, float("nan"), 0.3), (float("nan"),), (0.1, float("inf"))])
def test_bins_reject_non_finite(mus):
    with pytest.raises(ValueError, match="finite"):
        FrictionBins(mus)


def test_empty_batch():
    empty = np.zeros((0, 3))
    assert closure_scores(empty, empty, empty).shape == (0,)
