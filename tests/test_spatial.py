import numpy as np
import pytest

from graspscore import KTooLarge, SpatialIndex


def _linear_scan(points, query, k):
    """Reference k-NN: full distance scan, ties broken by ascending index."""
    d = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return order[:k]


def _index_of(points):
    normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return SpatialIndex(points=points, normals=normals)


def test_self_query():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(64, 3))
    index = _index_of(pts)
    idx, dist = index.knn_batch(pts[17:18], 1)
    assert idx[0].tolist() == [17]
    assert dist[0, 0] == 0.0


def test_matches_linear_scan_random():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(1000, 3))
    index = _index_of(pts)
    queries = rng.uniform(-1.2, 1.2, size=(100, 3))
    got_idx, got_dist = index.knn_batch(queries, 10)
    for i, q in enumerate(queries):
        expect = _linear_scan(pts, q, 10)
        assert got_idx[i].tolist() == expect.tolist()
    assert np.all(np.diff(got_dist, axis=1) >= 0)


def test_matches_linear_scan_on_tie_grid():
    # integer lattice: queries at cell centers see 8 equidistant corners
    axes = np.arange(4, dtype=float)
    pts = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1).reshape(-1, 3)
    index = _index_of(pts)
    rng = np.random.default_rng(2)
    centers = rng.integers(0, 3, size=(40, 3)) + 0.5
    for k in (1, 4, 8, 9, 27):
        got_idx, _ = index.knn_batch(centers, k)
        for i, q in enumerate(centers):
            expect = _linear_scan(pts, q, k)
            assert got_idx[i].tolist() == expect.tolist(), (q, k)


def test_duplicate_points_orderd_by_index():
    pts = np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], [2.0, 0, 0]])
    index = _index_of(pts)
    idx, _ = index.knn_batch(np.array([[0.0, 0, 0]]), 4)
    assert idx[0].tolist() == [1, 3, 0, 2]


def test_k_equals_point_count():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 3))
    index = _index_of(pts)
    idx, dist = index.knn_batch(np.zeros((1, 3)), 12)
    assert sorted(idx[0].tolist()) == list(range(12))
    assert np.all(np.diff(dist[0]) >= 0)


def test_k_too_large():
    index = _index_of(np.zeros((5, 3)))
    with pytest.raises(KTooLarge):
        index.knn_batch(np.zeros((1, 3)), 6)


def test_neighbor_set_contents():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(50, 3))
    nrm = rng.normal(size=(50, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    index = SpatialIndex(points=pts, normals=nrm)
    assert np.array_equal(index.normals, nrm)
    idx, dist = index.knn_batch(np.array([[0.1, 0.2, 0.3]]), 5)
    assert idx.shape == dist.shape == (1, 5)
    assert idx[0].tolist() == _linear_scan(pts, np.array([0.1, 0.2, 0.3]), 5).tolist()
    expected = np.linalg.norm(pts[idx[0]] - [0.1, 0.2, 0.3], axis=1)
    assert np.allclose(dist[0], expected, atol=1e-15)
    assert np.all(np.diff(dist[0]) >= 0)


def test_from_mesh_uses_samples(cube):
    index = SpatialIndex.from_mesh(cube)
    assert len(index.points) == len(cube.surface_points)
    got_idx, _ = index.knn_batch(cube.surface_points[:20], 10)
    for i in range(20):
        expect = _linear_scan(cube.surface_points, cube.surface_points[i], 10)
        assert got_idx[i].tolist() == expect.tolist()


def test_near_tie_distances_stay_exact():
    # pairs split by less than the float tie band must still come back
    # in the order the linear scan produces
    base = np.zeros((20, 3))
    base[:, 0] = 1.0 + np.arange(20) * 1e-13
    pts = np.vstack([base, [[5.0, 0, 0]]])
    index = _index_of(pts)
    idx, _ = index.knn_batch(np.zeros((1, 3)), 8)
    assert idx[0].tolist() == _linear_scan(pts, np.zeros(3), 8).tolist()
