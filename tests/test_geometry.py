"""The broad phases of ray_mesh_first_hit against the all-faces scan.

The oracle is the narrow-phase kernel run on every face at once, which is
what ray_mesh_first_hit computed before the broad phase existed. All four
outputs must match it bit for bit, on meshes of one block (the box test)
and of several (the projected test).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspscore import geometry
from graspscore.candidates import generate_views
from graspscore.primitives import make_box, make_cylinder, make_icosphere, make_l_prism, make_plate

MESHES = {
    "box": make_box((0.04, 0.04, 0.04)),
    "plate": make_plate((0.06, 0.04, 0.004)),
    "l_prism": make_l_prism(0.02),
    "icosphere0": make_icosphere(0.03, 0),
    "icosphere2": make_icosphere(0.03, 2),
    "icosphere3": make_icosphere(0.03, 3),
    "icosphere4": make_icosphere(0.03, 4),
    "cylinder": make_cylinder(0.02, 0.06, 48),
}


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _moved(vertices, seed):
    rng = np.random.default_rng(seed)
    return vertices @ _random_rotation(rng).T + rng.uniform(-0.5, 0.5, 3)


def _mesh_arrays(name, moved):
    mesh = MESHES[name]
    vertices = _moved(mesh.vertices, 7) if moved else mesh.vertices
    return vertices, mesh.faces


def _oracle(origins, directions, vertices, faces, t_max):
    origins = np.asarray(origins, dtype=float)
    t_lim = np.broadcast_to(np.asarray(t_max, dtype=float), (len(origins),))
    return geometry._first_hits(origins, np.asarray(directions, dtype=float),
                                *geometry.triangle_corners(vertices, faces), t_lim)


def _assert_same(origins, directions, vertices, faces, t_max=np.inf):
    got = geometry.ray_mesh_first_hit(origins, directions, vertices, faces, t_max)
    want = _oracle(origins, directions, vertices, faces, t_max)
    for name, g, w in zip(("t", "face", "u", "v"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g, w), name
        assert g.tobytes() == w.tobytes(), name  # also the sign of zeros
    return got


def _rays(vertices, seed, n=400):
    """Random rays, rays aimed through vertices and axis-aligned rays.

    Origins sit in the mesh box grown by half its size on each side; the
    axis-aligned rays start on vertex coordinates, so they graze edges and
    corners exactly.
    """
    rng = np.random.default_rng(seed)
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    pad = 0.5 * (hi - lo).max()
    origins = rng.uniform(lo - pad, hi + pad, (3 * n, 3))
    random_dirs = rng.normal(size=(n, 3))
    through = vertices[rng.integers(0, len(vertices), n)] - origins[n:2 * n]
    axis = rng.integers(0, 3, n)
    axis_dirs = np.zeros((n, 3))
    axis_dirs[np.arange(n), axis] = rng.choice([-1.0, 1.0], n)
    on_vertex = vertices[rng.integers(0, len(vertices), n)]
    keep = np.eye(3, dtype=bool)[axis]
    origins[2 * n:] = np.where(keep, origins[2 * n:], on_vertex)
    return origins, np.concatenate([random_dirs, through, axis_dirs])


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "moved"])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_matches_all_faces_scan(name, moved):
    vertices, faces = _mesh_arrays(name, moved)
    origins, directions = _rays(vertices, seed=len(faces))
    extent = (vertices.max(axis=0) - vertices.min(axis=0)).max()
    per_ray = np.random.default_rng(1).uniform(0.0, 2.0, len(origins))
    hits = 0
    for t_max in (np.inf, 0.5, per_ray):
        t, face, _, _ = _assert_same(origins, directions, vertices, faces, t_max)
        hits += int((face >= 0).sum())
    # Scaled directions with a scalar t_max: segments as long as the mesh.
    _assert_same(origins, directions * extent, vertices, faces, 1.0)
    assert hits > 0


@pytest.mark.parametrize("n_faces", [64, 65, 129])
def test_block_edges(n_faces):
    # At most one block, one full block plus a single face, and three blocks.
    mesh = MESHES["icosphere2"]
    faces = mesh.faces[:n_faces]
    origins, directions = _rays(mesh.vertices, seed=n_faces)
    _assert_same(origins, directions, mesh.vertices, faces, np.inf)
    _assert_same(origins, directions, mesh.vertices, faces, 0.02)


def test_ray_chunks(monkeypatch):
    # Small pair budgets split the rays into many chunks on both paths.
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 256)
    monkeypatch.setattr(geometry, "_PROJECTED_CHUNK", 256)
    for name in ("l_prism", "icosphere3"):
        vertices, faces = _mesh_arrays(name, moved=True)
        origins, directions = _rays(vertices, seed=3, n=50)
        _assert_same(origins, directions, vertices, faces, np.inf)


def test_degenerate_rays():
    vertices, faces = _mesh_arrays("icosphere2", moved=True)
    center = vertices.mean(axis=0)
    origins = np.array([center, center + 1.0, [np.nan, 0.0, 0.0], [0.0, np.nan, 0.0], center, center])
    directions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [np.nan, 1.0, 0.0], [1.0, 0.0, 0.0]])
    t_max = np.array([1.0, 1.0, np.inf, 1.0, 1.0, np.nan])
    t, face, u, v = _assert_same(origins, directions, vertices, faces, t_max)
    assert (face == -1).all() and np.isinf(t).all()
    assert not u.any() and not v.any()


def test_no_rays():
    vertices, faces = _mesh_arrays("cylinder", moved=False)
    t, face, u, v = _assert_same(np.zeros((0, 3)), np.zeros((0, 3)), vertices, faces)
    assert t.shape == face.shape == u.shape == v.shape == (0,)


def test_shared_edge_tie_goes_to_lowest_face():
    # Rays through the sphere's vertices and edge midpoints hit several
    # faces at one t; the lowest face index must win across blocks too.
    vertices, faces = _mesh_arrays("icosphere3", moved=False)
    targets = np.concatenate([vertices, 0.5 * (vertices[faces[:, 0]] + vertices[faces[:, 1]])])
    origins = targets * 3.0
    t, face, _, _ = _assert_same(origins, targets - origins, vertices, faces, np.inf)
    assert (face >= 0).all()


@pytest.mark.parametrize("name", ["cylinder", "icosphere3"])
def test_blocks_partition_faces(name):
    mesh = MESHES[name]
    v0, v1, v2 = geometry.triangle_corners(mesh.vertices, mesh.faces)
    members, box_lo, box_hi = geometry._face_blocks(v0, v1, v2)
    assert len(members) == len(box_lo) == len(box_hi) == -(-len(mesh.faces) // geometry._BLOCK_FACES)
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(len(mesh.faces)))
    for block, lo, hi in zip(members, box_lo, box_hi):
        assert len(block) <= geometry._BLOCK_FACES
        assert (np.diff(block) > 0).all()
        corners = np.concatenate([v0[block], v1[block], v2[block]])
        assert (corners > lo).all() and (corners < hi).all()


_coord = st.floats(-0.06, 0.06, allow_nan=False, allow_subnormal=False)
_component = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["icosphere2", "cylinder", "box"]),
    origins=st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=12),
    directions=st.lists(st.tuples(_component, _component, _component), min_size=12, max_size=12),
    t_max=st.one_of(st.just(np.inf), st.floats(0.0, 4.0)),
)
def test_random_rays_match_all_faces_scan(name, origins, directions, t_max):
    vertices, faces = _mesh_arrays(name, moved=False)
    origins = np.array(origins)
    _assert_same(origins, np.array(directions[:len(origins)]), vertices, faces, t_max)


def _grasp_lines(vertices, seed, n_seeds=8, n_views=36, n_rotations=6, depths=(0.01, 0.02, 0.03, 0.04)):
    """The rays of gripper.contacts_on_lines on a label grid.

    Each seed is a mesh vertex; each (seed, view, rotation, depth) cell is
    a line along the cell's closing axis, cast as two inward rays from
    fingertips 4.25 cm out. Rows are the left rays of all lines, then the
    right rays, so every direction holds many parallel lines.
    """
    rng = np.random.default_rng(seed)
    seeds = vertices[rng.choice(len(vertices), n_seeds, replace=False)]
    frames = geometry.frames_from_approaches(-generate_views(n_views), np.pi * np.arange(n_rotations) / n_rotations)
    frames = np.repeat(frames.reshape(-1, 3, 3), len(depths), axis=0)
    offsets = np.tile(depths, len(frames) // len(depths))[:, None] * frames[:, :, 2]
    centers = (seeds[:, None, :] + offsets).reshape(-1, 3)
    closing = np.tile(frames[:, :, 0], (n_seeds, 1))
    half = 0.0425
    origins = np.concatenate([centers - half * closing, centers + half * closing])
    return origins, np.concatenate([closing, -closing]), np.full(len(origins), 2.0 * half)


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "moved"])
@pytest.mark.parametrize("name", ["cylinder", "icosphere2", "icosphere4"])
def test_grasp_line_bundles(name, moved):
    vertices, faces = _mesh_arrays(name, moved)
    origins, directions, t_max = _grasp_lines(vertices, seed=len(faces), n_seeds=3, n_views=12, n_rotations=4)
    t, face, _, _ = _assert_same(origins, directions, vertices, faces, t_max)
    assert (face >= 0).mean() > 0.25
    # Lines through the centre of the mesh, along the same directions.
    centre = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    _assert_same(origins - origins[:len(origins) // 2].mean(axis=0) + centre, directions, vertices, faces, t_max)


@pytest.mark.parametrize("name", ["cylinder", "icosphere3"])
def test_axis_aligned_bundles(name):
    # Lines along and between the axes, through vertices and edge midpoints,
    # so they graze edges and corners exactly; both directions of each.
    vertices, faces = _mesh_arrays(name, moved=False)
    targets = np.concatenate([vertices, 0.5 * (vertices[faces[:, 0]] + vertices[faces[:, 1]])])[::3]
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    directions = np.repeat(np.concatenate([axes, -axes]), len(targets), axis=0)
    origins = np.tile(targets, (len(axes) * 2, 1)) - 0.1 * directions
    t, face, _, _ = _assert_same(origins, directions, vertices, faces, np.inf)
    assert (face >= 0).all()
    _assert_same(origins, directions, vertices, faces, 0.1)


def test_tiny_and_scaled_directions():
    vertices, faces = _mesh_arrays("icosphere3", moved=True)
    origins, directions, _ = _grasp_lines(vertices, seed=5, n_seeds=2, n_views=4, n_rotations=2)
    rng = np.random.default_rng(2)
    # Components near 1e-200 must not underflow the norm of the direction;
    # a tiny component next to a unit one leaves a direction that can hit.
    tiny = directions * 1e-200
    mixed = directions.copy()
    mixed[:, rng.integers(0, 3, len(mixed))] = 1e-200
    # Non-unit scaled copies of one direction, each its own group.
    scales = rng.choice([0.5, 2.0, 3.0, -7.0, 1e-3], len(directions))
    for d in (tiny, mixed, directions * scales[:, None]):
        _assert_same(origins, d, vertices, faces, np.inf)
        _assert_same(origins, d, vertices, faces, 0.085)
    t, face, _, _ = _assert_same(origins, tiny, vertices, faces, np.inf)
    assert (face == -1).all()


def test_degenerate_rays_in_a_bundle():
    # A NaN ray and t_max of 0 and NaN among rays that share a direction.
    vertices, faces = _mesh_arrays("icosphere2", moved=True)
    origins, directions, t_max = _grasp_lines(vertices, seed=9, n_seeds=2, n_views=4, n_rotations=2)
    origins[0] = np.nan
    origins[1, 2] = np.nan
    directions[2] = np.nan
    directions[3] = 0.0
    t_max[4:8] = 0.0
    t_max[8:12] = np.nan
    t, face, u, v = _assert_same(origins, directions, vertices, faces, t_max)
    assert (face[:4] == -1).all() and (face[8:12] == -1).all()
    assert (face >= 0).any()


@pytest.mark.parametrize("name", ["cylinder", "icosphere4"])
def test_ray_cast_memory_is_bounded(name):
    # One call on the label-dense bundle (13,824 rays) stays within a fixed
    # budget of temporaries, whatever the number of candidate pairs.
    vertices, faces = _mesh_arrays(name, moved=True)
    origins, directions, t_max = _grasp_lines(vertices, seed=0)
    tracemalloc.start()
    try:
        geometry.ray_mesh_first_hit(origins, directions, vertices, faces, t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
