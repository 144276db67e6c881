"""The block broad phase of ray_mesh_first_hit against the all-faces scan.

The oracle is the narrow-phase kernel run on every face at once, which is
what ray_mesh_first_hit computed before the broad phase existed. All four
outputs must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspscore import geometry
from graspscore.primitives import make_box, make_cylinder, make_icosphere, make_l_prism, make_plate

# Zero direction components and NaN rays must be handled, not divided through.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MESHES = {
    "box": make_box((0.04, 0.04, 0.04)),
    "plate": make_plate((0.06, 0.04, 0.004)),
    "l_prism": make_l_prism(0.02),
    "icosphere0": make_icosphere(0.03, 0),
    "icosphere2": make_icosphere(0.03, 2),
    "icosphere3": make_icosphere(0.03, 3),
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
    # A small pair budget splits the rays into many slab-test chunks.
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 256)
    vertices, faces = _mesh_arrays("icosphere3", moved=True)
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
