"""The broad phase of ray_mesh_first_hit against the all-faces scan.

The oracle is the narrow-phase kernel run on every face at once
(``all_faces_first_hits`` in ``conftest.py``), which is what
ray_mesh_first_hit computed before the broad phase existed. All four
outputs must match it bit for bit, on meshes whose box tree is only its
leaves (at most ``_TREE_TOP`` faces) and on deeper trees.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspscore import geometry
from graspscore.candidates import generate_views
from graspscore.primitives import make_box, make_cylinder, make_icosphere, make_l_prism, make_plate

from conftest import all_faces_first_hits, merge_hits_oracle

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


def _assert_same(origins, directions, vertices, faces, t_max=np.inf):
    got = geometry.ray_mesh_first_hit(origins, directions, vertices, faces, t_max)
    want = all_faces_first_hits(origins, directions, vertices, faces, t_max)
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


@pytest.mark.parametrize("n_faces", [8, 9, 64, 65, 80, 81, 129, 640, 641])
def test_tree_edges(n_faces):
    # A tree of leaves only: one full node of leaves and one face more, and
    # 80 leaves. Two levels: 81 faces under 11 nodes, the last holding one
    # face, 129 under 17, and 640 under 80. Three levels: 641 faces.
    mesh = MESHES["icosphere2" if n_faces <= 320 else "icosphere3"]
    faces = mesh.faces[:n_faces]
    origins, directions = _rays(mesh.vertices, seed=n_faces)
    _assert_same(origins, directions, mesh.vertices, faces, np.inf)
    _assert_same(origins, directions, mesh.vertices, faces, 0.02)
    origins, directions, t_max = _grasp_lines(mesh.vertices, seed=n_faces, n_seeds=2, n_views=6, n_rotations=2)
    _assert_same(origins, directions, mesh.vertices, faces, t_max)


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_ray_chunks(monkeypatch, chunk):
    # A small pair budget splits the lines into many chunks and the
    # descent and narrow phase into many steps. Budgets of 1 and 7 are
    # below the fanout and the 24-column top entry of both meshes, so every
    # level, the root's included, steps one (line, node) pair at a time.
    monkeypatch.setattr(geometry, "_PROJECTED_CHUNK", chunk)
    for name in ("l_prism", "icosphere3"):
        vertices, faces = _mesh_arrays(name, moved=True)
        corners = vertices[faces]
        top, _ = geometry._box_tree(corners.mean(axis=1), corners.min(axis=1), corners.max(axis=1), 1e-9)[1][-1]
        assert top.shape == (1, 3, 24)
        origins, directions = _rays(vertices, seed=3, n=50)
        _assert_same(origins, directions, vertices, faces, np.inf)
        # Lines of many rays: each grasp line cast eight times over.
        origins, directions, t_max = _grasp_lines(vertices, seed=3, n_seeds=2, n_views=4, n_rotations=2)
        _assert_same(np.tile(origins, (8, 1)), np.tile(directions, (8, 1)), vertices, faces, np.tile(t_max, 8))


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


def _tree(name):
    """The box tree of a mesh, each level as (n, 3) rows of centres and
    half-extents: node j of a level is row j, and its children are rows
    fanout * j onward of the level below."""
    mesh = MESHES[name]
    v0, v1, v2 = geometry.triangle_corners(mesh.vertices, mesh.faces)
    lo = np.minimum(np.minimum(v0, v1), v2)
    hi = np.maximum(np.maximum(v0, v1), v2)
    leaf_faces, tree = geometry._box_tree((v0 + v1 + v2) / 3.0, lo, hi, 1e-6)
    levels = [tuple(b.transpose(0, 2, 1).reshape(-1, 3) for b in level) for level in tree]
    return lo, hi, leaf_faces, levels


@pytest.mark.parametrize("name", ["box", "cylinder", "icosphere3", "icosphere4"])
def test_tree_leaves_partition_faces(name):
    lo, hi, leaf_faces, levels = _tree(name)
    n_faces, fanout = len(lo), geometry._TREE_FANOUT
    assert np.array_equal(np.sort(leaf_faces), np.arange(n_faces))
    # The leaves are the face boxes, in leaf order, then NaN filler.
    mid, half = levels[0]
    assert np.array_equal(mid[:n_faces], 0.5 * (lo + hi)[leaf_faces])
    assert np.array_equal(half[:n_faces], 0.5 * (hi - lo)[leaf_faces])
    assert np.isnan(mid[n_faces:]).all() and len(mid) == -(-n_faces // fanout) * fanout
    # Each level has one node per fanout nodes below, up to a small top.
    sizes = [int(np.isfinite(m[:, 0]).sum()) for m, _ in levels]
    assert sizes[0] == n_faces
    assert all(n == -(-below // fanout) for below, n in zip(sizes, sizes[1:]))
    assert all(np.isnan(m[n:]).all() for (m, _), n in zip(levels, sizes))
    assert sizes[-1] <= geometry._TREE_TOP and all(n > geometry._TREE_TOP for n in sizes[:-1])


@pytest.mark.parametrize("name", ["cylinder", "icosphere3", "icosphere4"])
def test_tree_nodes_hold_their_children(name):
    *_, levels = _tree(name)
    fanout = geometry._TREE_FANOUT
    assert len(levels) > 1
    for (mid, half), (child_mid, child_half) in zip(levels[1:], levels):
        for node in np.flatnonzero(np.isfinite(mid[:, 0])):
            kids = child_mid[node * fanout:(node + 1) * fanout]
            kid_half = child_half[node * fanout:(node + 1) * fanout]
            real = np.isfinite(kids[:, 0])
            assert real.any()
            # The node's box holds each child's box with the padding to spare.
            assert ((mid[node] - half[node]) < (kids - kid_half)[real]).all()
            assert ((mid[node] + half[node]) > (kids + kid_half)[real]).all()


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
@pytest.mark.parametrize("name", ["box", "plate", "l_prism", "cylinder", "icosphere2", "icosphere4"])
def test_grasp_line_bundles(name, moved):
    vertices, faces = _mesh_arrays(name, moved)
    origins, directions, t_max = _grasp_lines(vertices, seed=len(faces), n_seeds=3, n_views=12, n_rotations=4)
    t, face, _, _ = _assert_same(origins, directions, vertices, faces, t_max)
    # Seeds sit on corners, and most lines from a 4 mm plate's corners pass beside it.
    assert (face >= 0).mean() > (0.15 if name == "plate" else 0.25)
    # Lines through the centre of the mesh, along the same directions.
    centre = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    _assert_same(origins - origins[:len(origins) // 2].mean(axis=0) + centre, directions, vertices, faces, t_max)


@pytest.mark.parametrize("name", ["box", "plate", "l_prism", "cylinder", "icosphere3"])
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


@pytest.mark.parametrize("name", ["box", "plate", "l_prism", "cylinder", "icosphere4"])
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


def _pad(vertices):
    """The cast's cell side and box padding for a mesh that uses all its vertices."""
    return geometry._BOX_PAD * (vertices.max(axis=0) - vertices.min(axis=0)).max() + 1e-9


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _inward_pairs(points, directions, reach):
    """Each line through ``points[i]`` along ``directions[i]`` as two inward
    rays from ``reach`` out on either side, like a grasp's; t_max spans the line."""
    origins = np.concatenate([points - reach * directions, points + reach * directions])
    return origins, np.concatenate([directions, -directions]), 2.0 * reach


# Sideways offsets of a line from a triangle edge, in pads: on it, at the
# margin of one and three pads, and a hair inside and outside three pads.
_EDGE_OFFSETS = np.array([0.0, 1.0, -1.0, 3.0, -3.0, 2.99, -2.99, 3.01, -3.01])


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6], ids=["home", "1e3", "1e6"])
@pytest.mark.parametrize("name", ["box", "l_prism", "icosphere2"])
def test_lines_beside_triangle_edges(name, shift):
    # Lines at the ends and a random point of every edge of every face, 0,
    # 1 and 3 pads either side of it across the line's direction, on meshes
    # 0, 1e3 and 1e6 extents from the origin: where the leaf test is tight.
    vertices, faces = _mesh_arrays(name, moved=True)
    extent = (vertices.max(axis=0) - vertices.min(axis=0)).max()
    vertices = vertices + shift * extent * np.array([0.6, -0.48, 0.64])
    pad = _pad(vertices)
    rng = np.random.default_rng(len(faces))
    v0, v1, v2 = geometry.triangle_corners(vertices, faces)
    a, b = np.concatenate([v0, v1, v2]), np.concatenate([v1, v2, v0])
    along = np.stack([np.zeros(len(a)), rng.uniform(0.0, 1.0, len(a)), np.ones(len(a))], axis=1)
    on_edge = (a[:, None, :] + along[:, :, None] * (b - a)[:, None, :]).reshape(-1, 3)
    d = _unit_rows(rng.normal(size=(len(on_edge), 3)))
    across = _unit_rows(np.cross(d, np.repeat(b - a, 3, axis=0)))
    points = on_edge[:, None, :] + (pad * _EDGE_OFFSETS)[None, :, None] * across[:, None, :]
    origins, directions, t_max = _inward_pairs(points.reshape(-1, 3), np.repeat(d, len(_EDGE_OFFSETS), axis=0),
                                               2.0 * extent)
    t, face, _, _ = _assert_same(origins, directions, vertices, faces, t_max)
    assert (face >= 0).mean() > 0.5


@pytest.mark.parametrize("shift", [1e3, 1e6])
@pytest.mark.parametrize("name", ["box", "plate", "l_prism", "cylinder", "icosphere3"])
def test_meshes_far_from_the_origin(name, shift):
    vertices, faces = _mesh_arrays(name, moved=True)
    extent = (vertices.max(axis=0) - vertices.min(axis=0)).max()
    vertices = vertices + shift * extent * np.array([-0.36, 0.48, 0.8])
    origins, directions = _rays(vertices, seed=len(faces), n=200)
    _assert_same(origins, directions, vertices, faces, np.inf)
    origins, directions, t_max = _grasp_lines(vertices, seed=len(faces), n_seeds=2, n_views=12, n_rotations=4)
    t, face, _, _ = _assert_same(origins, directions, vertices, faces, t_max)
    assert (face >= 0).any()


def _line_of_each_ray(origins, directions, vertices):
    """Which line of the cast each ray falls in."""
    centre = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    rays, starts, *_ = geometry._lines(origins, directions, centre, _pad(vertices))
    line = np.full(len(origins), -1)
    line[rays] = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    return line


def _cell_points(vertices, targets, directions, cell_xy):
    """Origins on the lines through ``targets`` moved across ``directions``
    so that they project to ``cell_xy`` (in pads) of the cast's cells: the
    cell of the target's own line plus ``cell_xy``."""
    centre = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    pad = _pad(vertices)
    out = []
    for p, d, xy in zip(targets, directions, cell_xy):
        *_, point, axes = geometry._lines(p[None], d[None], centre, pad)
        goal = (np.floor(point[:, 0] / pad) + xy) * pad
        out.append(p + (goal - point[:, 0]) @ axes[:, :, 0])
    return np.array(out)


@pytest.mark.parametrize("name", ["l_prism", "icosphere2"])
def test_line_rays_at_cell_corners_and_across_cells(name):
    # Two rays per line near each vertex: at opposite corners of one cell,
    # so the second ray lies sqrt(2) pads from the line's point, and a
    # thousandth of a pad either side of a cell edge, so the two rays of
    # one grasp fall in adjacent cells and make two lines.
    vertices, faces = _mesh_arrays(name, moved=True)
    extent = (vertices.max(axis=0) - vertices.min(axis=0)).max()
    rng = np.random.default_rng(4)
    targets = np.repeat(vertices, 2, axis=0)
    d = np.repeat(_unit_rows(rng.normal(size=(len(vertices), 3))), 2, axis=0)
    for near, far in (((0.001, 0.001), (0.999, 0.999)), ((-0.001, 0.5), (0.001, 0.5))):
        xy = np.tile([near, far], (len(vertices), 1))
        points = _cell_points(vertices, targets, d, xy)
        origins = points - 2.0 * extent * d * np.tile([1.0, -1.0], len(vertices))[:, None]
        directions = d * np.tile([1.0, -1.0], len(vertices))[:, None]
        line = _line_of_each_ray(origins, directions, vertices)
        same_line = line[0::2] == line[1::2]
        assert same_line.all() if near[0] > 0.0 else not same_line.any()
        t, face, _, _ = _assert_same(origins, directions, vertices, faces, 4.0 * extent)
        # Lines through a convex corner pass beside the mesh about half the time.
        assert (face >= 0).mean() > 0.25


def test_opposite_rays_with_zero_components_share_a_line():
    # d, -d and d with -0.0 for its zero components are one group and, from
    # one point, one line.
    vertices, _ = _mesh_arrays("box", moved=False)
    d = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.6, 0.8]])
    signed_zeros = np.where(d == 0.0, -0.0, d)
    points = np.random.default_rng(5).uniform(-0.02, 0.02, (len(d), 3))
    origins, directions, _ = _inward_pairs(points, d, 0.1)
    origins = np.concatenate([origins, points - 0.1 * d])
    directions = np.concatenate([directions, signed_zeros])
    line = _line_of_each_ray(origins, directions, vertices).reshape(3, len(d))
    assert (line == line[0]).all()
    assert len(set(line[0].tolist())) == len(d)


def test_line_point_sqrt2_pads_beside_a_triangle_edge():
    # Two rays of one line at opposite corners of a cell, (0.01, 0.01) and
    # (0.99, 0.99) pads in, beside a triangle edge at 45 degrees to the cell
    # that passes between them: the first ray is 0.014 pads inside the
    # triangle, the second 1.37 pads outside. Whichever ray gives the line
    # its point, the inner ray must still reach the narrow phase. Two large
    # triangles on the planes x = -1 and x = 1 fix the mesh box, so the
    # centre and the cells stay put while the triangle moves.
    rng = np.random.default_rng(12)
    frame = np.array([[-1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, 0.0, 1.0],
                      [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [1.0, 0.0, 1.0]])
    pad = _pad(frame)
    for d in np.concatenate([np.eye(3), _unit_rows(rng.normal(size=(5, 3)))]):
        *_, point, axes = geometry._lines(np.zeros((1, 3)), d[None], np.zeros(3), pad)
        # In-plane (u, v) pads from the lower corner of the origin's cell.
        at = lambda uv: (np.floor(point[:, 0] / pad) * pad - point[:, 0] + pad * np.asarray(uv)) @ axes[:, :, 0]
        mid, edge, inward = at([0.02, 0.02]), at([1.0, -1.0]) - at([0.0, 0.0]), at([-1.0, -1.0]) - at([0.0, 0.0])
        corners = mid + 0.1 * np.array([edge, -edge, inward]) / np.linalg.norm(edge)
        vertices = np.vstack([frame, corners])
        faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        inner, outer = at([0.01, 0.01]), at([0.99, 0.99])
        for first, second in ((inner, outer), (outer, inner)):
            origins = np.array([first - 0.5 * d, second + 0.5 * d])
            directions = np.array([d, -d])
            line = _line_of_each_ray(origins, directions, vertices)
            assert line[0] == line[1]
            t, face, _, _ = _assert_same(origins, directions, vertices, faces, np.inf)
            assert face[0 if first is inner else 1] == 2


def test_far_rays_are_lines_of_their_own():
    # Rays whose cells are past 2^52 pads, or overflow, sort next to rays
    # of their direction through the mesh centre, whose cell is (0, 0).
    vertices, faces = _mesh_arrays("box", moved=True)
    centre = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    d = _unit_rows(np.array([[0.3, 0.2, 1.0], [-0.5, 1.0, 0.1]]))
    aside = _unit_rows(np.cross(d, [1.0, 0.0, 0.0]))
    origins, directions = [], []
    for scale in (1e300, 1e200, 1e12):
        origins += [centre + scale * aside, centre - 0.1 * d, centre - scale * aside, centre + 0.1 * d]
        directions += [d, d, -d, -d]
    t, face, _, _ = _assert_same(np.concatenate(origins), np.concatenate(directions), vertices, faces, np.inf)
    far = np.tile([True, True, False, False], 6)
    assert (face[~far] >= 0).all() and (face[far] == -1).all()


def test_hash_collisions_only_split_lines(monkeypatch):
    # With every hash zero, all directions, and all cells of a direction,
    # share one key: only the row comparison tells them apart.
    monkeypatch.setattr(geometry, "_HASH_MUL", np.uint64(0))
    vertices, faces = _mesh_arrays("icosphere2", moved=True)
    origins, directions, t_max = _grasp_lines(vertices, seed=6, n_seeds=2, n_views=8, n_rotations=2)
    line = _line_of_each_ray(origins, directions, vertices)
    # Each line holds rays of one direction up to sign.
    for ray_line in np.unique(line):
        members = directions[line == ray_line]
        assert not np.cross(members, members[0]).any()
    _assert_same(origins, directions, vertices, faces, t_max)
    origins, directions = _rays(vertices, seed=6, n=100)
    _assert_same(origins, directions, vertices, faces, np.inf)


def test_edge_on_and_zero_area_faces():
    # A box with three zero-area faces: a repeated corner, three collinear
    # points on an edge and one point thrice. Rays run in the planes of the
    # box's faces, through their edges and corners, and through the
    # degenerate faces; none of it may warn.
    box = MESHES["box"]
    a, b = box.faces[0, 0], box.faces[0, 1]
    vertices = np.vstack([box.vertices, 0.5 * (box.vertices[a] + box.vertices[b])])
    extra = np.array([[a, a, b], [a, len(vertices) - 1, b], [b, b, b]])
    rng = np.random.default_rng(8)
    for moved in (False, True):
        v = _moved(vertices, 9) if moved else vertices
        faces = np.vstack([box.faces, extra])
        v0, v1, v2 = geometry.triangle_corners(v, faces)
        # Directions in each face's plane, through its corners, edge midpoints and a random point.
        e1, e2 = v1 - v0, v2 - v0
        in_plane = rng.normal(size=(len(faces), 2))
        d = in_plane[:, :1] * e1 + in_plane[:, 1:] * e2
        d[len(box.faces):] = rng.normal(size=(len(extra), 3))
        d = _unit_rows(d)
        w = rng.uniform(0.0, 0.5, len(faces))[:, None]
        spots = [v0, v1, v2, 0.5 * (v0 + v1), 0.5 * (v1 + v2), v0 + w * e1 + w * e2]
        points = np.concatenate(spots)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            origins, directions, t_max = _inward_pairs(points, np.tile(d, (len(spots), 1)), 0.1)
            _assert_same(origins, directions, v, faces, t_max)
            origins, directions = _rays(v, seed=8, n=100)
            _assert_same(origins, directions, v, faces, np.inf)


@pytest.mark.parametrize("name", ["box", "plate", "l_prism", "cylinder", "icosphere4"])
def test_narrow_phase_pairs_follow_the_hits(monkeypatch, name):
    # The leaf test keeps about two (ray, face) pairs per hit on grasp line
    # bundles: each line crosses a face going in and one going out, and
    # both of its rays test both. The leaf boxes alone keep 5 to 26 times
    # the hits.
    rows = []
    pair_hits = geometry._pair_hits

    def counted(*args):
        rows.append(len(args[0]))
        return pair_hits(*args)

    monkeypatch.setattr(geometry, "_pair_hits", counted)
    vertices, faces = _mesh_arrays(name, moved=True)
    origins, directions, t_max = _grasp_lines(vertices, seed=0)
    _, face, _, _ = geometry.ray_mesh_first_hit(origins, directions, vertices, faces, t_max)
    hits = int((face >= 0).sum())
    assert hits > 0 and sum(rows) <= 4 * hits


def test_merge_hits_matches_lexsort_oracle():
    # Random (ray, face) pairs in two chunks, the second merging into an out
    # that holds hits: t drawn from few values, so rays tie across faces,
    # with -0.0 next to 0.0, misses (inf) and NaN.
    rng = np.random.default_rng(11)
    n_rays, n_faces = 60, 25
    values = np.array([0.0, -0.0, 0.25, 0.5, 0.5 + 2.0**-53, 1.0, np.inf, np.nan])
    for trial in range(40):
        got = (np.full(n_rays, np.inf), np.full(n_rays, -1), np.zeros(n_rays), np.zeros(n_rays))
        want = tuple(a.copy() for a in got)
        pairs = rng.permutation(n_rays * n_faces)[:rng.integers(1, 600)]
        for chunk in np.array_split(pairs, 2):
            ray, face = np.divmod(chunk, n_faces)
            t = np.where(rng.random(len(chunk)) < 0.8, rng.choice(values, len(chunk)), rng.random(len(chunk)))
            u, v = rng.random((2, len(chunk)))
            geometry._merge_hits(got, ray, face, t, u, v)
            merge_hits_oracle(want, ray, face, t, u, v)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert (got[1] >= 0).any()
