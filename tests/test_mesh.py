import struct

import numpy as np
import pytest

from graspscore import (
    EmptyMesh,
    ParseError,
    build_mesh,
    closest_surface_point,
    load_mesh,
    mass_properties,
    sample_surface,
    transform_mesh,
    with_surface_samples,
)
from graspscore.meshio import save_obj, save_ply
from graspscore.primitives import make_box, make_icosphere, make_l_prism

from conftest import random_rotation

UNIT_CUBE_OBJ = """\
v -0.5 -0.5 -0.5
v 0.5 -0.5 -0.5
v 0.5 0.5 -0.5
v -0.5 0.5 -0.5
v -0.5 -0.5 0.5
v 0.5 -0.5 0.5
v 0.5 0.5 0.5
v -0.5 0.5 0.5
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 2 3 7
f 2 7 6
f 3 4 8
f 3 8 7
f 4 1 5
f 4 5 8
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- independent closest-point oracle: plane projection + edge segments ---

def _closest_on_triangle(p, a, b, c):
    n = np.cross(b - a, c - a)
    n2 = n @ n
    best = None
    if n2 > 0:
        # barycentric coordinates of the in-plane projection
        q = p - n * ((p - a) @ n) / n2
        w = np.cross(b - a, q - a) @ n / n2
        u = np.cross(c - b, q - b) @ n / n2
        v = np.cross(a - c, q - c) @ n / n2
        if u >= 0 and v >= 0 and w >= 0:
            best = q
    candidates = [] if best is None else [best]
    for s, e in ((a, b), (b, c), (c, a)):
        d = e - s
        t = np.clip((p - s) @ d / (d @ d), 0.0, 1.0)
        candidates.append(s + t * d)
    dists = [np.linalg.norm(p - q) for q in candidates]
    return min(dists)


def _oracle_distance(mesh, p):
    v0 = mesh.vertices[mesh.faces[:, 0]]
    v1 = mesh.vertices[mesh.faces[:, 1]]
    v2 = mesh.vertices[mesh.faces[:, 2]]
    return min(_closest_on_triangle(p, v0[i], v1[i], v2[i]) for i in range(len(v0)))


def test_load_obj_unit_cube(tmp_path):
    mesh = load_mesh(_write(tmp_path, "cube.obj", UNIT_CUBE_OBJ))
    assert len(mesh.vertices) == 8
    assert len(mesh.faces) == 12
    assert mesh.watertight
    assert mesh.degenerate_dropped == 0
    lens = np.linalg.norm(mesh.vertex_normals, axis=1)
    assert np.all(np.abs(lens - 1.0) < 1e-6)


def test_load_obj_ignores_annotations(tmp_path):
    text = UNIT_CUBE_OBJ.replace("f 1 3 2", "vn 0 0 1\nvt 0 0\nusemtl none\nf 1/1/1 3/1/1 2/1/1")
    mesh = load_mesh(_write(tmp_path, "cube.obj", text))
    assert len(mesh.faces) == 12


def test_degenerate_face_dropped_with_count(tmp_path):
    # 12 faces, one with a repeated vertex: 11 survive.
    lines = UNIT_CUBE_OBJ.strip().splitlines()
    lines[-1] = "f 4 4 5"
    mesh = load_mesh(_write(tmp_path, "bad.obj", "\n".join(lines)))
    assert len(mesh.faces) == 11
    assert mesh.degenerate_dropped == 1
    assert not mesh.watertight


def test_zero_area_face_dropped(tmp_path):
    # collinear vertices give a geometrically empty triangle
    text = UNIT_CUBE_OBJ + "v 0 0 0\nv 0.25 0 0\nv 0.5 0 0\nf 9 10 11\n"
    mesh = load_mesh(_write(tmp_path, "flat.obj", text))
    assert len(mesh.faces) == 12
    assert mesh.degenerate_dropped == 1


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_mesh("/nonexistent/mesh.obj")


def test_load_unknown_extension(tmp_path):
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "mesh.stl", "solid"))


def test_load_quad_face_rejected(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "quad.obj", text))


def test_load_out_of_range_index(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99\n"
    with pytest.raises(ParseError):
        load_mesh(_write(tmp_path, "oob.obj", text))


def test_load_empty_mesh(tmp_path):
    with pytest.raises(EmptyMesh):
        load_mesh(_write(tmp_path, "empty.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"))


def test_unit_scale(tmp_path):
    mesh = load_mesh(_write(tmp_path, "cube.obj", UNIT_CUBE_OBJ), unit_scale=0.001)
    assert np.allclose(mesh.extent, [0.001, 0.001, 0.001])


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, -0.0])
def test_unit_scale_must_be_finite_and_positive(tmp_path, scale):
    path = _write(tmp_path, "cube.obj", UNIT_CUBE_OBJ)
    with pytest.raises(ParseError, match="unit scale") as err:
        load_mesh(path, unit_scale=scale)
    assert repr(scale) in str(err.value)
    assert path in str(err.value)


def test_ply_round_trip_ascii_and_binary(tmp_path):
    src = make_icosphere(0.03, 3)
    assert len(src.vertices) == 642
    for binary in (False, True):
        path = str(tmp_path / f"sphere_{binary}.ply")
        save_ply(path, src.vertices, src.faces, binary=binary)
        back = load_mesh(path)
        assert np.array_equal(back.faces, src.faces)
        assert np.allclose(back.vertices, src.vertices, atol=1e-15)
        assert back.watertight


_BINARY_TRIANGLE_HEADER = (
    b"ply\nformat binary_little_endian 1.0\n"
    b"element vertex 4\nproperty double x\nproperty double y\nproperty double z\n"
    b"element face 2\nproperty uchar flags\nproperty list uchar int vertex_indices\n"
    b"property list uchar float texcoord\n"
    b"end_header\n"
)
_BINARY_VERTICES = struct.pack("<12d", 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0)


def _binary_face(flags, indices, texcoord=(0.0,) * 6):
    return (struct.pack("<BB", flags, len(indices)) + struct.pack(f"<{len(indices)}i", *indices)
            + struct.pack(f"<B{len(texcoord)}f", len(texcoord), *texcoord))


def test_binary_ply_reads_faces_with_extra_properties(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_bytes(_BINARY_TRIANGLE_HEADER + _BINARY_VERTICES
                     + _binary_face(7, (0, 1, 2)) + _binary_face(9, (0, 2, 3)))
    mesh = load_mesh(str(path))
    assert np.array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize("first", [(0, 1, 2, 3), (0, 1, 2)])
def test_binary_ply_quad_face_rejected(tmp_path, first):
    rest = (0, 1, 2, 3) if len(first) == 3 else (0, 2, 3)
    path = tmp_path / "quad.ply"
    path.write_bytes(_BINARY_TRIANGLE_HEADER + _BINARY_VERTICES
                     + _binary_face(0, first) + _binary_face(0, rest))
    with pytest.raises(ParseError, match="only triangle faces"):
        load_mesh(str(path))


def test_binary_ply_extra_list_changing_length_rejected(tmp_path):
    path = tmp_path / "ragged.ply"
    path.write_bytes(_BINARY_TRIANGLE_HEADER + _BINARY_VERTICES
                     + _binary_face(0, (0, 1, 2)) + _binary_face(0, (0, 2, 3), (0.0,) * 9))
    with pytest.raises(ParseError, match="'texcoord' changes length"):
        load_mesh(str(path))


def test_binary_ply_truncated_body_rejected(tmp_path):
    body = _BINARY_VERTICES + _binary_face(0, (0, 1, 2)) + _binary_face(0, (0, 2, 3))
    for cut in (8, len(_BINARY_VERTICES) + 3, len(body) - 1):
        path = tmp_path / f"cut{cut}.ply"
        path.write_bytes(_BINARY_TRIANGLE_HEADER + body[:cut])
        with pytest.raises(ParseError, match="truncated"):
            load_mesh(str(path))


_ASCII_SQUARE = (
    "ply\nformat ascii 1.0\n"
    "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
    "element face 2\nproperty list uchar int vertex_indices\n"
    "end_header\n"
    "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
)


@pytest.mark.parametrize("faces, message", [
    ("3 0 1 2\n3 0 2 3\n", None),
    ("3 0 1 2\n4 0 1 2 3\n", "only triangle faces"),
    ("4 0 1 2 3\n3 0 2 3\n", "only triangle faces"),
    ("3 0 1 2\n3 0 2\n", "truncated"),
    ("3 0 1 2\n3 0 2 x\n", "malformed"),
])
def test_ascii_ply_faces(tmp_path, faces, message):
    path = _write(tmp_path, "square.ply", _ASCII_SQUARE + faces)
    if message is None:
        assert np.array_equal(load_mesh(path).faces, [[0, 1, 2], [0, 2, 3]])
    else:
        with pytest.raises(ParseError, match=message):
            load_mesh(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fmt", ["obj", "ascii_ply", "binary_ply"])
def test_non_finite_vertex_rejected(tmp_path, fmt, value):
    box = make_box((0.04, 0.04, 0.04))
    vertices = box.vertices.copy()
    vertices[5, 1] = value
    path = str(tmp_path / f"bad.{fmt.split('_')[-1]}")
    if fmt == "obj":
        save_obj(path, vertices, box.faces)
    else:
        save_ply(path, vertices, box.faces, binary=fmt == "binary_ply")
    with pytest.raises(ParseError, match="vertex 5 .*non-finite") as err:
        load_mesh(path)
    assert path in str(err.value)


def test_ply_skips_unknown_element(tmp_path):
    text = (
        "ply\nformat ascii 1.0\n"
        "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
        "element edge 2\nproperty int v1\nproperty int v2\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "0 1\n1 2\n"
        "3 0 1 2\n"
    )
    mesh = load_mesh(_write(tmp_path, "extra.ply", text))
    assert len(mesh.vertices) == 3
    assert len(mesh.faces) == 1


def test_obj_round_trip(tmp_path):
    src = make_box((0.04, 0.02, 0.01))
    path = str(tmp_path / "box.obj")
    save_obj(path, src.vertices, src.faces)
    back = load_mesh(path)
    assert np.array_equal(back.faces, src.faces)
    assert np.allclose(back.vertices, src.vertices)


def test_icosphere_normals_near_radial(icosphere):
    radial = icosphere.vertices / np.linalg.norm(icosphere.vertices, axis=1, keepdims=True)
    cos = np.clip(np.einsum("ij,ij->i", icosphere.vertex_normals, radial), -1.0, 1.0)
    assert np.arccos(cos).max() < 0.06


def test_outward_orientation_flip(tmp_path):
    # reverse every face of the cube; the loader must restore outward normals
    flipped = UNIT_CUBE_OBJ
    for line in UNIT_CUBE_OBJ.splitlines():
        if line.startswith("f "):
            a, b, c = line.split()[1:]
            flipped = flipped.replace(line + "\n", f"f {a} {c} {b}\n")
    mesh = load_mesh(_write(tmp_path, "inside_out.obj", flipped))
    assert mass_properties(mesh).volume > 0


def test_mass_properties_unit_cube():
    props = mass_properties(make_box((1.0, 1.0, 1.0)))
    assert props.method_used == "volume_centroid"
    assert abs(props.volume - 1.0) < 1e-9
    assert np.all(np.abs(props.gravity_center) < 1e-9)


def test_mass_properties_translated_cube():
    props = mass_properties(make_box((1.0, 1.0, 1.0), center=(1.0, 2.0, 3.0)))
    assert np.allclose(props.gravity_center, [1.0, 2.0, 3.0], atol=1e-9)


def test_mass_properties_l_prism_voxel_oracle():
    """200^3 voxel integration of the analytic L cross-section."""
    mesh = make_l_prism(1.0)
    n = 200
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    axes = [(np.arange(n) + 0.5) / n * (hi[i] - lo[i]) + lo[i] for i in range(3)]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    inside = (
        (x >= 0) & (x <= 2) & (z >= 0) & (z <= 2) & (y >= 0) & (y <= 1)
        & ~((x < 1) & (z > 1))
    )
    voxel_centroid = np.array([x[inside].mean(), y[inside].mean(), z[inside].mean()])
    props = mass_properties(mesh)
    assert props.method_used == "volume_centroid"
    assert abs(props.volume - 3.0) < 1e-9
    assert np.all(np.abs(props.gravity_center - voxel_centroid) < 1e-3)


def test_mass_properties_rigid_equivariance():
    rng = np.random.default_rng(7)
    mesh = make_l_prism(0.02)
    base = mass_properties(mesh)
    for _ in range(10):
        rot = random_rotation(rng)
        trans = rng.uniform(-1.0, 1.0, 3)
        moved = mass_properties(transform_mesh(mesh, rot, trans))
        assert abs(moved.volume - base.volume) < 1e-12
        assert np.all(np.abs(moved.gravity_center - (rot @ base.gravity_center + trans)) < 1e-9)


def test_mass_properties_open_mesh_fallback():
    src = make_box((1.0, 1.0, 1.0))
    open_mesh = build_mesh(src.vertices, src.faces[:-1])
    assert not open_mesh.watertight
    props = mass_properties(open_mesh)
    assert props.method_used == "area_centroid"
    assert props.volume == 0.0


def test_gravity_center_inside_bbox(desk_meshes):
    for mesh in desk_meshes.values():
        gc = mass_properties(mesh).gravity_center
        assert np.all(gc >= mesh.vertices.min(axis=0) - 1e-12)
        assert np.all(gc <= mesh.vertices.max(axis=0) + 1e-12)


def test_closest_point_above_cube():
    mesh = make_box((1.0, 1.0, 1.0))
    point, normal, dist = closest_surface_point(mesh, np.array([0.0, 0.0, 2.0]))
    assert np.allclose(point, [0.0, 0.0, 0.5], atol=1e-12)
    assert abs(dist - 1.5) < 1e-12
    assert normal[2] > 0


def test_closest_point_at_vertex():
    mesh = make_box((1.0, 1.0, 1.0))
    _, _, dist = closest_surface_point(mesh, mesh.vertices[3])
    assert dist < 1e-12


def test_closest_point_matches_triangle_oracle(icosphere):
    mesh = make_box((0.04, 0.04, 0.04))
    rng = np.random.default_rng(11)
    for target in (mesh, icosphere):
        for _ in range(50):
            q = rng.uniform(-0.08, 0.08, 3)
            _, _, dist = closest_surface_point(target, q)
            assert abs(dist - _oracle_distance(target, q)) < 1e-9


def test_closest_point_lower_bounds_samples(cube):
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-0.1, 0.1, 3)
        _, _, dist = closest_surface_point(cube, q)
        nearest_sample = np.linalg.norm(cube.surface_points - q, axis=1).min()
        assert dist <= nearest_sample + 1e-12


def test_sample_surface_count_and_determinism():
    mesh = make_box((0.04, 0.04, 0.04))
    area = 6 * 0.04 * 0.04
    rng = np.random.default_rng(0)
    pts, nrm = sample_surface(mesh, 250000.0, rng)
    assert len(pts) == int(np.ceil(area * 250000.0))
    again_pts, again_nrm = sample_surface(mesh, 250000.0, np.random.default_rng(0))
    assert np.array_equal(pts, again_pts)
    assert np.array_equal(nrm, again_nrm)
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-9)


def test_samples_lie_on_surface(cube):
    for q in cube.surface_points[::200]:
        _, _, dist = closest_surface_point(cube, q)
        assert dist < 1e-9


def test_with_surface_samples_preserves_mesh(cube):
    assert cube.surface_points is not None
    assert len(cube.surface_points) == len(cube.surface_normals)
    bare = make_box((0.04, 0.04, 0.04))
    assert np.array_equal(cube.vertices, bare.vertices)


def test_transform_mesh_carries_samples(cube):
    rng = np.random.default_rng(5)
    rot = random_rotation(rng)
    trans = np.array([0.1, -0.2, 0.3])
    moved = transform_mesh(cube, rot, trans)
    assert np.allclose(moved.surface_points, cube.surface_points @ rot.T + trans, atol=1e-15)
    assert np.allclose(moved.surface_normals, cube.surface_normals @ rot.T, atol=1e-15)
    assert moved.watertight == cube.watertight
