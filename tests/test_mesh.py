import re
import struct

import numpy as np
import pytest

from graspscore import (
    EmptyMesh,
    GraspScoreError,
    ParseError,
    build_mesh,
    load_mesh,
    mass_properties,
    sample_surface,
    transform_mesh,
    with_surface_samples,
)
from graspscore import mesh as mesh_module
from graspscore.meshio import save_obj, save_ply
from graspscore.primitives import make_box, make_cylinder, make_icosphere, make_l_prism, make_plate

from conftest import mutant, random_rotation, surface_distance, watertight_oracle

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
    ("+3 0 1 2\n+3 0 2 3\n", None),
    ("3 0 1 2\n4 0 1 2 3\n", "only triangle faces"),
    ("4 0 1 2 3\n3 0 2 3\n", "only triangle faces"),
    ("3 0 1 2\n3 0 2\n", "truncated"),
    ("3 0 1\n", "truncated"),
    ("", "truncated"),
    ("3 0 1 2\n3 0 2 x\n", "malformed"),
    ("3 0 1 2\n3 0 2 99999999999999999999\n", "malformed"),
    ("3 0 1 2\n3.0 0 2 3\n", "malformed PLY body: face 1 .* not an integer"),
])
def test_ascii_ply_faces(tmp_path, faces, message):
    path = _write(tmp_path, "square.ply", _ASCII_SQUARE + faces)
    if message is None:
        assert np.array_equal(load_mesh(path).faces, [[0, 1, 2], [0, 2, 3]])
    else:
        with pytest.raises(ParseError, match=message):
            load_mesh(path)


def _indices(k, face):
    return tuple(face)


# Face properties around the vertex indices: (name, type, list count type or
# None, value or value(face number, face)).
_INDICES = ("vertex_indices", "int", "uchar", _indices)
_FACE_EXTRAS = {
    "scalar_before": [("red", "uchar", None, 255), _INDICES],
    "scalar_after": [_INDICES, ("quality", "float", None, 0.5)],
    "lists_and_scalars": [("flags", "uchar", None, 7), _INDICES,
                          ("texcoord", "float", "uchar", (0.25, 0.5, 0.75, 1.0, 0.0, 0.125)),
                          ("blue", "uchar", None, 9)],
}
_STRUCT_CODES = {"uchar": "B", "int": "i", "float": "f"}


def _ply_with_face_extras(path, mesh, props, binary):
    """Write ``mesh`` as PLY whose face element carries ``props``."""
    header = ["ply", "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {len(mesh.vertices)}", "property double x", "property double y",
              "property double z", f"element face {len(mesh.faces)}"]
    header += [f"property {ptype} {name}" if ltype is None else f"property list {ltype} {ptype} {name}"
               for name, ptype, ltype, _ in props]
    body = mesh.vertices.astype("<f8").tobytes()
    text = [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
    for k, face in enumerate(mesh.faces.tolist()):
        values, codes = [], "<"
        for _, ptype, ltype, value in props:
            value = value(k, face) if callable(value) else value
            if ltype is None:
                values, codes = values + [value], codes + _STRUCT_CODES[ptype]
            else:
                values += [len(value), *value]
                codes += _STRUCT_CODES[ltype] + f"{len(value)}" + _STRUCT_CODES[ptype]
        body += struct.pack(codes, *values)
        text.append(" ".join(str(v) for v in values))
    data = body if binary else ("\n".join(text) + "\n").encode("ascii")
    path.write_bytes(("\n".join(header) + "\nend_header\n").encode("ascii") + data)
    return str(path)


@pytest.mark.parametrize("layout", sorted(_FACE_EXTRAS))
def test_ascii_and_binary_ply_read_extra_face_properties_alike(tmp_path, layout):
    src = make_icosphere(0.03, 1)
    for binary in (False, True):
        mesh = load_mesh(_ply_with_face_extras(tmp_path / f"m{binary}.ply", src, _FACE_EXTRAS[layout], binary))
        assert np.array_equal(mesh.faces, src.faces)
        assert np.array_equal(mesh.vertices, src.vertices)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("case, message", [
    ("ragged", "'texcoord' changes length"),
    ("ragged_fourth", "'texcoord' changes length"),
    ("short_fourth", "'texcoord' changes length"),
    ("quad", r"only triangle faces are supported \(got 4-gon\)"),
])
def test_ply_face_list_checks_with_extra_properties(tmp_path, binary, case, message):
    src = make_icosphere(0.03, 1)
    props = [("flags", "uchar", None, 7), _INDICES, ("texcoord", "float", "uchar", lambda k, f: (0.5,) * 6)]
    # The ragged record is the last one, or the fourth of 80, which
    # misaligns every record after it.
    ragged = {"ragged": (len(src.faces) - 1, 8), "ragged_fourth": (3, 8), "short_fourth": (3, 4)}
    if case in ragged:
        at, n = ragged[case]
        props[2] = ("texcoord", "float", "uchar", lambda k, f: (0.5,) * (n if k == at else 6))
    else:
        props[1] = ("vertex_indices", "int", "uchar", lambda k, f: (*f, f[0]) if k == 3 else tuple(f))
    with pytest.raises(ParseError, match=message):
        load_mesh(_ply_with_face_extras(tmp_path / "m.ply", src, props, binary))


@pytest.mark.parametrize("binary", [False, True])
def test_ply_list_typed_vertex_property_rejected(tmp_path, binary):
    header = ("ply\nformat binary_little_endian 1.0\n" if binary else "ply\nformat ascii 1.0\n")
    header += ("element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
               "property list uchar float weights\n"
               "element face 1\nproperty list uchar int vertex_indices\nend_header\n")
    if binary:
        body = b"".join(struct.pack("<3fBf", *v, 1, 0.5) for v in ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        body += struct.pack("<B3i", 3, 0, 1, 2)
    else:
        body = b"0 0 0 1 0.5\n1 0 0 1 0.5\n0 1 0 1 0.5\n3 0 1 2\n"
    path = tmp_path / "weights.ply"
    path.write_bytes(header.encode("ascii") + body)
    with pytest.raises(ParseError, match="list-typed vertex properties are unsupported"):
        load_mesh(str(path))


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


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "edge_cut_short"])
def test_ply_skips_unknown_element(tmp_path, binary, cut):
    header = (
        f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
        "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
        "element edge 2\nproperty int v1\nproperty int v2\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
    )
    if binary:
        vertices = struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0)
        edges, face = struct.pack("<4i", 0, 1, 1, 2), struct.pack("<B3i", 3, 0, 1, 2)
    else:
        vertices, edges, face = b"0 0 0\n1 0 0\n0 1 0\n", b"0 1\n1 2\n", b"3 0 1 2\n"
    # Cut short, the file ends after the first of the two edges.
    body = vertices + (edges[:len(edges) // 2] if cut else edges + face)
    path = tmp_path / "extra.ply"
    path.write_bytes(header.encode("ascii") + body)
    if cut:
        with pytest.raises(ParseError, match="truncated"):
            load_mesh(str(path))
        return
    mesh = load_mesh(str(path))
    assert len(mesh.vertices) == 3
    assert len(mesh.faces) == 1


# A fault in the square's PLY header: (header line replaced, its
# replacement, the ParseError message after the file name, or None for a
# file that loads).
_HEADER_FAULTS = {
    "format_without_name": ("format", "format", ":2: PLY header line 'format' is missing fields"),
    "element_without_count": ("element vertex", "element vertex", ":3: .*'element vertex' is missing fields"),
    "property_without_name": ("property float z", "property float", ":6: .*'property float' is missing fields"),
    "list_without_types": ("property list", "property list uchar", ":8: .*'property list uchar' is missing"),
    "count_not_integer": ("element vertex", "element vertex abc", ":3: .*non-negative integer, got 'abc'"),
    "count_negative": ("element vertex", "element vertex -1", ":3: .*non-negative integer, got '-1'"),
    "unknown_type": ("property float z", "property floot z", ":6: unknown PLY property type 'floot'"),
    "element_without_properties": ("property list", "comment none", ":7: PLY element 'face' has no properties"),
    "comment_end_header": ("element vertex", "comment end_header is not the end\nelement vertex 4", None),
    "header_ends_the_file": ("end_header", "end_header", ": truncated or malformed PLY body"),
}


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
@pytest.mark.parametrize("case", sorted(_HEADER_FAULTS))
def test_ply_header_faults_name_the_line(tmp_path, binary, case):
    old, new, message = _HEADER_FAULTS[case]
    header = _ASCII_SQUARE[:_ASCII_SQUARE.index("end_header") + len("end_header")].splitlines()
    if binary:
        header[1] = "format binary_little_endian 1.0"
        body = (struct.pack("<12f", 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0)
                + struct.pack("<B3iB3i", 3, 0, 1, 2, 3, 0, 2, 3))
    else:
        body = b"0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"
    header[next(i for i, line in enumerate(header) if line.startswith(old))] = new
    text = "\n".join(header).encode("ascii")
    path = tmp_path / "square.ply"
    # The last case ends the file at end_header, with no newline.
    path.write_bytes(text if case == "header_ends_the_file" else text + b"\n" + body)
    if message is None:
        assert np.array_equal(load_mesh(str(path)).faces, [[0, 1, 2], [0, 2, 3]])
    else:
        with pytest.raises(ParseError, match=re.escape(str(path)) + message):
            load_mesh(str(path))


def test_mutated_mesh_files_load_or_raise_a_graspscore_error(tmp_path):
    box = make_box((0.04, 0.03, 0.02))
    seeds = {"obj": UNIT_CUBE_OBJ.encode("ascii")}
    for binary in (False, True):
        path = _ply_with_face_extras(tmp_path / "seed.ply", box, _FACE_EXTRAS["lists_and_scalars"], binary)
        seeds["binary.ply" if binary else "ascii.ply"] = open(path, "rb").read()
    rng = np.random.default_rng(0)
    for k in range(2000):
        kind = list(seeds)[k % 3]
        data = mutant(seeds[kind], rng)
        path = tmp_path / f"mutant.{kind.split('.')[-1]}"
        path.write_bytes(data)
        try:
            load_mesh(str(path))
        except GraspScoreError:
            pass
        except Exception as exc:
            pytest.fail(f"mutant {k} of the {kind} file raised {exc!r}: {data!r}")


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


_BOX_FACES = make_box((1.0, 1.0, 1.0)).faces
_TETRA = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
_WATERTIGHT_CASES = {
    "box": (_BOX_FACES, True),
    "plate": (make_plate().faces, True),
    "l_prism": (make_l_prism(1.0).faces, True),
    "cylinder": (make_cylinder().faces, True),
    **{f"icosphere{k}": (make_icosphere(0.03, k).faces, True) for k in range(5)},
    "tetrahedron": (_TETRA, True),
    "open": (_BOX_FACES[:-1], False),
    # A face turned over: its edges repeat its neighbours' directed edges.
    "flipped_face": (np.vstack([_BOX_FACES[:-1], _BOX_FACES[-1, ::-1]]), False),
    # Two faces on the same directed edge (0, 1), closed off by nothing else.
    "repeated_directed_edge": (np.array([[0, 1, 2], [0, 1, 3]]), False),
    # A fin on the tetrahedron's edge 0-1: that edge has three faces.
    "edge_of_three_faces": (np.vstack([_TETRA, [1, 0, 4]]), False),
    "fin_closed_by_its_twin": (np.vstack([_TETRA, [1, 0, 4], [0, 1, 4]]), False),
}


@pytest.mark.parametrize("case", sorted(_WATERTIGHT_CASES))
def test_watertight_check_matches_set_oracle(case):
    faces, verdict = _WATERTIGHT_CASES[case]
    faces = np.asarray(faces, dtype=np.int64)
    assert watertight_oracle(faces) == verdict
    assert mesh_module._is_watertight(faces, int(faces.max()) + 1) == verdict


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


def test_closest_point_lower_bounds_samples(cube):
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-0.1, 0.1, 3)
        dist = surface_distance(cube, q)
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
        assert surface_distance(cube, q) < 1e-9


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
