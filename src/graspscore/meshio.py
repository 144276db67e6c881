"""Reading and writing mesh files.

Supports Wavefront OBJ (``v``/``f`` lines, 1-based indices) and PLY in both
ascii and binary little-endian form. Only triangle faces are accepted; any
vertex normals stored in the file are ignored because normals are recomputed
from the geometry on load. Binary PLY faces are read as fixed-size records, so
a face list property other than the vertex indices must hold the same number
of values in every face.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .errors import ParseError

logger = logging.getLogger(__name__)

_FACE_INDEX_NAMES = ("vertex_indices", "vertex_index")

_NUMPY_CODES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def load_mesh(path: str, unit_scale: float = 1.0, format: str | None = None):
    """Load a triangle mesh from an OBJ or PLY file.

    The format is picked by file extension unless ``format`` ("obj" or
    "ply") forces it. Vertex coordinates are multiplied by ``unit_scale``,
    which is how meshes authored in millimeters are brought into meters.

    Returns:
        A TriangleMesh with recomputed, outward-oriented vertex normals.

    Raises:
        ParseError: a non-finite or non-positive ``unit_scale``, missing
            file, unknown format, or malformed content.
        EmptyMesh: no non-degenerate triangle survives parsing.
    """
    from .mesh import build_mesh

    if not (np.isfinite(unit_scale) and unit_scale > 0):
        raise ParseError(f"unit scale must be finite and positive, got {unit_scale!r}: {path}")
    if not os.path.isfile(path):
        raise ParseError(f"mesh file not found: {path}")
    kind = format.lower() if format else os.path.splitext(path)[1].lower().lstrip(".")
    if kind == "obj":
        vertices, faces = _parse_obj(path)
    elif kind == "ply":
        vertices, faces = _parse_ply(path)
    else:
        raise ParseError(f"unsupported mesh format {kind!r}: {path}")
    if unit_scale != 1.0:
        vertices = vertices * float(unit_scale)
    return build_mesh(vertices, faces)


def _parse_obj(path: str):
    vertices = []
    faces = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
            elif tag == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/", 1)[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from exc
                    if i <= 0:
                        raise ParseError(f"{path}:{lineno}: face indices must be positive 1-based")
                    idx.append(i - 1)
                if len(idx) != 3:
                    raise ParseError(f"{path}:{lineno}: only triangle faces are supported")
                faces.append(idx)
            # everything else (vn, vt, o, g, s, usemtl, mtllib) is ignored
    return _as_arrays(vertices, faces, path)


def _parse_ply(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"ply"):
        raise ParseError(f"{path}: not a PLY file")
    try:
        header_end = data.index(b"end_header")
    except ValueError:
        raise ParseError(f"{path}: PLY header has no end_header")
    body_start = data.index(b"\n", header_end) + 1
    header = data[:header_end].decode("ascii", errors="replace").splitlines()

    fmt = None
    elements = []  # (name, count, [(prop_name, type, list_count_type|None)])
    for line in header[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise ParseError(f"{path}: property before any element")
            if parts[1] == "list":
                elements[-1][2].append((parts[4], parts[3], parts[2]))
            else:
                elements[-1][2].append((parts[2], parts[1], None))
    if fmt not in ("ascii", "binary_little_endian"):
        raise ParseError(f"{path}: unsupported PLY format {fmt!r}")

    if fmt == "ascii":
        tokens = data[body_start:].decode("ascii", errors="replace").split()
        return _ply_elements_ascii(tokens, elements, path)
    return _ply_elements_binary(data[body_start:], elements, path)


def _ply_elements_ascii(tokens, elements, path):
    vertices, faces = None, None
    pos = 0
    try:
        for name, count, props in elements:
            if name == "vertex":
                width = len(props)
                cols = {p[0]: i for i, p in enumerate(props)}
                for key in ("x", "y", "z"):
                    if key not in cols:
                        raise ParseError(f"{path}: vertex element lacks property {key!r}")
                block = np.array(tokens[pos:pos + count * width], dtype=float).reshape(count, width)
                pos += count * width
                vertices = block[:, [cols["x"], cols["y"], cols["z"]]]
            elif name == "face":
                block = np.array(tokens[pos:pos + 4 * count], dtype=np.int64).reshape(count, 4)
                pos += 4 * count
                if (block[:, 0] != 3).any():
                    n = block[np.argmax(block[:, 0] != 3), 0]
                    raise ParseError(f"{path}: only triangle faces are supported (got {n}-gon)")
                faces = block[:, 1:]
            else:
                # skip unknown fixed-width elements; lists are not skippable
                for pname, ptype, list_type in props:
                    if list_type is not None:
                        raise ParseError(f"{path}: cannot skip list element {name!r}")
                pos += count * len(props)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: truncated or malformed PLY body: {exc}") from exc
    return _as_arrays(vertices, faces, path)


def _ply_elements_binary(body: bytes, elements, path):
    vertices, faces = None, None
    off = 0
    try:
        for name, count, props in elements:
            fixed = all(p[2] is None for p in props)
            if name == "vertex":
                if not fixed:
                    raise ParseError(f"{path}: list-typed vertex properties are unsupported")
                dt = np.dtype([(f"f{i}", "<" + _NUMPY_CODES[p[1]]) for i, p in enumerate(props)])
                size = dt.itemsize
                arr = np.frombuffer(body, dtype=dt, count=count, offset=off)
                off += size * count
                cols = {p[0]: f"f{i}" for i, p in enumerate(props)}
                for key in ("x", "y", "z"):
                    if key not in cols:
                        raise ParseError(f"{path}: vertex element lacks property {key!r}")
                vertices = np.column_stack([arr[cols["x"]], arr[cols["y"]], arr[cols["z"]]]).astype(float)
            elif name == "face":
                if count == 0:
                    continue
                dt = _face_record_dtype(body, off, props)
                arr = np.frombuffer(body, dtype=dt, count=count, offset=off)
                off += dt.itemsize * count
                for i, (pname, _, ltype) in enumerate(props):
                    if ltype is None:
                        continue
                    lengths = arr[f"n{i}"]
                    if pname in _FACE_INDEX_NAMES:
                        if (lengths != 3).any():
                            n = lengths[np.argmax(lengths != 3)]
                            raise ParseError(f"{path}: only triangle faces are supported (got {n}-gon)")
                        faces = arr[f"p{i}"]
                    elif (lengths != lengths[0]).any():
                        raise ParseError(f"{path}: face list property {pname!r} changes length")
                if faces is None:
                    raise ParseError(f"{path}: face element lacks vertex_indices")
            else:
                if not fixed:
                    raise ParseError(f"{path}: cannot skip list element {name!r}")
                off += count * sum(np.dtype(_NUMPY_CODES[p[1]]).itemsize for p in props)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: truncated or malformed PLY body: {exc}") from exc
    return _as_arrays(vertices, faces, path)


def _face_record_dtype(body: bytes, off: int, props) -> np.dtype:
    """Structured dtype of one binary face record.

    A list property becomes a length field ``n<i>`` and a values field
    ``p<i>``: three values for the vertex indices, and for any other list
    as many as the first record holds. Callers check the length fields.
    """
    fields = []
    for i, (pname, ptype, ltype) in enumerate(props):
        if ltype is None:
            fields.append((f"p{i}", "<" + _NUMPY_CODES[ptype]))
            continue
        fields.append((f"n{i}", "<" + _NUMPY_CODES[ltype]))
        if pname in _FACE_INDEX_NAMES:
            n = 3
        else:
            n = int(np.frombuffer(body, dtype=np.dtype(fields), count=1, offset=off)[f"n{i}"][0])
        fields.append((f"p{i}", "<" + _NUMPY_CODES[ptype], (n,)))
    return np.dtype(fields)


def _as_arrays(vertices, faces, path):
    if vertices is None or len(vertices) == 0:
        raise ParseError(f"{path}: no vertices found")
    v = np.asarray(vertices, dtype=float).reshape(-1, 3)
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"{path}: vertex {i} (0-based) has a non-finite coordinate: {v[i].tolist()}")
    f = np.asarray([] if faces is None else faces, dtype=np.int64).reshape(-1, 3)
    if len(f) and (f.min() < 0 or f.max() >= len(v)):
        raise ParseError(f"{path}: face index out of range")
    return v, f


def save_obj(path: str, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Write a minimal ascii OBJ file."""
    with open(path, "w", encoding="ascii") as fh:
        for x, y, z in np.asarray(vertices, dtype=float):
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in np.asarray(faces, dtype=np.int64):
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def save_ply(path: str, vertices: np.ndarray, faces: np.ndarray, binary: bool = False) -> None:
    """Write a triangle mesh as ascii or binary little-endian PLY."""
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    header = [
        "ply",
        "format binary_little_endian 1.0" if binary else "format ascii 1.0",
        f"element vertex {len(vertices)}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(vertices.astype("<f8").tobytes())
            records = np.empty(len(faces), dtype=[("n", "u1"), ("v", "<i4", (3,))])
            records["n"], records["v"] = 3, faces
            fh.write(records.tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(header) + "\n")
            for x, y, z in vertices:
                fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
            for a, b, c in faces:
                fh.write(f"3 {a} {b} {c}\n")


def save_point_cloud_ply(path: str, points: np.ndarray, colors: np.ndarray) -> None:
    """Write an ascii PLY point cloud with uint8 RGB colors (debug output)."""
    points = np.asarray(points, dtype=float)
    colors = np.asarray(colors, dtype=np.uint8)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(points)}",
        "property double x",
        "property double y",
        "property double z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
        for (x, y, z), (r, g, b) in zip(points, colors):
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r} {r} {g} {b}\n")
