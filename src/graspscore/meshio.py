"""Reading and writing mesh files.

Supports Wavefront OBJ (``v``/``f`` lines, 1-based indices) and PLY in both
ascii and binary little-endian form. Only triangle faces are accepted; any
vertex normals stored in the file are ignored because normals are recomputed
from the geometry on load. PLY faces are read as fixed-size records laid out
by the header, so a face list property other than the vertex indices must
hold the same number of values in every face.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .errors import ParseError
from .mesh import build_mesh

logger = logging.getLogger(__name__)

_FACE_INDEX_NAMES = ("vertex_indices", "vertex_index")

_NUMPY_CODES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def load_mesh(path: str, unit_scale: float = 1.0):
    """Load a triangle mesh from an OBJ or PLY file.

    The format is picked by file extension. Vertex coordinates are
    multiplied by ``unit_scale``, which is how meshes authored in
    millimeters are brought into meters.

    Returns:
        A TriangleMesh with recomputed, outward-oriented vertex normals.

    Raises:
        ParseError: a non-finite or non-positive ``unit_scale``, missing
            file, unknown format, or malformed content.
        EmptyMesh: no non-degenerate triangle survives parsing.
    """
    if not (np.isfinite(unit_scale) and unit_scale > 0):
        raise ParseError(f"unit scale must be finite and positive, got {unit_scale!r}: {path}")
    if not os.path.isfile(path):
        raise ParseError(f"mesh file not found: {path}")
    kind = os.path.splitext(path)[1].lower().lstrip(".")
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
                if any(p[2] is not None for p in props):
                    raise ParseError(f"{path}: list-typed vertex properties are unsupported")
                width = len(props)
                cols = {p[0]: i for i, p in enumerate(props)}
                for key in ("x", "y", "z"):
                    if key not in cols:
                        raise ParseError(f"{path}: vertex element lacks property {key!r}")
                block = np.array(tokens[pos:pos + count * width], dtype=float).reshape(count, width)
                pos += count * width
                vertices = block[:, [cols["x"], cols["y"], cols["z"]]]
            elif name == "face":
                if count == 0:
                    continue
                # One 8-byte field per token lays the record out in tokens.
                dt = _face_record_dtype(props, lambda first, key: tokens[pos + first.fields[key][1] // 8], "<i8")
                width = dt.itemsize // 8
                whole = min(count, (len(tokens) - pos) // width)
                records = tokens[pos:pos + whole * width]
                pos += count * width
                # A record of the wrong length is named before a short body.
                faces = _face_indices(props, lambda key: _token_field(records, dt, key), path)
                if whole < count:
                    raise ValueError(f"{count} face records need {count * width} tokens")
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
                dt = _face_record_dtype(
                    props, lambda first, key: np.frombuffer(body, dtype=first, count=1, offset=off)[key][0])
                whole = min(count, (len(body) - off) // dt.itemsize)
                arr = np.frombuffer(body, dtype=dt, count=whole, offset=off)
                off += dt.itemsize * count
                # A record of the wrong length is named before a short body.
                faces = _face_indices(props, arr.__getitem__, path)
                if whole < count:
                    raise ValueError(f"{count} face records need {count * dt.itemsize} bytes")
            else:
                if not fixed:
                    raise ParseError(f"{path}: cannot skip list element {name!r}")
                off += count * sum(np.dtype(_NUMPY_CODES[p[1]]).itemsize for p in props)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{path}: truncated or malformed PLY body: {exc}") from exc
    return _as_arrays(vertices, faces, path)


def _face_record_dtype(props, first_length, code: str | None = None) -> np.dtype:
    """Structured dtype of one face record.

    A list property becomes a length field ``n<i>`` and a values field
    ``p<i>``: three values for the vertex indices, and for any other list
    as many as the first record holds, which ``first_length(dtype so far,
    "n<i>")`` reads. Fields take the header's types, or ``code`` when
    given. Callers check the length fields.
    """
    fields = []
    for i, (pname, ptype, ltype) in enumerate(props):
        if ltype is None:
            fields.append((f"p{i}", code or "<" + _NUMPY_CODES[ptype]))
            continue
        fields.append((f"n{i}", code or "<" + _NUMPY_CODES[ltype]))
        n = 3 if pname in _FACE_INDEX_NAMES else int(first_length(np.dtype(fields), f"n{i}"))
        fields.append((f"p{i}", code or "<" + _NUMPY_CODES[ptype], (n,)))
    return np.dtype(fields)


def _token_field(records: list[str], dt: np.dtype, key: str) -> np.ndarray:
    """Field ``key`` of each ascii record in ``records``, a run of tokens
    laid out by ``dt`` at one 8-byte field per token.

    Fields are parsed as integers by ``int``. After a record of the wrong
    length the fields are misaligned and may read any token, so a list
    length field ``n<i>`` reads a token that ``int`` rejects as NaN, which
    matches no length.
    """
    field, offset = dt.fields[key][:2]
    width, first = dt.itemsize // 8, offset // 8
    columns = [records[first + j::width] for j in range(field.itemsize // 8)]
    try:
        values = np.array(columns, dtype=np.int64)
    except ValueError:
        if not key.startswith("n"):
            raise
        values = np.array([[_int_or_nan(t) for t in c] for c in columns], dtype=np.float64)
    return values.T.reshape(len(records) // width, *field.shape)


def _int_or_nan(token: str) -> float:
    try:
        return int(token)
    except ValueError:
        return np.nan


def _face_indices(props, column, path) -> np.ndarray:
    """The (n, 3) vertex indices of a face block whose field ``key`` is ``column(key)``.

    The list lengths are checked record by record, in file order: each
    record's vertex index list must hold 3 values and each other list as
    many as the first record's. A record of another length misaligns every
    record after it, so the first such record is the one reported, naming
    its first list, in property order, of the wrong length.
    """
    lists = [(i, pname) for i, (pname, _, ltype) in enumerate(props) if ltype is not None]
    indices = [i for i, pname in lists if pname in _FACE_INDEX_NAMES]
    if not indices:
        raise ParseError(f"{path}: face element lacks vertex_indices")
    lengths = np.column_stack([column(f"n{i}") for i, _ in lists])
    wanted = np.where([pname in _FACE_INDEX_NAMES for _, pname in lists], 3, lengths[:1])
    wrong = lengths != wanted
    if wrong.any():
        record = int(np.argmax(wrong.any(axis=1)))
        k = int(np.argmax(wrong[record]))
        pname, n = lists[k][1], lengths[record, k]
        if np.isnan(n):
            raise ParseError(f"{path}: malformed PLY body: face {record} (0-based) has a list length "
                             f"that is not an integer")
        if pname in _FACE_INDEX_NAMES:
            raise ParseError(f"{path}: only triangle faces are supported (got {n:g}-gon)")
        raise ParseError(f"{path}: face list property {pname!r} changes length")
    return column(f"p{indices[-1]}")


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
