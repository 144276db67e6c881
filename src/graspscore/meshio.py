"""Reading and writing mesh files.

Supports Wavefront OBJ (``v``/``f`` lines, 1-based indices) and PLY in both
ascii and binary little-endian form. Only triangle faces are accepted, and a
face whose area is not finite at the unit scale is rejected. Vertex normals
in the file are ignored: normals are recomputed from the geometry on load.

A PLY header ends at the first line that is exactly ``end_header``. Its
``format``, ``element`` and ``property`` lines need all their fields, an
element count must be a non-negative integer, a property type must be known
and every element needs a property; each fault is a ParseError naming the
header line. One walker then reads either encoding as fixed-size records laid
out by the header, parsing ascii tokens only for the fields it reads, so a
face list other than the vertex indices must hold as many values in every face.
"""

from __future__ import annotations

import os

import numpy as np

from . import geometry
from .errors import ParseError
from .mesh import build_mesh

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
            file, unknown format, malformed content, or a face whose area
            is not finite at ``unit_scale``.
        EmptyMesh: no non-degenerate triangle survives parsing.
    """
    if not (np.isfinite(unit_scale) and unit_scale > 0):
        raise ParseError(f"unit scale must be finite and positive, got {unit_scale!r}: {path}")
    if not os.path.isfile(path):
        raise ParseError(f"mesh file not found: {path}")
    kind = os.path.splitext(path)[1].lower().lstrip(".")
    parse = {"obj": _parse_obj, "ply": _parse_ply}.get(kind)
    if parse is None:
        raise ParseError(f"unsupported mesh format {kind!r}: {path}")
    vertices, faces = parse(path)
    return build_mesh(*_as_arrays(vertices, faces, path, float(unit_scale)))


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
    return vertices, faces


def _parse_ply(path: str):
    """Check the header once, line by line, and read the body by it.

    Each element is ``(name, count, [(property name, type, list length
    type or None)])``.
    """
    with open(path, "rb") as fh:
        if not fh.readline().startswith(b"ply"):
            raise ParseError(f"{path}: not a PLY file")
        fmt, elements, element_lines = None, [], []
        for lineno, raw in enumerate(iter(fh.readline, b""), start=2):
            parts = raw.decode("ascii", errors="replace").split()
            if parts == ["end_header"]:
                break
            word = parts[0] if parts else None
            need = {"format": 2, "element": 3, "property": 5 if parts[1:2] == ["list"] else 3}.get(word)
            if need is None:
                continue  # blank, comment or obj_info
            where = f"{path}:{lineno}"
            if len(parts) < need:
                raise ParseError(f"{where}: PLY header line {' '.join(parts)!r} is missing fields")
            if word == "format":
                fmt = parts[1]
                if fmt not in ("ascii", "binary_little_endian"):
                    raise ParseError(f"{where}: unsupported PLY format {fmt!r}")
            elif word == "element":
                count = _int_or_nan(parts[2])
                if not count >= 0:
                    raise ParseError(f"{where}: PLY element count must be a non-negative integer, "
                                     f"got {parts[2]!r}")
                elements.append((parts[1], count, []))
                element_lines.append(lineno)
            elif not elements:
                raise ParseError(f"{where}: property before any element")
            else:
                prop = (parts[4], parts[3], parts[2]) if parts[1] == "list" else (parts[2], parts[1], None)
                unknown = [t for t in prop[1:] if t not in (*_NUMPY_CODES, None)]
                if unknown:
                    raise ParseError(f"{where}: unknown PLY property type {unknown[0]!r}")
                elements[-1][2].append(prop)
        else:
            raise ParseError(f"{path}: PLY header has no end_header")
        body = fh.read()
    if fmt is None:
        raise ParseError(f"{path}: PLY header has no format line")
    for (name, _, props), lineno in zip(elements, element_lines):
        if not props:
            raise ParseError(f"{path}:{lineno}: PLY element {name!r} has no properties")
    return _ply_elements(body, fmt == "ascii", elements, path)


def _ply_elements(body: bytes, ascii: bool, elements, path):
    """The vertices and faces of a PLY body laid out by ``elements``.

    Each element is ``count`` records of ``_record_dtype`` from ``off``,
    which counts bytes into a binary body and tokens into an ascii one.
    The whole records of an element are read before a short body is
    reported, so a face record of the wrong length is named first.
    """
    if ascii:
        body = body.decode("ascii", errors="replace").split()
    vertices, faces = None, None
    off = 0
    try:
        for name, count, props in elements:
            if name != "face" and any(p[2] is not None for p in props):
                raise ParseError(f"{path}: list-typed vertex properties are unsupported" if name == "vertex"
                                 else f"{path}: cannot skip list element {name!r}")
            if count == 0:
                continue
            # An ascii vertex token is parsed as a float, any other as an int.
            code = ("<f8" if name == "vertex" else "<i8") if ascii else None
            dt = _record_dtype(
                props, lambda first, key: _records(body, ascii, off, 1, first)[1](key)[0], code)
            whole, field = _records(body, ascii, off, count, dt)
            size = dt.itemsize // 8 if ascii else dt.itemsize
            off += count * size
            if name == "vertex":
                cols = {p[0]: f"p{i}" for i, p in enumerate(props)}
                for key in ("x", "y", "z"):
                    if key not in cols:
                        raise ParseError(f"{path}: vertex element lacks property {key!r}")
                vertices = np.column_stack([field(cols[key]) for key in "xyz"]).astype(float)
            elif name == "face":
                faces = _face_indices(props, field, path)
            if whole < count:
                unit = "tokens" if ascii else "bytes"
                raise ValueError(f"{count} {name} records need {count * size} {unit}")
    except (ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: truncated or malformed PLY body: {exc}") from exc
    return vertices, faces


def _record_dtype(props, first_length, code: str | None = None) -> np.dtype:
    """Structured dtype of one record of an element.

    Property ``i`` is field ``p<i>``. A list property is a length field
    ``n<i>`` and a values field ``p<i>``: three values for the vertex
    indices, and for any other list as many as the first record holds,
    which ``first_length(dtype so far, "n<i>")`` reads. Fields take the
    header's types, or ``code`` when given. Callers check the length fields.
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


def _records(body, ascii: bool, off: int, count: int, dt: np.dtype):
    """How many of ``count`` records of ``dt`` at ``off`` in ``body`` are
    whole, and a function that reads field ``key`` of all of them.

    An ascii body is a list of tokens, one per 8-byte field of ``dt``, and a
    field's tokens are parsed by its type when it is read. Fields after a
    record of the wrong length are misaligned and may read any token, so a
    list length ``n<i>`` reads a token that ``int`` rejects as NaN.
    """
    if not ascii:
        whole = min(count, (len(body) - off) // dt.itemsize)
        return whole, np.frombuffer(body, dt, whole, off).__getitem__
    width = dt.itemsize // 8
    whole = min(count, (len(body) - off) // width)
    records = body[off:off + whole * width]

    def field(key):
        sub, at = dt.fields[key][:2]
        columns = [records[at // 8 + j::width] for j in range(sub.itemsize // 8)]
        try:
            values = np.array(columns, dtype=sub.base)
        except ValueError:
            if not key.startswith("n"):
                raise
            values = np.array([[_int_or_nan(t) for t in c] for c in columns], dtype=np.float64)
        return values.T.reshape(whole, *sub.shape)

    return whole, field


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


def _as_arrays(vertices, faces, path, unit_scale):
    """The vertices scaled by ``unit_scale`` and the faces, once every
    vertex is finite, every index in range and every face area finite."""
    if vertices is None or len(vertices) == 0:
        raise ParseError(f"{path}: no vertices found")
    with np.errstate(over="ignore"):
        v = np.asarray(vertices, dtype=float).reshape(-1, 3) * unit_scale
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"{path}: vertex {i} (0-based) has a non-finite coordinate: {v[i].tolist()}")
    f = np.asarray([] if faces is None else faces, dtype=np.int64).reshape(-1, 3)
    if len(f) and (f.min() < 0 or f.max() >= len(v)):
        raise ParseError(f"{path}: face index out of range")
    with np.errstate(over="ignore", invalid="ignore"):
        v0, v1, v2 = geometry.triangle_corners(v, f)
        finite = np.isfinite(np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1))
    if not finite.all():
        raise ParseError(f"{path}: face {int(np.argmin(finite))} (0-based) has an area that is not finite "
                         f"at unit scale {unit_scale!r}")
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
