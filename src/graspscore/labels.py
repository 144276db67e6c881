"""Grasp tables and the flat files that store them.

``LabelTable`` and ``PredictionTable`` live here, with their column
layout: both lead each row with the 14 pose columns that ``_PoseColumns``
names.

Files hold one record per line, comma separated, ascii, with a header
naming every column. Floats are written as ``repr`` writes them, in
Python's shortest round-trip form, so a parsed file reproduces the
original float64 values bit for bit.

Label schema (24 columns)::

    object_id, r00..r22 (rotation, row-major), tx, ty, tz, width, depth,
    s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid

Prediction files use the same pose columns followed by a
``predicted_score`` column; a full label file is itself a valid prediction
file (``s_hybrid`` doubles as the predicted score).

Both kinds of file are handled as tables: an (n, k) float64 array plus
object ids. The writer formats the distinct values of each column of a
chunk with one orjson call, which gives ``repr``'s text, and gathers the
column's text by index; formatting only distinct values bounds the text
a write holds. The readers open a file once and pass over it once,
holding one block of bytes and one chunk of rows at a time. When the
object id leads each row, as in every file graspscore writes, a chunk's
values are parsed with one orjson call and checked as arrays. A chunk
that orjson might read otherwise than ``float()``, or that the checks
flag, goes through the row reader: its rows are split, parsed with one
numpy call and checked as arrays, and only the rows those checks flag go
through the per-row check, whose ``SchemaError`` names the file and the
first bad line. A read keeps the
first fault of each kind and, at the end of the file, raises the highest
ranked: a non-ascii byte, then a row of the wrong width, the header, a
second object id in a label file, and a bad value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter

import numpy as np
import orjson

from .errors import SchemaError
from .gripper import proper_rotations
from .metrics import SCORE_COLUMNS, MetricWeights, combine_scores

_POSE_COLUMNS = (
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "width", "depth",
)
LABEL_COLUMNS = ("object_id",) + _POSE_COLUMNS + SCORE_COLUMNS
PREDICTION_COLUMNS = ("object_id",) + _POSE_COLUMNS + ("predicted_score",)
_LABEL_INDEX = {name: j for j, name in enumerate(LABEL_COLUMNS[1:])}

# Rows formatted and written per file write, so the text of a large table
# is never held whole.
_WRITE_CHUNK = 16384
# Bytes read at a time, and rows split and parsed at a time: a read holds
# one block of text and one chunk of split rows, never the file.
_READ_BLOCK = 1 << 20
_READ_CHUNK = 4096
# Every ascii character str.splitlines breaks a line at.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e")
_NOT_ASCII = re.compile(rb"[\x80-\xff]")
# Characters an object id may not hold: the field separator and the line
# breaks.
_ID_FORBIDDEN = _LINE_BREAKS | {","}
# Characters of a JSON string or boolean, and the padding a JSON number may
# carry: rows that hold one are parsed by the row reader (see _json_rows).
_NOT_NUMBER = '"tf \t'


def check_object_id(object_id: str) -> None:
    """Raise ValueError unless ``object_id`` fits in one ascii CSV field."""
    if not object_id.isascii() or not _ID_FORBIDDEN.isdisjoint(object_id):
        raise ValueError(f"object_id must be ascii with no comma or line break: {object_id!r}")


class _PoseColumns:
    """Views of the 14 pose columns that lead every row of ``values``:
    ``rotations`` (n, 3, 3), ``translations`` (n, 3), ``widths`` and
    ``depths`` (n,). Both tables inherit them; ``_PoseColumns(values)``
    views a bare array."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    rotations = property(lambda self: self.values[:, 0:9].reshape(-1, 3, 3))
    translations = property(lambda self: self.values[:, 9:12])
    widths = property(lambda self: self.values[:, 12])
    depths = property(lambda self: self.values[:, 13])


@dataclass(frozen=True, eq=False)
class LabelTable(_PoseColumns):
    """Labeled grasps of one object.

    ``values`` is (n, 23) float64, its columns in ``LABEL_COLUMNS[1:]``
    order (pose, then the score breakdown); every row belongs to
    ``object_id``, which is checked once, here.
    """

    object_id: str
    values: np.ndarray

    def __post_init__(self):
        check_object_id(self.object_id)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(_LABEL_INDEX):
            raise ValueError(f"label values must be (n, {len(_LABEL_INDEX)}), got {values.shape}")
        object.__setattr__(self, "values", values)

    def column(self, name: str) -> np.ndarray:
        """The named column of ``LABEL_COLUMNS`` (not ``object_id``)."""
        return self.values[:, _LABEL_INDEX[name]]

    def rescored(self, weights: MetricWeights) -> LabelTable:
        """The same grasps with ``s_g``, ``s_c`` and ``s_hybrid`` recombined."""
        combined = combine_scores(*(self.column(c) for c in ("s_t", "s_f", "s_g_raw", "s_c_raw")), weights)
        values = self.values.copy()
        for name, column in zip(("s_g", "s_c", "s_hybrid"), combined):
            values[:, _LABEL_INDEX[name]] = column
        return LabelTable(self.object_id, values)


@dataclass(frozen=True, eq=False)
class PredictionTable(_PoseColumns):
    """Predictions as columns: one float64 row and one object id per grasp.

    ``values`` is (n, 15): the 14 pose columns and ``predicted_score``, the
    order of a prediction file's columns. ``object_ids[i]`` is row i's
    object id, or None for an unbound prediction; an empty id, as a file's
    empty ``object_id`` field gives, is taken as None. The values are taken
    as given: ``read_predictions`` validates a file's rows, and
    ``evaluate_ap`` works on the columns and checks no row again.
    """

    values: np.ndarray
    object_ids: tuple[str | None, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 15:
            raise ValueError(f"prediction values must be (n, 15), got {values.shape}")
        if len(self.object_ids) != len(values):
            raise ValueError(f"{len(self.object_ids)} object ids for {len(values)} predictions")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "object_ids", tuple(oid or None for oid in self.object_ids))

    scores = property(lambda self: self.values[:, 14])


def write_labels(path: str, table: LabelTable) -> int:
    """Write a label table; returns the row count.

    An empty table still produces the header line.
    """
    return _write_table(path, LABEL_COLUMNS, [table.object_id] * len(table), table.values)


def read_labels(path: str) -> LabelTable:
    """Parse a label file back into a table, in one pass over the file,
    which is opened once.

    Raises:
        SchemaError: an empty file, a byte that is not ascii, wrong column
            count, wrong header, a second object id, an unparseable or
            non-finite value, a rotation that is not proper orthonormal, or
            a width or depth that is not positive; names the file and the
            1-based line. When a file has several faults, the first of the
            earliest kind in this list is raised.
    """
    def columns(header):
        if tuple(header) != LABEL_COLUMNS:
            raise SchemaError(f"expected label header {','.join(LABEL_COLUMNS)}", 1, path)
        return 0, range(1, len(LABEL_COLUMNS)), len(LABEL_COLUMNS) - 1

    values, ids = _read_table(path, columns, one_object=True)
    return LabelTable(ids[0] if ids else "", values)


def write_predictions(path: str, predictions: PredictionTable) -> int:
    """Write a minimal prediction file (pose + predicted_score)."""
    ids = ["" if oid is None else oid for oid in predictions.object_ids]
    for object_id in set(ids):
        check_object_id(object_id)
    return _write_table(path, PREDICTION_COLUMNS, ids, predictions.values)


def read_predictions(path: str) -> PredictionTable:
    """Parse predictor output: pose columns plus a score column.

    Accepts both the minimal prediction schema and full label files, whose
    ``s_hybrid`` column is taken as the predicted score. An empty
    ``object_id`` field means the prediction is unbound. The file is opened
    once and read in one pass.

    Raises:
        SchemaError: an empty file, a byte that is not ascii, wrong column
            count, a missing column, or a bad value as ``read_labels``
            rejects one; names the file and the 1-based line. When a file
            has several faults, the first of the earliest kind in this list
            is raised.
    """
    def columns(header):
        cols = {name: i for i, name in enumerate(header)}
        missing = [c for c in ("object_id",) + _POSE_COLUMNS if c not in cols]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}", 1, path)
        if "predicted_score" in cols:
            score_col = cols["predicted_score"]
        elif "s_hybrid" in cols:
            score_col = cols["s_hybrid"]
        else:
            raise SchemaError("no predicted_score or s_hybrid column", 1, path)
        return cols["object_id"], [cols[c] for c in _POSE_COLUMNS] + [score_col], len(_POSE_COLUMNS)

    values, ids = _read_table(path, columns)
    return PredictionTable(values, tuple(ids))


def _write_table(path: str, header: tuple[str, ...], ids: list[str], values: np.ndarray) -> int:
    """Write ``header`` and one row per ``values`` row, led by its object id.

    ``ids`` holds each row's id, already checked. Rows go out in chunks of
    ``_WRITE_CHUNK``. Within a chunk, each distinct float of a column (by
    bit pattern, so ``-0.0`` stays apart from ``0.0``) is formatted once,
    by ``_float_text``, and the column's text is gathered by the
    ``np.unique`` inverse index; the rows are joined from the columns.
    The dedup is kept for memory, not time: text for every cell of a chunk
    would raise the traced peak of a write by about half, while a rotation
    entry or a depth holds a few hundred distinct values or fewer.
    """
    n = len(values)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _WRITE_CHUNK):
            columns = []
            for column in values[start:start + _WRITE_CHUNK].T:
                distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
                text = np.array(_float_text(distinct.view(np.float64)), dtype=object)
                columns.append(text[inverse].tolist())
            fh.write("\n".join(map(",".join, zip(ids[start:start + _WRITE_CHUNK], *columns))))
            fh.write("\n")  # not appended to the chunk's text, which would copy it
    return n


def _float_text(values: np.ndarray) -> list[str]:
    """``repr`` of each value of a contiguous 1-D float64 array.

    One orjson call formats the array. orjson prints the same shortest
    round-trip digits as ``repr``, and the same text for both zeros and for
    1e-4 <= |x| < 1e16; outside that range it differs in form (``0.00001``
    for ``1e-05``, ``1e16`` for ``1e+16``, ``null`` for nan and inf), so
    those values go through ``repr``.
    """
    if not len(values):
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii").split(",")
    magnitude = np.abs(values)
    for i in np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16) | (values == 0))).tolist():
        text[i] = repr(float(values[i]))
    return text


def _read_table(path: str, columns, one_object: bool = False) -> tuple[np.ndarray, list[str]]:
    """(values, per-row object ids) of a table file, read in one pass.

    ``columns(header)`` applies a reader's header rule to the split header:
    it gives the object id's field, the fields to parse and how many of
    those ``_check_row`` parses first, or raises the header's
    ``SchemaError``. With ``one_object`` every row must carry the first
    row's object id. Blank lines are not rows.

    The file is opened once. Rows are parsed ``_READ_CHUNK`` at a time.
    When the object id is a row's first field, a chunk's ids are cut off
    with one ``str.partition`` per row and the rest parsed by one orjson
    call (see ``_json_rows``). That parse is kept when the batched checks
    flag no row and, in a label file, the chunk holds the file's one id;
    any other chunk goes through the row reader, which splits its rows and
    checks their width, ids and values. The first fault of each kind is
    kept while the read goes on
    to the end of the file. A non-ascii byte is raised where it is found;
    at the end the first of the others is raised in this order: a row of
    the wrong width, the header, a second object id, a bad value. That is
    the order of a reader that checks every row's width before it checks
    the header or parses a value.
    """
    bad_width = bad_header = other_id = bad_value = None
    values, ids, seen = np.empty(0), [], {}  # one str per distinct id
    with open(path, "rb") as fh:
        lines = _lines(fh, path)
        header = next(lines, None)
        if header is None:
            raise SchemaError("empty file", 1, path)
        header = header.split(",")
        try:
            id_col, picked, split = columns(header)
        except SchemaError as exc:
            bad_header = exc
        numbered = filter(itemgetter(1), enumerate(lines, start=2))  # no blank lines
        while chunk := list(islice(numbered, _READ_CHUNK)):
            linenos, texts = zip(*chunk)
            parsed = None
            if not (bad_width or bad_header or other_id or bad_value) and id_col == 0:
                heads, _, rests = zip(*map(str.partition, texts, repeat(",")))
                chunk_ids = list(map(seen.setdefault, heads, heads))
                if not (one_object and len(seen) > 1):
                    parsed = _json_rows(rests, len(header) - 1)
                if parsed is not None:
                    parsed = parsed[:, [field - 1 for field in picked]]
                    if _flagged_rows(parsed).any():
                        parsed = None
            if parsed is None:
                rows = [text.split(",") for text in texts]
                if bad_width is None:
                    for lineno, parts in zip(linenos, rows):
                        if len(parts) != len(header):
                            bad_width = SchemaError(f"expected {len(header)} fields, got {len(parts)}", lineno, path)
                            break
                if bad_width or bad_header or other_id:
                    continue
                chunk_ids = [seen.setdefault(parts[id_col], parts[id_col]) for parts in rows]
                if one_object and len(seen) > 1:
                    first, other = list(seen)[:2]
                    other_id = SchemaError(f"object_id {other!r} differs from {first!r}; "
                                           "a label file holds one object", linenos[chunk_ids.index(other)], path)
                if other_id or bad_value:
                    continue
                try:
                    parsed = _parse_rows(rows, linenos, picked, split, path)
                except SchemaError as exc:
                    bad_value = exc
                    continue
            # grown in place (a realloc), so a read never holds two copies
            start = values.size
            values.resize(start + parsed.size, refcheck=False)
            values[start:] = parsed.ravel()
            ids.extend(chunk_ids)
    fault = bad_width or bad_header or other_id or bad_value
    if fault:
        raise fault
    return values.reshape(-1, len(picked)), ids


def _lines(fh, path: str):
    """Yield the lines of a binary file as ``str.splitlines`` cuts its whole
    ascii text, reading ``_READ_BLOCK`` bytes at a time.

    Raises:
        SchemaError: a byte is not ascii; names the byte and its line.
    """
    tail, done = "", 0
    while block := fh.read(_READ_BLOCK):
        if not block.isascii():
            found = _NOT_ASCII.search(block)
            # the lines before the byte, and the one it is on
            head = (tail + block[:found.start()].decode("ascii") + "?").splitlines()
            raise SchemaError(f"byte {found[0][0]:#04x} is not ascii", done + len(head), path)
        text = tail + block.decode("ascii")
        lines = text.splitlines()
        # The last line may go on in the next block. A CR that ends the
        # block stays with it, as the next block may open with the LF of a
        # CR LF pair.
        if text[-1] == "\r":
            tail = lines.pop() + "\r"
        elif text[-1] in _LINE_BREAKS:
            tail = ""
        else:
            tail = lines.pop()
        done += len(lines)
        yield from lines
    yield from tail.splitlines()


def _json_rows(rests: tuple[str, ...], width: int) -> np.ndarray | None:
    """The (n, width) float64 values of n rows of comma-separated fields,
    parsed as one JSON array by one orjson call, or None where orjson might
    read them otherwise than ``float()``.

    orjson reads a JSON number as ``float()`` does, bit for bit, but a bare
    ``-0`` as +0; the other spellings ``float()`` accepts (``nan``, ``inf``,
    ``+1``, ``1.``, ``.5``, ``01``, ``1_0``) it rejects. So the rows give
    None when orjson rejects them or they are not n rows of ``width``
    numbers; when they hold a quote, a ``t`` or an ``f`` (a JSON string or
    boolean, which numpy would take as a float) or padding; or when a row
    that holds a zero has a ``-0`` field.
    """
    text = "[[" + "],[".join(rests) + "]]"
    if any(char in text for char in _NOT_NUMBER):
        return None
    try:
        values = np.array(orjson.loads(text), dtype=np.float64)
    except (ValueError, TypeError):
        return None
    if values.shape != (len(rests), width):
        return None
    for i in np.flatnonzero((values == 0.0).any(axis=1)).tolist():
        if "-0" in rests[i].split(","):
            return None
    return values


def _parse_rows(rows: list[list[str]], linenos: list[int], columns, split: int, path: str) -> np.ndarray:
    """The (n, len(columns)) float64 values of grasp rows, checked.

    The first 14 of ``columns`` are the pose columns. Every value is parsed
    by one numpy call, which follows ``float()``. If that fails, or the
    batched checks flag rows, those rows go through ``_check_row`` in file
    order, which raises the error the per-row path raises first.
    """
    fields = list(map(itemgetter(*columns), rows))
    try:
        values = np.array(fields, dtype=np.float64).reshape(len(fields), len(columns))
    except ValueError:
        for row, lineno in zip(fields, linenos):
            _check_row(row, lineno, split, path)
        raise
    for i in np.flatnonzero(_flagged_rows(values)).tolist():
        _check_row(fields[i], linenos[i], split, path)
    return values


def _flagged_rows(values: np.ndarray) -> np.ndarray:
    """Mask of the rows ``_check_row`` rejects.

    A row passes only when every value is finite, ``proper_rotations``
    accepts its rotation, and width and depth are positive.
    """
    poses = _PoseColumns(values)
    ok = (np.isfinite(values).all(axis=1) & proper_rotations(poses.rotations)
          & (poses.widths > 0) & (poses.depths > 0))
    return ~ok


def _check_row(fields: tuple[str, ...], lineno: int, split: int, path: str) -> None:
    """The per-row check of one grasp row; raises its ``SchemaError``.

    ``fields[:split]`` and ``fields[split:]`` are parsed in turn; then the
    rotation, the width and the depth are checked, in that order, and the
    first fault found is the one reported.
    """
    vals = _floats(fields[:split], lineno, path) + _floats(fields[split:], lineno, path)
    if not proper_rotations(np.array(vals[0:9]).reshape(3, 3)):
        fault = "rotation must be a proper orthonormal matrix"
    elif not vals[12] > 0:
        fault = "width must be positive"
    elif not vals[13] > 0:
        fault = "depth must be positive"
    else:
        return
    raise SchemaError(f"bad grasp pose: {fault}", lineno, path)


def _floats(parts, lineno: int, path: str) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno, path) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno, path)
    return values
