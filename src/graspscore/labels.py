"""Grasp tables and the flat files that store them.

``LabelTable`` and ``PredictionTable`` live here, with their column
layout: both lead each row with the 14 pose columns that ``_PoseColumns``
names.

Files hold one record per line, comma separated, ascii, with a header
naming every column. Floats are written in Python's shortest round-trip
form, so a parsed file reproduces the original float64 values bit for
bit.

Label schema (24 columns)::

    object_id, r00..r22 (rotation, row-major), tx, ty, tz, width, depth,
    s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid

Prediction files use the same pose columns followed by a
``predicted_score`` column; a full label file is itself a valid prediction
file (``s_hybrid`` doubles as the predicted score).

Both kinds of file are handled as tables: an (n, k) float64 array plus
object ids. The writer formats each distinct value of a column once and
gathers the text by index. The readers make two passes over a file, each
holding one block of text at a time: the first checks every row's field
count, the second splits and parses the rows in chunks. Each chunk's
values are parsed with one numpy call and checked as arrays, and only the
rows those checks flag go through the per-row check, whose
``SchemaError`` names the first bad line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

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
# Characters decoded per read, and rows split and parsed at a time: a read
# holds one block of text and one chunk of split rows, never the file.
_READ_BLOCK = 1 << 20
_READ_CHUNK = 4096
# Every ascii character str.splitlines breaks a line at.
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e")
_NOT_ASCII = re.compile(rb"[\x80-\xff]")
# Characters an object id may not hold: the field separator and the line
# breaks.
_ID_FORBIDDEN = _LINE_BREAKS | {","}


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
    return _write_table(path, LABEL_COLUMNS, table.object_id, table.values)


def read_labels(path: str) -> LabelTable:
    """Parse a label file back into a table.

    Raises:
        SchemaError: wrong header, wrong column count, a second object id,
            an unparseable or non-finite value, a rotation that is not
            proper orthonormal, or a width or depth that is not positive;
            carries the 1-based line number.
    """
    header, n = _scan(path)
    if tuple(header) != LABEL_COLUMNS:
        raise SchemaError(f"expected label header {','.join(LABEL_COLUMNS)}", 1)
    values = np.empty((n, len(_LABEL_INDEX)))
    object_id, bad_value, start = None, None, 0
    for rows, linenos in _row_chunks(path):
        if object_id is None:
            object_id = rows[0][0]
        for parts, lineno in zip(rows, linenos):
            if parts[0] != object_id:
                raise SchemaError(f"object_id {parts[0]!r} differs from {object_id!r}; "
                                  "a label file holds one object", lineno)
        # a second object id anywhere in the file outranks a bad value
        if bad_value is None:
            try:
                values[start:start + len(rows)] = _parse_rows(rows, linenos, range(1, len(LABEL_COLUMNS)),
                                                              len(LABEL_COLUMNS) - 1)
            except SchemaError as exc:
                bad_value = exc
        start += len(rows)
    if bad_value is not None:
        raise bad_value
    return LabelTable(object_id or "", values)


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
    ``object_id`` field means the prediction is unbound.
    """
    header, n = _scan(path)
    cols = {name: i for i, name in enumerate(header)}
    missing = [c for c in ("object_id",) + _POSE_COLUMNS if c not in cols]
    if missing:
        raise SchemaError(f"missing column(s): {', '.join(missing)}", 1)
    if "predicted_score" in cols:
        score_col = cols["predicted_score"]
    elif "s_hybrid" in cols:
        score_col = cols["s_hybrid"]
    else:
        raise SchemaError("no predicted_score or s_hybrid column", 1)

    columns = [cols[c] for c in _POSE_COLUMNS] + [score_col]
    id_col = cols["object_id"]
    values = np.empty((n, len(columns)))
    ids: list[str] = []
    seen: dict[str, str] = {}  # one str per distinct id
    for rows, linenos in _row_chunks(path):
        values[len(ids):len(ids) + len(rows)] = _parse_rows(rows, linenos, columns, len(_POSE_COLUMNS))
        ids.extend(seen.setdefault(parts[id_col], parts[id_col]) for parts in rows)
    return PredictionTable(values, tuple(ids))


def _write_table(path: str, header: tuple[str, ...], ids: str | list[str], values: np.ndarray) -> int:
    """Write ``header`` and one row per ``values`` row, led by its object id.

    ``ids`` is one id for every row or a list of per-row ids, already
    checked. Rows go out in chunks of ``_WRITE_CHUNK``. Within a chunk,
    each distinct float of a column (by bit pattern, so ``-0.0`` stays
    apart from ``0.0``) is formatted once with ``repr``, and the column's
    text is gathered by the ``np.unique`` inverse index. Formatting per
    chunk bounds the text held at once; a column of repeated values, such
    as a rotation entry, costs one ``repr`` per distinct value per chunk.
    """
    n, m = values.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _WRITE_CHUNK):
            chunk = values[start:start + _WRITE_CHUNK]
            cells = np.empty((len(chunk), m + 1), dtype=object)
            cells[:, 0] = ids if isinstance(ids, str) else ids[start:start + _WRITE_CHUNK]
            for j, column in enumerate(chunk.T, start=1):
                distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
                text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
                cells[:, j] = text[inverse]
            fh.write("\n".join(map(",".join, cells.tolist())) + "\n")
    return n


def _lines(path: str):
    """Yield the lines of an ascii file as ``str.splitlines`` cuts its whole
    text, decoding ``_READ_BLOCK`` characters at a time.

    Raises:
        SchemaError: a byte is not ascii; names the file, the byte and its
            line.
    """
    with open(path, "r", encoding="ascii") as fh:
        tail = ""
        while block := _read_block(fh, path):
            lines = (tail + block).splitlines()
            # the block's last line may go on in the next block
            tail = "" if block[-1] in _LINE_BREAKS else lines.pop()
            yield from lines
        if tail:
            yield tail


def _read_block(fh, path: str) -> str:
    try:
        return fh.read(_READ_BLOCK)
    except UnicodeDecodeError:
        raise _not_ascii(path) from None


def _not_ascii(path: str) -> SchemaError:
    """The error for the first non-ascii byte of a file, on the line
    ``_lines`` gives it.

    Text mode reads CR LF and a lone CR as one LF, so the line breaks
    before the bad byte are its break characters less its CR LF pairs,
    counted ``_READ_BLOCK`` bytes at a time.
    """
    breaks, last = 0, b""
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BLOCK):
            found = _NOT_ASCII.search(block)
            head = block[:found.start()] if found else block
            breaks += sum(head.count(c.encode()) for c in _LINE_BREAKS) - head.count(b"\r\n")
            breaks -= last == b"\r" and head.startswith(b"\n")
            if found:
                return SchemaError(f"byte {found[0][0]:#04x} in {path} is not ascii", breaks + 1)
            last = block[-1:]
    return SchemaError(f"{path} is not ascii", breaks + 1)


def _scan(path: str) -> tuple[list[str], int]:
    """(header, row count) of a file, once every row has the header's width.

    The first row of the wrong width is reported only after the whole file
    has been decoded, so a decoding error anywhere comes first, as when the
    file was read at once. Blank lines are not rows.
    """
    lines = _lines(path)
    header = next(lines, None)
    if header is None:
        raise SchemaError("empty file", 1)
    header = header.split(",")
    commas = len(header) - 1
    n, bad_width = 0, None
    for lineno, line in enumerate(lines, start=2):
        if line:
            n += 1
            if bad_width is None and line.count(",") != commas:
                bad_width = SchemaError(f"expected {commas + 1} fields, got {line.count(',') + 1}", lineno)
    if bad_width is not None:
        raise bad_width
    return header, n


def _row_chunks(path: str):
    """Yield (rows split at commas, line numbers) of a file's rows, in
    chunks of ``_READ_CHUNK``."""
    lines = _lines(path)
    next(lines, None)  # the header
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=2):
        if line:
            rows.append(line.split(","))
            linenos.append(lineno)
            if len(rows) == _READ_CHUNK:
                yield rows, linenos
                rows, linenos = [], []
    if rows:
        yield rows, linenos


def _parse_rows(rows: list[list[str]], linenos: list[int], columns, split: int) -> np.ndarray:
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
            _check_row(row, lineno, split)
        raise
    for i in np.flatnonzero(_flagged_rows(values)).tolist():
        _check_row(fields[i], linenos[i], split)
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


def _check_row(fields: tuple[str, ...], lineno: int, split: int) -> None:
    """The per-row check of one grasp row; raises its ``SchemaError``.

    ``fields[:split]`` and ``fields[split:]`` are parsed in turn; then the
    rotation, the width and the depth are checked, in that order, and the
    first fault found is the one reported.
    """
    vals = _floats(fields[:split], lineno) + _floats(fields[split:], lineno)
    if not proper_rotations(np.array(vals[0:9]).reshape(3, 3)):
        fault = "rotation must be a proper orthonormal matrix"
    elif not vals[12] > 0:
        fault = "width must be positive"
    elif not vals[13] > 0:
        fault = "depth must be positive"
    else:
        return
    raise SchemaError(f"bad grasp pose: {fault}", lineno)


def _floats(parts, lineno: int) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno)
    return values
