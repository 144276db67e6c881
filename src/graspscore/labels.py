"""Flat-file store for grasp labels and predictor outputs.

One record per line, comma separated, ascii, with a header naming every
column. Floats are written in Python's shortest round-trip form, so a
parsed file reproduces the original float64 values bit for bit.

Label schema (24 columns)::

    object_id, r00..r22 (rotation, row-major), tx, ty, tz, width, depth,
    s_t, s_f1, s_f2, s_f, s_g_raw, s_g, s_c_raw, s_c, s_hybrid

Prediction files use the same pose columns followed by a
``predicted_score`` column; a full label file is itself a valid prediction
file (``s_hybrid`` doubles as the predicted score).

Both kinds of file are handled as tables: an (n, k) float64 array plus
object ids. The writer formats each distinct value of a column once and
gathers the text by index. The readers parse every value with one numpy
call, check all rows as arrays, and send only the rows those checks flag
through the per-row check, whose ``SchemaError`` names the first bad line.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import SchemaError
from .gripper import _ROTATION_TOL, GraspPose
from .metrics import MetricWeights, ScoreBreakdown, combine_scores
from .scene import PredictedGrasp, PredictionTable

_POSE_COLUMNS = (
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "width", "depth",
)
LABEL_COLUMNS = ("object_id",) + _POSE_COLUMNS + ScoreBreakdown.FIELD_ORDER
PREDICTION_COLUMNS = ("object_id",) + _POSE_COLUMNS + ("predicted_score",)
_LABEL_INDEX = {name: j for j, name in enumerate(LABEL_COLUMNS[1:])}

# Rows formatted and written per file write, so the text of a large table
# is never held whole.
_WRITE_CHUNK = 16384
# Characters an object id may not hold: the field separator and every
# ascii character str.splitlines breaks a line at.
_ID_FORBIDDEN = frozenset(",\n\r\x0b\x0c\x1c\x1d\x1e")
# A rotation whose R^T R is this close to the tolerance edge is decided by
# the per-row check; batched and per-row products differ by far less.
_EDGE_MARGIN = 1e-12


def check_object_id(object_id: str) -> None:
    """Raise ValueError unless ``object_id`` fits in one ascii CSV field."""
    if not object_id.isascii() or not _ID_FORBIDDEN.isdisjoint(object_id):
        raise ValueError(f"object_id must be ascii with no comma or line break: {object_id!r}")


@dataclass(frozen=True, eq=False)
class LabelTable:
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

    def __len__(self) -> int:
        return len(self.values)

    def column(self, name: str) -> np.ndarray:
        """The named column of ``LABEL_COLUMNS`` (not ``object_id``)."""
        return self.values[:, _LABEL_INDEX[name]]

    @property
    def rotations(self) -> np.ndarray:
        return self.values[:, 0:9].reshape(-1, 3, 3)

    @property
    def translations(self) -> np.ndarray:
        return self.values[:, 9:12]

    def rescored(self, weights: MetricWeights) -> LabelTable:
        """The same grasps with ``s_g``, ``s_c`` and ``s_hybrid`` recombined."""
        combined = combine_scores(*(self.column(c) for c in ("s_t", "s_f", "s_g_raw", "s_c_raw")), weights)
        values = self.values.copy()
        for name, column in zip(("s_g", "s_c", "s_hybrid"), combined):
            values[:, _LABEL_INDEX[name]] = column
        return LabelTable(self.object_id, values)


def write_labels(path: str, table: LabelTable) -> int:
    """Write a label table; returns the row count.

    An empty table still produces the header line.
    """
    return _write_table(path, LABEL_COLUMNS, table.object_id, table.values)


def read_labels(path: str) -> LabelTable:
    """Parse a label file back into a table.

    Raises:
        SchemaError: wrong header, wrong column count, a second object id,
            an unparseable or non-finite value, or a pose that
            ``GraspPose`` rejects; carries the 1-based line number.
    """
    header, rows, linenos = _read_rows(path)
    if tuple(header) != LABEL_COLUMNS:
        raise SchemaError(f"expected label header {','.join(LABEL_COLUMNS)}", 1)
    object_id = rows[0][0] if rows else ""
    for parts, lineno in zip(rows, linenos):
        if parts[0] != object_id:
            raise SchemaError(f"object_id {parts[0]!r} differs from {object_id!r}; "
                              "a label file holds one object", lineno)
    values = _parse_rows(rows, linenos, range(1, len(LABEL_COLUMNS)), len(LABEL_COLUMNS) - 1)
    return LabelTable(object_id, values)


def write_predictions(path: str, predictions: PredictionTable | Sequence[PredictedGrasp]) -> int:
    """Write a minimal prediction file (pose + predicted_score)."""
    if not isinstance(predictions, PredictionTable):
        predictions = PredictionTable.from_grasps(predictions)
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
    header, rows, linenos = _read_rows(path)
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

    values = _parse_rows(rows, linenos, [cols[c] for c in _POSE_COLUMNS] + [score_col], len(_POSE_COLUMNS))
    id_col = cols["object_id"]
    return PredictionTable(values, tuple(parts[id_col] or None for parts in rows))


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


def _read_rows(path: str) -> tuple[list[str], list[list[str]], list[int]]:
    """(header, rows, line numbers) of a file; every row has the header's width."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty file", 1)
    header = lines[0].split(",")
    width = len(header)
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SchemaError(f"expected {width} fields, got {len(parts)}", lineno)
        rows.append(parts)
        linenos.append(lineno)
    return header, rows, linenos


def _parse_rows(rows: list[list[str]], linenos: list[int], columns, split: int) -> np.ndarray:
    """The (n, len(columns)) float64 values of grasp rows, checked.

    The first 14 of ``columns`` are the pose columns. Every value is parsed
    by one numpy call, which follows ``float()``. If that fails, or the
    batched checks flag rows, those rows go through ``_check_row`` in file
    order, so the error is the one the per-row path raises first.
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
    """Mask of the rows ``_check_row`` might reject.

    A row passes unflagged only when every value is finite, width and
    depth are positive, det R > 0, and every entry of R^T R lies inside
    the orthonormality tolerance by more than ``_EDGE_MARGIN``.
    """
    finite = np.isfinite(values).all(axis=1)
    # A non-finite row is flagged already; its rotation is swapped for I.
    r = np.where(finite[:, None, None], values[:, 0:9].reshape(-1, 3, 3), np.eye(3))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(r.transpose(0, 2, 1), r)
        inside = (np.abs(gram - np.eye(3)) <= _ROTATION_TOL - _EDGE_MARGIN).all(axis=(1, 2))
        proper = np.linalg.det(r) > 0
    ok = finite & inside & proper & (values[:, 12] > 0) & (values[:, 13] > 0)
    return ~ok


def _check_row(fields: tuple[str, ...], lineno: int, split: int) -> None:
    """The per-row check of one grasp row; raises its ``SchemaError``.

    ``fields[:split]`` and ``fields[split:]`` are parsed in turn, then the
    first 14 values must make a ``GraspPose``.
    """
    vals = _floats(fields[:split], lineno) + _floats(fields[split:], lineno)
    try:
        GraspPose(
            rotation=np.array(vals[0:9]).reshape(3, 3),
            translation=np.array(vals[9:12]),
            width=vals[12],
            depth=vals[13],
        )
    except ValueError as exc:
        raise SchemaError(f"bad grasp pose: {exc}", lineno) from exc


def _floats(parts, lineno: int) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno)
    return values
