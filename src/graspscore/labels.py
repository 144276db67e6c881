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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .gripper import GraspPose
from .metrics import ScoreBreakdown
from .scene import PredictedGrasp

_POSE_COLUMNS = (
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "width", "depth",
)
LABEL_COLUMNS = ("object_id",) + _POSE_COLUMNS + ScoreBreakdown.FIELD_ORDER
PREDICTION_COLUMNS = ("object_id",) + _POSE_COLUMNS + ("predicted_score",)


@dataclass(frozen=True, eq=False)
class GraspRecord:
    """One labeled grasp: object id, pose, and full score breakdown."""

    object_id: str
    rotation: np.ndarray
    translation: np.ndarray
    width: float
    depth: float
    breakdown: ScoreBreakdown

    def row(self) -> list[str]:
        vals = [
            *np.asarray(self.rotation, dtype=float).ravel(),
            *np.asarray(self.translation, dtype=float),
            self.width,
            self.depth,
            *self.breakdown.as_tuple(),
        ]
        return [self.object_id] + [repr(float(v)) for v in vals]


def write_labels(path: str, records: list[GraspRecord]) -> int:
    """Write records to a label file; returns the record count.

    An empty record list still produces the header line.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(LABEL_COLUMNS) + "\n")
        for rec in records:
            if "," in rec.object_id or "\n" in rec.object_id:
                raise ValueError(f"object_id may not contain commas or newlines: {rec.object_id!r}")
            fh.write(",".join(rec.row()) + "\n")
    return len(records)


def read_labels(path: str) -> list[GraspRecord]:
    """Parse a label file back into records.

    Raises:
        SchemaError: wrong header, wrong column count, or an unparseable
            or non-finite value; carries the 1-based line number.
    """
    rows, header = _read_rows(path)
    if tuple(header) != LABEL_COLUMNS:
        raise SchemaError(f"expected label header {','.join(LABEL_COLUMNS)}", 1)
    records = []
    for lineno, parts in rows:
        vals = _floats(parts[1:], lineno)
        records.append(
            GraspRecord(
                object_id=parts[0],
                rotation=np.array(vals[0:9]).reshape(3, 3),
                translation=np.array(vals[9:12]),
                width=vals[12],
                depth=vals[13],
                breakdown=ScoreBreakdown(
                    s_t=vals[14], s_f1=vals[15], s_f2=vals[16], s_f=vals[17],
                    s_g_raw=vals[18], s_g=vals[19], s_c_raw=vals[20], s_c=vals[21],
                    s_hybrid=vals[22],
                ),
            )
        )
    return records


def write_predictions(path: str, predictions: list[PredictedGrasp]) -> int:
    """Write a minimal prediction file (pose + predicted_score)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(PREDICTION_COLUMNS) + "\n")
        for p in predictions:
            oid = "" if p.object_id is None else p.object_id
            if "," in oid or "\n" in oid:
                raise ValueError(f"object_id may not contain commas or newlines: {oid!r}")
            vals = [
                *p.pose.rotation.ravel(),
                *p.pose.translation,
                p.pose.width,
                p.pose.depth,
                p.predicted_score,
            ]
            fh.write(oid + "," + ",".join(repr(float(v)) for v in vals) + "\n")
    return len(predictions)


def read_predictions(path: str) -> list[PredictedGrasp]:
    """Parse predictor output: pose columns plus a score column.

    Accepts both the minimal prediction schema and full label files, whose
    ``s_hybrid`` column is taken as the predicted score. An empty
    ``object_id`` field means the prediction is unbound.
    """
    rows, header = _read_rows(path)
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

    out = []
    for lineno, parts in rows:
        vals = _floats([parts[cols[c]] for c in _POSE_COLUMNS], lineno)
        score = _floats([parts[score_col]], lineno)[0]
        oid = parts[cols["object_id"]]
        try:
            pose = GraspPose(
                rotation=np.array(vals[0:9]).reshape(3, 3),
                translation=np.array(vals[9:12]),
                width=vals[12],
                depth=vals[13],
            )
        except ValueError as exc:
            raise SchemaError(f"bad grasp pose: {exc}", lineno) from exc
        out.append(PredictedGrasp(pose=pose, predicted_score=score, object_id=oid or None))
    return out


def _read_rows(path: str):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError("empty file", 1)
    header = lines[0].split(",")
    width = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SchemaError(f"expected {width} fields, got {len(parts)}", lineno)
        rows.append((lineno, parts))
    return rows, header


def _floats(parts: list[str], lineno: int) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno)
    return values
