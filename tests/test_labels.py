import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspscore import (
    LabelTable,
    PredictionTable,
    read_labels,
    read_predictions,
    write_labels,
    write_predictions,
)
from graspscore import labels
from graspscore.errors import SchemaError
from graspscore.gripper import proper_rotations
from graspscore.labels import LABEL_COLUMNS, PREDICTION_COLUMNS

from conftest import GraspPose, allclose_rotation, prediction_table, random_rotation


def _random_values(rng, n):
    """(n, 23) label values: valid poses, uniform scores."""
    rows = []
    for _ in range(n):
        rows.append([
            *random_rotation(rng).ravel(),
            *rng.uniform(-1, 1, 3),
            rng.uniform(0.01, 0.085),
            rng.choice([0.01, 0.02, 0.03, 0.04]),
            *rng.uniform(0.0, 1.0, 9),
        ])
    return np.array(rows, dtype=float).reshape(n, 23)


def _random_table(rng, n, object_id="obj"):
    return LabelTable(object_id, _random_values(rng, n))


def test_label_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    table = _random_table(rng, 1000, "obj_3")
    path = str(tmp_path / "labels.csv")
    assert write_labels(path, table) == 1000
    loaded = read_labels(path)
    assert len(loaded) == 1000
    assert loaded.object_id == "obj_3"
    assert np.array_equal(loaded.values.view(np.int64), table.values.view(np.int64))
    assert np.array_equal(loaded.rotations, table.rotations)
    assert np.array_equal(loaded.column("s_hybrid"), table.values[:, 22])


def test_label_header(tmp_path):
    path = str(tmp_path / "labels.csv")
    write_labels(path, LabelTable("obj", np.zeros((0, 23))))
    text = open(path).read()
    assert text == ",".join(LABEL_COLUMNS) + "\n"
    assert LABEL_COLUMNS[0] == "object_id"
    assert len(LABEL_COLUMNS) == 24
    assert len(read_labels(path)) == 0


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,label,header\n")
    with pytest.raises(SchemaError) as err:
        read_labels(str(path))
    assert "line 1" in str(err.value)


def test_read_reports_line_numbers(tmp_path):
    good = str(tmp_path / "good.csv")
    rng = np.random.default_rng(42)
    write_labels(good, _random_table(rng, 3))
    lines = open(good).read().splitlines()

    short = tmp_path / "short.csv"
    short.write_text("\n".join([lines[0], lines[1], "a,b,c"]) + "\n")
    with pytest.raises(SchemaError) as err:
        read_labels(str(short))
    assert "line 3" in str(err.value)

    broken = lines[2].split(",")
    broken[5] = "zap"
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("\n".join([lines[0], lines[1], ",".join(broken)]) + "\n")
    with pytest.raises(SchemaError) as err:
        read_labels(str(mangled))
    assert "line 3" in str(err.value)


def test_label_file_holds_one_object(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels(str(path), _random_table(np.random.default_rng(50), 3, "cube"))
    lines = path.read_text().splitlines()
    lines[3] = "plate" + lines[3][len("cube"):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="'plate' differs from 'cube'") as err:
        read_labels(str(path))
    assert err.value.line == 4
    assert len(read_predictions(str(path))) == 3


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_labels(str(path))
    with pytest.raises(SchemaError):
        read_predictions(str(path))


def test_blank_lines_skipped(tmp_path):
    path = str(tmp_path / "labels.csv")
    rng = np.random.default_rng(43)
    write_labels(path, _random_table(rng, 2))
    with open(path, "a") as fh:
        fh.write("\n\n")
    assert len(read_labels(path)) == 2


def test_object_id_with_comma_rejected(tmp_path):
    values = _random_values(np.random.default_rng(44), 1)
    pose = GraspPose(np.eye(3), np.zeros(3), 0.05, 0.02)
    path = tmp_path / "x.csv"
    for object_id in ["a,b", "a\nb", "a\rb", "a\x0cb", "caf\u00e9"]:
        with pytest.raises(ValueError, match="object_id"):
            LabelTable(object_id, values)
        with pytest.raises(ValueError, match="object_id"):
            write_predictions(str(path), prediction_table([pose], [0.5], [object_id]))
        assert not path.exists()


def _random_predictions(rng, n):
    """(poses, predicted scores, object ids) of n random predictions."""
    poses, scores = [], []
    for _ in range(n):
        poses.append(GraspPose(rotation=random_rotation(rng), translation=rng.uniform(-1, 1, 3),
                               width=float(rng.uniform(0.01, 0.085)), depth=0.02))
        scores.append(float(rng.uniform()))
    return poses, scores, [None if i % 3 == 0 else f"obj{i % 4}" for i in range(n)]


def test_prediction_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    poses, scores, object_ids = _random_predictions(rng, 200)
    path = str(tmp_path / "preds.csv")
    assert write_predictions(path, prediction_table(poses, scores, object_ids)) == 200
    header = open(path).readline().rstrip("\n")
    assert header == ",".join(PREDICTION_COLUMNS)
    loaded = read_predictions(path)
    assert len(loaded) == 200
    for i, pose in enumerate(poses):
        assert np.array_equal(pose.rotation, loaded.rotations[i])
        assert np.array_equal(pose.translation, loaded.translations[i])
        assert pose.width == loaded.values[i, 12]
        assert pose.depth == loaded.values[i, 13]
        assert scores[i] == loaded.scores[i]
        assert object_ids[i] == loaded.object_ids[i]
    again = str(tmp_path / "again.csv")
    write_predictions(again, loaded)
    assert open(again).read() == open(path).read()


def test_label_file_doubles_as_predictions(tmp_path):
    rng = np.random.default_rng(46)
    table = _random_table(rng, 20, "obj_1")
    path = str(tmp_path / "labels.csv")
    write_labels(path, table)
    preds = read_predictions(path)
    assert len(preds) == 20
    assert np.array_equal(preds.scores, table.column("s_hybrid"))
    assert preds.object_ids == ("obj_1",) * 20
    assert np.array_equal(preds.rotations, table.rotations)


def test_predictions_missing_column(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("object_id,r00\nfoo,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_predictions(str(path))
    assert "missing column" in str(err.value)


@pytest.mark.parametrize("column", ["tx", "width", "predicted_score", "r11"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_predictions_reject_non_finite_values(tmp_path, column, value):
    rng = np.random.default_rng(48)
    path = str(tmp_path / "preds.csv")
    write_predictions(path, prediction_table(*_random_predictions(rng, 2)))
    lines = open(path).read().splitlines()
    parts = lines[2].split(",")
    parts[PREDICTION_COLUMNS.index(column)] = value
    (tmp_path / "mangled.csv").write_text("\n".join([lines[0], lines[1], ",".join(parts)]) + "\n")
    with pytest.raises(SchemaError, match="non-finite") as err:
        read_predictions(str(tmp_path / "mangled.csv"))
    assert err.value.line == 3


def test_labels_reject_non_finite_values(tmp_path):
    path = str(tmp_path / "labels.csv")
    write_labels(path, _random_table(np.random.default_rng(49), 3))
    lines = open(path).read().splitlines()
    parts = lines[3].split(",")
    parts[LABEL_COLUMNS.index("s_f")] = "nan"
    lines[3] = ",".join(parts)
    (tmp_path / "mangled.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="non-finite") as err:
        read_labels(str(tmp_path / "mangled.csv"))
    assert err.value.line == 4


def test_predictions_reject_bad_pose(tmp_path):
    rng = np.random.default_rng(47)
    path = str(tmp_path / "preds.csv")
    write_predictions(path, prediction_table(*_random_predictions(rng, 2)))
    lines = open(path).read().splitlines()
    parts = lines[2].split(",")
    parts[1:10] = [repr(v) for v in (2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)]
    mangled = "\n".join([lines[0], lines[1], ",".join(parts)]) + "\n"
    path2 = tmp_path / "mangled.csv"
    path2.write_text(mangled)
    with pytest.raises(SchemaError) as err:
        read_predictions(str(path2))
    assert "line 3" in str(err.value)
    assert "pose" in str(err.value)


# --- the columnar writer against a per-row reference ---

def _per_row_text(header, ids, values):
    """The per-row writer the columnar one replaced: repr(float(v)) per value."""
    lines = [",".join(header)]
    for object_id, row in zip(ids, values):
        lines.append(object_id + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    # either side of repr's switch to exponent notation
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
    1e-4, 0.00010000000000000002, 9.999999999999999e-05,
    1e-5, 1.0000000000000003e-05, 9.999999999999999e-06, -1e-5,
    0.1, 1.0, 123456789.0, math.inf, -math.inf, math.nan,
]


@st.composite
def _label_values(draw):
    """(n, 23) values; each column draws from its own small pool, so
    columns hold repeats, a single distinct value, or both zeros."""
    n = draw(st.integers(0, 12))
    columns = []
    for _ in range(23):
        pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        columns.append([pool[k] for k in picks])
    return np.array(columns, dtype=np.float64).T.reshape(n, 23)


@settings(max_examples=150, deadline=None)
@given(values=_label_values(), chunk=st.sampled_from([1, 2, 5, labels._WRITE_CHUNK]))
def test_writer_matches_per_row_reference(tmp_path_factory, values, chunk):
    path = tmp_path_factory.mktemp("writer") / "labels.csv"
    with mock.patch.object(labels, "_WRITE_CHUNK", chunk):
        assert write_labels(str(path), LabelTable("obj", values)) == len(values)
    assert path.read_text() == _per_row_text(LABEL_COLUMNS, ["obj"] * len(values), values)


def test_writer_matches_per_row_reference_past_one_chunk(tmp_path):
    rng = np.random.default_rng(51)
    n = labels._WRITE_CHUNK + 1234
    values = rng.choice(np.array(_EDGE_FLOATS), size=(n, 23))
    values[:, 5:] = rng.normal(size=(n, 18)) * 10.0 ** rng.integers(-320, 300, size=(n, 18))
    values[:, 7] = -0.0
    path = tmp_path / "labels.csv"
    write_labels(str(path), LabelTable("big", values))
    assert path.read_text() == _per_row_text(LABEL_COLUMNS, ["big"] * n, values)

    ids = [["", "a", "b_2"][k] for k in rng.integers(0, 3, n)]
    path = tmp_path / "preds.csv"
    write_predictions(str(path), PredictionTable(values[:, :15], [oid or None for oid in ids]))
    assert path.read_text() == _per_row_text(PREDICTION_COLUMNS, ids, values[:, :15])


# --- the batched reader against the per-row reader it replaced ---

def _old_rows(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise SchemaError(f"expected {len(header)} fields, got {len(parts)}", lineno)
        rows.append((lineno, parts))
    return rows


def _old_floats(parts, lineno):
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno)
    return values


def _per_row_read(path, kind):
    """The per-row reader: float() per field, then a GraspPose per row.

    Prediction rows parse the pose and the score in turn; label rows parse
    all 23 values at once."""
    for lineno, parts in _old_rows(path):
        if kind == "labels":
            vals = _old_floats(parts[1:], lineno)
        else:
            vals = _old_floats(parts[1:15], lineno) + _old_floats([parts[15]], lineno)
        try:
            GraspPose(rotation=np.array(vals[0:9]).reshape(3, 3), translation=np.array(vals[9:12]),
                      width=vals[12], depth=vals[13])
        except ValueError as exc:
            raise SchemaError(f"bad grasp pose: {exc}", lineno) from exc


def _rotation_fault(scale=1.0, flip=False):
    def apply(parts, columns):
        r = np.array([float(v) for v in parts[1:10]]).reshape(3, 3) * scale
        if flip:
            r[:, 0] = -r[:, 0]
        parts[1:10] = [repr(v) for v in r.ravel().tolist()]
    return apply


def _set(column, value):
    def apply(parts, columns):
        parts[columns.index(column)] = value
    return apply


def _set_score(value):
    def apply(parts, columns):
        parts[-1] = value  # s_hybrid or predicted_score
    return apply


def _both(*faults):
    def apply(parts, columns):
        for fault in faults:
            fault(parts, columns)
    return apply


_FAULTS = {
    "bad_float": _set("ty", "zap"),
    "hex_float": _set("r12", "0x1p3"),
    "nan": _set("r00", "nan"),
    "inf_score": _set_score("inf"),
    "bad_score": _set_score("0.5.5"),
    # a prediction row parses its pose before its score; a label row parses all at once
    "nan_pose_bad_score": _both(_set("tz", "nan"), _set_score("0.5.5")),
    "huge": _set("depth", "1e999"),
    "scaled_rotation": _rotation_fault(scale=1.0 + 1e-4),
    "shrunk_rotation": _rotation_fault(scale=1.0 - 6e-6),
    "reflection": _rotation_fault(flip=True),
    "zero_width": _set("width", "0.0"),
    "negative_depth": _set("depth", "-0.01"),
    # a row's first fault is named: values, then rotation, width, depth
    "reflection_zero_width": _both(_rotation_fault(flip=True), _set("width", "0.0")),
    "zero_width_negative_depth": _both(_set("width", "0.0"), _set("depth", "-0.01")),
    "nan_pose_reflection": _both(_set("tx", "nan"), _rotation_fault(flip=True)),
    "reflection_bad_score": _both(_rotation_fault(flip=True), _set_score("0.5.5")),
    "short_row": lambda parts, columns: parts.pop(),
    "long_row": lambda parts, columns: parts.append("0.5"),
}


def _fault_file(tmp_path, kind, faults, n=8, seed=52):
    """A label or prediction file of n valid rows with faults[line] applied."""
    values = _random_values(np.random.default_rng(seed), n)
    path = str(tmp_path / f"{kind}.csv")
    if kind == "labels":
        write_labels(path, LabelTable("obj", values))
        columns = LABEL_COLUMNS
    else:
        write_predictions(path, PredictionTable(values[:, :15], ["obj"] * n))
        columns = PREDICTION_COLUMNS
    lines = open(path).read().splitlines()
    for lineno, fault in faults.items():
        parts = lines[lineno - 1].split(",")
        _FAULTS[fault](parts, columns)
        lines[lineno - 1] = ",".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _assert_same_error(path, kind):
    reader = read_labels if kind == "labels" else read_predictions
    with pytest.raises(SchemaError) as want:
        _per_row_read(path, kind)
    with pytest.raises(SchemaError) as got:
        reader(path)
    assert str(got.value) == str(want.value)
    assert got.value.line == want.value.line
    return got.value


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("lineno", [2, 5, 9])
def test_read_error_matches_per_row_reader(tmp_path, kind, fault, lineno):
    path = _fault_file(tmp_path, kind, {lineno: fault})
    assert _assert_same_error(path, kind).line == lineno


# Field counts are checked for the whole file before any value, as the
# per-row reader did, so the pairs below share a kind of fault or are both
# value faults.
@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("first, second", [
    ("reflection", "bad_float"), ("bad_float", "reflection"), ("zero_width", "nan"),
    ("huge", "scaled_rotation"), ("short_row", "long_row"),
])
def test_earlier_bad_row_wins(tmp_path, kind, first, second):
    path = _fault_file(tmp_path, kind, {4: first, 7: second})
    assert _assert_same_error(path, kind).line == 4


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_rotation_inside_rtol_edge_is_accepted(tmp_path, kind):
    table = _random_table(np.random.default_rng(53), 6)
    values = table.values.copy()
    values[:, :9] *= 1.0 - 4.9e-6
    path = str(tmp_path / "edge.csv")
    if kind == "labels":
        write_labels(path, LabelTable("obj", values))
        assert np.array_equal(read_labels(path).values, values)
    else:
        write_predictions(path, PredictionTable(values[:, :15], [None] * 6))
        assert np.array_equal(read_predictions(path).values, values[:, :15])
    _per_row_read(path, kind)


def test_batched_rotation_check_matches_per_row_near_rtol_edge(tmp_path):
    """Rotations scaled across the rtol edge: ``proper_rotations`` gives each
    the np.allclose rule's verdict, alone and in a batch, the batched read
    flags exactly the rows that rule rejects, and a file of them fails at
    its first rejected row."""
    rng = np.random.default_rng(54)
    n = 4000
    rotations = np.array([random_rotation(rng) for _ in range(n)])
    # (1 - s)^2 = 1 - 1.001e-5 at s of about 5.005e-6
    scales = 1.0 + rng.choice([-1.0, 1.0], n) * rng.uniform(4.95e-6, 5.06e-6, n)
    rotations *= scales[:, None, None]
    values = np.zeros((n, 15))
    values[:, :9] = rotations.reshape(n, 9)
    values[:, 12:14] = 0.05
    flagged = labels._flagged_rows(values)
    per_row = np.array([bool(proper_rotations(r)) for r in rotations])
    assert np.array_equal(per_row, [allclose_rotation(r) for r in rotations])
    assert np.array_equal(proper_rotations(rotations), per_row)
    assert 100 < per_row.sum() < n - 100
    assert np.array_equal(flagged, ~per_row)

    order = np.argsort(~per_row, kind="stable")  # accepted rows first
    path = str(tmp_path / "edge.csv")
    write_predictions(path, PredictionTable(values[order], [None] * n))
    with pytest.raises(SchemaError, match="bad grasp pose") as err:
        read_predictions(path)
    assert err.value.line == 2 + int(per_row.sum())


def test_batched_parse_matches_float(tmp_path):
    tokens = ["1_0", " 1.5", "1.5\t", "+1", "1.", ".5", "1e-400", "2.4703282292062328e-324",
              "0.30000000000000004", "-0", "1E5", "000.1000"]
    path = tmp_path / "preds.csv"
    row = ["a"] + ["1.0", "0.0", "0.0", "0.0", "1.0", "0.0", "0.0", "0.0", "1.0"]
    lines = [",".join(PREDICTION_COLUMNS)]
    for tok in tokens:
        lines.append(",".join(row + [tok, tok, tok, "0.05", "0.02", tok]))
    path.write_text("\n".join(lines) + "\n")
    got = read_predictions(str(path)).values
    want = np.array([[float(tok)] * 3 for tok in tokens])
    assert np.array_equal(got[:, [9, 10, 11]].view(np.int64), want.view(np.int64))


# --- the read in blocks of text and chunks of rows ---

def _read_any(path, kind):
    """(values, ids) of a read, or the (type, message, line) of its error."""
    reader = read_labels if kind == "labels" else read_predictions
    try:
        table = reader(path)
    except SchemaError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    ids = (table.object_id,) if kind == "labels" else table.object_ids
    return table.values.tobytes(), ids


_SIZES = [(1, 1), (2, 3), (7, 2), (64, 5)]  # (_READ_BLOCK characters, _READ_CHUNK rows)


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_read_is_the_same_in_any_block_and_chunk_size(tmp_path, kind):
    """Mixed line breaks, blank lines and a last line without a break, read
    a few characters and rows at a time, give what one read gives."""
    path = _fault_file(tmp_path, kind, {}, n=9)
    lines = open(path).read().splitlines()
    breaks = ["\n", "\r\n", "\r", "\x0c", "\n\n", "\x1e", "\r\n\r\n", "\x0b", "\x1c", "\x1d"]
    text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
    variants = {"mixed": text, "no_last_break": text.rstrip("\r\n\x0b\x0c\x1c\x1d\x1e")}
    for name, body in variants.items():
        with open(path, "w", newline="") as fh:
            fh.write(body)
        want = _read_any(path, kind)
        assert len(want) == 2 and len(want[1]) == (1 if kind == "labels" else 9)
        for block, chunk in _SIZES:
            with mock.patch.object(labels, "_READ_BLOCK", block), mock.patch.object(labels, "_READ_CHUNK", chunk):
                assert _read_any(path, kind) == want, (name, block, chunk)


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_read_error_is_the_same_in_any_chunk_size(tmp_path, kind, fault):
    path = _fault_file(tmp_path, kind, {7: fault, 9: "bad_float"}, n=10)
    for block, chunk in _SIZES:
        with mock.patch.object(labels, "_READ_BLOCK", block), mock.patch.object(labels, "_READ_CHUNK", chunk):
            assert _assert_same_error(path, kind).line == 7


def test_second_object_id_outranks_an_earlier_bad_value(tmp_path):
    path = _fault_file(tmp_path, "labels", {3: "bad_float"}, n=12)
    lines = open(path).read().splitlines()
    lines[10] = "other" + lines[10][len("obj"):]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for block, chunk in [(1 << 20, 4096), *_SIZES]:
        with mock.patch.object(labels, "_READ_BLOCK", block), mock.patch.object(labels, "_READ_CHUNK", chunk):
            with pytest.raises(SchemaError, match="'other' differs from 'obj'") as err:
                read_labels(path)
            assert err.value.line == 11


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_decoding_error_outranks_an_earlier_short_row(tmp_path, kind):
    # past the 8 KiB a text file decodes at a time
    path = _fault_file(tmp_path, kind, {3: "short_row"}, n=60)
    with open(path, "ab") as fh:
        fh.write(b"caf\xc3\xa9\n")
    for block, chunk in [(1 << 20, 4096), *_SIZES]:
        with mock.patch.object(labels, "_READ_BLOCK", block), mock.patch.object(labels, "_READ_CHUNK", chunk):
            with pytest.raises(SchemaError, match="byte 0xc3 in .* is not ascii") as err:
                (read_labels if kind == "labels" else read_predictions)(path)
            assert err.value.line == 62 and path in str(err.value)


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_non_ascii_byte_is_named_on_its_line_in_any_block_size(tmp_path, kind):
    """A non-ascii byte in a field is reported on the line where the same
    field holding an unparseable ascii value is, whatever the line breaks
    and wherever the blocks cut the file (through a CR LF pair too)."""
    path = _fault_file(tmp_path, kind, {}, n=9)
    lines = open(path).read().splitlines()
    breaks = ["\r\n", "\n", "\r", "\x0c", "\n\n", "\x1e", "\r\n\r\n", "\x0b", "\r\r\n", "\x1d"]
    column = lines[0].split(",").index("ty")
    for row in (1, 5, 9):
        for value, byte in (("zap", None), ("z\u00e9p", "0xc3"), ("\u2019", "0xe2")):
            parts = lines[row].split(",")
            parts[column] = value
            body = "".join(line + breaks[k % len(breaks)]
                           for k, line in enumerate(lines[:row] + [",".join(parts)] + lines[row + 1:]))
            with open(path, "wb") as fh:
                fh.write(body.encode("utf-8"))
            for block in (1 << 20, 1, 2, 3, 7, 64):
                with mock.patch.object(labels, "_READ_BLOCK", block):
                    error = _read_any(path, kind)
                if byte is None:
                    want = error[2]
                    assert error[0] is SchemaError and "bad float" in error[1] and want > row
                else:
                    assert error[0] is SchemaError and error[2] == want, (row, block)
                    assert f"byte {byte} in {path} is not ascii" in error[1]


# A read that holds every row as split strings peaks near 176 MiB here.
_READ_PEAK_BOUND = 48 * 2**20


def test_read_memory_is_bounded(tmp_path):
    n = 100_000
    values = np.tile(_random_values(np.random.default_rng(55), 1000)[:, :15], (n // 1000, 1))
    path = str(tmp_path / "preds.csv")
    write_predictions(path, PredictionTable(values, [None, "a", "b", "c"] * (n // 4)))
    tracemalloc.start()
    try:
        table = read_predictions(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.values, values)
    assert table.object_ids[:4] == (None, "a", "b", "c")
    assert peak < _READ_PEAK_BOUND
