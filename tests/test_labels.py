import math
import re
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
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: line 1: empty file$"):
        read_labels(str(path))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: line 1: empty file$"):
        read_predictions(str(path))


@pytest.mark.parametrize("reader", [read_labels, read_predictions])
def test_read_error_names_the_file(tmp_path, reader):
    path = str(tmp_path / "named.csv")
    write_labels(path, _random_table(np.random.default_rng(54), 3))
    lines = open(path).read().splitlines()
    parts = lines[2].split(",")
    parts[5] = "zap"
    lines[2] = ",".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: line 3: bad float")
    assert err.value.line == 3


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
    read_back = read_labels(path)
    # the pose columns, bit for bit (tobytes reads a view in logical order)
    for name in ("rotations", "translations", "widths", "depths"):
        got = getattr(preds, name)
        assert got.shape == getattr(table, name).shape
        assert got.tobytes() == getattr(read_back, name).tobytes() == getattr(table, name).tobytes(), name


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


# --- the orjson formatter against repr ---

def _assert_formats_as_repr(values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    got = labels._float_text(values)
    want = [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} differ from repr (repr, got): {wrong[:5]}"


def _ulps_around(x, k=64):
    """``x`` and the ``k`` floats either side of it, with their negatives."""
    steps = [x]
    for toward in (0.0, math.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, toward)
            steps.append(y)
    steps = np.array(steps)
    return np.concatenate([steps, -steps])


def test_float_text_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(61).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_formats_as_repr(values[np.isfinite(values)])


def test_float_text_matches_repr_on_unit_interval():
    _assert_formats_as_repr(np.random.default_rng(62).random(1_000_000))


@pytest.mark.parametrize("edge", [1e-4, 1e16])
def test_float_text_matches_repr_at_the_notation_switch(edge):
    _assert_formats_as_repr(_ulps_around(edge))


def test_float_text_matches_repr_on_special_values():
    tiny = np.finfo(np.float64).smallest_normal
    subnormals = np.random.default_rng(63).integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
    _assert_formats_as_repr(np.concatenate([
        subnormals, -subnormals, _ulps_around(5e-324, 8), _ulps_around(tiny, 8),
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
    ]))
    assert labels._float_text(np.empty(0)) == []


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), max_size=20))
def test_float_text_matches_repr(values):
    _assert_formats_as_repr(np.array(values, dtype=np.float64))


def _write_peak(path, values):
    tracemalloc.start()
    try:
        write_labels(path, LabelTable("obj", values))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_formats_each_distinct_value_once(tmp_path):
    """The per-chunk dedup bounds the text a write holds: with pose
    columns of few distinct values the peak is well below that of a table
    whose every value is distinct. A writer that formats every cell peaks
    about the same on both."""
    rng = np.random.default_rng(64)
    n = 2 * labels._WRITE_CHUNK
    distinct = rng.random((n, 23))
    repeated = distinct.copy()
    repeated[:, :14] = rng.choice(rng.random(300), size=(n, 14))
    low = _write_peak(str(tmp_path / "repeated.csv"), repeated)
    high = _write_peak(str(tmp_path / "distinct.csv"), distinct)
    assert low < 0.8 * high, (low, high)


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
            raise SchemaError(f"expected {len(header)} fields, got {len(parts)}", lineno, path)
        rows.append((lineno, parts))
    return rows


def _old_floats(parts, lineno, path):
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"bad float: {exc}", lineno, path) from exc
    bad = [p for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise SchemaError(f"non-finite value {bad[0]!r}", lineno, path)
    return values


def _per_row_read(path, kind):
    """The per-row reader: float() per field, then a GraspPose per row.

    Prediction rows parse the pose and the score in turn; label rows parse
    all 23 values at once."""
    for lineno, parts in _old_rows(path):
        if kind == "labels":
            vals = _old_floats(parts[1:], lineno, path)
        else:
            vals = _old_floats(parts[1:15], lineno, path) + _old_floats([parts[15]], lineno, path)
        try:
            GraspPose(rotation=np.array(vals[0:9]).reshape(3, 3), translation=np.array(vals[9:12]),
                      width=vals[12], depth=vals[13])
        except ValueError as exc:
            raise SchemaError(f"bad grasp pose: {exc}", lineno, path) from exc


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


_SIZES = [(1, 1), (2, 3), (7, 2), (64, 5)]  # (_READ_BLOCK bytes, _READ_CHUNK rows)


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_read_is_the_same_in_any_block_and_chunk_size(tmp_path, kind):
    """Mixed line breaks, blank lines and a last line without a break, read
    a few characters and rows at a time, give what one read gives."""
    path = _fault_file(tmp_path, kind, {}, n=10)
    lines = open(path).read().splitlines()
    breaks = ["\n", "\r\n", "\r\n\n", "\r", "\x0c", "\n\n", "\x1e", "\r\n\r\n", "\x0b", "\x1c", "\x1d"]
    text = "".join(line + breaks[k % len(breaks)] for k, line in enumerate(lines))
    variants = {"mixed": text, "no_last_break": text.rstrip("\r\n\x0b\x0c\x1c\x1d\x1e")}
    for name, body in variants.items():
        with open(path, "w", newline="") as fh:
            fh.write(body)
        want = _read_any(path, kind)
        assert len(want) == 2 and len(want[1]) == (1 if kind == "labels" else 10)
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
            with pytest.raises(SchemaError, match=f"^{re.escape(path)}: line 62: byte 0xc3 is not ascii$") as err:
                (read_labels if kind == "labels" else read_predictions)(path)
            assert err.value.line == 62


@pytest.mark.parametrize("kind, header_fault", [
    ("labels", ("s_hybrid", "s_hybrd", "expected label header")),
    ("predictions", (",tz,", ",tzz,", "missing column(s): tz")),
])
def test_short_row_outranks_a_wrong_header(tmp_path, kind, header_fault):
    old, new, message = header_fault
    width = len(LABEL_COLUMNS if kind == "labels" else PREDICTION_COLUMNS)
    for faults, want in (({}, message), ({5: "short_row"}, f"expected {width} fields, got {width - 1}")):
        path = _fault_file(tmp_path, kind, faults)
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))
        error = _read_any(path, kind)
        assert error[0] is SchemaError and want in error[1], faults
        assert error[2] == (5 if faults else 1)


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("fault", [None, "non_ascii", "short_row"])
def test_a_read_opens_its_file_once(tmp_path, kind, fault):
    path = _fault_file(tmp_path, kind, {5: "short_row"} if fault == "short_row" else {})
    if fault == "non_ascii":
        with open(path, "ab") as fh:
            fh.write(b"caf\xc3\xa9\n")
    opened = []
    real_open = open

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    with mock.patch("builtins.open", counting_open):
        result = _read_any(path, kind)
    assert (len(result) == 2) == (fault is None)
    assert opened == [path]


@pytest.mark.parametrize("kind", ["labels", "predictions"])
def test_non_ascii_byte_is_named_on_its_line_in_any_block_size(tmp_path, kind):
    """A non-ascii byte in a field is reported on the line where the same
    field holding an unparseable ascii value is, whatever the line breaks
    and wherever the blocks cut the file (through a CR LF pair too)."""
    path = _fault_file(tmp_path, kind, {}, n=10)
    lines = open(path).read().splitlines()
    breaks = ["\r\n", "\r\n\n", "\n", "\r", "\x0c", "\n\n", "\x1e", "\r\n\r\n", "\x0b", "\r\r\n", "\x1d"]
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
                    assert error[1] == f"{path}: line {want}: byte {byte} is not ascii"


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


# --- the orjson parse of each chunk against the row reader ---

def _rows_only(path, kind):
    """``_read_any`` with every chunk sent through the row reader, the
    oracle of the orjson parse."""
    with mock.patch.object(labels, "_json_rows", lambda rests, width: None):
        return _read_any(path, kind)


def _counted_json_rows():
    """A stand-in for ``labels._json_rows`` that lists what each call gives."""
    results = []
    real = labels._json_rows

    def counting(rests, width):
        results.append(real(rests, width))
        return results[-1]
    return counting, results


@pytest.mark.parametrize("kind", ["labels", "predictions", "labels_as_predictions"])
def test_written_tables_are_parsed_one_orjson_call_per_chunk(tmp_path, kind):
    values = _random_values(np.random.default_rng(56), 10)
    values[0, 9], values[1, 14] = -0.0, 0.0  # written as -0.0 and 0.0, read back as they were
    path = str(tmp_path / "table.csv")
    if kind == "predictions":
        values = values[:, :15]
        write_predictions(path, PredictionTable(values, ["a", None, "b"] * 3 + ["a"]))
    else:
        write_labels(path, LabelTable("obj", values))
    reader = read_labels if kind == "labels" else read_predictions
    counting, results = _counted_json_rows()
    with mock.patch.object(labels, "_READ_CHUNK", 4), mock.patch.object(labels, "_json_rows", counting), \
            mock.patch.object(labels, "_parse_rows", None):
        table = reader(path)
    assert len(results) == 3 and all(r is not None for r in results)
    want = values if kind != "labels_as_predictions" else values[:, [*range(14), 22]]
    assert table.values.tobytes() == want.tobytes()
    assert _read_any(path, kind.split("_")[-1]) == _rows_only(path, kind.split("_")[-1])


# Every spelling float() reads that orjson reads otherwise or rejects, and
# JSON texts that are not numbers, padded, past 2**53 and past 2**64.
_SPELLINGS = [
    "-0", " -0", "-0 ", "-0\t", "+1", "1.", ".5", "01", "1_0", "nan", "inf", "-inf", "NaN", "Infinity",
    " 0.25", "0.25 ", "\t0.25", " 1e-3\t", "9007199254740993", "-9007199254740993", "18446744073709551617",
    "123456789012345678901234567890", "1e400", "1e-400", "-1e-400", "-2e-324", "-2.4703282292062328e-324",
    "2.4703282292062327e-324", "-0.0", "-0e0", "-0.0e0", "-0E-0", "-00", "1e-0", "1E+5", "0x1p3",
    "true", "false", "null", '"1"', "[1]", "{}", "", " ",
]


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("breaks", ["\n", "\r\n\r\n"])
def test_orjson_parse_matches_the_row_reader_on_every_spelling(tmp_path, kind, breaks):
    base = open(_fault_file(tmp_path, kind, {}, n=6)).read().splitlines()
    header = base[0].split(",")
    path = str(tmp_path / "spelled.csv")
    for spelling in _SPELLINGS:
        for column in ("tx", "width", header[-1], "s_t" if kind == "labels" else "tz"):
            lines = list(base)
            parts = lines[3].split(",")
            parts[header.index(column)] = spelling
            lines[3] = ",".join(parts)
            with open(path, "w", newline="") as fh:
                fh.write(breaks.join(lines) + breaks)
            want = _rows_only(path, kind)
            assert _read_any(path, kind) == want, (spelling, column)
            if kind == "labels":  # s_t is not a column of a prediction
                read_as = _read_any(path, "predictions"), _rows_only(path, "predictions")
                assert read_as[0] == read_as[1], (spelling, column)


def test_orjson_parse_matches_float_bit_for_bit():
    rng = np.random.default_rng(57)
    values = np.concatenate([
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1.0, 1.0, 20000),
        rng.normal(0.0, 1e-3, 5000),
    ])
    values = values[np.isfinite(values)]
    texts = [str(k) for k in (2**53 + 1, -(2**53) - 1, 2**63 + 1, 2**64 + 1, 10**30 + 1)]
    texts += [repr(x) for x in values.tolist()] + ["%.17g" % x for x in values.tolist()[:5000]]
    texts += ["%.25e" % x for x in values.tolist()[:5000]] + ["%.20f" % x for x in values.tolist()[20000:25000]]
    texts = texts[: len(texts) // 5 * 5]
    rows = [",".join(texts[i:i + 5]) for i in range(0, len(texts), 5)]
    got = labels._json_rows(tuple(rows), 5)
    assert got is not None
    want = np.array([float(t) for t in texts]).reshape(-1, 5)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_prediction_file_with_the_id_elsewhere_takes_the_row_reader(tmp_path):
    rng = np.random.default_rng(58)
    poses, scores, object_ids = _random_predictions(rng, 40)
    table = prediction_table(poses, scores, object_ids)
    path = str(tmp_path / "preds.csv")
    write_predictions(path, table)
    lines = [line.split(",") for line in open(path).read().splitlines()]
    moved = str(tmp_path / "moved.csv")
    with open(moved, "w") as fh:
        fh.write("".join(",".join(parts[1:] + parts[:1]) + "\n" for parts in lines))
    counting, results = _counted_json_rows()
    with mock.patch.object(labels, "_json_rows", counting):
        got = read_predictions(moved)
    assert results == []
    assert got.values.tobytes() == table.values.tobytes() and got.object_ids == table.object_ids
    assert _read_any(moved, "predictions") == _rows_only(moved, "predictions")


@pytest.mark.parametrize("row", [0, 1, 2047, 4095, 4096 + 7])
def test_second_object_id_in_a_label_file_at_any_row_of_a_chunk(tmp_path, row):
    path = str(tmp_path / "labels.csv")
    write_labels(path, LabelTable("obj", np.tile(_random_values(np.random.default_rng(59), 64), (66, 1))))
    lines = open(path).read().splitlines()
    lines[row + 1] = "other" + lines[row + 1][len("obj"):]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    want = _rows_only(path, "labels")
    assert want[0] is SchemaError and want[2] == (row + 2 if row else 3)
    assert _read_any(path, "labels") == want


@pytest.fixture(scope="module")
def chunk_files(tmp_path_factory):
    """The lines of a label and a prediction file of one chunk and a bit."""
    tmp_path = tmp_path_factory.mktemp("chunks")
    return {kind: open(_fault_file(tmp_path, kind, {}, n=labels._READ_CHUNK + 8)).read().splitlines()
            for kind in ("labels", "predictions")}


@pytest.mark.parametrize("kind", ["labels", "predictions"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_read_error_at_any_row_of_a_chunk_matches_the_row_reader(tmp_path, chunk_files, kind, fault):
    """The first, second, middle and last row of the first 4,096-row chunk,
    and a row of the second: the same error as the row reader's."""
    assert labels._READ_CHUNK == 4096
    base = chunk_files[kind]
    columns = LABEL_COLUMNS if kind == "labels" else PREDICTION_COLUMNS
    path = str(tmp_path / "fault.csv")
    for row in (0, 1, 2047, 4095, 4096 + 7):
        lines = list(base)
        parts = lines[row + 1].split(",")
        _FAULTS[fault](parts, columns)
        lines[row + 1] = ",".join(parts)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        got = _read_any(path, kind)
        assert got[0] is SchemaError and got[2] == row + 2, (fault, row)
        assert got == _rows_only(path, kind), (fault, row)
        if row == 0:  # the per-row reader stops at the fault
            assert _assert_same_error(path, kind).line == 2
