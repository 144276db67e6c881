import numpy as np
import pytest

from graspscore import (
    GraspPose,
    GraspRecord,
    PredictedGrasp,
    ScoreBreakdown,
    read_labels,
    read_predictions,
    write_labels,
    write_predictions,
)
from graspscore.errors import SchemaError
from graspscore.labels import LABEL_COLUMNS, PREDICTION_COLUMNS

from conftest import random_rotation


def _random_records(rng, n):
    records = []
    for i in range(n):
        vals = rng.uniform(0.0, 1.0, 9)
        records.append(
            GraspRecord(
                object_id=f"obj_{i % 7}",
                rotation=random_rotation(rng),
                translation=rng.uniform(-1, 1, 3),
                width=float(rng.uniform(0.01, 0.085)),
                depth=float(rng.choice([0.01, 0.02, 0.03, 0.04])),
                breakdown=ScoreBreakdown(
                    s_t=vals[0], s_f1=vals[1], s_f2=vals[2], s_f=vals[3],
                    s_g_raw=vals[4], s_g=vals[5], s_c_raw=vals[6], s_c=vals[7],
                    s_hybrid=vals[8],
                ),
            )
        )
    return records


def test_label_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    records = _random_records(rng, 1000)
    path = str(tmp_path / "labels.csv")
    assert write_labels(path, records) == 1000
    loaded = read_labels(path)
    assert len(loaded) == 1000
    for a, b in zip(records, loaded):
        assert a.object_id == b.object_id
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)
        assert a.width == b.width and a.depth == b.depth
        assert a.breakdown.as_tuple() == b.breakdown.as_tuple()


def test_label_header(tmp_path):
    path = str(tmp_path / "labels.csv")
    write_labels(path, [])
    text = open(path).read()
    assert text == ",".join(LABEL_COLUMNS) + "\n"
    assert LABEL_COLUMNS[0] == "object_id"
    assert len(LABEL_COLUMNS) == 24
    assert read_labels(path) == []


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,label,header\n")
    with pytest.raises(SchemaError) as err:
        read_labels(str(path))
    assert "line 1" in str(err.value)


def test_read_reports_line_numbers(tmp_path):
    good = str(tmp_path / "good.csv")
    rng = np.random.default_rng(42)
    write_labels(good, _random_records(rng, 3))
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
    write_labels(path, _random_records(rng, 2))
    with open(path, "a") as fh:
        fh.write("\n\n")
    assert len(read_labels(path)) == 2


def test_object_id_with_comma_rejected(tmp_path):
    rng = np.random.default_rng(44)
    rec = _random_records(rng, 1)[0]
    bad = GraspRecord(object_id="a,b", rotation=rec.rotation, translation=rec.translation,
                      width=rec.width, depth=rec.depth, breakdown=rec.breakdown)
    with pytest.raises(ValueError):
        write_labels(str(tmp_path / "x.csv"), [bad])


def _random_predictions(rng, n):
    preds = []
    for i in range(n):
        pose = GraspPose(rotation=random_rotation(rng), translation=rng.uniform(-1, 1, 3),
                         width=float(rng.uniform(0.01, 0.085)), depth=0.02)
        oid = None if i % 3 == 0 else f"obj{i % 4}"
        preds.append(PredictedGrasp(pose=pose, predicted_score=float(rng.uniform()), object_id=oid))
    return preds


def test_prediction_round_trip(tmp_path):
    rng = np.random.default_rng(45)
    preds = _random_predictions(rng, 200)
    path = str(tmp_path / "preds.csv")
    assert write_predictions(path, preds) == 200
    header = open(path).readline().rstrip("\n")
    assert header == ",".join(PREDICTION_COLUMNS)
    loaded = read_predictions(path)
    for a, b in zip(preds, loaded):
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert a.pose.width == b.pose.width
        assert a.predicted_score == b.predicted_score
        assert a.object_id == b.object_id


def test_label_file_doubles_as_predictions(tmp_path):
    rng = np.random.default_rng(46)
    records = _random_records(rng, 20)
    path = str(tmp_path / "labels.csv")
    write_labels(path, records)
    preds = read_predictions(path)
    assert len(preds) == 20
    for rec, pred in zip(records, preds):
        assert pred.predicted_score == rec.breakdown.s_hybrid
        assert pred.object_id == rec.object_id
        assert np.array_equal(pred.pose.rotation, rec.rotation)


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
    write_predictions(path, _random_predictions(rng, 2))
    lines = open(path).read().splitlines()
    parts = lines[2].split(",")
    parts[PREDICTION_COLUMNS.index(column)] = value
    (tmp_path / "mangled.csv").write_text("\n".join([lines[0], lines[1], ",".join(parts)]) + "\n")
    with pytest.raises(SchemaError, match="non-finite") as err:
        read_predictions(str(tmp_path / "mangled.csv"))
    assert err.value.line == 3


def test_labels_reject_non_finite_values(tmp_path):
    path = str(tmp_path / "labels.csv")
    write_labels(path, _random_records(np.random.default_rng(49), 3))
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
    write_predictions(path, _random_predictions(rng, 2))
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
