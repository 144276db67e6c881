import argparse
import ast
import inspect
import json
import time

import numpy as np
import pytest

from graspscore import (
    GraspScoreError,
    PredictionTable,
    SceneInstance,
    build_scene,
    evaluate_ap,
    read_labels,
    save_obj,
    save_scene,
    with_surface_samples,
    write_predictions,
)
from graspscore import cli, mesh, scene
from graspscore.labels import LABEL_COLUMNS
from graspscore.meshio import save_ply
from graspscore.primitives import make_box, make_icosphere

import _scenes
from conftest import GraspPose, mutant, prediction_table, run_cli as _run


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    cube = make_box((0.04, 0.04, 0.04))
    save_obj(str(path / "cube.obj"), cube.vertices, cube.faces)
    (path / "tiny.cfg").write_text("n_seeds = 12\nn_views = 10\nn_rotations = 4\n")
    return path


def test_label_writes_records(workdir):
    res = _run("label", "cube.obj", "--object-id", "cube", "--out", "labels.csv",
               "--config", "tiny.cfg", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert "wrote" in res.stdout and "records" in res.stdout
    lines = (workdir / "labels.csv").read_text().splitlines()
    assert lines[0] == ",".join(LABEL_COLUMNS)
    assert len(lines) > 1
    assert "candidates:" in res.stdout
    assert "[0.0,0.1)" in res.stdout


def test_label_runs_are_byte_identical(workdir):
    for out in ("rep1.csv", "rep2.csv"):
        res = _run("label", "cube.obj", "--out", out, "--config", "tiny.cfg", cwd=workdir)
        assert res.returncode == 0, res.stderr
    assert (workdir / "rep1.csv").read_bytes() == (workdir / "rep2.csv").read_bytes()


def test_label_weights_flag(workdir):
    res = _run("label", "cube.obj", "--out", "wt.csv", "--config", "tiny.cfg",
               "--weights", "1,0,0,0", cwd=workdir)
    assert res.returncode == 0, res.stderr
    table = read_labels(str(workdir / "wt.csv"))
    assert len(table) > 0
    assert np.array_equal(table.column("s_hybrid"), table.column("s_t"))


def test_label_dump_ply(workdir):
    res = _run("label", "cube.obj", "--out", "d.csv", "--config", "tiny.cfg",
               "--dump-ply", "centers.ply", cwd=workdir)
    assert res.returncode == 0, res.stderr
    head = (workdir / "centers.ply").read_text().splitlines()
    assert head[0] == "ply"
    assert any("red" in line for line in head[:12])


def test_label_missing_mesh(workdir):
    res = _run("label", "ghost.obj", "--out", "x.csv", cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr


def test_label_rejects_bad_object_id_before_labeling(workdir):
    res = _run("label", "cube.obj", "--object-id", "a,b", "--out", "badid.csv",
               "--config", "tiny.cfg", cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "'a,b'" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
    assert not (workdir / "badid.csv").exists()


def test_label_bad_config(workdir):
    (workdir / "bad.cfg").write_text("n_weeds = 8\n")
    res = _run("label", "cube.obj", "--out", "x.csv", "--config", "bad.cfg", cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "ConfigError" in res.stderr


def test_rescore_matches_direct_label(workdir):
    base = _run("label", "cube.obj", "--out", "base.csv", "--config", "tiny.cfg", cwd=workdir)
    assert base.returncode == 0, base.stderr
    res = _run("rescore", "base.csv", "--out", "re.csv", "--weights", "1,0,0,0", cwd=workdir)
    assert res.returncode == 0, res.stderr
    direct = _run("label", "cube.obj", "--out", "direct.csv", "--config", "tiny.cfg",
                  "--weights", "1,0,0,0", cwd=workdir)
    assert direct.returncode == 0, direct.stderr
    assert (workdir / "re.csv").read_bytes() == (workdir / "direct.csv").read_bytes()


def test_views_stdout(workdir):
    res = _run("views", "--count", "1", cwd=workdir)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "x,y,z\n0.0,0.0,1.0\n"


def test_views_to_file(workdir):
    res = _run("views", "--count", "5", "--out", "views.csv", cwd=workdir)
    assert res.returncode == 0, res.stderr
    lines = (workdir / "views.csv").read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 6
    vec = np.array([float(v) for v in lines[1].split(",")])
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def eval_setup(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_eval")
    meshes = path / "meshes"
    meshes.mkdir()
    sphere = make_icosphere(0.03, 3)
    save_obj(str(meshes / "sph3.obj"), sphere.vertices, sphere.faces)

    preds = prediction_table([_scenes.diametral_grasp(np.zeros(3), np.array([1.0, 0.0, 0.0])),
                              _scenes.chord_grasp(np.array([0.3, 0.0, 0.0]), 0.2)], [0.9, 0.8], ["sph3"] * 2)
    write_predictions(str(path / "preds.csv"), preds)
    return path, preds


def test_scene_and_eval_end_to_end(eval_setup):
    path, preds = eval_setup
    res = _run("scene", "--out", "scene.json", "--table-height", "-0.2",
               "--instance", "sph3:0,0,0", "--instance", "sph3:0.3,0,0",
               "--meshes", "meshes", cwd=path)
    assert res.returncode == 0, res.stderr
    assert json.loads((path / "scene.json").read_text())["table_height"] == -0.2

    res = _run("eval", "preds.csv", "--scene", "scene.json", "--meshes", "meshes",
               "--out", "report.json", "--weights", "1,0,0,0", cwd=path)
    assert res.returncode == 0, res.stderr
    report = json.loads((path / "report.json").read_text())

    library = {"sph3": with_surface_samples(make_icosphere(0.03, 3), seed=0)}
    instances = [
        SceneInstance("sph3", np.eye(3), np.zeros(3)),
        SceneInstance("sph3", np.eye(3), np.array([0.3, 0.0, 0.0])),
    ]
    layout = build_scene(instances, library, table_height=-0.2)
    want = evaluate_ap(preds, layout, _scenes.CLOSURE_ONLY)

    assert report["map"] == want.map_value
    assert report["ap_values"] == list(want.ap_values)
    assert report["n_evaluated"] == 2
    assert f"mAP {want.map_value:.3f}" in res.stdout


def test_eval_default_report_path(eval_setup):
    path, _ = eval_setup
    res = _run("scene", "--out", "s2.json", "--instance", "sph3:0,0,0",
               "--table-height", "-0.2", cwd=path)
    assert res.returncode == 0, res.stderr
    res = _run("eval", "preds.csv", "--scene", "s2.json", "--meshes", "meshes", cwd=path)
    assert res.returncode == 0, res.stderr
    assert (path / "preds.csv.report.json").exists()


def test_eval_scene_without_instances(eval_setup):
    path, _ = eval_setup
    (path / "bare.json").write_text('{"table_height": 0.0}\n')
    res = _run("eval", "preds.csv", "--scene", "bare.json", "--meshes", "meshes", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr and "'instances'" in res.stderr


def test_eval_nan_translation_in_predictions(eval_setup):
    path, _ = eval_setup
    res = _run("scene", "--out", "s_nan.json", "--instance", "sph3:0,0,0",
               "--table-height", "-0.2", "--meshes", "meshes", cwd=path)
    assert res.returncode == 0, res.stderr
    lines = (path / "preds.csv").read_text().splitlines()
    parts = lines[1].split(",")
    parts[lines[0].split(",").index("tx")] = "nan"
    (path / "preds_nan.csv").write_text("\n".join([lines[0], ",".join(parts), *lines[2:]]) + "\n")
    res = _run("eval", "preds_nan.csv", "--scene", "s_nan.json", "--meshes", "meshes",
               "--out", "nan_report.json", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "SchemaError" in res.stderr and "line 2" in res.stderr and "non-finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_scene_unknown_instance_id(eval_setup):
    path, _ = eval_setup
    res = _run("scene", "--out", "x.json", "--instance", "ghost:0,0,0",
               "--meshes", "meshes", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "UnknownObjectId" in res.stderr


def test_scene_malformed_instance(eval_setup):
    path, _ = eval_setup
    res = _run("scene", "--out", "x.json", "--instance", "sph3", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ValueError" in res.stderr


def test_no_arguments_is_usage_error(workdir):
    res = _run(cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "usage" in res.stderr.lower()


@pytest.mark.parametrize("field, value", [
    ("translation", [0.0, float("nan"), 0.0]),
    ("rotation", [2.0, 0, 0, 0, 1, 0, 0, 0, 1]),
    ("rotation", [1.0, 0, 0, 0, -1, 0, 0, 0, 1]),
    ("table_height", float("nan")),
    ("table_height", float("inf")),
    ("table_height", float("-inf")),
])
def test_eval_rejects_bad_scene(eval_setup, field, value):
    path, _ = eval_setup
    instance = {"object_id": "sph3", "rotation": np.eye(3).ravel().tolist(), "translation": [0.0, 0.0, 0.0]}
    doc = {"table_height": -0.2, "instances": [instance, dict(instance, translation=[0.3, 0.0, 0.0])]}
    if field == "table_height":
        doc["table_height"] = value
    else:
        doc["instances"][1][field] = value
    (path / "bad_scene.json").write_text(json.dumps(doc))
    res = _run("eval", "preds.csv", "--scene", "bad_scene.json", "--meshes", "meshes",
               "--out", "bad_report.json", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr and "bad_scene.json" in res.stderr and field in res.stderr
    if field != "table_height":
        assert "instance 1" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("text, where", [
    ('{"table_height": ', "line 1 column 18"),
    ('{"table_height": -0.2,\n "note": "caf\u00e9", "instances": []}', "line 2 column 14"),
], ids=["truncated", "non-ascii"])
def test_eval_rejects_malformed_scene_file(eval_setup, text, where):
    path, _ = eval_setup
    (path / "broken_scene.json").write_bytes(text.encode("utf-8"))
    res = _run("eval", "preds.csv", "--scene", "broken_scene.json", "--meshes", "meshes",
               "--out", "broken_report.json", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr and "broken_scene.json" in res.stderr and where in res.stderr
    assert "Traceback" not in res.stderr
    assert not (path / "broken_report.json").exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
def test_label_rejects_bad_unit_scale(workdir, scale):
    res = _run("label", "cube.obj", "--out", "scaled.csv", "--config", "tiny.cfg",
               f"--unit-scale={scale}", cwd=workdir)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr and "unit scale" in res.stderr
    assert repr(float(scale)) in res.stderr
    assert "Traceback" not in res.stderr
    assert not (workdir / "scaled.csv").exists()


# 10**15 views take 7.11 PiB as int64: numpy refuses the array at once,
# before anything is allocated.
_IMPOSSIBLE_COUNT = 10**15


@pytest.mark.parametrize("command", ["views", "label"])
def test_impossible_array_is_an_input_error(workdir, capsys, command):
    out = workdir / "impossible.csv"
    if command == "views":
        argv = ["views", "--count", str(_IMPOSSIBLE_COUNT), "--out", str(out)]
    else:
        cfg = workdir / "impossible.cfg"
        cfg.write_text(f"n_seeds = 2\nn_views = {_IMPOSSIBLE_COUNT}\nn_rotations = 2\n")
        argv = ["label", str(workdir / "cube.obj"), "--out", str(out), "--config", str(cfg)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("MemoryError: ") and "PiB" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("error, code", [("package", 2), ("arithmetic", 1)])
def test_exit_code_follows_the_error_class(monkeypatch, capsys, error, code):
    """Any ``GraspScoreError``, even one the CLI does not name, is an input
    error; an arithmetic error is a compute error."""
    class NewPackageError(GraspScoreError):
        pass

    raised = {"package": NewPackageError("a new kind of bad input"), "arithmetic": ZeroDivisionError("x / 0")}[error]

    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "cmd_views", fail)
    assert cli.main(["views"]) == code
    assert capsys.readouterr().err == f"{type(raised).__name__}: {raised}\n"


@pytest.mark.parametrize("mesh_file, scale", [("far_tetrahedron.obj", "1.0"), ("cube.obj", "1e160")])
def test_label_rejects_mesh_whose_face_areas_overflow(workdir, capsys, mesh_file, scale):
    """Finite coordinates whose face areas overflow exit 2, with no warning."""
    far = 1e150 * np.eye(3)
    save_obj(str(workdir / "far_tetrahedron.obj"), np.vstack([np.zeros(3), far]),
             np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))
    out = workdir / "overflow.csv"
    rc = cli.main(["label", str(workdir / mesh_file), "--out", str(out), "--config", str(workdir / "tiny.cfg"),
                   "--unit-scale", scale])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "ParseError" in err and mesh_file in err and "area that is not finite" in err
    assert not out.exists()


def test_label_refuses_more_surface_samples_than_the_bound(workdir, capsys):
    """The 4 cm cube at unit scale 100 would take 24M samples: exit 2
    before any is drawn."""
    out = workdir / "huge_cube.csv"
    start = time.perf_counter()
    rc = cli.main(["label", str(workdir / "cube.obj"), "--out", str(out), "--unit-scale", "100"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "ValueError" in err and "96.0" in err and "250000.0 points per m^2" in err
    assert f"over the bound of {2**22}" in err
    assert elapsed < 1.0 and not out.exists()


@pytest.mark.parametrize("translation", [(0.0, 1e308, 0.0), (0.0, -1e308, 0.0), (1e308, 1e308, 1e308),
                                         (0.0, 1e160, 0.0)])
def test_eval_prediction_posed_near_the_float_limit(eval_setup, capsys, translation):
    """A finite translation whose distances to the scene overflow: the
    grasp clears the collision filter, scores 0, and eval exits 0 (a
    RuntimeWarning fails the test)."""
    path, preds = eval_setup
    values = preds.values.copy()
    values[0, 9:12] = translation
    write_predictions(str(path / "far_preds.csv"), PredictionTable(values, preds.object_ids))
    save_scene(str(path / "far_scene.json"), [SceneInstance("sph3", np.eye(3), np.zeros(3))], -0.2)
    out = path / "far_report.json"
    rc = cli.main(["eval", str(path / "far_preds.csv"), "--scene", str(path / "far_scene.json"),
                   "--meshes", str(path / "meshes"), "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["n_filtered_collision"] == 0 and report["n_evaluated"] == 2
    assert report["true_scores"][0] == 0.0


def _fuzz_corpus(path):
    """Small, valid rescore and eval inputs under ``path``, as bytes by
    kind: a label file, a prediction file whose first grasp is posed near
    the float limit, a scene and an eval config."""
    (path / "meshes").mkdir()
    sphere = make_icosphere(_scenes.SPHERE_RADIUS, 1)
    save_obj(str(path / "meshes" / "sph3.obj"), sphere.vertices, sphere.faces)
    (path / "label.cfg").write_text("n_seeds = 2\nn_views = 2\nn_rotations = 2\nsurface_density = 20000\n")
    rc = cli.main(["label", str(path / "meshes" / "sph3.obj"), "--out", str(path / "labels.csv"),
                   "--config", str(path / "label.cfg")])
    assert rc == 0
    far = _scenes.diametral_grasp(np.zeros(3), np.array([0.0, 1.0, 0.0]))
    write_predictions(str(path / "preds.csv"), prediction_table([
        GraspPose(far.rotation, np.array([0.0, 1e308, 0.0]), far.width, far.depth),
        _scenes.diametral_grasp(np.zeros(3), np.array([1.0, 0.0, 0.0])),
        _scenes.chord_grasp(np.array([0.3, 0.0, 0.0]), 0.2),
    ], [0.95, 0.9, 0.8], ["sph3", "sph3", None]))
    save_scene(str(path / "scene.json"), [SceneInstance("sph3", np.eye(3), np.zeros(3)),
                                          SceneInstance("sph3", np.eye(3), np.array([0.3, 0.0, 0.0]))], -0.2)
    (path / "eval.cfg").write_text("surface_density = 20000\nknn_k = 4\nnms_trans_thresh = 0.03\n"
                                   "collision_margin = 0.001\nscore_thresholds = 0.1, 0.5\n")
    lines = (path / "labels.csv").read_bytes().split(b"\n")
    return {"labels": b"\n".join(lines[:6]) + b"\n",
            **{kind: (path / name).read_bytes()
               for kind, name in (("preds", "preds.csv"), ("scene", "scene.json"), ("config", "eval.cfg"))}}


def test_mutated_cli_inputs_exit_0_or_2(tmp_path, capsys):
    """Seeded mutations of rescore's and eval's input files end in exit 0
    or 2, never in an escaped exception or a RuntimeWarning."""
    seeds = _fuzz_corpus(tmp_path)
    names = {"labels": "labels.csv", "preds": "preds.csv", "scene": "scene.json", "config": "eval.cfg"}
    rng = np.random.default_rng(0)
    for k in range(-len(seeds), 240):  # each seed as it is, then its mutants
        kind = list(seeds)[k % len(seeds)]
        files = {name: tmp_path / f"fuzz_{name}" for name in names}
        for other, path in files.items():
            path.write_bytes(seeds[other])
        data = seeds[kind] if k < 0 else mutant(seeds[kind], rng, token=rb"[^\s,]+")
        files[kind].write_bytes(data)
        if kind == "labels":
            argv = ["rescore", str(files["labels"]), "--out", str(tmp_path / "rescored.csv"), "--weights", "1,0,0,0"]
        else:
            argv = ["eval", str(files["preds"]), "--scene", str(files["scene"]), "--meshes", str(tmp_path / "meshes"),
                    "--config", str(files["config"]), "--out", str(tmp_path / "report.json")]
        try:
            rc = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"mutant {k} of the {kind} file raised {exc!r}: {data!r}")
        err = capsys.readouterr().err
        assert rc in (0, 2), f"mutant {k} of the {kind} file exited {rc}: {err} {data!r}"
        assert k >= 0 or rc == 0, err



def test_mutated_mesh_files_through_label_exit_0_or_2(tmp_path, capsys):
    """Seeded mutations of an OBJ, an ascii PLY and a binary PLY box, each
    labeled in process on a 2 x 2 x 2 x 4 grid, end in exit 0 or 2, never
    in an escaped exception or a RuntimeWarning, all within 3 s."""
    box = make_box((0.04, 0.03, 0.02))
    save_obj(str(tmp_path / "box.obj"), box.vertices, box.faces)
    save_ply(str(tmp_path / "box.ascii.ply"), box.vertices, box.faces)
    save_ply(str(tmp_path / "box.binary.ply"), box.vertices, box.faces, binary=True)
    seeds = {kind: (tmp_path / f"box.{kind}").read_bytes() for kind in ("obj", "ascii.ply", "binary.ply")}
    (tmp_path / "grid.cfg").write_text("n_seeds = 2\nn_views = 2\nn_rotations = 2\nsurface_density = 20000\n")
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for k in range(-len(seeds), 200):  # each seed as it is, then its mutants
        kind = list(seeds)[k % len(seeds)]
        data = seeds[kind] if k < 0 else mutant(seeds[kind], rng)
        path = tmp_path / f"mutant.{kind.split('.')[-1]}"
        path.write_bytes(data)
        argv = ["label", str(path), "--out", str(tmp_path / "labels.csv"), "--config", str(tmp_path / "grid.cfg")]
        try:
            rc = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"mutant {k} of the {kind} file raised {exc!r}: {data!r}")
        err = capsys.readouterr().err
        assert rc in (0, 2), f"mutant {k} of the {kind} file exited {rc}: {err} {data!r}"
        assert k >= 0 or rc == 0, err
    assert time.perf_counter() - start < 3.0

@pytest.mark.parametrize("scale", ["nan", "-1"])
def test_eval_rejects_bad_unit_scale(eval_setup, scale):
    path, _ = eval_setup
    res = _run("scene", "--out", "s_scale.json", "--instance", "sph3:0,0,0",
               "--table-height", "-0.2", "--meshes", "meshes", cwd=path)
    assert res.returncode == 0, res.stderr
    res = _run("eval", "preds.csv", "--scene", "s_scale.json", "--meshes", "meshes",
               "--out", "scale_report.json", f"--unit-scale={scale}", cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ParseError" in res.stderr and "unit scale" in res.stderr
    assert repr(float(scale)) in res.stderr
    assert "Traceback" not in res.stderr


def test_eval_grasp_turned_into_a_scaled_instance_frame(eval_setup):
    """A scene rotation and a prediction rotation that each pass the
    orthonormality rule compose to one that does not; eval checks neither
    again and scores the grasp."""
    path, _ = eval_setup
    shrink = 1.0 - 4.9e-6
    instance = {"object_id": "sph3", "rotation": (np.eye(3) * shrink).ravel().tolist(), "translation": [0.0] * 3}
    scene = {"table_height": -0.2, "instances": [instance]}
    (path / "shrunk_scene.json").write_text(json.dumps(scene))
    pose = _scenes.diametral_grasp(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    pose = GraspPose(pose.rotation * shrink, pose.translation, pose.width, pose.depth)
    write_predictions(str(path / "shrunk_preds.csv"), prediction_table([pose], [0.9], ["sph3"]))
    turned = (np.eye(3) * shrink).T @ pose.rotation
    assert not np.allclose(turned.T @ turned, np.eye(3), atol=1e-8)

    res = _run("eval", "shrunk_preds.csv", "--scene", "shrunk_scene.json", "--meshes", "meshes",
               "--out", "shrunk_report.json", cwd=path)
    assert res.returncode == 0, res.stderr
    report = json.loads((path / "shrunk_report.json").read_text())
    assert report["n_evaluated"] == 1 and report["n_filtered_collision"] == 0


@pytest.mark.parametrize("argv, named", [
    (["--table-height", "nan"], "--table-height"),
    (["--table-height=-inf"], "--table-height"),
    (["--instance", "sph3:0,0,0", "--instance", "a:nan,0,0"], "a:nan,0,0"),
    (["--instance", "a:0,0,0:inf"], "a:0,0,0:inf"),
    (["--instance", "a:0,0,0:north"], "a:0,0,0:north"),
], ids=["nan-table", "inf-table", "nan-translation", "inf-yaw", "word-yaw"])
def test_scene_rejects_non_finite_input(eval_setup, argv, named):
    path, _ = eval_setup
    res = _run("scene", "--out", "nonfinite_scene.json", *argv, cwd=path)
    assert res.returncode == 2, res.stderr
    assert "ValueError" in res.stderr and named in res.stderr
    assert "finite" in res.stderr or "could not convert" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (path / "nonfinite_scene.json").exists()


def _assert_not_ascii(res, error, where):
    assert res.returncode == 2, res.stderr
    assert error in res.stderr and where in res.stderr and "byte 0xc3" in res.stderr and "not ascii" in res.stderr
    assert "Traceback" not in res.stderr


def test_rescore_names_a_non_ascii_byte_in_the_label_file(workdir):
    res = _run("label", "cube.obj", "--out", "to_break.csv", "--config", "tiny.cfg", cwd=workdir)
    assert res.returncode == 0, res.stderr
    lines = (workdir / "to_break.csv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b"cube", b"cub\xc3\xa9", 1)
    (workdir / "broken_labels.csv").write_bytes(b"\n".join(lines))
    res = _run("rescore", "broken_labels.csv", "--out", "rescored_broken.csv", "--weights", "1,0,0,0",
               cwd=workdir)
    _assert_not_ascii(res, "SchemaError", "line 5")
    assert "broken_labels.csv" in res.stderr
    assert not (workdir / "rescored_broken.csv").exists()


def test_eval_names_a_non_ascii_byte_in_the_prediction_file(eval_setup):
    path, _ = eval_setup
    res = _run("scene", "--out", "s_ascii.json", "--instance", "sph3:0,0,0", "--table-height", "-0.2", cwd=path)
    assert res.returncode == 0, res.stderr
    (path / "broken_preds.csv").write_bytes((path / "preds.csv").read_bytes() + b"caf\xc3\xa9\n")
    res = _run("eval", "broken_preds.csv", "--scene", "s_ascii.json", "--meshes", "meshes",
               "--out", "broken_preds_report.json", cwd=path)
    _assert_not_ascii(res, "SchemaError", "line 4")
    assert "broken_preds.csv" in res.stderr
    assert not (path / "broken_preds_report.json").exists()


def test_label_names_a_non_ascii_byte_in_the_config(workdir):
    (workdir / "accent.cfg").write_bytes(b"n_seeds = 12\r\n# caf\xc3\xa9\nn_views = 10\n")
    res = _run("label", "cube.obj", "--out", "accent.csv", "--config", "accent.cfg", cwd=workdir)
    _assert_not_ascii(res, "ConfigError", "accent.cfg:2: byte 0xc3 is not ascii")
    assert not (workdir / "accent.csv").exists()


def _args_read_by_command():
    """Subcommand name -> the ``args.<name>`` attributes that its ``cmd_``
    function, or a ``cli.py`` function it calls, reads."""
    functions = {node.name: node for node in ast.parse(inspect.getsource(cli)).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        if name in seen:
            return set()
        seen.add(name)
        out = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                out.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
                out |= reads(node.func.id, seen)
        return out

    return {name[4:]: reads(name, set()) for name in functions if name.startswith("cmd_")}


def test_every_declared_flag_is_read():
    read = _args_read_by_command()
    subparsers, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(read)
    for command, parser in subparsers.choices.items():
        declared = {action.dest for action in parser._actions} - {"help"}
        assert declared <= read[command], (command, sorted(declared - read[command]))


def test_scene_with_meshes_loads_and_samples_nothing(eval_setup, monkeypatch, capsys):
    path, _ = eval_setup

    def forbidden(*args, **kwargs):
        raise AssertionError("scene must not load or sample a mesh")

    monkeypatch.setattr(cli, "load_mesh", forbidden)
    monkeypatch.setattr(scene, "with_surface_samples", forbidden)
    monkeypatch.setattr(mesh, "with_surface_samples", forbidden)
    out = path / "unloaded_scene.json"
    rc = cli.main(["scene", "--out", str(out), "--table-height", "-0.2", "--instance", "sph3:0,0,0",
                   "--instance", "sph3:0.3,0,0:90", "--meshes", str(path / "meshes")])
    assert rc == 0, capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["table_height"] == -0.2
    assert [inst["object_id"] for inst in doc["instances"]] == ["sph3", "sph3"]
    assert doc["instances"][1]["translation"] == [0.3, 0.0, 0.0]
