import json

import numpy as np
import pytest

from graspscore import (
    PredictedGrasp,
    SceneInstance,
    build_scene,
    evaluate_ap,
    read_labels,
    save_obj,
    with_surface_samples,
    write_predictions,
)
from graspscore.labels import LABEL_COLUMNS
from graspscore.primitives import make_box, make_icosphere

import _scenes
from conftest import run_cli as _run


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
    for rec in read_labels(str(workdir / "wt.csv")):
        assert rec.breakdown.s_hybrid == rec.breakdown.s_t


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

    preds = [
        PredictedGrasp(_scenes.diametral_grasp(np.zeros(3), np.array([1.0, 0.0, 0.0])),
                       0.9, "sph3"),
        PredictedGrasp(_scenes.chord_grasp(np.array([0.3, 0.0, 0.0]), 0.2),
                       0.8, "sph3"),
    ]
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
    want = evaluate_ap(preds, layout, library, _scenes.CLOSURE_ONLY)

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
