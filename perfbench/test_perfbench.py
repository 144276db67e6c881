"""Self-tests of the benchmark: seeded inputs, span arithmetic, tiny runs.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import os

import pytest

import run
import spans
import workloads
from spans import Span

TINY = {
    name: workloads.Workload(w.name, w.kind, w.shapes, workloads.Grid(3, 12, 2), w.mesh_format)
    for name, w in workloads.WORKLOADS.items()
}


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def _generate(workload, directory, seed):
    runner = run.Runner(workload, seed, {})
    workload.generate(str(directory), seed, runner.run_label)
    return run._tree_digest(str(directory))


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_follow_the_seed(tmp_path, name):
    wl = TINY[name]
    a = _generate(wl, tmp_path / "a", 5)
    b = _generate(wl, tmp_path / "b", 5)
    c = _generate(wl, tmp_path / "c", 6)
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def _span(i, parent, start, end, thread=1, busy=None):
    return Span(i, f"s{i}", parent, 0, thread, start, end, end - start if busy is None else busy)


def test_self_time_subtracts_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 5.0, 6.0),
        _span(3, 1, 2.0, 3.0),
    ]
    assert spans.self_times(tree) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert spans.inclusive_times(tree, ["s0", "s1"]) == pytest.approx(10.0)
    assert spans.inclusive_times(tree, ["s1", "s2"]) == pytest.approx(4.0)


def test_self_time_of_generator_and_worker_threads():
    # A generator busy for 3 s in three resumes over [0, 9], one 1 s child.
    # A pool span over [10, 20] with two overlapping worker children
    # [11, 15] and [13, 17] on other threads: they cover 6 s of it.
    tree = [
        Span(0, "gen", None, 0, 1, 0.0, 9.0, 3.0),
        _span(1, 0, 4.0, 5.0),
        _span(2, None, 10.0, 20.0),
        _span(3, 2, 11.0, 15.0, thread=7),
        _span(4, 2, 13.0, 17.0, thread=8),
    ]
    got = spans.self_times(tree)
    assert got[0] == pytest.approx(2.0)
    assert got[2] == pytest.approx(4.0)


def test_benchmark_json_is_consistent():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks(tmp_path, name, trace):
    wl = TINY[name]
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0, trace=trace)
    runner = run.Runner(wl, args.seed, {})
    result = run.measure(args, runner, str(tmp_path), 0.1)
    assert result["failures"] == []
    assert result["attempted"] == len(wl.shapes if wl.kind == "label" else [1]) * (2 if trace else 1)
    doc = _benchmark_json()
    listed = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        # Traced ops reproduce the untraced bytes, and every layer on the
        # op's path was seen.
        assert len(runner.reference) == (len(wl.shapes) if wl.kind == "label" else 1)
        layer = result["metrics"]
        if wl.kind == "label":
            assert layer["geometry.rays"]["value"] > 0
            assert layer["candidates.cells"]["value"] == wl.grid.cells
            assert layer["labels.rows_written"]["value"] == layer["candidates.valid"]["value"]
        else:
            assert layer["scene.nms_kept"]["value"] > 0
            assert layer["scene.collision_calls"]["value"] == layer["scene.nms_kept"]["value"]


def test_check_rejects_a_wrong_label_file(tmp_path):
    wl = TINY["label-lowpoly"]
    runner = run.Runner(wl, 3, {})
    op = wl.generate(str(tmp_path), 3, runner.run_label)[0]
    rc, stdout = runner.call(op.argv)
    assert rc == 0
    op.check(stdout, op.output)
    with open(op.output, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-6)  # s_hybrid no longer the weighted sum
    lines[1] = ",".join(fields)
    with open(op.output, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="weighted sum"):
        op.check(stdout, op.output)
    assert runner.check(op, rc, stdout, traced=False) is not None
