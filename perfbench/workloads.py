"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload writes its input files from a seed, then yields the argv of
one ``graspscore`` command per operation. The program sees only those
files. Inputs are written by this module, not by graspscore's writers, so
a change to the program's writers cannot change what it is measured on.

Workloads:

* ``label-dense``   one icosphere with 5,120 faces, binary PLY. Contact
  resolution (ray casting against every face) dominates the op.
* ``label-lowpoly`` a cube, an L-prism and a plate (12-20 faces, OBJ),
  labeled in turn on the acceptance grid. Per-candidate Python,
  scoring and CSV writing dominate; ray casting is a minority.
* ``eval-clutter``  six posed instances on a table, with every instance's
  own labels posed into the scene as noisy predictions. Pose NMS and the
  collision filter dominate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from graspscore import primitives

LABEL_COLUMNS = (
    "object_id",
    "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "width", "depth",
    "s_t", "s_f1", "s_f2", "s_f", "s_g_raw", "s_g", "s_c_raw", "s_c", "s_hybrid",
)
PREDICTION_COLUMNS = LABEL_COLUMNS[:15] + ("predicted_score",)
N_DEPTHS = 4  # the default gripper's depth levels
MAX_WIDTH = 0.085
DEFAULT_WEIGHTS = (0.7, 0.2, 0.05, 0.05)
SCORE_NOISE = 0.1
TABLE_HEIGHT = 0.0
INSTANCE_SPACING = 0.09
# Six instances of four shapes; the seed shuffles them over the table grid.
CLUTTER_SHAPES = ("cube", "cylinder", "icosphere3", "lprism", "cube", "cylinder")

SHAPES = {
    "icosphere4": lambda: primitives.make_icosphere(0.03, 4),
    "icosphere3": lambda: primitives.make_icosphere(0.03, 3),
    "cube": lambda: primitives.make_box((0.05, 0.05, 0.05)),
    "plate": lambda: primitives.make_plate(),
    "lprism": lambda: primitives.make_l_prism(0.03),
    "cylinder": lambda: primitives.make_cylinder(0.02, 0.06, 48),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Grid:
    """Candidate grid of one label run: seeds x views x rotations x depths."""

    n_seeds: int
    n_views: int
    n_rotations: int

    @property
    def cells(self) -> int:
        return self.n_seeds * self.n_views * self.n_rotations * N_DEPTHS

    def write_config(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"n_seeds = {self.n_seeds}\nn_views = {self.n_views}\n"
                     f"n_rotations = {self.n_rotations}\n")


@dataclass
class Op:
    """One benchmark operation: a graspscore argv and how to check it."""

    key: str            # names the input; repeats of one key must match bytes
    argv: list[str]
    output: str         # file the op writes
    items: int          # work items one op finishes
    check: Callable[[str, str], None]  # (stdout, output path); raises CheckFailed


@dataclass
class Workload:
    name: str
    kind: str           # "label" or "eval"
    shapes: tuple[str, ...]
    grid: Grid
    mesh_format: str = "obj"

    def generate(self, workdir: str, seed: int, run_label=None) -> list[Op]:
        """Write the inputs for ``seed`` under ``workdir``; return the op cycle.

        ``run_label(argv)`` runs one graspscore label command; the eval
        workload uses it to label its objects.
        """
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        cfg = os.path.join(workdir, "grid.cfg")
        self.grid.write_config(cfg)
        if self.kind == "label":
            return [self._label_op(workdir, cfg, shape, rng) for shape in self.shapes]
        return [self._eval_op(workdir, cfg, rng, run_label)]

    # -- label ----------------------------------------------------------------

    def _label_op(self, workdir, cfg, shape, rng) -> Op:
        mesh = SHAPES[shape]()
        rot = random_rotation(rng)
        shift = rng.uniform(-0.05, 0.05, 3)
        vertices = mesh.vertices @ rot.T + shift
        mesh_path = os.path.join(workdir, f"{shape}.{self.mesh_format}")
        write_mesh(mesh_path, vertices, mesh.faces)
        out = os.path.join(workdir, f"{shape}.labels.csv")
        argv = ["label", mesh_path, "--object-id", shape, "--config", cfg, "--out", out]
        return Op(shape, argv, out, self.grid.cells,
                  lambda stdout, path: check_label_output(stdout, path, shape, self.grid.cells))

    # -- eval -----------------------------------------------------------------

    def _eval_op(self, workdir, cfg, rng, run_label) -> Op:
        mesh_dir = os.path.join(workdir, "meshes")
        os.makedirs(mesh_dir, exist_ok=True)
        labels = {}
        meshes = {}
        for shape in sorted(set(self.shapes)):
            mesh = SHAPES[shape]()
            meshes[shape] = mesh
            path = os.path.join(mesh_dir, f"{shape}.obj")
            write_mesh(path, mesh.vertices, mesh.faces)
            out = os.path.join(workdir, f"{shape}.labels.csv")
            run_label(["label", path, "--object-id", shape, "--config", cfg, "--out", out])
            labels[shape] = read_label_arrays(out)

        order = rng.permutation(len(self.shapes))
        instances = []
        for slot, idx in enumerate(order):
            shape = self.shapes[idx]
            yaw = rng.uniform(0.0, 2.0 * math.pi)
            rot = yaw_rotation(yaw)
            x = INSTANCE_SPACING * (slot % 3)
            y = INSTANCE_SPACING * (slot // 3)
            z = TABLE_HEIGHT - float(meshes[shape].vertices[:, 2].min())
            instances.append((shape, rot, np.array([x, y, z])))

        scene_path = os.path.join(workdir, "scene.json")
        doc = {
            "table_height": TABLE_HEIGHT,
            "instances": [
                {"object_id": shape, "rotation": [float(v) for v in rot.ravel()],
                 "translation": [float(v) for v in t]}
                for shape, rot, t in instances
            ],
        }
        with open(scene_path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

        pred_path = os.path.join(workdir, "predictions.csv")
        n_pred = write_posed_predictions(pred_path, instances, labels, rng)
        out = os.path.join(workdir, "report.json")
        argv = ["eval", pred_path, "--scene", scene_path, "--meshes", mesh_dir, "--out", out]
        return Op("clutter", argv, out, n_pred,
                  lambda stdout, path: check_eval_output(stdout, path, n_pred))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("label-dense", "label", ("icosphere4",), Grid(8, 36, 6), mesh_format="ply"),
        Workload("label-lowpoly", "label", ("cube", "lprism", "plate"), Grid(48, 36, 6)),
        Workload("eval-clutter", "eval", CLUTTER_SHAPES, Grid(8, 18, 6)),
    )
}


# --- input writers -------------------------------------------------------------


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation from a unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def yaw_rotation(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def write_mesh(path: str, vertices: np.ndarray, faces: np.ndarray) -> None:
    """ASCII OBJ or binary little-endian PLY, chosen by extension."""
    if path.endswith(".obj"):
        with open(path, "w", encoding="ascii") as fh:
            for x, y, z in vertices.tolist():
                fh.write(f"v {x!r} {y!r} {z!r}\n")
            for a, b, c in faces.tolist():
                fh.write(f"f {a + 1} {b + 1} {c + 1}\n")
        return
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    face_rec = np.zeros(len(faces), dtype=[("n", "u1"), ("v", "<i4", (3,))])
    face_rec["n"] = 3
    face_rec["v"] = faces
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(vertices, dtype="<f8").tobytes())
        fh.write(face_rec.tobytes())


def read_label_arrays(path: str) -> dict:
    """Parse a label CSV into column arrays (own parser, not graspscore's)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if tuple(header) != LABEL_COLUMNS:
        raise CheckFailed(f"{path}: label header is {header}")
    for lineno, r in enumerate(rows, start=2):
        if len(r) != len(LABEL_COLUMNS):
            raise CheckFailed(f"{path}:{lineno}: {len(r)} fields, expected {len(LABEL_COLUMNS)}")
    values = np.array([[float(v) for v in r[1:]] for r in rows]).reshape(len(rows), len(LABEL_COLUMNS) - 1)
    cols = {name: values[:, i] for i, name in enumerate(LABEL_COLUMNS[1:])}
    cols["object_id"] = [r[0] for r in rows]
    cols["rotation"] = values[:, 0:9].reshape(-1, 3, 3)
    cols["translation"] = values[:, 9:12]
    return cols


def write_posed_predictions(path, instances, labels, rng) -> int:
    """Each instance's own labels posed into the world, score = noisy s_hybrid."""
    n = 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(PREDICTION_COLUMNS) + "\n")
        for shape, rot, t in instances:
            lab = labels[shape]
            r_world = np.einsum("ij,njk->nik", rot, lab["rotation"])
            t_world = lab["translation"] @ rot.T + t
            score = np.clip(lab["s_hybrid"] + rng.normal(0.0, SCORE_NOISE, len(t_world)), 0.0, 1.0)
            for r, tw, w, d, s in zip(r_world.reshape(-1, 9).tolist(), t_world.tolist(),
                                      lab["width"].tolist(), lab["depth"].tolist(), score.tolist()):
                vals = [*r, *tw, w, d, s]
                fh.write(shape + "," + ",".join(repr(float(v)) for v in vals) + "\n")
            n += len(t_world)
    return n


# --- output checks -------------------------------------------------------------


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_candidate_line(stdout: str) -> tuple[int, int]:
    for line in stdout.splitlines():
        if line.startswith("candidates: "):
            words = line.split()
            return int(words[1]), int(words[4])
    raise CheckFailed("label printed no 'candidates:' line")


def check_label_output(stdout: str, path: str, object_id: str, cells: int) -> None:
    """Schema, score domain and counts of one label file."""
    valid, enumerated = _parse_candidate_line(stdout)
    if enumerated != cells:
        raise CheckFailed(f"{path}: {enumerated} grid cells enumerated, expected {cells}")
    cols = read_label_arrays(path)
    n = len(cols["object_id"])
    if n != valid:
        raise CheckFailed(f"{path}: {n} rows but {valid} valid cells reported")
    if n == 0:
        raise CheckFailed(f"{path}: no valid candidates")
    if set(cols["object_id"]) != {object_id}:
        raise CheckFailed(f"{path}: unexpected object ids {sorted(set(cols['object_id']))[:3]}")
    numeric = np.column_stack([cols[c] for c in LABEL_COLUMNS[1:]])
    if not np.isfinite(numeric).all():
        raise CheckFailed(f"{path}: non-finite value")
    rot = cols["rotation"]
    if not np.allclose(np.einsum("nji,njk->nik", rot, rot), np.eye(3), atol=1e-8) \
            or (np.linalg.det(rot) <= 0).any():
        raise CheckFailed(f"{path}: a rotation is not proper orthonormal")
    for c in ("s_t", "s_f1", "s_f2", "s_f", "s_g", "s_c", "s_hybrid"):
        if (cols[c] < 0.0).any() or (cols[c] > 1.0).any():
            raise CheckFailed(f"{path}: {c} outside [0, 1]")
    if (cols["s_g_raw"] < 0).any() or (cols["s_c_raw"] < 0).any():
        raise CheckFailed(f"{path}: negative raw distance")
    tenths = cols["s_t"] * 10.0
    if np.abs(tenths - np.round(tenths)).max() > 1e-9:
        raise CheckFailed(f"{path}: s_t off the decimal grid")
    lt, lf, lg, lc = DEFAULT_WEIGHTS
    hybrid = lt * cols["s_t"] + lf * cols["s_f"] + lg * cols["s_g"] + lc * cols["s_c"]
    if np.abs(hybrid - cols["s_hybrid"]).max() > 1e-12:
        raise CheckFailed(f"{path}: s_hybrid is not the weighted sum of its terms")
    if (cols["width"] <= 0).any() or (cols["width"] > MAX_WIDTH).any():
        raise CheckFailed(f"{path}: width outside (0, {MAX_WIDTH}]")


def check_eval_output(stdout: str, path: str, n_predictions: int) -> None:
    """Counters and AP arithmetic of one eval report."""
    with open(path, "r", encoding="ascii") as fh:
        rep = json.load(fh)
    expected_keys = {"thresholds", "ap_values", "map", "n_predictions", "n_filtered_nms",
                     "n_filtered_collision", "n_evaluated", "empty_after_filtering", "true_scores"}
    if set(rep) != expected_keys:
        raise CheckFailed(f"{path}: report keys {sorted(rep)}")
    if rep["n_predictions"] != n_predictions:
        raise CheckFailed(f"{path}: {rep['n_predictions']} predictions read, wrote {n_predictions}")
    survivors = n_predictions - rep["n_filtered_nms"] - rep["n_filtered_collision"]
    if rep["n_filtered_nms"] < 0 or rep["n_filtered_collision"] < 0 or survivors < 0:
        raise CheckFailed(f"{path}: inconsistent filter counts")
    if rep["n_evaluated"] != min(50, survivors) or rep["n_evaluated"] == 0:
        raise CheckFailed(f"{path}: n_evaluated {rep['n_evaluated']} with {survivors} survivors")
    if len(rep["true_scores"]) != rep["n_evaluated"]:
        raise CheckFailed(f"{path}: {len(rep['true_scores'])} true scores")
    ts = np.asarray(rep["true_scores"], dtype=float)
    ap = np.asarray(rep["ap_values"], dtype=float)
    if (ts < 0).any() or (ts > 1).any() or (ap < 0).any() or (ap > 1).any():
        raise CheckFailed(f"{path}: score or AP outside [0, 1]")
    # Recompute AP from the true scores: mean precision@k over k = 1..50.
    padded = np.zeros(50)
    padded[: len(ts)] = ts
    ks = np.arange(1, 51)
    for tau, got in zip(rep["thresholds"], ap):
        want = float(np.mean(np.cumsum(padded >= tau) / ks))
        if abs(want - got) > 1e-12:
            raise CheckFailed(f"{path}: AP at {tau} is {got}, true scores give {want}")
    if abs(float(np.mean(ap)) - rep["map"]) > 1e-12:
        raise CheckFailed(f"{path}: map is not the mean AP")
    if json.loads(stdout.strip().splitlines()[-1]) != rep:
        raise CheckFailed(f"{path}: printed report differs from the file")
