"""Command line interface.

Subcommands::

    label    enumerate and score grasp candidates on one mesh
    rescore  recombine an existing label file under new weights
    scene    compose a scene layout file from posed instances
    eval     score a prediction file against a scene (AP / mAP)
    views    print the approach-view directions for a given count

Exit codes: 0 success, 1 compute error (an ``ArithmeticError``), 2 input
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .candidates import generate_views
from .config import PipelineConfig, load_config
from .errors import GraspScoreError, UnknownObjectId
from .geometry import rotation_about_axis
from .labels import check_object_id, read_labels, read_predictions, write_labels
from .meshio import load_mesh, save_point_cloud_ply
from .metrics import MetricWeights
from .pipeline import label_mesh
from .scene import SceneInstance, build_scene, evaluate_ap, load_scene_instances, save_scene

logger = logging.getLogger(__name__)

# Every package error is an input error, and so is a MemoryError: an input
# can ask for an array larger than any memory (numpy refuses it at once).
_INPUT_ERRORS = (GraspScoreError, ValueError, OSError, MemoryError)
# The configuration without a --config file, and the source of views --count.
_DEFAULTS = PipelineConfig()


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """The config, mesh-scale and sampling-seed flags of the subcommands that load meshes."""
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--unit-scale", type=float, default=1.0,
                        help="multiply mesh coordinates on load (default 1.0)")
    parser.add_argument("--seed", type=_seed, default=0, help="surface sampling seed (>= 0)")


def _seed(text: str) -> int:
    """The --seed value; anything but a non-negative integer is a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _output(path: str) -> str:
    """An --out or --dump-ply path, refused at parse time if it is empty, is
    a directory or has none."""
    if not path:
        raise argparse.ArgumentTypeError("an empty path names no file")
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory" if os.path.isdir(path)
                                         else f"no directory {directory!r} for {path!r}")
    return path


def _load_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else _DEFAULTS
    if args.weights:
        cfg = cfg.with_weights(MetricWeights.parse(args.weights))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graspscore",
                                     description="Grasp candidate labeling and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="label one mesh with scored grasp candidates")
    p.set_defaults(handler=cmd_label)
    p.add_argument("mesh", help="OBJ or PLY file")
    p.add_argument("--object-id", default=None, help="id stored per record (default: file stem)")
    p.add_argument("--out", type=_output, required=True, help="label file to write")
    p.add_argument("--weights", default=None, help="lambda_t,lambda_f,lambda_g,lambda_c")
    p.add_argument("--dump-ply", type=_output, default=None,
                   help="also write grasp centers as a PLY cloud colored by hybrid score")
    _common_flags(p)

    p = sub.add_parser("rescore", help="recombine a label file under new weights")
    p.set_defaults(handler=cmd_rescore)
    p.add_argument("labels", help="existing label file")
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--weights", required=True, help="lambda_t,lambda_f,lambda_g,lambda_c")

    p = sub.add_parser("scene", help="compose a scene layout JSON")
    p.set_defaults(handler=cmd_scene)
    p.add_argument("--out", type=_output, required=True)
    p.add_argument("--table-height", type=float, default=0.0)
    p.add_argument("--instance", action="append", default=[], metavar="ID:X,Y,Z[:YAW_DEG]",
                   help="posed instance; repeatable; yaw spins about world z")
    p.add_argument("--meshes", default=None,
                   help="mesh directory; when given, instance ids are validated against it")

    p = sub.add_parser("eval", help="evaluate a prediction file against a scene")
    p.set_defaults(handler=cmd_eval)
    p.add_argument("predictions", help="prediction or label file")
    p.add_argument("--scene", required=True, help="scene layout JSON")
    p.add_argument("--meshes", required=True, help="directory of <object_id>.obj/.ply meshes")
    p.add_argument("--out", type=_output, help="report JSON path (default: <predictions>.report.json)")
    p.add_argument("--weights", default=None, help="lambda_t,lambda_f,lambda_g,lambda_c")
    _common_flags(p)

    p = sub.add_parser("views", help="print approach-view unit vectors")
    p.set_defaults(handler=cmd_views)
    p.add_argument("--count", type=int, default=_DEFAULTS.n_views)
    p.add_argument("--out", type=_output, help="write CSV here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


def cmd_label(args) -> int:
    object_id = args.object_id or os.path.splitext(os.path.basename(args.mesh))[0]
    check_object_id(object_id)
    cfg = _load_config(args)
    mesh = load_mesh(args.mesh, unit_scale=args.unit_scale)

    table, summary = label_mesh(mesh, object_id, cfg, seed=args.seed)
    write_labels(args.out, table)

    print(f"mesh {args.mesh}: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces, "
          f"{'watertight' if mesh.watertight else 'open'}")
    print(f"candidates: {summary.n_labeled} valid of {summary.n_enumerated} grid cells "
          f"({summary.n_skipped} skipped)")
    print(_histogram_table(summary.closure_histogram, summary.hybrid_histogram))
    print(f"wrote {len(table)} records to {args.out}")

    if args.dump_ply:
        centers = table.translations + table.depths[:, None] * table.rotations[:, :, 2]
        save_point_cloud_ply(args.dump_ply, centers, _score_colors(table.column("s_hybrid")))
        print(f"wrote debug cloud to {args.dump_ply}")
    return 0


def _histogram_table(closure: tuple[int, ...], hybrid: tuple[int, ...]) -> str:
    """Side-by-side text bars: closure-score vs hybrid-score histograms."""
    peak = max(1, max(closure), max(hybrid))
    lines = [f"{'bin':>10}  {'s_t':>7} {'':16} {'s_hybrid':>8}"]
    for i, (a, b) in enumerate(zip(closure, hybrid)):
        lo, hi = i / 10.0, (i + 1) / 10.0
        edge = "]" if i == 9 else ")"
        bar_a = "#" * int(round(16.0 * a / peak))
        bar_b = "#" * int(round(16.0 * b / peak))
        lines.append(f"[{lo:3.1f},{hi:3.1f}{edge}  {a:>7} {bar_a:<16} {b:>8} {bar_b}")
    return "\n".join(lines)


def _score_colors(scores: np.ndarray) -> np.ndarray:
    """Blue-to-red ramp over [0, 1]."""
    s = np.clip(scores, 0.0, 1.0)
    return np.column_stack([
        (255 * s).astype(np.uint8),
        np.zeros_like(s, dtype=np.uint8),
        (255 * (1.0 - s)).astype(np.uint8),
    ])


def cmd_rescore(args) -> int:
    table = read_labels(args.labels).rescored(MetricWeights.parse(args.weights))
    write_labels(args.out, table)
    print(f"rescored {len(table)} records to {args.out}")
    return 0


def cmd_scene(args) -> int:
    if not np.isfinite(args.table_height):
        raise ValueError(f"--table-height must be finite, got {args.table_height!r}")
    instances = [_parse_instance(spec_text) for spec_text in args.instance]
    if args.meshes:
        for inst in instances:
            if _find_mesh_file(args.meshes, inst.object_id) is None:
                raise UnknownObjectId(f"no mesh file for {inst.object_id!r} in {args.meshes}")
    save_scene(args.out, instances, float(args.table_height))
    print(f"wrote scene with {len(instances)} instance(s) to {args.out}")
    return 0


def _parse_instance(text: str) -> SceneInstance:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"instance must look like ID:X,Y,Z or ID:X,Y,Z:YAW_DEG, got {text!r}")
    oid = parts[0]
    try:
        xyz = [float(v) for v in parts[1].split(",")]
        yaw = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError as exc:
        raise ValueError(f"--instance {text!r}: {exc}") from exc
    if len(xyz) != 3:
        raise ValueError(f"instance translation needs 3 values: {text!r}")
    if not np.isfinite([*xyz, yaw]).all():
        raise ValueError(f"--instance {text!r}: translation and yaw must be finite")
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.deg2rad(yaw))
    return SceneInstance(object_id=oid, rotation=rot, translation=np.asarray(xyz))


def _find_mesh_file(directory: str, object_id: str) -> str | None:
    for ext in (".obj", ".ply"):
        path = os.path.join(directory, object_id + ext)
        if os.path.isfile(path):
            return path
    return None


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    predictions = read_predictions(args.predictions)
    instances, table_height = load_scene_instances(args.scene)

    library = {}
    for inst in instances:
        if inst.object_id in library:
            continue
        path = _find_mesh_file(args.meshes, inst.object_id)
        if path is None:
            raise UnknownObjectId(f"no mesh file for {inst.object_id!r} in {args.meshes}")
        library[inst.object_id] = load_mesh(path, unit_scale=args.unit_scale)
    layout = build_scene(instances, library, table_height, cfg.surface_density, args.seed)
    report = evaluate_ap(predictions, layout, cfg)

    print(f"{'threshold':>10} {'AP':>14}")
    for tau, ap in zip(report.thresholds, report.ap_values):
        print(f"{tau:>10.2f} {ap:>14.9f}")
    print(f"{'mAP':>10} {report.map_value:>14.9f}")
    print(f"mAP {report.map_value:.3f} over {report.n_evaluated} evaluated grasp(s) "
          f"({report.n_filtered_nms} NMS-suppressed, {report.n_filtered_collision} colliding)")
    if report.empty_after_filtering:
        print("warning: no grasps survived filtering; all AP values are 0")

    out_path = args.out or args.predictions + ".report.json"
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")
    print(json.dumps(report.as_dict()))
    return 0


def cmd_views(args) -> int:
    views = generate_views(args.count)
    lines = [f"{float(x)!r},{float(y)!r},{float(z)!r}" for x, y, z in views]
    text = "x,y,z\n" + "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {len(views)} views to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    run()
