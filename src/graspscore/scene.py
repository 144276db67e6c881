"""Scene composition, grasp NMS, and the top-50 mAP evaluation protocol.

Evaluation mirrors how a grasp predictor is bench-tested: predictions are
deduplicated with pose NMS, colliding grasps are removed, the 50 highest
predicted scores are kept, their true hybrid scores are recomputed from the
geometry, and precision at every rank is averaged into AP per score
threshold and mAP across thresholds.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .closure import FrictionBins, force_closure_score
from .errors import DegenerateContacts, ParseError, UnknownObjectId
from .gripper import GraspPose, GripperModel, collision_box_corners, gripper_collides, resolve_contacts
from .mesh import DEFAULT_SURFACE_DENSITY, TriangleMesh, mass_properties, transform_mesh, with_surface_samples
from .metrics import (
    MetricWeights,
    ScoreBreakdown,
    collision_score,
    flatness_score,
    gravity_score,
    normalize_and_combine,
)
from .spatial import SpatialIndex

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLDS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
TOP_K = 50
DEFAULT_TRANS_THRESH = 0.03
DEFAULT_ROT_THRESH = np.deg2rad(30.0)


@dataclass(frozen=True, eq=False)
class SceneInstance:
    """One posed object: local-to-world rotation and translation."""

    object_id: str
    rotation: np.ndarray
    translation: np.ndarray


@dataclass(frozen=True, eq=False)
class SceneLayout:
    """Posed instances plus the merged world-frame surface cloud."""

    instances: tuple[SceneInstance, ...]
    table_height: float
    scene_cloud: np.ndarray


@dataclass(frozen=True, eq=False)
class PredictedGrasp:
    """A predictor's output: pose, confidence, optional object binding."""

    pose: GraspPose
    predicted_score: float
    object_id: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """AP per threshold and their mean, plus filtering counts."""

    thresholds: tuple[float, ...]
    ap_values: tuple[float, ...]
    map_value: float
    n_predictions: int
    n_filtered_nms: int
    n_filtered_collision: int
    n_evaluated: int
    empty_after_filtering: bool
    true_scores: tuple[float, ...] = field(default=())

    def as_dict(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "ap_values": list(self.ap_values),
            "map": self.map_value,
            "n_predictions": self.n_predictions,
            "n_filtered_nms": self.n_filtered_nms,
            "n_filtered_collision": self.n_filtered_collision,
            "n_evaluated": self.n_evaluated,
            "empty_after_filtering": self.empty_after_filtering,
            "true_scores": list(self.true_scores),
        }


def build_scene(
    instances: list[SceneInstance],
    library: dict[str, TriangleMesh],
    table_height: float,
    density: float = DEFAULT_SURFACE_DENSITY,
    seed: int = 0,
) -> SceneLayout:
    """Merge posed instance surface clouds into a scene layout.

    Library meshes without surface samples get them attached here with a
    deterministic seed.
    """
    clouds = []
    for inst in instances:
        if inst.object_id not in library:
            raise UnknownObjectId(f"scene references unknown object {inst.object_id!r}")
        mesh = library[inst.object_id]
        if mesh.surface_points is None:
            mesh = with_surface_samples(mesh, density, seed)
            library[inst.object_id] = mesh
        clouds.append(geometry.transform_points(mesh.surface_points, inst.rotation, inst.translation))
    cloud = np.concatenate(clouds) if clouds else np.zeros((0, 3))
    return SceneLayout(tuple(instances), float(table_height), cloud)


def save_scene(path: str, layout: SceneLayout) -> None:
    doc = {
        "table_height": layout.table_height,
        "instances": [
            {
                "object_id": inst.object_id,
                "rotation": [float(x) for x in np.asarray(inst.rotation).ravel()],
                "translation": [float(x) for x in np.asarray(inst.translation)],
            }
            for inst in layout.instances
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scene_instances(path: str) -> tuple[list[SceneInstance], float]:
    """Read instances and table height back from a scene JSON file.

    Raises:
        ParseError: the document lacks a required key or has the wrong
            shape.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    try:
        instances = [
            SceneInstance(
                object_id=str(item["object_id"]),
                rotation=np.asarray(item["rotation"], dtype=float).reshape(3, 3),
                translation=np.asarray(item["translation"], dtype=float),
            )
            for item in doc["instances"]
        ]
        table_height = float(doc["table_height"])
    except KeyError as exc:
        raise ParseError(f"{path}: scene lacks key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ParseError(f"{path}: malformed scene: {exc}") from exc
    return instances, table_height


def grasp_nms(
    grasps: list[GraspPose],
    scores: np.ndarray,
    trans_thresh: float = DEFAULT_TRANS_THRESH,
    rot_thresh: float = DEFAULT_ROT_THRESH,
) -> np.ndarray:
    """Greedy pose non-maximum suppression.

    Grasps are visited by descending score (ties by ascending input index);
    one is suppressed iff some already-kept grasp is closer than
    ``trans_thresh`` in translation AND closer than ``rot_thresh`` in
    geodesic rotation angle. Returns kept input indices in visit order.
    """
    n = len(grasps)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    translations = np.array([g.translation for g in grasps])
    rotations = np.array([g.rotation for g in grasps])

    order = np.lexsort((np.arange(n), -scores))
    kept: list[int] = []
    for i in order:
        if kept:
            kt = translations[kept]
            d_t = np.linalg.norm(kt - translations[i], axis=1)
            # trace(R_k^T R_i) is the elementwise dot of the two matrices
            tr = np.einsum("kab,ab->k", rotations[kept], rotations[i])
            d_r = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            if np.any((d_t < trans_thresh) & (d_r < rot_thresh)):
                continue
        kept.append(int(i))
    return np.asarray(kept, dtype=np.int64)


def _below_table(grasp: GraspPose, gripper: GripperModel, table_height: float) -> bool:
    if not np.isfinite(table_height):
        return False
    corners = collision_box_corners(grasp, gripper)
    return bool(corners[..., 2].min() < table_height)


def _associate_instance(pred: PredictedGrasp, layout: SceneLayout, library: dict) -> SceneInstance:
    """Pick the scene instance a prediction refers to.

    With an object_id the nearest instance of that id wins; without one the
    nearest instance overall (by posed mesh-vertex distance to the grasp
    center) wins.
    """
    if pred.object_id is not None:
        matches = [i for i in layout.instances if i.object_id == pred.object_id]
        if not matches:
            raise UnknownObjectId(f"prediction references object {pred.object_id!r} not in scene")
        if pred.object_id not in library:
            raise UnknownObjectId(f"no mesh loaded for object {pred.object_id!r}")
        candidates = matches
    else:
        candidates = list(layout.instances)
        if not candidates:
            raise UnknownObjectId("prediction has no object_id and the scene is empty")

    center = pred.pose.center
    best, best_d = None, np.inf
    for inst in candidates:
        if inst.object_id not in library:
            raise UnknownObjectId(f"no mesh loaded for object {inst.object_id!r}")
        verts = geometry.transform_points(library[inst.object_id].vertices, inst.rotation, inst.translation)
        d = float(np.min(np.linalg.norm(verts - center, axis=1)))
        if d < best_d:
            best, best_d = inst, d
    return best


def _grasp_in_object_frame(pose: GraspPose, inst: SceneInstance) -> GraspPose:
    r = inst.rotation.T @ pose.rotation
    t = inst.rotation.T @ (pose.translation - inst.translation)
    return GraspPose(rotation=r, translation=t, width=pose.width, depth=pose.depth)


def _ap_per_threshold(true_scores: np.ndarray, thresholds) -> np.ndarray:
    """AP(threshold) = mean over k=1..TOP_K of precision@k, zero padded."""
    padded = np.zeros(TOP_K)
    padded[: len(true_scores)] = true_scores[:TOP_K]
    ks = np.arange(1, TOP_K + 1)
    aps = []
    for tau in thresholds:
        good = np.cumsum(padded >= tau)
        aps.append(float(np.mean(good / ks)))
    return np.asarray(aps)


def evaluate_ap(
    predictions: list[PredictedGrasp],
    layout: SceneLayout,
    library: dict[str, TriangleMesh],
    weights: MetricWeights = MetricWeights(),
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    *,
    gripper: GripperModel = GripperModel(),
    bins: FrictionBins = FrictionBins(),
    knn_k: int = 10,
    trans_thresh: float = DEFAULT_TRANS_THRESH,
    rot_thresh: float = DEFAULT_ROT_THRESH,
    collision_margin: float = 0.001,
    surface_density: float = DEFAULT_SURFACE_DENSITY,
    sample_seed: int = 0,
) -> EvalReport:
    """Score a prediction set against a scene.

    Pipeline: NMS -> collision filter (scene cloud + table plane) -> top-50
    by predicted score -> recompute the true hybrid score of each survivor
    on its associated object -> precision@k -> AP per threshold -> mAP.
    Grasps whose contacts cannot be resolved score 0. Fewer than 50
    survivors are padded with zero true scores; no survivors at all yields
    a zeroed, flagged report.
    """
    n_in = len(predictions)
    scores = np.array([p.predicted_score for p in predictions], dtype=float)
    poses = [p.pose for p in predictions]

    kept = grasp_nms(poses, scores, trans_thresh, rot_thresh)
    n_nms = n_in - len(kept)

    survivors = []
    for i in kept:
        p = predictions[i]
        if gripper_collides(layout.scene_cloud, p.pose, gripper, collision_margin):
            continue
        if _below_table(p.pose, gripper, layout.table_height):
            continue
        survivors.append(p)
    n_coll = len(kept) - len(survivors)

    # NMS already visits by (score desc, index asc), so the first TOP_K
    # survivors are the top-scored ones under the stable tie rule.
    survivors = survivors[:TOP_K]

    if not survivors:
        zeros = tuple(0.0 for _ in thresholds)
        return EvalReport(
            thresholds=tuple(thresholds),
            ap_values=zeros,
            map_value=0.0,
            n_predictions=n_in,
            n_filtered_nms=n_nms,
            n_filtered_collision=n_coll,
            n_evaluated=0,
            empty_after_filtering=True,
        )

    # Recompute true scores, grouped per object so normalization has the
    # right context.
    prepared: dict[str, tuple[TriangleMesh, SpatialIndex, np.ndarray]] = {}

    def prepare(object_id: str):
        if object_id not in prepared:
            mesh = library[object_id]
            if mesh.surface_points is None:
                mesh = with_surface_samples(mesh, surface_density, sample_seed)
                library[object_id] = mesh
            prepared[object_id] = (mesh, SpatialIndex.from_mesh(mesh), mass_properties(mesh).gravity_center)
        return prepared[object_id]

    groups: dict[int, list[int]] = {}
    instances: list[SceneInstance] = []
    for si, pred in enumerate(survivors):
        inst = _associate_instance(pred, layout, library)
        try:
            gi = instances.index(inst)
        except ValueError:
            gi = len(instances)
            instances.append(inst)
        groups.setdefault(gi, []).append(si)

    true_scores = np.zeros(len(survivors))
    for gi, members in groups.items():
        inst = instances[gi]
        mesh, index, gravity_center = prepare(inst.object_id)
        valid_ids, partials = [], []
        for si in members:
            local = _grasp_in_object_frame(survivors[si].pose, inst)
            frame = resolve_contacts(mesh, local, gripper)
            if not frame.valid:
                continue
            try:
                s_g_raw = gravity_score(frame, gravity_center)
            except DegenerateContacts:
                continue
            s_t = force_closure_score(frame, bins)
            s_f1, s_f2, s_f = flatness_score(frame, index, knn_k)
            partials.append(
                ScoreBreakdown(
                    s_t=s_t, s_f1=s_f1, s_f2=s_f2, s_f=s_f,
                    s_g_raw=s_g_raw, s_c_raw=collision_score(frame),
                )
            )
            valid_ids.append(si)
        for si, done in zip(valid_ids, normalize_and_combine(partials, weights)):
            true_scores[si] = done.s_hybrid

    aps = _ap_per_threshold(true_scores, thresholds)
    return EvalReport(
        thresholds=tuple(thresholds),
        ap_values=tuple(float(a) for a in aps),
        map_value=float(np.mean(aps)),
        n_predictions=n_in,
        n_filtered_nms=n_nms,
        n_filtered_collision=n_coll,
        n_evaluated=len(survivors),
        empty_after_filtering=False,
        true_scores=tuple(float(s) for s in true_scores),
    )
