"""Scene composition, grasp NMS, and the top-50 mAP evaluation protocol.

Evaluation mirrors how a grasp predictor is bench-tested: predictions are
deduplicated with pose NMS, colliding grasps are removed, the 50 highest
predicted scores are kept, their true hybrid scores are recomputed from the
geometry, and precision at every rank is averaged into AP per score
threshold and mAP across thresholds.
"""

from __future__ import annotations

import itertools
import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .closure import FrictionBins, force_closure_score
from .errors import DegenerateContacts, ParseError, UnknownObjectId
from .gripper import (
    GraspPose,
    GripperModel,
    _is_proper_rotation,
    collision_box_corners,
    gripper_collides,
    resolve_contacts,
)
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

# NMS grid: cells are this much wider than trans_thresh, so rounding in
# t / cell never puts a suppressing pair two cells apart; and no cell key
# exceeds _MAX_CELL_KEY, so keys stay exact integers on huge translations.
_CELL_PAD = 1e-3
_MAX_CELL_KEY = 2.0**40
_NEIGHBOR_CELLS = tuple(itertools.product((-1, 0, 1), repeat=3))

# Collision broad phase: cloud points tried first per box centre, grasps per
# batched pre-test, a band (m) far wider than the rounding of a gripper-frame
# coordinate, and the relative slack of the shortlist ball. GraspPose's
# orthonormality check is np.allclose(R^T R, I, atol=1e-8), whose default
# rtol lets R scale lengths by up to about 5e-6; the slack covers that.
_NEAREST = 32
_COLLISION_CHUNK = 128
_BAND = 1e-9
_BALL_SLACK = 1e-4


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


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Predictions as columns: one float64 row and one object id per grasp.

    ``values`` is (n, 15): the row-major rotation ``r00..r22``, ``tx, ty,
    tz``, ``width``, ``depth`` and ``predicted_score``, the order of a
    prediction file's columns. ``object_ids[i]`` is row i's object id, or
    None for an unbound prediction. The values are taken as given:
    ``read_predictions`` validates a file's rows, and ``from_grasps`` copies
    poses that ``GraspPose`` has already validated.
    """

    values: np.ndarray
    object_ids: tuple[str | None, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 15:
            raise ValueError(f"prediction values must be (n, 15), got {values.shape}")
        if len(self.object_ids) != len(values):
            raise ValueError(f"{len(self.object_ids)} object ids for {len(values)} predictions")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "object_ids", tuple(self.object_ids))

    @classmethod
    def from_grasps(cls, grasps: Sequence[PredictedGrasp]) -> "PredictionTable":
        """One row per grasp, in order."""
        values = [
            [*g.pose.rotation.ravel(), *g.pose.translation, g.pose.width, g.pose.depth, g.predicted_score]
            for g in grasps
        ]
        return cls(np.array(values, dtype=np.float64).reshape(-1, 15), tuple(g.object_id for g in grasps))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def rotations(self) -> np.ndarray:
        return np.ascontiguousarray(self.values[:, 0:9]).reshape(-1, 3, 3)

    @property
    def translations(self) -> np.ndarray:
        return np.ascontiguousarray(self.values[:, 9:12])

    @property
    def scores(self) -> np.ndarray:
        return self.values[:, 14]

    def grasp(self, i: int) -> PredictedGrasp:
        """Row i as a ``PredictedGrasp``; its ``GraspPose`` checks the pose."""
        vals = self.values[i].tolist()
        pose = GraspPose(rotation=np.array(vals[0:9]).reshape(3, 3), translation=np.array(vals[9:12]),
                         width=vals[12], depth=vals[13])
        return PredictedGrasp(pose=pose, predicted_score=vals[14], object_id=self.object_ids[i])


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
        ParseError: the document lacks a required key, has the wrong
            shape, or holds a NaN table height, a non-finite translation
            or a rotation that GraspPose would reject; the message names
            the file and the instance index.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    try:
        items = list(doc["instances"])
        table_height = float(doc["table_height"])
    except KeyError as exc:
        raise ParseError(f"{path}: scene lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed scene: {exc}") from exc
    if np.isnan(table_height):
        raise ParseError(f"{path}: table_height is NaN")

    instances = []
    for k, item in enumerate(items):
        where = f"{path}: instance {k}"
        try:
            object_id = str(item["object_id"])
            rotation = np.asarray(item["rotation"], dtype=float).reshape(3, 3)
            translation = np.asarray(item["translation"], dtype=float)
        except KeyError as exc:
            raise ParseError(f"{where} lacks key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where} is malformed: {exc}") from exc
        if translation.shape != (3,) or not np.isfinite(translation).all():
            raise ParseError(f"{where}: translation must be 3 finite values")
        if not _is_proper_rotation(rotation):
            raise ParseError(f"{where}: rotation must be a proper orthonormal matrix")
        instances.append(SceneInstance(object_id=object_id, rotation=rotation, translation=translation))
    return instances, table_height


def grasp_nms(
    grasps: PredictionTable | Sequence[GraspPose],
    scores: np.ndarray,
    trans_thresh: float = DEFAULT_TRANS_THRESH,
    rot_thresh: float = DEFAULT_ROT_THRESH,
) -> np.ndarray:
    """Greedy pose non-maximum suppression.

    ``grasps`` is a prediction table, whose pose columns are read as
    arrays, or a sequence of poses. Grasps are visited by descending score
    (ties by ascending input index); one is suppressed iff some
    already-kept grasp is closer than ``trans_thresh`` in translation AND
    closer than ``rot_thresh`` in geodesic rotation angle. Returns kept
    input indices in visit order.

    Broad phase: kept grasps are filed in a uniform grid of cells slightly
    wider than ``trans_thresh``, keyed by translation. A grasp is tested
    only against the kept grasps of its own and the 26 neighbouring cells;
    any kept grasp farther away fails the translation test anyway. The
    distances and the test are the exhaustive scan's, so the kept list
    equals the one from testing every kept grasp.
    """
    n = len(grasps)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    if isinstance(grasps, PredictionTable):
        translations, rotations = grasps.translations, grasps.rotations
    else:
        translations = np.array([g.translation for g in grasps])
        rotations = np.array([g.rotation for g in grasps])

    order = np.lexsort((np.arange(n), -scores))
    if not trans_thresh > 0:
        # d_t < trans_thresh never holds, so nothing is suppressed.
        return order.astype(np.int64)
    span = float(np.abs(translations).max())
    cell_size = max(trans_thresh * (1.0 + _CELL_PAD), span / _MAX_CELL_KEY)
    keys = np.floor(translations / cell_size).astype(np.int64).tolist()

    cells: dict[tuple[int, int, int], list[int]] = {}
    kept: list[int] = []
    for i in order.tolist():
        kx, ky, kz = keys[i]
        near = [j for dx, dy, dz in _NEIGHBOR_CELLS for j in cells.get((kx + dx, ky + dy, kz + dz), ())]
        if near:
            kt = translations[near]
            d_t = np.linalg.norm(kt - translations[i], axis=1)
            # trace(R_k^T R_i) is the elementwise dot of the two matrices
            tr = np.einsum("kab,ab->k", rotations[near], rotations[i])
            d_r = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            if np.any((d_t < trans_thresh) & (d_r < rot_thresh)):
                continue
        kept.append(i)
        cells.setdefault((kx, ky, kz), []).append(i)
    return np.asarray(kept, dtype=np.int64)


def _in_boxes(local: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the (..., p, 3) gripper-frame points inside any (..., 3, 3) box."""
    local = local[..., :, None, :]
    inside = (local >= lo[..., None, :, :]) & (local <= hi[..., None, :, :])
    return inside.all(axis=-1).any(axis=-1)


def _collision_shortlists(cloud: np.ndarray, poses: list[GraspPose], gripper: GripperModel, margin: float):
    """Yield, per pose, the cloud indices ``gripper_collides`` must see.

    ``gripper_collides`` on ``cloud[shortlist]`` returns what it returns on
    the whole cloud; ``None`` stands for the whole cloud. Points are mapped
    into the gripper frame as ``gripper_collides`` maps them.

    * The ``_NEAREST`` cloud points nearest each box centre are tested,
      batched, against the inflated boxes shrunk by ``_BAND``. A point
      that passes lies inside by far more than rounding, so the points
      that pass are a shortlist that collides.
    * Otherwise the shortlist is every point of a ball that holds the
      union box of the inflated body, sorted ascending. Points outside it
      are outside every box. If a ball point lies within ``_BAND`` of a
      box face, the verdict could hang on rounding, and the whole cloud
      is tested instead.
    * A body whose box centres or ball are not finite (a NaN margin, a
      width near the float limit) is tested against the whole cloud.
    """
    if len(cloud) == 0:
        for _ in poses:
            yield np.zeros(0, dtype=np.intp)
        return
    tree = cKDTree(cloud)
    k = min(_NEAREST, len(cloud))
    for start in range(0, len(poses), _COLLISION_CHUNK):
        chunk = poses[start:start + _COLLISION_CHUNK]
        rotations = np.array([p.rotation for p in chunk])
        translations = np.array([p.translation for p in chunk])
        boxes = np.array([gripper.collision_body(p.width, p.depth) for p in chunk])
        lo = boxes[:, :, 0, :] - margin
        hi = boxes[:, :, 1, :] + margin

        with np.errstate(over="ignore", invalid="ignore"):
            centres = np.matmul(rotations[:, None], ((lo + hi) / 2.0)[..., None])[..., 0] + translations[:, None, :]
            union_lo, union_hi = lo.min(axis=1), hi.max(axis=1)
            union_centre = (union_lo + union_hi) / 2.0
            half = np.linalg.norm(union_hi - union_lo, axis=1) / 2.0
            radius = half + _BALL_SLACK * (half + np.linalg.norm(union_centre, axis=1)) + _BAND
            world_centre = np.matmul(rotations, union_centre[..., None])[..., 0] + translations
        usable = np.isfinite(centres).all(axis=(1, 2)) & np.isfinite(world_centre).all(axis=1) & np.isfinite(radius)

        _, near = tree.query(np.where(usable[:, None, None], centres, 0.0).reshape(-1, 3), k=[*range(1, k + 1)])
        near = near.reshape(len(chunk), 3 * k)
        local = np.matmul(cloud[near] - translations[:, None, :], rotations)
        hit = _in_boxes(local, lo + _BAND, hi - _BAND)
        for g in range(len(chunk)):
            if not usable[g]:
                yield None
            elif hit[g].any():
                yield np.unique(near[g, hit[g]])
            else:
                ball = np.asarray(tree.query_ball_point(world_centre[g], radius[g], return_sorted=True), dtype=np.intp)
                local = (cloud[ball] - translations[g]) @ rotations[g]
                borderline = (
                    not _in_boxes(local, lo[g] + _BAND, hi[g] - _BAND).any()
                    and _in_boxes(local, lo[g] - _BAND, hi[g] + _BAND).any()
                )
                yield None if borderline else ball


def _below_table(grasp: GraspPose, gripper: GripperModel, table_height: float) -> bool:
    if not np.isfinite(table_height):
        return False
    corners = collision_box_corners(grasp, gripper)
    return bool(corners[..., 2].min() < table_height)


def _associate_instance(
    pred: PredictedGrasp, layout: SceneLayout, library: dict, posed: dict[int, np.ndarray]
) -> SceneInstance:
    """Pick the scene instance a prediction refers to.

    With an object_id the nearest instance of that id wins; without one the
    nearest instance overall (by posed mesh-vertex distance to the grasp
    center) wins; ties go to the earlier instance. ``posed`` caches each
    instance's world-frame vertices by instance index across calls.
    """
    if pred.object_id is not None:
        candidates = [(k, i) for k, i in enumerate(layout.instances) if i.object_id == pred.object_id]
        if not candidates:
            raise UnknownObjectId(f"prediction references object {pred.object_id!r} not in scene")
        if pred.object_id not in library:
            raise UnknownObjectId(f"no mesh loaded for object {pred.object_id!r}")
    else:
        candidates = list(enumerate(layout.instances))
        if not candidates:
            raise UnknownObjectId("prediction has no object_id and the scene is empty")

    center = pred.pose.center
    best, best_d = None, np.inf
    for k, inst in candidates:
        if inst.object_id not in library:
            raise UnknownObjectId(f"no mesh loaded for object {inst.object_id!r}")
        if k not in posed:
            posed[k] = geometry.transform_points(library[inst.object_id].vertices, inst.rotation, inst.translation)
        d = float(np.min(np.linalg.norm(posed[k] - center, axis=1)))
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
    predictions: PredictionTable | Sequence[PredictedGrasp],
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

    Both filters have a spatial broad phase, and both give what the
    exhaustive scans give. NMS files kept grasps in a translation grid
    (see ``grasp_nms``). The collision filter builds one KD-tree over the
    scene cloud and calls ``gripper_collides`` once per NMS survivor, on a
    shortlist of cloud points that decides it as the whole cloud would:
    points near the box centres that lie well inside a box, or else every
    point of a ball around the gripper body. Each instance's vertices are
    posed at most once per call, for association.

    NMS reads the table's pose columns as arrays; a ``PredictedGrasp`` is
    built only for the NMS survivors. A sequence of ``PredictedGrasp`` is
    first packed into a table.
    """
    if not isinstance(predictions, PredictionTable):
        predictions = PredictionTable.from_grasps(predictions)
    n_in = len(predictions)

    kept = grasp_nms(predictions, predictions.scores, trans_thresh, rot_thresh)
    n_nms = n_in - len(kept)

    kept_grasps = [predictions.grasp(i) for i in kept.tolist()]
    cloud = layout.scene_cloud
    shortlists = _collision_shortlists(cloud, [p.pose for p in kept_grasps], gripper, collision_margin)
    survivors = []
    for p, shortlist in zip(kept_grasps, shortlists):
        points = cloud if shortlist is None else cloud[shortlist]
        if gripper_collides(points, p.pose, gripper, collision_margin):
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
    posed: dict[int, np.ndarray] = {}
    for si, pred in enumerate(survivors):
        inst = _associate_instance(pred, layout, library, posed)
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
