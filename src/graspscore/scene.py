"""Scenes and their JSON files, pose NMS, the collision and table filter,
instance association, and the top-50 mAP evaluation protocol.

Evaluation mirrors how a grasp predictor is bench-tested: predictions are
deduplicated with pose NMS, colliding grasps are removed, the 50 highest
predicted scores are kept, their true hybrid scores are recomputed from the
geometry, and precision at every rank is averaged into AP per score
threshold and mAP across thresholds.

The collision filter drops the NMS survivors below the table, then decides
the rest in one bulk pass that names a witness, a scene point inside its
boxes, for each colliding one; ``gripper.gripper_collides`` is the
one-grasp rule it agrees with.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .config import PipelineConfig
from .errors import ParseError, UnknownObjectId
from .gripper import _gripper_frame, contacts_on_lines, proper_rotations
from .labels import PredictionTable
from .mesh import DEFAULT_SURFACE_DENSITY, TriangleMesh, mass_properties, with_surface_samples
from .metrics import combine_scores, score_contacts
from .spatial import SpatialIndex

logger = logging.getLogger(__name__)

TOP_K = 50
# The default configuration, and the source of grasp_nms's default thresholds.
_DEFAULTS = PipelineConfig()

# NMS broad phase (see grasp_nms). The embedding scales tau and rho carry a
# relative pad far wider than the rounding of an embedded coordinate, which
# is clipped to +-_MAX_EMBED. rho also carries an absolute slack: the
# rule of gripper.proper_rotations (R^T R within about 1e-5 of I) lets
# tr(R_a^T R_b) sit up to 3e-5 from that of the nearest exact rotations, so
# a pair whose computed angle is below theta can have closing axes up to
# 2 sin(theta / 2) + 5.5e-3 apart. Grasps go through _NMS_BLOCK at a time,
# and candidate pairs get the exact test _NMS_CHUNK at a time.
_EMBED_PAD = 1e-3
_MAX_EMBED = 2.0**36
_AXIS_SLACK = 1e-2
_EMBED_RADIUS = float(np.sqrt(2.0))
_NMS_BLOCK = 512
_NMS_CHUNK = 16384

# Collision broad phase: grasps per batched pass, the absolute pad and
# relative slack of each cover ball, the most pieces one box is cut into,
# and the farthest a ball centre may lie from the cloud's bounding box on an
# axis: the KD-tree fails when squared distances overflow (past 1.3e154), so
# such a body gets the whole cloud.
_COLLISION_CHUNK = 128
_BAND = 1e-9
_BALL_SLACK = 1e-4
_MAX_PIECES = 64
_MAX_REACH = 1e150
# A box's 8 corners as lo (0) / hi (1) picks per axis.
_CORNER_PICKS = np.array(list(itertools.product((0, 1), repeat=3)))


@dataclass(frozen=True, eq=False)
class SceneInstance:
    """One posed object: local-to-world rotation and translation."""

    object_id: str
    rotation: np.ndarray
    translation: np.ndarray


@dataclass(frozen=True, eq=False)
class SceneLayout:
    """Posed instances, the merged world-frame surface cloud, and the mesh
    of each object id that the cloud was sampled from."""

    instances: tuple[SceneInstance, ...]
    table_height: float
    scene_cloud: np.ndarray
    meshes: dict[str, TriangleMesh]


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

    The layout's ``meshes`` maps each instance's object id to its library
    mesh; one without surface samples is sampled once, with ``density`` and
    the deterministic ``seed``. ``library`` is left as it is.
    """
    meshes = {}
    for object_id in dict.fromkeys(inst.object_id for inst in instances):
        if object_id not in library:
            raise UnknownObjectId(f"scene references unknown object {object_id!r}")
        mesh = library[object_id]
        meshes[object_id] = mesh if mesh.surface_points is not None else with_surface_samples(mesh, density, seed)
    clouds = [geometry.transform_points(meshes[inst.object_id].surface_points, inst.rotation, inst.translation)
              for inst in instances]
    cloud = np.concatenate(clouds) if clouds else np.zeros((0, 3))
    return SceneLayout(tuple(instances), float(table_height), cloud, meshes)


def save_scene(path: str, instances: list[SceneInstance], table_height: float) -> None:
    """Write instances and table height as the JSON that ``load_scene_instances`` reads."""
    doc = {
        "table_height": table_height,
        "instances": [
            {
                "object_id": inst.object_id,
                "rotation": [float(x) for x in np.asarray(inst.rotation).ravel()],
                "translation": [float(x) for x in np.asarray(inst.translation)],
            }
            for inst in instances
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_scene_instances(path: str) -> tuple[list[SceneInstance], float]:
    """Read instances and table height back from a scene JSON file.

    Raises:
        ParseError: the file is not ascii or not JSON (the message gives
            the line and column), or the document lacks a required key, has
            the wrong shape, or holds a non-finite table height (NaN, or
            json's ``Infinity`` / ``-Infinity``), a non-finite translation
            or a rotation that ``proper_rotations`` rejects; the message
            names the file and, for an instance, its index.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("ascii"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        column = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{path}: byte {raw[exc.start]:#04x} is not ascii: line {line} column {column}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed scene JSON: {exc}") from exc
    try:
        items = list(doc["instances"])
        table_height = float(doc["table_height"])
    except KeyError as exc:
        raise ParseError(f"{path}: scene lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed scene: {exc}") from exc
    if not np.isfinite(table_height):
        raise ParseError(f"{path}: table_height must be finite, got {table_height!r}")

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
        if not proper_rotations(rotation):
            raise ParseError(f"{where}: rotation must be a proper orthonormal matrix")
        instances.append(SceneInstance(object_id=object_id, rotation=rotation, translation=translation))
    return instances, table_height


def grasp_nms(
    rotations: np.ndarray,
    translations: np.ndarray,
    scores: np.ndarray,
    trans_thresh: float = _DEFAULTS.nms_trans_thresh,
    rot_thresh: float = _DEFAULTS.nms_rot_thresh,
) -> np.ndarray:
    """Greedy pose non-maximum suppression.

    Grasp i has rotation ``rotations[i]`` (3, 3), translation
    ``translations[i]`` (3,) and score ``scores[i]``, as in the columns of
    a ``PredictionTable``. Grasps are visited by descending score
    (ties by ascending input index); one is suppressed iff some
    already-kept grasp is closer than ``trans_thresh`` in translation AND
    closer than ``rot_thresh`` in geodesic rotation angle. Returns kept
    input indices in visit order. A NaN or non-positive threshold
    suppresses nothing.

    Broad phase: each grasp is embedded as the 6-vector ``(t / tau,
    R[:, 0] / rho)``. ``tau`` is ``trans_thresh`` and ``rho`` is ``2
    sin(theta / 2)`` for theta = min(rot_thresh, pi), the largest gap
    between the closing axes of two rotations theta apart; both are padded
    (see ``_EMBED_PAD`` and ``_AXIS_SLACK``). Each embedded translation
    coordinate is clipped to +-``_MAX_EMBED``, which bounds its rounding,
    keeps one far grasp from squeezing the rest together, and never
    lengthens a distance. A suppressing pair is then closer than 1 in each
    half of the embedding, so within sqrt(2) in all of it, and a pair
    farther apart cannot suppress. Grasps go through in visit order,
    ``_NMS_BLOCK`` at a time: KD-trees over the kept grasps give each
    block's candidate suppressors, ``query_pairs`` its pairs within the
    block, and only candidate pairs get the exhaustive scan's exact test.
    The greedy pass over the block then walks its suppressing pairs by
    their later member. The kept list equals the one from testing every
    kept grasp. Memory is bounded by the block size times the kept grasps
    near it, plus the block size squared, whatever the thresholds.
    """
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    rotations = np.asarray(rotations, dtype=float)
    translations = np.asarray(translations, dtype=float)

    order = np.lexsort((np.arange(n), -scores))
    if not (trans_thresh > 0 and rot_thresh > 0):
        # d_t < trans_thresh or d_r < rot_thresh never holds, as d_r >= 0.
        return order.astype(np.int64)
    translations, rotations = translations[order], rotations[order]
    tau = trans_thresh * (1.0 + _EMBED_PAD)
    rho = 2.0 * np.sin(min(rot_thresh, np.pi) / 2.0) * (1.0 + _EMBED_PAD) + _AXIS_SLACK
    reach = _MAX_EMBED * tau
    embedded = np.hstack([np.clip(translations, -reach, reach) / tau, rotations[:, :, 0] / rho])

    def suppressing(earlier: np.ndarray, later: np.ndarray) -> np.ndarray:
        """Mask of the pairs where ``earlier`` suppresses ``later`` (visit positions)."""
        out = np.empty(len(earlier), dtype=bool)
        for s in range(0, len(earlier), _NMS_CHUNK):
            e, l = earlier[s:s + _NMS_CHUNK], later[s:s + _NMS_CHUNK]
            with np.errstate(over="ignore"):  # an overflowing distance is too far to suppress
                d_t = np.linalg.norm(translations[e] - translations[l], axis=1)
            # trace(R_e^T R_l) is the elementwise dot of the two matrices
            tr = np.einsum("kab,kab->k", rotations[e], rotations[l])
            d_r = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
            out[s:s + _NMS_CHUNK] = (d_t < trans_thresh) & (d_r < rot_thresh)
        return out

    kept: list[np.ndarray] = []
    # Kept visit positions in runs of falling size, each with a KD-tree over
    # its embedding; a new run swallows every older one no larger than it.
    # One tree over every kept grasp, rebuilt as it grows, costs more: with
    # 49,050 of 107,802 grasps kept (1e-3 m, 1 degree) the runs took 1.8-2.1 s,
    # one tree 3.4-4.0 s. At the default thresholds the two tie.
    runs: list[tuple[cKDTree, np.ndarray]] = []
    for start in range(0, n, _NMS_BLOCK):
        size = min(_NMS_BLOCK, n - start)
        block = cKDTree(embedded[start:start + size])
        beaten = np.zeros(size, dtype=bool)
        for tree, positions in runs:
            near = block.sparse_distance_matrix(tree, _EMBED_RADIUS, output_type="ndarray")
            beaten[near["i"][suppressing(positions[near["j"]], start + near["i"])]] = True
        # a grasp suppressed by a kept one is neither kept nor a suppressor
        pairs = block.query_pairs(_EMBED_RADIUS, output_type="ndarray")
        pairs = pairs[~(beaten[pairs[:, 0]] | beaten[pairs[:, 1]])]
        pairs = pairs[suppressing(start + pairs[:, 0], start + pairs[:, 1])]
        pairs = pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]
        bounds = np.searchsorted(pairs[:, 1], np.arange(size + 1)).tolist()
        earlier = pairs[:, 0].tolist()

        beaten = beaten.tolist()
        new: list[int] = []
        for i in range(size):
            if beaten[i] or any(not beaten[j] for j in earlier[bounds[i]:bounds[i + 1]]):
                beaten[i] = True
            else:
                new.append(start + i)
        if new:
            merged = np.asarray(new, dtype=np.int64)
            kept.append(merged)
            while runs and len(runs[-1][1]) <= len(merged):
                merged = np.concatenate([runs.pop()[1], merged])
            runs.append((cKDTree(embedded[merged]), merged))
    return order[np.concatenate(kept)].astype(np.int64)


def _in_boxes(local: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the (..., p, 3) gripper-frame points inside any (..., b, 3) box.

    One axis at a time, so each comparison runs along the p points.
    """
    inside = True
    for axis in range(3):
        x = local[..., None, :, axis]
        inside = inside & (x >= lo[..., :, axis, None]) & (x <= hi[..., :, axis, None])
    return inside.any(axis=-2)


def _collision_witnesses(cloud: np.ndarray, rotations: np.ndarray, translations: np.ndarray,
                         bodies: np.ndarray, margin: float) -> np.ndarray:
    """Per grasp, the index of a cloud point inside its boxes, or -1 when none is.

    Grasp i has pose ``rotations[i]``, ``translations[i]`` and boxes
    ``bodies[i]`` (from ``collision_body``) grown by ``margin``. Points are
    mapped by ``_gripper_frame`` and boxed as in ``gripper_collides``, so a
    witness is inside for it too, and a grasp is -1 exactly when no cloud
    point is inside. Grasps go through ``_COLLISION_CHUNK`` at a time, each
    one's boxes covered by balls (see ``_ball_cover``). The points tried
    first are the nearest to each ball's centre, one per ball, if within
    half the chunk's smallest finite box side: a grasp that one of them
    lands inside has its witness. The grasps none of them settles test
    every point in their balls, and take the lowest index inside. A body
    whose cover is not finite (a NaN margin, a width near the float limit)
    or lies beyond ``_MAX_REACH`` of the cloud tests the whole cloud. The
    nearest-point pre-test only saves work: the box test and the cover
    decide. With no grasps no tree is built.
    """
    witness = np.full(len(rotations), -1, dtype=np.intp)
    if not len(rotations):
        return witness
    tree = cKDTree(cloud)
    for start in range(0, len(rotations), _COLLISION_CHUNK):
        chunk = slice(start, start + _COLLISION_CHUNK)
        rot, trans = rotations[chunk], translations[chunk]
        n = len(rot)
        lo, hi = bodies[chunk, :, 0, :] - margin, bodies[chunk, :, 1, :] + margin
        owner, world, radius = _ball_cover(rot, trans, lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.maximum(np.abs(world - tree.mins), np.abs(world - tree.maxes))
            sides = hi - lo
        far = ~((reach <= _MAX_REACH).all(axis=1) & np.isfinite(radius))
        usable = np.bincount(owner[far], minlength=n) == 0
        inner = np.min(sides, where=np.isfinite(sides), initial=np.inf) / 2.0

        # the point nearest each usable ball's centre, if within inner
        ball = np.flatnonzero(usable[owner])
        _, near = tree.query(world[ball], k=1, distance_upper_bound=inner)
        ball, near = ball[near < len(cloud)], near[near < len(cloud)]
        grasp = owner[ball]
        hit = _in_boxes(_gripper_frame(cloud[near], rot[grasp], trans[grasp])[:, None], lo[grasp], hi[grasp])[:, 0]
        settled, first = np.unique(grasp[hit], return_index=True)
        witness[start + settled] = near[hit][first]

        # (grasp, point) keys of the open grasps' balls, sorted, no repeats
        ball = (usable & (witness[chunk] < 0))[owner]
        found = tree.query_ball_point(world[ball], radius[ball])
        counts = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        points = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp, count=int(counts.sum()))
        keys = np.unique(np.repeat(owner[ball], counts) * len(cloud) + points)
        grasp, points = np.divmod(keys, len(cloud))
        inside = _in_boxes(_gripper_frame(cloud[points], rot[grasp], trans[grasp])[:, None], lo[grasp], hi[grasp])
        grasp, points = grasp[inside[:, 0]], points[inside[:, 0]]
        opened, first = np.unique(grasp, return_index=True)
        witness[start + opened] = points[first]

        for g in np.flatnonzero(~usable).tolist():
            inside = np.flatnonzero(_in_boxes(_gripper_frame(cloud, rot[g], trans[g]), lo[g], hi[g]))
            if len(inside):
                witness[start + g] = inside[0]
    return witness


def _ball_cover(rotations: np.ndarray, translations: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """World-frame balls that cover the (g, b, 3) boxes ``lo``..``hi`` of g grasps.

    Each box is cut along its longest side into equal pieces about as long
    as its middle side (at most ``_MAX_PIECES``), so a finger or the palm
    bar becomes a row of near-cubic pieces, each held by the ball through
    its corners. Returns the grasp of each ball, its world centre and its
    radius: the piece's half-diagonal padded by ``_BALL_SLACK`` of itself
    plus the centre's distance from the gripper origin (the rotations
    ``gripper.proper_rotations`` accepts may scale lengths by about 5e-6),
    and by ``_BAND`` for the rounding of the world centre and the KD-tree's
    distances, which is absolute. So every point that ``_gripper_frame``
    maps inside a box lies in one of its balls. Non-finite boxes give
    non-finite balls.
    """
    n_boxes = lo.shape[1]
    lo, hi = lo.reshape(-1, 3), hi.reshape(-1, 3)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        extent = hi - lo
        boxes = np.arange(len(extent))
        axis = extent.argmax(axis=1)
        longest = extent[boxes, axis]
        pieces = np.ceil(longest / np.sort(extent, axis=1)[:, 1])
        pieces = np.where(np.isfinite(pieces), np.clip(pieces, 1, _MAX_PIECES), 1).astype(np.intp)
        step = longest / pieces
        extent[boxes, axis] = step
        half = np.linalg.norm(extent, axis=1) / 2.0

        box = np.repeat(boxes, pieces)
        along = axis[box]
        index = np.arange(len(box)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        centre = (lo[box] + hi[box]) / 2.0
        centre[np.arange(len(box)), along] = lo[box, along] + (index + 0.5) * step[box]
        radius = half[box] + _BALL_SLACK * (half[box] + np.linalg.norm(centre, axis=1)) + _BAND
        grasp = box // n_boxes
        world = np.matmul(rotations[grasp], centre[..., None])[..., 0] + translations[grasp]
    return grasp, world, radius


def _below_table(rotations: np.ndarray, translations: np.ndarray, bodies: np.ndarray,
                 table_height: float) -> np.ndarray:
    """Mask of the grasps with a box corner, mapped as ``corners @ R.T + t``,
    below ``table_height``; a non-finite height filters nothing."""
    if not np.isfinite(table_height):
        return np.zeros(len(bodies), dtype=bool)
    corners = bodies[..., _CORNER_PICKS, np.arange(3)].reshape(len(bodies), 24, 3)
    world = np.matmul(corners, rotations.transpose(0, 2, 1)) + translations[:, None, :]
    return world[..., 2].min(axis=1) < table_height


def _associate(centers: np.ndarray, object_ids: list[str | None], layout: SceneLayout) -> np.ndarray:
    """Each grasp's scene instance index: the nearest instance of its object
    id, or of any id when unbound (None), by posed mesh-vertex distance to
    its ``center``; ties go to the earlier instance. ``UnknownObjectId``
    names the first grasp whose id is not in the scene or that is unbound
    in an empty scene. Each instance is posed at most once."""
    scene_ids = [inst.object_id for inst in layout.instances]
    for object_id in object_ids:
        if object_id is None and not scene_ids:
            raise UnknownObjectId("prediction has no object_id and the scene is empty")
        if object_id is not None and object_id not in scene_ids:
            raise UnknownObjectId(f"prediction references object {object_id!r} not in scene")

    # (grasps, instances): inf where the grasp is bound to another id.
    distance = np.full((len(centers), len(scene_ids)), np.inf)
    for k, inst in enumerate(layout.instances):
        rows = [i for i, object_id in enumerate(object_ids) if object_id in (None, inst.object_id)]
        if not rows:
            continue
        posed = geometry.transform_points(layout.meshes[inst.object_id].vertices, inst.rotation, inst.translation)
        with np.errstate(over="ignore"):  # an overflowing distance is an infinite one
            for i in rows:
                distance[i, k] = np.min(np.linalg.norm(posed - centers[i], axis=1))
    return distance.argmin(axis=1)


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
    predictions: PredictionTable,
    layout: SceneLayout,
    config: PipelineConfig = _DEFAULTS,
) -> EvalReport:
    """Score a prediction set against a scene.

    Pipeline: NMS -> collision filter (table plane, then scene cloud) -> top-50
    by predicted score -> recompute the true hybrid score of each survivor
    on its associated object -> precision@k -> AP per threshold -> mAP.
    True scores come from the labeling code (``score_contacts``, then
    ``combine_scores``) on the layout's meshes, normalized over the
    resolvable survivors of one scene instance. Grasps whose contacts
    cannot be resolved score 0.
    Fewer than 50 survivors are padded with zero true scores; no survivors
    at all yields a zeroed, flagged report.

    ``config`` supplies what ``label_mesh`` scores with (the weights,
    friction bins, gripper and ``knn_k``) and the evaluation settings: the
    NMS thresholds, the collision margin and the score thresholds.

    Both filters test in bulk, and both give what the exhaustive scans
    give. NMS (see ``grasp_nms``) takes the predictions a block at a time
    and tests each only against the kept grasps near it in a 6-D pose
    embedding; any pair that could suppress lies within the embedding's
    radius, so that broad phase drops no suppressor. The collision filter
    tests the table first: a survivor with a box corner below it is
    dropped (see ``_below_table``; a non-finite height drops none), and
    only the survivors the table leaves meet the cloud. One KD-tree over
    the scene cloud decides those in one pass (see
    ``_collision_witnesses``); none is built when the table leaves none.
    Each verdict is the grasp's own, so the survivors are those of both
    tests on every NMS survivor. A survivor collides iff
    the pass finds it a witness, a cloud point that its boxes hold by
    ``gripper_collides``'s own arithmetic. A colliding survivor's witness
    is most often the point nearest the centre of a ball covering its
    boxes; only the survivors no such point settles query their whole
    ball cover. One distance matrix associates the top survivors with
    instances (see ``_associate``); each instance's survivors move into
    its frame with one matmul and are scored as one batch.

    Predictions are validated once, when read. After NMS every stage works
    on the survivors' rows of the table's columns and no pose is checked
    again, so a rotation turned into an object's frame is used as it is.
    """
    gripper, bins, weights = config.gripper(), config.bins(), config.weights()
    margin, thresholds = config.collision_margin, config.score_thresholds
    n_in = len(predictions)
    kept = grasp_nms(predictions.rotations, predictions.translations, predictions.scores,
                     config.nms_trans_thresh, config.nms_rot_thresh)
    n_nms = n_in - len(kept)

    # The NMS survivors' columns, in visit order.
    rotations, translations = predictions.rotations[kept], predictions.translations[kept]
    widths, depths = predictions.widths[kept], predictions.depths[kept]
    bodies = gripper.collision_body(widths, depths)
    above = np.flatnonzero(~_below_table(rotations, translations, bodies, layout.table_height))
    witness = _collision_witnesses(layout.scene_cloud, rotations[above], translations[above], bodies[above], margin)
    survivors = above[witness < 0]
    n_coll = len(kept) - len(survivors)

    # NMS already visits by (score desc, index asc), so the first TOP_K
    # survivors are the top-scored ones under the stable tie rule.
    survivors = survivors[:TOP_K]

    true_scores = np.zeros(len(survivors))
    aps = np.zeros(len(thresholds))
    # With no survivors nothing is scored: an empty scene has no instance to
    # associate, and zero-padded scores would pass a threshold of 0.0.
    if len(survivors):
        # Recompute true scores, normalized per scene instance.
        rotations, translations = rotations[survivors], translations[survivors]
        widths, depths = widths[survivors], depths[survivors]
        centers = translations + depths[:, None] * rotations[:, :, 2]
        owner = _associate(centers, [predictions.object_ids[i] for i in kept[survivors]], layout)
        scorers: dict[str, tuple[SpatialIndex, np.ndarray]] = {}
        for k in np.unique(owner):
            inst = layout.instances[k]
            mesh = layout.meshes[inst.object_id]
            if inst.object_id not in scorers:
                scorers[inst.object_id] = (SpatialIndex.from_mesh(mesh), mass_properties(mesh).gravity_center)
            index, gravity_center = scorers[inst.object_id]
            members = np.flatnonzero(owner == k)
            # in the object frame: R' = R_inst^T R, t' = R_inst^T (t - t_inst)
            local_r = np.matmul(inst.rotation.T, rotations[members])
            local_t = np.matmul(inst.rotation.T, (translations[members] - inst.translation)[..., None])[..., 0]
            valid, contacts, _ = contacts_on_lines(
                mesh, local_t + depths[members, None] * local_r[:, :, 2], local_r[:, :, 0], widths[members] / 2.0)
            s_t, _, _, s_f, s_g_raw, s_c_raw = score_contacts(contacts, index, gravity_center, bins, config.knn_k)
            true_scores[members[valid]] = combine_scores(s_t, s_f, s_g_raw, s_c_raw, weights)[2]
        aps = _ap_per_threshold(true_scores, thresholds)
    return EvalReport(
        thresholds=tuple(thresholds),
        ap_values=tuple(float(a) for a in aps),
        map_value=float(np.mean(aps)),
        n_predictions=n_in,
        n_filtered_nms=n_nms,
        n_filtered_collision=n_coll,
        n_evaluated=len(survivors),
        empty_after_filtering=not len(survivors),
        true_scores=tuple(float(s) for s in true_scores),
    )
