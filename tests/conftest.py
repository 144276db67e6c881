import itertools
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial import cKDTree

import graspscore
from graspscore import PredictionTable, geometry, scene, with_surface_samples
from graspscore.candidates import CandidateArrays, candidate_arrays
from graspscore.errors import UnknownObjectId
from graspscore.geometry import transform_points, unit
from graspscore.gripper import ContactArrays, _gripper_frame, contacts_on_lines
from graspscore.primitives import (
    make_box,
    make_cylinder,
    make_icosphere,
    make_l_prism,
    make_plate,
)


@pytest.fixture(scope="session")
def cube():
    return with_surface_samples(make_box((0.04, 0.04, 0.04)), seed=0)


@pytest.fixture(scope="session")
def icosphere():
    return with_surface_samples(make_icosphere(0.03, 3), seed=0)


@pytest.fixture(scope="session")
def cylinder():
    return with_surface_samples(make_cylinder(0.02, 0.06, 48), seed=0)


@pytest.fixture(scope="session")
def l_prism():
    return with_surface_samples(make_l_prism(0.02), seed=0)


@pytest.fixture(scope="session")
def plate():
    return with_surface_samples(make_plate((0.06, 0.04, 0.004)), seed=0)


@pytest.fixture(scope="session")
def desk_meshes(cube, icosphere, cylinder, l_prism, plate):
    return {
        "cube": cube,
        "icosphere": icosphere,
        "cylinder": cylinder,
        "l_prism": l_prism,
        "plate": plate,
    }


# Rays x faces per step of the all-faces scan.
_SCAN_PAIRS = 1 << 19


def all_faces_first_hits(origins, directions, vertices, faces, t_max=np.inf):
    """Oracle of ``geometry.ray_mesh_first_hit``: Moller-Trumbore of every
    ray against every triangle, with the same arguments and results.

    This is the ray cast before it had a broad phase. Its arithmetic is
    that of ``geometry._pair_hits``, and ``np.argmin`` over each ray's row
    gives the tie rule: the lowest t, then the lowest face index.
    """
    origins = np.asarray(origins, dtype=float)
    directions = np.asarray(directions, dtype=float)
    n_rays = origins.shape[0]
    t_lim = np.broadcast_to(np.asarray(t_max, dtype=float), (n_rays,))
    v0, v1, v2 = geometry.triangle_corners(vertices, faces)
    eps = geometry._BARY_EPS
    e1 = v1 - v0
    e2 = v2 - v0
    # Parallel-ray rejection threshold, relative to the edge scale per face.
    det_floor = 1e-12 * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)

    t_out = np.full(n_rays, np.inf)
    face_out = np.full(n_rays, -1, dtype=np.int64)
    u_out = np.zeros(n_rays)
    v_out = np.zeros(n_rays)
    rows = max(1, _SCAN_PAIRS // len(v0))

    for start in range(0, n_rays, rows):
        sl = slice(start, min(start + rows, n_rays))
        o = origins[sl][:, None, :]
        d = directions[sl][:, None, :]
        h = np.cross(d, e2[None, :, :])
        a = np.einsum("rfk,fk->rf", h, e1)
        ok = np.abs(a) > det_floor[None, :]
        inv_a = np.where(ok, 1.0 / np.where(ok, a, 1.0), 0.0)
        s = o - v0[None, :, :]
        u = np.einsum("rfk,rfk->rf", s, h) * inv_a
        ok &= (u >= -eps) & (u <= 1.0 + eps)
        q = np.cross(s, e1[None, :, :])
        v = np.einsum("rfk,rk->rf", q, directions[sl]) * inv_a
        ok &= (v >= -eps) & (u + v <= 1.0 + eps)
        t = np.einsum("rfk,fk->rf", q, e2) * inv_a
        ok &= (t >= -eps) & (t <= t_lim[sl][:, None] + eps)
        t = np.where(ok, t, np.inf)
        best = np.argmin(t, axis=1)
        rr = np.arange(t.shape[0])
        best_t = t[rr, best]
        hit = np.isfinite(best_t)
        idx = np.flatnonzero(hit) + start
        t_out[idx] = best_t[hit]
        face_out[idx] = best[hit]
        u_out[idx] = u[rr, best][hit]
        v_out[idx] = v[rr, best][hit]
    return t_out, face_out, u_out, v_out


def merge_hits_oracle(out, ray, face, t, u, v):
    """Oracle of ``geometry._merge_hits``: one three-key lexsort of the hits
    by (ray, t, face), then each ray's first row against ``out``.

    The lowest t wins, then the lowest face index; a pair with a
    non-finite t is a miss and never wins.
    """
    t_out, face_out, u_out, v_out = out
    hit = np.isfinite(t)
    order = np.lexsort((face[hit], t[hit], ray[hit]))
    ray, face, t, u, v = (a[hit][order] for a in (ray, face, t, u, v))
    first = np.ones(len(ray), dtype=bool)
    first[1:] = ray[1:] != ray[:-1]
    ray, face, t, u, v = (a[first] for a in (ray, face, t, u, v))
    cur_t = t_out[ray]
    take = (t < cur_t) | ((t == cur_t) & (face < face_out[ray]))
    idx = ray[take]
    t_out[idx] = t[take]
    face_out[idx] = face[take]
    u_out[idx] = u[take]
    v_out[idx] = v[take]


def watertight_oracle(faces) -> bool:
    """Set oracle of ``mesh._is_watertight``: every directed edge appears
    once and its reverse appears once."""
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    directed = set(map(tuple, edges.tolist()))
    if len(directed) != len(edges):
        return False
    return all((b, a) in directed for a, b in directed)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def perpendicular_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar oracle of ``geometry.perpendicular_bases``: two unit vectors
    completing a right-handed frame with one axis."""
    a = unit(np.asarray(axis, dtype=float))
    ref = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = unit(ref - np.dot(ref, a) * a)
    b2 = np.cross(a, b1)
    return b1, b2


def frame_from_approach(approach: np.ndarray, theta: float) -> np.ndarray:
    """Scalar oracle of ``geometry.frames_from_approaches``: the rotation with
    column z = approach and column x spun by theta from its perpendicular."""
    z = unit(np.asarray(approach, dtype=float))
    b1, b2 = perpendicular_basis(z)
    x = np.cos(theta) * b1 + np.sin(theta) * b2
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def allclose_rotation(r) -> bool:
    """One-matrix oracle of ``gripper.proper_rotations``: finite, ``R^T R``
    within ``np.allclose(..., atol=1e-8)`` of the identity, and det R > 0."""
    return bool(np.isfinite(r).all() and np.allclose(r.T @ r, np.eye(3), atol=1e-8) and np.linalg.det(r) > 0)


@dataclass(frozen=True, eq=False)
class GraspPose:
    """One grasp: rigid pose plus opening width and depth, checked alone.

    The one-pose oracle of the pose rule that the label and prediction
    readers apply to a table's rows: finite values, a proper orthonormal
    rotation (``allclose_rotation``), positive width and depth. A pose that
    breaks it raises ValueError with the fault the row check names.
    ``rotation`` columns are (closing axis, finger height axis, approach
    axis); ``translation`` is the surface seed point.
    """

    rotation: np.ndarray
    translation: np.ndarray
    width: float
    depth: float

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if r.shape != (3, 3) or not allclose_rotation(r):
            raise ValueError("rotation must be a proper orthonormal matrix")
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        if not (self.width > 0 and np.isfinite(self.width)):
            raise ValueError("width must be positive")
        if not (self.depth > 0 and np.isfinite(self.depth)):
            raise ValueError("depth must be positive")

    @property
    def closing_axis(self) -> np.ndarray:
        return self.rotation[:, 0]

    @property
    def approach_axis(self) -> np.ndarray:
        return self.rotation[:, 2]

    @property
    def center(self) -> np.ndarray:
        """Grasp center: seed point advanced by depth along the approach."""
        return self.translation + self.depth * self.approach_axis


def prediction_table(poses, scores, object_ids) -> PredictionTable:
    """A ``PredictionTable`` with row i from ``poses[i]``, ``scores[i]`` and
    ``object_ids[i]``."""
    values = [[*p.rotation.ravel(), *p.translation, p.width, p.depth, s] for p, s in zip(poses, scores)]
    return PredictionTable(np.array(values, dtype=np.float64).reshape(-1, 15), tuple(object_ids))


def closest_on_triangle(p, a, b, c) -> float:
    """Distance from p to triangle abc: plane projection plus edge segments."""
    n = np.cross(b - a, c - a)
    n2 = n @ n
    best = None
    if n2 > 0:
        # barycentric coordinates of the in-plane projection
        q = p - n * ((p - a) @ n) / n2
        w = np.cross(b - a, q - a) @ n / n2
        u = np.cross(c - b, q - b) @ n / n2
        v = np.cross(a - c, q - c) @ n / n2
        if u >= 0 and v >= 0 and w >= 0:
            best = q
    candidates = [] if best is None else [best]
    for s, e in ((a, b), (b, c), (c, a)):
        d = e - s
        t = np.clip((p - s) @ d / (d @ d), 0.0, 1.0)
        candidates.append(s + t * d)
    dists = [np.linalg.norm(p - q) for q in candidates]
    return min(dists)


def surface_distance(mesh, p) -> float:
    """Distance from p to the mesh surface, one triangle at a time."""
    v0, v1, v2 = mesh.face_corners()
    return min(closest_on_triangle(p, v0[i], v1[i], v2[i]) for i in range(len(v0)))


def one_line_contacts(mesh, pose):
    """A grasp's contacts from a one-line ``contacts_on_lines`` call.

    Returns ``ContactArrays`` with one row, or with none when a finger
    misses or first meets a back face.
    """
    _, contacts, _ = contacts_on_lines(mesh, pose.center[None, :], pose.closing_axis[None, :],
                                       np.array([pose.width / 2.0]))
    return contacts


def all_candidates(mesh, grid, gripper, *clearance) -> CandidateArrays:
    """Every chunk ``candidate_arrays`` yields, joined into one, in order."""
    chunks = list(candidate_arrays(mesh, grid, gripper, *clearance))

    def joined(columns):
        return [np.concatenate(column) for column in zip(*columns)]

    contacts = ContactArrays(*joined(chunk.contacts for chunk in chunks))
    return CandidateArrays(*joined((c.rotations, c.translations, c.widths, c.depths) for c in chunks), contacts)


def pose_fields(pose):
    """A ``GraspPose``'s (rotation, translation, width, depth), the grasp
    arguments of ``gripper_collides``."""
    return pose.rotation, pose.translation, pose.width, pose.depth


def collision_box_corners(grasp, gripper) -> np.ndarray:
    """Corner oracle: world-space corners of a grasp's collision boxes,
    (3 boxes, 8, 3), one box and one corner at a time."""
    corners = []
    for lo, hi in gripper.collision_body(grasp.width, grasp.depth):
        pts = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        corners.append(pts @ grasp.rotation.T + grasp.translation)
    return np.asarray(corners)


def associate_oracle(center, object_id, layout) -> int:
    """Scalar oracle of ``scene._associate``: one grasp's instance index.

    With an object_id the nearest instance of that id wins; without one the
    nearest instance overall, by posed mesh-vertex distance to ``center``;
    ties go to the earlier instance.
    """
    if object_id is not None:
        candidates = [k for k, inst in enumerate(layout.instances) if inst.object_id == object_id]
        if not candidates:
            raise UnknownObjectId(f"prediction references object {object_id!r} not in scene")
    else:
        candidates = list(range(len(layout.instances)))
        if not candidates:
            raise UnknownObjectId("prediction has no object_id and the scene is empty")

    best, best_d = None, np.inf
    for k in candidates:
        inst = layout.instances[k]
        posed = transform_points(layout.meshes[inst.object_id].vertices, inst.rotation, inst.translation)
        d = float(np.min(np.linalg.norm(posed - center, axis=1)))
        if d < best_d:
            best, best_d = k, d
    return best


def nearest_shortlists(cloud, rotations, translations, bodies, margin, nearest=32):
    """Oracle of ``scene._collision_shortlists``: the generator it replaced.

    Same arguments and the same verdicts: per grasp, the sorted cloud
    indices inside its boxes among the ``nearest`` points nearest each box
    centre and, for a grasp none of those hits, among the points of its
    ball cover; None for a body whose cover is not finite or lies beyond
    ``scene._MAX_REACH`` of the cloud. A shortlist may differ from the new
    one in which inside points it holds, never in being empty or None.
    """
    if len(cloud) == 0:
        for _ in range(len(rotations)):
            yield np.zeros(0, dtype=np.intp)
        return
    tree = cKDTree(cloud)
    k = min(nearest, len(cloud))
    for start in range(0, len(rotations), scene._COLLISION_CHUNK):
        chunk = slice(start, start + scene._COLLISION_CHUNK)
        rot, trans = rotations[chunk], translations[chunk]
        n = len(rot)
        lo, hi = bodies[chunk, :, 0, :] - margin, bodies[chunk, :, 1, :] + margin
        owner, world, radius = scene._ball_cover(rot, trans, lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.maximum(np.abs(world - tree.mins), np.abs(world - tree.maxes))
            centres = np.matmul(rot[:, None], ((lo + hi) / 2.0)[..., None])[..., 0] + trans[:, None, :]
        far = ~((reach <= scene._MAX_REACH).all(axis=1) & np.isfinite(radius))
        usable = np.bincount(owner[far], minlength=n) == 0

        _, near = tree.query(np.where(usable[:, None, None], centres, 0.0).reshape(-1, 3), k=[*range(1, k + 1)])
        near = near.reshape(n, 3 * k)
        hit = scene._in_boxes(_gripper_frame(cloud[near], rot[:, None], trans[:, None]), lo, hi)

        ball = usable[owner] & ~hit.any(axis=1)[owner]
        found = tree.query_ball_point(world[ball], radius[ball])
        counts = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        points = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp, count=int(counts.sum()))
        keys = np.unique(np.repeat(owner[ball], counts) * len(cloud) + points)
        grasp, points = np.divmod(keys, len(cloud))
        inside = scene._in_boxes(_gripper_frame(cloud[points], rot[grasp], trans[grasp])[:, None],
                                 lo[grasp], hi[grasp])

        keys = np.unique(np.concatenate([(np.arange(n)[:, None] * len(cloud) + near)[hit], keys[inside[:, 0]]]))
        grasp, points = np.divmod(keys, len(cloud))
        for g, shortlist in enumerate(np.split(points, np.cumsum(np.bincount(grasp, minlength=n))[:-1])):
            yield shortlist if usable[g] else None


def run_python(*argv, cwd):
    """Run ``python *argv`` in a child process under ``cwd``.

    The child gets a copy of this process's environment with the directory
    holding the imported ``graspscore`` package put first on ``PYTHONPATH``,
    so it runs the same code the in-process assertions compare against even
    when ``cwd`` would make a relative ``PYTHONPATH`` entry point elsewhere.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(graspscore.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, cwd=str(cwd), env=env)


def run_cli(*argv, cwd):
    """Run ``python -m graspscore.cli *argv`` in a child process under ``cwd``."""
    return run_python("-m", "graspscore.cli", *argv, cwd=cwd)


# --- seeded input mutations, for the fuzz tests ---

MUTANT_TOKENS = [b"x", b"-1", b"3.0", b"+3", b"nan", b"1e999", b"\xc3", b"element", b"list"]


def mutant(data: bytes, rng, token: bytes = rb"\S+") -> bytes:
    """``data`` cut short, with one byte flipped, one line dropped or
    doubled, or one ``token`` match (by default a whitespace-separated
    token) replaced by one of ``MUTANT_TOKENS``."""
    how = int(rng.integers(5))
    if how == 0:
        return data[:rng.integers(len(data))]
    if how == 1:
        i = int(rng.integers(len(data)))
        return data[:i] + bytes([data[i] ^ int(rng.integers(1, 256))]) + data[i + 1:]
    if how < 4:
        lines = data.split(b"\n")
        i = int(rng.integers(len(lines)))
        lines[i:i + 1] = [] if how == 2 else [lines[i]] * 2
        return b"\n".join(lines)
    spans = [m.span() for m in re.finditer(token, data)]
    start, end = spans[rng.integers(len(spans))]
    return data[:start] + MUTANT_TOKENS[rng.integers(len(MUTANT_TOKENS))] + data[end:]
