"""Parallel-jaw gripper model, grasp poses, and contact resolution.

Gripper frame convention (used everywhere in this package):

* column x of the pose rotation is the closing axis (fingers move along it),
* column z is the approach axis, pointing from the palm into the object,
* the translation is the surface seed point; the grasp center sits at
  ``translation + depth * approach``.

Contacts are found by marching two rays toward each other along the closing
line through the grasp center, starting at the finger inner faces
(+/- width/2 from the center). The first front-face triangle hit on each
side is that finger's contact. A back-face first hit means the finger would
start inside the object, which marks the frame invalid; so does a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .mesh import TriangleMesh

_UNIT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class GripperModel:
    """Two-finger gripper dimensions, all in meters.

    The collision body is three boxes in the gripper frame: one per finger
    plus a palm bar connecting them behind the fingers. Fingers have a
    square cross-section of side ``finger_thickness``; the palm is one
    thickness deep.
    """

    max_width: float = 0.085
    finger_length: float = 0.06
    finger_thickness: float = 0.01
    depth_levels: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04)

    def __post_init__(self):
        if self.max_width <= 0 or self.finger_length <= 0 or self.finger_thickness <= 0:
            raise ValueError("gripper dimensions must be positive")
        if not self.depth_levels or any(d <= 0 for d in self.depth_levels):
            raise ValueError("depth levels must be positive")

    def collision_body(self, width: float, depth: float) -> np.ndarray:
        """Axis-aligned collision boxes in the gripper frame.

        Returns an (3, 2, 3) array of (lo, hi) corners: left finger, right
        finger, palm. Fingertips end at the grasp-center plane z = depth.
        """
        t = self.finger_thickness
        h = t / 2.0
        tip = depth
        heel = depth - self.finger_length
        half_w = width / 2.0
        return np.array(
            [
                [[-half_w - t, -h, heel], [-half_w, h, tip]],
                [[half_w, -h, heel], [half_w + t, h, tip]],
                [[-half_w - t, -h, heel - t], [half_w + t, h, heel]],
            ]
        )


# The orthonormality rule np.allclose(R^T R, I, atol=1e-8) written out: with
# its default rtol=1e-5, entry (i, j) may be off by atol + rtol * |I_ij|.
_ROTATION_TOL = 1e-8 + 1e-5 * np.eye(3)


def _is_proper_rotation(r: np.ndarray) -> bool:
    """True for a finite 3x3 ``r`` with R^T R allclose (atol=1e-8) to I and det R > 0."""
    return bool(
        np.isfinite(r).all()
        and (np.abs(r.T @ r - np.eye(3)) <= _ROTATION_TOL).all()
        and np.linalg.det(r) > 0
    )


@dataclass(frozen=True, eq=False)
class GraspPose:
    """One parallel-jaw grasp: rigid pose plus opening width and depth.

    ``rotation`` columns are (closing axis, finger height axis, approach
    axis); ``translation`` is the surface seed point in meters.
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
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not _is_proper_rotation(r):
            raise ValueError("rotation must be a proper orthonormal matrix")
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if not np.isfinite(t).all():
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


@dataclass(frozen=True, eq=False)
class ContactFrame:
    """Resolved finger contacts for one grasp.

    Fields are world-space. ``p_cl``/``p_cr`` are the left/right contact
    points with outward surface normals ``v_ql``/``v_qr``; ``v_a`` is the
    unit vector from left to right contact; ``p_el``/``p_er`` are the
    fingertip inner-edge centers at the commanded width. When ``valid`` is
    False the geometric fields are unusable and scoring must refuse the
    frame.
    """

    p_cl: np.ndarray
    p_cr: np.ndarray
    v_ql: np.ndarray
    v_qr: np.ndarray
    v_a: np.ndarray
    p_el: np.ndarray
    p_er: np.ndarray
    valid: bool = True

    def __post_init__(self):
        if self.valid:
            for name in ("v_ql", "v_qr", "v_a"):
                v = getattr(self, name)
                if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
                    raise ValueError(f"{name} must be a unit vector")

    @classmethod
    def invalid(cls) -> "ContactFrame":
        z = np.zeros(3)
        return cls(z, z, z, z, z, z, z, valid=False)


def resolve_contacts(mesh: TriangleMesh, grasp: GraspPose, gripper: GripperModel) -> ContactFrame:
    """Resolve the two finger contacts of a grasp against a mesh.

    Both rays start at the finger inner faces (half the commanded width out
    from the grasp center) and march inward along the closing line. Contact
    normals are barycentric interpolations of vertex normals at the hit
    points. The frame is invalid when either ray misses within the finger
    gap or first hits a back face.
    """
    frames = resolve_contacts_batch(
        mesh,
        grasp.rotation[None, :, :],
        grasp.translation[None, :],
        np.array([grasp.width]),
        np.array([grasp.depth]),
    )
    return frames[0]


class ContactArrays(NamedTuple):
    """Valid contact frames as parallel (n, 3) arrays; row i is frame i.

    Fields follow :class:`ContactFrame`, in its positional order.
    """

    p_cl: np.ndarray
    p_cr: np.ndarray
    v_ql: np.ndarray
    v_qr: np.ndarray
    v_a: np.ndarray
    p_el: np.ndarray
    p_er: np.ndarray

    @classmethod
    def stack(cls, frames: list[ContactFrame]) -> "ContactArrays":
        return cls(*(np.array([getattr(f, name) for f in frames]).reshape(-1, 3) for name in cls._fields))

    def frame(self, i: int) -> ContactFrame:
        return ContactFrame(*(a[i] for a in self))


def resolve_contacts_batch(
    mesh: TriangleMesh,
    rotations: np.ndarray,
    translations: np.ndarray,
    widths: np.ndarray,
    depths: np.ndarray,
) -> list[ContactFrame]:
    """Vectorized contact resolution for many grasps on one mesh."""
    centers = translations + depths[:, None] * rotations[:, :, 2]
    valid, contacts, _ = contacts_on_lines(mesh, centers, rotations[:, :, 0], widths / 2.0)
    frames = [ContactFrame.invalid()] * len(centers)
    for j, i in enumerate(np.flatnonzero(valid)):
        frames[i] = contacts.frame(j)
    return frames


def contacts_on_lines(
    mesh: TriangleMesh, centers: np.ndarray, closing: np.ndarray, half: np.ndarray
) -> tuple[np.ndarray, ContactArrays, np.ndarray]:
    """First front-face hits of the two inward closing rays per grasp line.

    Line i runs through ``centers[i]`` along ``closing[i]``; its rays start
    at the fingertips ``half[i]`` out on each side and march inward. A line
    is valid when both rays first hit a front face and the two contacts do
    not coincide.

    Returns:
        (valid, contacts, separation): the (m,) mask over lines, then the
        contacts and the contact separations |p_cr - p_cl| of the valid
        lines only, in line order.
    """
    n = len(centers)
    origins = np.concatenate([centers - half[:, None] * closing, centers + half[:, None] * closing])
    dirs = np.concatenate([closing, -closing])
    t_max = np.concatenate([2.0 * half, 2.0 * half])

    t, face, bu, bv = geometry.ray_mesh_first_hit(origins, dirs, mesh.vertices, mesh.faces, t_max)

    hit = face >= 0
    points = np.zeros_like(origins)
    points[hit] = origins[hit] + t[hit, None] * dirs[hit]
    normals = np.zeros_like(points)
    if hit.any():
        f = mesh.faces[face[hit]]
        vn = mesh.vertex_normals[f]
        w0 = (1.0 - bu[hit] - bv[hit])[:, None]
        interp = w0 * vn[:, 0] + bu[hit][:, None] * vn[:, 1] + bv[hit][:, None] * vn[:, 2]
        normals[hit] = geometry.unit_rows(interp)
    # Front-face requirement: the surface normal must oppose the march.
    front = hit & (np.einsum("ij,ij->i", normals, dirs) < 0.0)

    gap = points[n:] - points[:n]
    # Bit for bit the per-row np.linalg.norm(gap); np.linalg.norm(gap, axis=1)
    # differs from it in the last bit on some rows.
    separation = np.sqrt(np.vecdot(gap, gap))
    valid = front[:n] & front[n:] & (separation >= 1e-12)
    left = np.flatnonzero(valid)
    right = left + n
    separation = separation[valid]
    contacts = ContactArrays(points[left], points[right], normals[left], normals[right],
                             gap[valid] / separation[:, None], origins[left], origins[right])
    return valid, contacts, separation


def gripper_collides(
    scene_points: np.ndarray,
    grasp: GraspPose,
    gripper: GripperModel,
    margin: float = 0.001,
) -> bool:
    """True when any scene point lies inside the inflated gripper body.

    Points are mapped into the gripper frame and tested against the three
    collision boxes grown by ``margin`` on every side. Boundary points
    count as colliding.
    """
    local = (np.atleast_2d(scene_points) - grasp.translation) @ grasp.rotation
    boxes = gripper.collision_body(grasp.width, grasp.depth)
    lo = boxes[:, 0, :] - margin
    hi = boxes[:, 1, :] + margin
    inside = (local[:, None, :] >= lo[None, :, :]) & (local[:, None, :] <= hi[None, :, :])
    return bool(inside.all(axis=2).any())


def collision_box_corners(grasp: GraspPose, gripper: GripperModel) -> np.ndarray:
    """World-space corners of the collision boxes, (3 boxes, 8, 3)."""
    boxes = gripper.collision_body(grasp.width, grasp.depth)
    corners = []
    for lo, hi in boxes:
        pts = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        corners.append(pts @ grasp.rotation.T + grasp.translation)
    return np.asarray(corners)
