"""Parallel-jaw gripper model, the grasp pose rule, and contact resolution.

Gripper frame convention (used everywhere in this package):

* column x of the pose rotation is the closing axis (fingers move along it),
* column z is the approach axis, pointing from the palm into the object,
* the translation is the surface seed point; the grasp center sits at
  ``translation + depth * approach``.

Contacts are found by marching two rays toward each other along the closing
line through the grasp center, starting at the finger inner faces
(+/- width/2 from the center). The first front-face triangle hit on each
side is that finger's contact. A back-face first hit means the finger would
start inside the object, which marks the grasp line invalid; so does a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .mesh import TriangleMesh

# How far gripper_collides grows each collision box on every side, in meters.
DEFAULT_COLLISION_MARGIN = 0.001


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
        # NaN fails these too
        if not all(0.0 < x < np.inf for x in (self.max_width, self.finger_length, self.finger_thickness)):
            raise ValueError("gripper dimensions must be positive and finite")
        if not self.depth_levels or not all(0.0 < d < np.inf for d in self.depth_levels):
            raise ValueError("depth levels must be positive and finite")

    def collision_body(self, width, depth) -> np.ndarray:
        """Axis-aligned collision boxes in the gripper frame.

        Returns an (3, 2, 3) array of (lo, hi) corners: left finger, right
        finger, palm. Fingertips end at the grasp-center plane z = depth.
        Widths and depths broadcast to a shape s and give (*s, 3, 2, 3), so
        a batch of grasps gets its bodies in one call, each with the bits
        it gets alone.
        """
        t = self.finger_thickness
        half_w, tip, h = np.broadcast_arrays(width / 2.0, depth, t / 2.0)
        heel = tip - self.finger_length
        body = np.array(
            [
                [[-half_w - t, -h, heel], [-half_w, h, tip]],
                [[half_w, -h, heel], [half_w + t, h, tip]],
                [[-half_w - t, -h, heel - t], [half_w + t, h, heel]],
            ]
        )
        return np.ascontiguousarray(np.moveaxis(body, (0, 1, 2), (-3, -2, -1)))


# The orthonormality rule np.allclose(R^T R, I, atol=1e-8) written out: with
# its default rtol=1e-5, entry (i, j) may be off by atol + rtol * |I_ij|.
_ROTATION_TOL = 1e-8 + 1e-5 * np.eye(3)


def proper_rotations(r: np.ndarray) -> np.ndarray:
    """Mask over an (..., 3, 3) stack: finite, R^T R within ``_ROTATION_TOL`` of I, det R > 0.

    The Gram matrix and the cofactor determinant are summed elementwise in
    a fixed order, so a matrix gets the same verdict alone or in any batch.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        p = r[..., :, :, None] * r[..., :, None, :]
        gram = p[..., 0, :, :] + p[..., 1, :, :] + p[..., 2, :, :]
        det = (r[..., 0, 0] * (r[..., 1, 1] * r[..., 2, 2] - r[..., 1, 2] * r[..., 2, 1])
               - r[..., 0, 1] * (r[..., 1, 0] * r[..., 2, 2] - r[..., 1, 2] * r[..., 2, 0])
               + r[..., 0, 2] * (r[..., 1, 0] * r[..., 2, 1] - r[..., 1, 1] * r[..., 2, 0]))
        return (np.isfinite(r).all(axis=(-2, -1))
                & (np.abs(gram - np.eye(3)) <= _ROTATION_TOL).all(axis=(-2, -1))
                & (det > 0))


class ContactArrays(NamedTuple):
    """Resolved contacts as parallel (n, 3) arrays; row i is one grasp line.

    Fields are world-space. ``p_cl``/``p_cr`` are the left/right contact
    points with unit outward surface normals ``v_ql``/``v_qr``; ``v_a`` is
    the unit vector from left to right contact; ``p_el``/``p_er`` are the
    fingertip inner-edge centers. ``contacts_on_lines`` returns the rows of
    the valid lines only.
    """

    p_cl: np.ndarray
    p_cr: np.ndarray
    v_ql: np.ndarray
    v_qr: np.ndarray
    v_a: np.ndarray
    p_el: np.ndarray
    p_er: np.ndarray


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
    vn = mesh.vertex_normals[mesh.faces[face[hit]]]
    u, v = bu[hit][:, None], bv[hit][:, None]
    normals[hit] = geometry.unit_rows((1.0 - u - v) * vn[:, 0] + u * vn[:, 1] + v * vn[:, 2])
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
    rotation: np.ndarray,
    translation: np.ndarray,
    width: float,
    depth: float,
    gripper: GripperModel,
    margin: float = DEFAULT_COLLISION_MARGIN,
) -> bool:
    """True when any scene point lies inside the inflated gripper body.

    The grasp's pose fields are taken as valid. Points are mapped into the
    gripper frame and tested against the three collision boxes grown by
    ``margin`` on every side. Boundary points count as colliding.
    """
    local = _gripper_frame(np.atleast_2d(scene_points), rotation, translation)[:, None, :]
    boxes = gripper.collision_body(width, depth)
    return bool(((local >= boxes[:, 0, :] - margin) & (local <= boxes[:, 1, :] + margin)).all(axis=2).any())


def _gripper_frame(points: np.ndarray, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """(p - t) @ R: points (..., 3) in the frames of poses (..., 3, 3), (..., 3).

    Summed elementwise in a fixed order, as in ``proper_rotations``, so a
    point maps to the same bits alone or in any batch. A coordinate that
    overflows is infinite or NaN and fails every box test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = points - translations
        return (d[..., 0, None] * rotations[..., 0, :] + d[..., 1, None] * rotations[..., 1, :]
                + d[..., 2, None] * rotations[..., 2, :])
