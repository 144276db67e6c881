"""Triangle mesh container and the geometric queries built on it.

A mesh is immutable after construction: loading (or :func:`build_mesh`)
drops degenerate faces, fixes the orientation, and computes vertex normals
once. Operations that need a densified surface (candidate seeding, flatness
scoring) attach sampled points via :func:`with_surface_samples`, which
returns a new mesh instead of mutating.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import EmptyMesh

logger = logging.getLogger(__name__)

# Faces with less area than this (in m^2) are treated as degenerate.
_AREA_FLOOR = 1e-14

# Default surface sampling density: one point per 4 mm^2.
DEFAULT_SURFACE_DENSITY = 250000.0

# The most points one sampling draws: at about 200 bytes each, under 1 GB.
_MAX_SAMPLES = 2**22


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Indexed triangle mesh with unit vertex normals.

    Attributes:
        vertices: (n, 3) float64 positions in meters.
        faces: (m, 3) int64 vertex indices.
        vertex_normals: (n, 3) unit normals, outward for watertight meshes.
        watertight: True when every edge is shared by exactly two
            consistently oriented faces.
        degenerate_dropped: number of zero-area faces removed on build.
        surface_points / surface_normals: optional densified surface
            samples, None until attached.
    """

    vertices: np.ndarray
    faces: np.ndarray
    vertex_normals: np.ndarray
    watertight: bool
    degenerate_dropped: int = 0
    surface_points: np.ndarray | None = None
    surface_normals: np.ndarray | None = None

    def __post_init__(self):
        if len(self.faces) == 0:
            raise EmptyMesh("mesh has no faces")
        if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
            raise ValueError("face index out of range")

    @property
    def extent(self) -> np.ndarray:
        return self.vertices.max(axis=0) - self.vertices.min(axis=0)

    def face_corners(self):
        return geometry.triangle_corners(self.vertices, self.faces)


@dataclass(frozen=True, eq=False)
class MassProperties:
    """Volume and gravity center of a mesh.

    ``method_used`` is "volume_centroid" for watertight meshes (signed
    tetrahedron integration against the origin) and "area_centroid" for
    open meshes (area-weighted mean of face centroids, volume 0).
    """

    volume: float
    gravity_center: np.ndarray
    method_used: str


def build_mesh(vertices: np.ndarray, faces: np.ndarray) -> TriangleMesh:
    """Construct a mesh from raw arrays.

    Degenerate faces (repeated indices or near-zero area) are dropped with a
    logged warning. Watertight meshes with negative signed volume get their
    winding reversed so normals point outward; open meshes get vertex
    normals flipped away from the bounding-box center.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    if faces.size == 0:
        raise EmptyMesh("mesh has no faces")

    repeated = (
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 0] == faces[:, 2])
    )
    v0, v1, v2 = geometry.triangle_corners(vertices, faces)
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    bad = repeated | (areas <= _AREA_FLOOR)
    dropped = int(bad.sum())
    if dropped:
        logger.warning("dropped %d degenerate face(s)", dropped)
        faces = faces[~bad]
    if len(faces) == 0:
        raise EmptyMesh("all faces are degenerate")

    watertight = _is_watertight(faces, len(vertices))
    if watertight and _signed_volume(vertices, faces) < 0.0:
        faces = faces[:, ::-1].copy()

    normals = _vertex_normals(vertices, faces)
    if not watertight:
        center = 0.5 * (vertices.max(axis=0) + vertices.min(axis=0))
        flip = np.einsum("ij,ij->i", normals, vertices - center) < 0.0
        normals[flip] *= -1.0

    return TriangleMesh(
        vertices=vertices,
        faces=faces,
        vertex_normals=normals,
        watertight=watertight,
        degenerate_dropped=dropped,
    )


def _is_watertight(faces: np.ndarray, n_vertices: int) -> bool:
    """Every directed edge appears once and its reverse appears once."""
    a = faces.ravel()
    b = np.roll(faces, -1, axis=1).ravel()
    # Edge (a, b) as one sortable key.
    keys = np.sort(a * n_vertices + b)
    if (keys[1:] == keys[:-1]).any():
        return False
    reverse = b * n_vertices + a
    at = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
    return bool((keys[at] == reverse).all())


def _signed_volume(vertices: np.ndarray, faces: np.ndarray) -> float:
    v0, v1, v2 = geometry.triangle_corners(vertices, faces)
    return float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum() / 6.0)


def _vertex_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted accumulation of face normals at each vertex."""
    v0, v1, v2 = geometry.triangle_corners(vertices, faces)
    fn = np.cross(v1 - v0, v2 - v0)  # length = 2 * area
    acc = np.zeros_like(vertices)
    for col in range(3):
        np.add.at(acc, faces[:, col], fn)
    return geometry.unit_rows(acc)


def mass_properties(mesh: TriangleMesh) -> MassProperties:
    """Volume and centroid of a mesh.

    Watertight meshes are integrated as signed tetrahedra against the
    origin, which is exact for any closed orientable surface regardless of
    where the origin lies. Open meshes fall back to the area-weighted
    surface centroid with volume reported as 0.
    """
    v0, v1, v2 = mesh.face_corners()
    if mesh.watertight:
        tet_vol = np.einsum("ij,ij->i", v0, np.cross(v1, v2)) / 6.0
        volume = tet_vol.sum()
        centroid = (tet_vol[:, None] * (v0 + v1 + v2)).sum(axis=0) / (4.0 * volume)
        return MassProperties(float(volume), centroid, "volume_centroid")
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    centroid = (areas[:, None] * (v0 + v1 + v2) / 3.0).sum(axis=0) / areas.sum()
    return MassProperties(0.0, centroid, "area_centroid")


def sample_surface(mesh: TriangleMesh, density: float, rng: np.random.Generator):
    """Area-uniform random points on the surface with interpolated normals.

    Args:
        density: target points per square meter; the count is
            ceil(total_area * density), at least 1. A count over
            ``_MAX_SAMPLES`` is a ValueError, before anything is drawn.
        rng: numpy Generator; pass a seeded one for reproducible sampling.

    Returns:
        (points (s, 3), normals (s, 3))
    """
    v0, v1, v2 = mesh.face_corners()
    areas = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0), axis=1)
    total = areas.sum()
    wanted = np.ceil(total * density)
    if not wanted <= _MAX_SAMPLES:
        raise ValueError(f"{float(total)!r} m^2 of surface at {density!r} points per m^2 needs {wanted:.0f} samples, "
                         f"over the bound of {_MAX_SAMPLES}")
    count = max(1, int(wanted))
    face_idx = rng.choice(len(areas), size=count, p=areas / total)

    r1 = rng.random(count)
    r2 = rng.random(count)
    sq = np.sqrt(r1)
    u = 1.0 - sq
    v = r2 * sq
    w = 1.0 - u - v
    points = u[:, None] * v0[face_idx] + v[:, None] * v1[face_idx] + w[:, None] * v2[face_idx]

    vn = mesh.vertex_normals[mesh.faces[face_idx]]
    normals = u[:, None] * vn[:, 0] + v[:, None] * vn[:, 1] + w[:, None] * vn[:, 2]
    return points, geometry.unit_rows(normals)


def with_surface_samples(
    mesh: TriangleMesh, density: float = DEFAULT_SURFACE_DENSITY, seed: int = 0
) -> TriangleMesh:
    """Return a copy of the mesh carrying densified surface samples."""
    points, normals = sample_surface(mesh, density, np.random.default_rng(seed))
    return dataclasses.replace(mesh, surface_points=points, surface_normals=normals)


def transform_mesh(mesh: TriangleMesh, rotation: np.ndarray, translation: np.ndarray) -> TriangleMesh:
    """Apply a rigid transform, carrying normals and samples along."""
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    return dataclasses.replace(
        mesh,
        vertices=geometry.transform_points(mesh.vertices, rotation, translation),
        vertex_normals=mesh.vertex_normals @ rotation.T,
        surface_points=None if mesh.surface_points is None
        else geometry.transform_points(mesh.surface_points, rotation, translation),
        surface_normals=None if mesh.surface_normals is None
        else mesh.surface_normals @ rotation.T,
    )
