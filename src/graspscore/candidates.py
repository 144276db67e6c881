"""Grasp candidate enumeration over a seed/view/rotation/depth grid.

Seeds come from farthest-point sampling of the densified surface, views
from a Fibonacci spiral on the unit sphere. Each (seed, view, rotation,
depth) cell becomes a pose whose approach axis points against the view;
cells whose finger rays miss the object are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import geometry
from .gripper import ContactArrays, GripperModel, contacts_on_lines
from .mesh import TriangleMesh

_GOLDEN_INCREMENT = np.pi * (3.0 - np.sqrt(5.0))

# Grasp lines per contact ray cast in candidate_arrays: whole seeds share
# one cast, so each closing direction's broad phase is set up once per cast.
# A grid with more lines per seed casts one seed at a time.
_LINES_PER_CALL = 1 << 13


def generate_views(count: int) -> np.ndarray:
    """Approximately uniform unit vectors from a Fibonacci spiral.

    Views point outward (from the object toward the observer). A single
    view degenerates to +z.

    Returns:
        (count, 3) array of unit vectors.
    """
    if count < 1:
        raise ValueError("view count must be >= 1")
    if count == 1:
        return np.array([[0.0, 0.0, 1.0]])
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_INCREMENT
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def farthest_point_sampling(points: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Indices of a farthest-point subset, deterministic for a fixed start.

    Greedy max-min selection beginning at ``start``; distance ties resolve
    to the lowest index via argmax.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if count > n:
        raise ValueError(f"cannot pick {count} seeds from {n} points")
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = start
    d2 = np.einsum("ij,ij->i", points - points[start], points - points[start])
    for i in range(1, count):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        cand = np.einsum("ij,ij->i", points - points[nxt], points - points[nxt])
        np.minimum(d2, cand, out=d2)
    return chosen


@dataclass(frozen=True, eq=False)
class CandidateGrid:
    """The enumeration grid: seeds x views x in-plane rotations x depths."""

    seed_points: np.ndarray
    seed_normals: np.ndarray
    views: np.ndarray
    rotations: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        if len(self.seed_points) == 0 or len(self.views) == 0:
            raise ValueError("grid needs at least one seed and one view")
        if len(self.rotations) == 0 or len(self.depths) == 0:
            raise ValueError("grid needs at least one rotation and one depth")

    @property
    def size(self) -> int:
        return len(self.seed_points) * len(self.views) * len(self.rotations) * len(self.depths)

    @classmethod
    def build(
        cls,
        mesh: TriangleMesh,
        n_seeds: int = 256,
        n_views: int = 300,
        n_rotations: int = 12,
        depths: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04),
    ) -> "CandidateGrid":
        """Standard grid over a mesh that carries surface samples."""
        if mesh.surface_points is None:
            raise ValueError("mesh has no surface samples; call with_surface_samples first")
        n_seeds = min(n_seeds, len(mesh.surface_points))
        idx = farthest_point_sampling(mesh.surface_points, n_seeds)
        angles = np.pi * np.arange(n_rotations) / n_rotations
        return cls(
            seed_points=mesh.surface_points[idx],
            seed_normals=mesh.surface_normals[idx],
            views=generate_views(n_views),
            rotations=angles,
            depths=np.asarray(depths, dtype=float),
        )


@dataclass(frozen=True, eq=False)
class CandidateArrays:
    """Valid candidates of a grid as parallel arrays, in enumeration order.

    Row i is one grasp: ``rotations[i]`` (3, 3), ``translations[i]`` (3,),
    ``widths[i]``, ``depths[i]`` and ``contacts`` row i, whose fingertip
    endpoints sit at the commanded width.
    """

    rotations: np.ndarray
    translations: np.ndarray
    widths: np.ndarray
    depths: np.ndarray
    contacts: ContactArrays
    n_enumerated: int
    n_skipped: int


def candidate_arrays(
    mesh: TriangleMesh,
    grid: CandidateGrid,
    gripper: GripperModel,
    clearance: float = 0.01,
) -> CandidateArrays:
    """Resolve every grid cell and keep the valid ones as arrays.

    Cells are enumerated seed by seed, then view, in-plane rotation and
    depth. Contacts are searched at the gripper's full opening; the width is
    then set to the contact separation plus ``clearance``, clamped to the
    maximum, and the fingertip endpoints follow that width. Cells whose rays
    miss the mesh (or would start inside it) are skipped and counted.
    """
    vr_rots = geometry.frames_from_approaches(-grid.views, grid.rotations)
    rotations = np.repeat(vr_rots.reshape(-1, 3, 3), len(grid.depths), axis=0)
    depths = np.tile(grid.depths, len(rotations) // len(grid.depths))
    closing = rotations[:, :, 0]
    offsets = depths[:, None] * rotations[:, :, 2]

    # Several whole seeds per ray cast; rows stay seed-major.
    per_call = max(1, _LINES_PER_CALL // len(rotations))
    per_chunk = []
    for start in range(0, len(grid.seed_points), per_call):
        seeds = grid.seed_points[start:start + per_call]
        centers = (seeds[:, None, :] + offsets).reshape(-1, 3)
        lines = np.tile(closing, (len(seeds), 1))
        search_half = np.full(len(lines), gripper.max_width / 2.0)
        valid, found, separation = contacts_on_lines(mesh, centers, lines, search_half)
        width = np.minimum(separation + clearance, gripper.max_width)
        half_jaw = (width / 2.0)[:, None] * lines[valid]
        cells = np.flatnonzero(valid) % len(rotations)
        per_chunk.append((
            rotations[cells],
            np.repeat(seeds, valid.reshape(len(seeds), -1).sum(axis=1), axis=0),
            width,
            depths[cells],
            *found._replace(p_el=centers[valid] - half_jaw, p_er=centers[valid] + half_jaw),
        ))
    cell_rots, seeds, widths, cell_depths, *contacts = (np.concatenate(col) for col in zip(*per_chunk))
    n_enumerated = len(rotations) * len(grid.seed_points)
    return CandidateArrays(cell_rots, seeds, widths, cell_depths, ContactArrays(*contacts),
                           n_enumerated, n_enumerated - len(widths))


@dataclass(eq=False, repr=False)
class CandidateEnumerator:
    """Iterator over the valid candidates of a grid, one row at a time.

    Each item is one row of :func:`candidate_arrays` as a plain tuple:
    rotation, translation, width, depth, then the ``ContactArrays`` fields.
    ``n_enumerated`` and ``n_skipped`` are filled in once iteration starts.
    Nothing in the package iterates it; it stays only because the benchmark
    tracer (``perfbench/spans.py``) wraps ``__iter__`` by name, and goes once
    the tracer hooks ``candidate_arrays`` instead.
    """

    mesh: TriangleMesh
    grid: CandidateGrid
    gripper: GripperModel
    clearance: float = 0.01
    n_enumerated: int = field(default=0, init=False)
    n_skipped: int = field(default=0, init=False)

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        batch = candidate_arrays(self.mesh, self.grid, self.gripper, self.clearance)
        self.n_enumerated += batch.n_enumerated
        self.n_skipped += batch.n_skipped
        yield from zip(batch.rotations, batch.translations, batch.widths, batch.depths, *batch.contacts)
