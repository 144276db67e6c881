"""Where grasp candidates come from.

Three ingredients: near-uniform view directions on the sphere, farthest
point seeds on the object surface, and a dense grid of in-plane
rotations and approach depths at every (seed, view) pair. Cells whose
closing rays miss the object, or would start inside it, never become
candidates.
"""

import numpy as np

from graspscore import (
    CandidateGrid,
    GripperModel,
    farthest_point_sampling,
    generate_views,
    with_surface_samples,
)
from graspscore.candidates import candidate_arrays
from graspscore.primitives import make_cylinder


def view_spread(count):
    views = generate_views(count)
    cos = views @ views.T
    np.fill_diagonal(cos, -1.0)
    nearest = np.arccos(np.clip(cos.max(axis=1), -1.0, 1.0))
    return np.degrees(nearest.min()), np.degrees(nearest.max())


if __name__ == "__main__":
    for count in (16, 64, 300):
        lo, hi = view_spread(count)
        print(f"{count:3d} views: nearest-neighbor angle {lo:5.1f}..{hi:5.1f} deg")

    mesh = with_surface_samples(make_cylinder(0.02, 0.06, 48), seed=0)
    seeds = farthest_point_sampling(mesh.surface_points, 16)
    spread = np.linalg.norm(
        mesh.surface_points[seeds][:, None] - mesh.surface_points[seeds][None], axis=2)
    np.fill_diagonal(spread, np.inf)
    print(f"\n16 farthest-point seeds on the cylinder,"
          f" closest pair {spread.min() * 100:.2f} cm apart")

    grid = CandidateGrid.build(mesh, n_seeds=16, n_views=24, n_rotations=4)
    # One row per valid candidate: pose columns plus the resolved contacts.
    candidates = candidate_arrays(mesh, grid, GripperModel())
    print(f"grid of {grid.size} cells -> {candidates.n_skipped} skipped,"
          f" {len(candidates.widths)} candidates")

    contacts = candidates.contacts
    separation = np.linalg.norm(contacts.p_cr[0] - contacts.p_cl[0])
    print("\nfirst candidate:")
    print(f"  commanded width {candidates.widths[0] * 100:.2f} cm"
          f" at depth {candidates.depths[0] * 100:.1f} cm")
    print(f"  contact separation {separation * 100:.2f} cm")
    print(f"  left contact {np.round(contacts.p_cl[0] * 100, 2)} cm,"
          f" normal {np.round(contacts.v_ql[0], 3)}")
