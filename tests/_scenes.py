"""Shared evaluation fixtures: grids of spheres with known-quality grasps.

Three prediction sets against the same 50-sphere scene:

* perfect: one diametral pinch per sphere, every true score 1.0,
* zero: one high-chord pinch per sphere whose contact normals sit far
  outside the widest friction cone, every true score 0.0,
* good25: 25 diametral then 25 chord grasps, so exactly the top half of
  the predicted ranking is good.

Instances sit 0.25 m apart, far beyond the NMS translation threshold, so
every prediction survives filtering and the AP arithmetic is exact.
"""

import numpy as np

from graspscore import (
    GraspPose,
    PipelineConfig,
    PredictedGrasp,
    SceneInstance,
    build_scene,
    with_surface_samples,
)
from graspscore.candidates import generate_views
from graspscore.primitives import make_icosphere

from conftest import perpendicular_basis

CLOSURE_ONLY = PipelineConfig(lambda_t=1.0, lambda_f=0.0, lambda_g=0.0, lambda_c=0.0)
SPHERE_ID = "sph3"
SPHERE_RADIUS = 0.03
TABLE_HEIGHT = -0.2


def sphere_library():
    return {SPHERE_ID: with_surface_samples(make_icosphere(SPHERE_RADIUS, 3), seed=0)}


def grid_position(i):
    return np.array([0.25 * (i % 8), 0.25 * (i // 8), 0.0])


def sphere_scene(library, count=50):
    instances = [SceneInstance(SPHERE_ID, np.eye(3), grid_position(i)) for i in range(count)]
    return build_scene(instances, library, table_height=TABLE_HEIGHT)


def diametral_grasp(center, closing_dir):
    """Pinch through the sphere center: contacts antipodal, score 1.0."""
    approach, _ = perpendicular_basis(closing_dir)
    rot = np.column_stack([closing_dir, np.cross(approach, closing_dir), approach])
    return GraspPose(rotation=rot, translation=center - SPHERE_RADIUS * approach,
                     width=0.07, depth=SPHERE_RADIUS)


def chord_grasp(center, phi):
    """Pinch across a high chord: contact normals ~56 deg off the closing
    line, outside every friction cone in the default ladder."""
    closing = np.array([np.cos(phi), np.sin(phi), 0.0])
    approach = np.array([0.0, 0.0, -1.0])
    rot = np.column_stack([closing, np.cross(approach, closing), approach])
    return GraspPose(rotation=rot, translation=center + [0.0, 0.0, SPHERE_RADIUS],
                     width=0.07, depth=0.005)


def perfect_predictions(count=50):
    views = generate_views(count)
    return [
        PredictedGrasp(diametral_grasp(grid_position(i), views[i]), 1.0 - i * 1e-3, SPHERE_ID)
        for i in range(count)
    ]


def zero_predictions(count=50):
    return [
        PredictedGrasp(chord_grasp(grid_position(i), i * 2 * np.pi / count + 0.1),
                       1.0 - i * 1e-3, SPHERE_ID)
        for i in range(count)
    ]


def good25_predictions():
    views = generate_views(25)
    preds = [
        PredictedGrasp(diametral_grasp(grid_position(i), views[i]), 0.9 - i * 1e-3, SPHERE_ID)
        for i in range(25)
    ]
    preds += [
        PredictedGrasp(chord_grasp(grid_position(25 + i), i * 2 * np.pi / 25 + 0.1),
                       0.5 - i * 1e-3, SPHERE_ID)
        for i in range(25)
    ]
    return preds


def good25_oracle_map():
    """Mean AP for the good25 pattern, summed term by term."""
    ap_mid = sum(min(k, 25) / k for k in range(1, 51)) / 50
    return (1.0 + 5.0 * ap_mid) / 6.0
