"""Scene-level evaluation of a predicted grasp set.

Three spheres on a table, four predictions: two diametral pinches (true
score 1.0 under closure-only weights), one steep chord pinch whose
contact normals fall outside every friction cone (true score 0.0), and
a duplicate of the best grasp that NMS should suppress.
"""

import numpy as np

from graspscore import PipelineConfig, PredictionTable, SceneInstance, build_scene, evaluate_ap
from graspscore.primitives import make_icosphere

RADIUS = 0.03


def pose_row(rotation, translation, width, depth):
    """The 14 pose columns of a prediction row: rotation row-major,
    translation, width, depth."""
    return [*np.ravel(rotation), *translation, width, depth]


def diametral(center, closing):
    approach = np.array([0.0, 0.0, -1.0])
    rot = np.column_stack([closing, np.cross(approach, closing), approach])
    return pose_row(rot, center + [0, 0, RADIUS], 0.07, RADIUS)


def high_chord(center):
    rot = np.column_stack([[0, 1, 0], [1, 0, 0], [0, 0, -1]]).astype(float)
    return pose_row(rot, center + [0, 0, RADIUS], 0.07, 0.005)


if __name__ == "__main__":
    # build_scene samples the sphere's surface once; the layout keeps the
    # sampled mesh, and evaluate_ap scores on it.
    library = {"sphere": make_icosphere(RADIUS, 3)}
    centers = [np.array([0.25 * i, 0.0, 0.0]) for i in range(3)]
    instances = [SceneInstance("sphere", np.eye(3), c) for c in centers]
    layout = build_scene(instances, library, table_height=-0.2, seed=0)
    print(f"scene: {len(instances)} spheres, {len(layout.scene_cloud)} cloud points")

    # The table holds one row per prediction: the pose and predicted score
    # as floats (the prediction file's columns) plus the object id.
    predictions = PredictionTable(np.array([
        diametral(centers[0], np.array([1.0, 0, 0])) + [0.95],
        diametral(centers[1], np.array([0.0, 1, 0])) + [0.90],
        high_chord(centers[2]) + [0.80],
        diametral(centers[0], np.array([1.0, 0, 0])) + [0.70],
    ]), ["sphere"] * 4)

    closure_only = PipelineConfig(lambda_t=1.0, lambda_f=0.0, lambda_g=0.0, lambda_c=0.0)
    report = evaluate_ap(predictions, layout, closure_only)
    print(f"{report.n_predictions} predictions -> {report.n_filtered_nms} suppressed,"
          f" {report.n_filtered_collision} colliding, {report.n_evaluated} evaluated")
    print(f"true scores {list(report.true_scores)}")
    for tau, ap in zip(report.thresholds, report.ap_values):
        print(f"  AP@{tau:.1f} = {ap:.4f}")
    print(f"mAP {report.map_value:.4f}")
