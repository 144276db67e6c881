"""Grasp candidate generation, hybrid physical scoring, and AP evaluation
for parallel-jaw grippers on triangle meshes."""

from .candidates import CandidateGrid, farthest_point_sampling, generate_views
from .closure import DEFAULT_BINS, FrictionBins, closure_scores
from .config import PipelineConfig, load_config, save_config
from .errors import (
    ConfigError,
    EmptyMesh,
    GraspScoreError,
    KTooLarge,
    ParseError,
    SchemaError,
    UnknownObjectId,
)
from .gripper import GripperModel, gripper_collides
from .labels import LabelTable, PredictionTable, read_labels, read_predictions, write_labels, write_predictions
from .mesh import (
    MassProperties,
    TriangleMesh,
    build_mesh,
    mass_properties,
    sample_surface,
    transform_mesh,
    with_surface_samples,
)
from .meshio import load_mesh, save_obj, save_ply
from .metrics import MetricWeights, combine_scores, neighborhood_normal_consistency, score_contacts
from .pipeline import LabelSummary, label_mesh
from .scene import (
    EvalReport,
    SceneInstance,
    SceneLayout,
    build_scene,
    evaluate_ap,
    grasp_nms,
    load_scene_instances,
    save_scene,
)
from .spatial import SpatialIndex

__version__ = "0.1.0"

__all__ = [
    "CandidateGrid",
    "ConfigError",
    "DEFAULT_BINS",
    "EmptyMesh",
    "EvalReport",
    "FrictionBins",
    "GraspScoreError",
    "GripperModel",
    "KTooLarge",
    "LabelSummary",
    "LabelTable",
    "MassProperties",
    "MetricWeights",
    "ParseError",
    "PipelineConfig",
    "PredictionTable",
    "SceneInstance",
    "SceneLayout",
    "SchemaError",
    "SpatialIndex",
    "TriangleMesh",
    "UnknownObjectId",
    "build_mesh",
    "build_scene",
    "closure_scores",
    "combine_scores",
    "evaluate_ap",
    "farthest_point_sampling",
    "generate_views",
    "grasp_nms",
    "gripper_collides",
    "label_mesh",
    "load_config",
    "load_mesh",
    "load_scene_instances",
    "mass_properties",
    "neighborhood_normal_consistency",
    "read_labels",
    "read_predictions",
    "sample_surface",
    "save_config",
    "save_obj",
    "save_ply",
    "save_scene",
    "score_contacts",
    "transform_mesh",
    "with_surface_samples",
    "write_labels",
    "write_predictions",
    "__version__",
]
