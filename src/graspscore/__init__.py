"""Grasp candidate generation, hybrid physical scoring, and AP evaluation
for parallel-jaw grippers on triangle meshes."""

from .candidates import (
    CandidateGrid,
    enumerate_candidates,
    farthest_point_sampling,
    generate_views,
)
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
from .gripper import ContactFrame, GraspPose, GripperModel, gripper_collides
from .labels import LabelTable, read_labels, read_predictions, write_labels, write_predictions
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
    PredictedGrasp,
    PredictionTable,
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
    "ContactFrame",
    "DEFAULT_BINS",
    "EmptyMesh",
    "EvalReport",
    "FrictionBins",
    "GraspPose",
    "GraspScoreError",
    "GripperModel",
    "KTooLarge",
    "LabelSummary",
    "LabelTable",
    "MassProperties",
    "MetricWeights",
    "ParseError",
    "PipelineConfig",
    "PredictedGrasp",
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
    "enumerate_candidates",
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
