"""Grasp candidate generation, hybrid physical scoring, and AP evaluation
for parallel-jaw grippers on triangle meshes."""

from .candidates import (
    CandidateGrid,
    enumerate_candidates,
    farthest_point_sampling,
    generate_views,
)
from .closure import DEFAULT_BINS, FrictionBins, antipodal_force_closure, force_closure_score
from .config import PipelineConfig, load_config, save_config
from .errors import (
    ConfigError,
    DegenerateContacts,
    EmptyMesh,
    GraspScoreError,
    InvalidFrame,
    KTooLarge,
    ParseError,
    SchemaError,
    UnknownObjectId,
)
from .gripper import ContactFrame, GraspPose, GripperModel, gripper_collides, resolve_contacts
from .labels import LabelTable, read_labels, read_predictions, write_labels, write_predictions
from .mesh import (
    MassProperties,
    TriangleMesh,
    build_mesh,
    closest_surface_point,
    mass_properties,
    sample_surface,
    transform_mesh,
    with_surface_samples,
)
from .meshio import load_mesh, save_obj, save_ply
from .metrics import (
    MetricWeights,
    ScoreBreakdown,
    collision_score,
    flatness_score,
    gravity_score,
    neighborhood_normal_consistency,
    normalize_and_combine,
)
from .pipeline import LabelSummary, label_mesh, score_frames
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
from .spatial import SpatialIndex, knn

__version__ = "0.1.0"

__all__ = [
    "CandidateGrid",
    "ConfigError",
    "ContactFrame",
    "DEFAULT_BINS",
    "DegenerateContacts",
    "EmptyMesh",
    "EvalReport",
    "FrictionBins",
    "GraspPose",
    "GraspScoreError",
    "GripperModel",
    "InvalidFrame",
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
    "ScoreBreakdown",
    "SpatialIndex",
    "TriangleMesh",
    "UnknownObjectId",
    "antipodal_force_closure",
    "build_mesh",
    "build_scene",
    "closest_surface_point",
    "collision_score",
    "enumerate_candidates",
    "evaluate_ap",
    "farthest_point_sampling",
    "flatness_score",
    "force_closure_score",
    "generate_views",
    "grasp_nms",
    "gravity_score",
    "gripper_collides",
    "knn",
    "label_mesh",
    "load_config",
    "load_mesh",
    "load_scene_instances",
    "mass_properties",
    "neighborhood_normal_consistency",
    "normalize_and_combine",
    "read_labels",
    "read_predictions",
    "resolve_contacts",
    "sample_surface",
    "save_config",
    "save_obj",
    "save_ply",
    "save_scene",
    "score_frames",
    "transform_mesh",
    "with_surface_samples",
    "write_labels",
    "write_predictions",
    "__version__",
]
