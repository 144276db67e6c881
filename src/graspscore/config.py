"""Pipeline configuration and its key=value file format.

The config file is a flat, human-editable text file::

    # gripper
    max_width = 0.085
    depth_levels = 0.01, 0.02, 0.03, 0.04

Blank lines and ``#`` comments are ignored. Unknown keys are rejected so
typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .closure import DEFAULT_BINS, FrictionBins
from .errors import ConfigError
from .gripper import GripperModel
from .mesh import DEFAULT_SURFACE_DENSITY
from .metrics import MetricWeights


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the labeling and evaluation pipeline.

    Lengths are meters, densities are points per square meter, the NMS
    rotation threshold is in degrees (friendlier to edit than radians).
    """

    # gripper
    max_width: float = 0.085
    finger_length: float = 0.06
    finger_thickness: float = 0.01
    depth_levels: tuple[float, ...] = (0.01, 0.02, 0.03, 0.04)
    # score weights
    lambda_t: float = 0.7
    lambda_f: float = 0.2
    lambda_g: float = 0.05
    lambda_c: float = 0.05
    # candidate grid
    n_seeds: int = 256
    n_views: int = 300
    n_rotations: int = 12
    width_clearance: float = 0.01
    # scoring
    knn_k: int = 10
    surface_density: float = DEFAULT_SURFACE_DENSITY
    friction_bins: tuple[float, ...] = DEFAULT_BINS
    # evaluation
    nms_trans_thresh: float = 0.03
    nms_rot_thresh_deg: float = 30.0
    collision_margin: float = 0.001
    score_thresholds: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("n_seeds", "n_views", "n_rotations", "knn_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("width_clearance", "nms_trans_thresh", "nms_rot_thresh_deg", "collision_margin"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.surface_density <= 0:
            raise ValueError(f"surface_density must be > 0, got {self.surface_density!r}")
        if not all(0.0 <= x <= 1.0 for x in self.score_thresholds):
            raise ValueError(f"score_thresholds must lie in [0, 1], got {self.score_thresholds!r}")

    def gripper(self) -> GripperModel:
        return GripperModel(
            max_width=self.max_width,
            finger_length=self.finger_length,
            finger_thickness=self.finger_thickness,
            depth_levels=self.depth_levels,
        )

    def weights(self) -> MetricWeights:
        return MetricWeights(self.lambda_t, self.lambda_f, self.lambda_g, self.lambda_c)

    def bins(self) -> FrictionBins:
        return FrictionBins(self.friction_bins)

    @property
    def nms_rot_thresh(self) -> float:
        return float(np.deg2rad(self.nms_rot_thresh_deg))

    def with_weights(self, weights: MetricWeights) -> "PipelineConfig":
        return replace(
            self,
            lambda_t=weights.lambda_t,
            lambda_f=weights.lambda_f,
            lambda_g=weights.lambda_g,
            lambda_c=weights.lambda_c,
        )


def load_config(path: str) -> PipelineConfig:
    """Parse a key=value config file into a PipelineConfig.

    Raises:
        ConfigError: unknown key, bad value, or an invalid resulting
            configuration.
    """
    known = {f.name: f for f in fields(PipelineConfig)}
    overrides = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _coerce(value, known[key].type)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        cfg = PipelineConfig(**overrides)
        cfg.gripper(), cfg.weights(), cfg.bins()  # validate derived models
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid configuration: {exc}") from exc
    return cfg


def _coerce(value: str, annotation) -> object:
    text = str(annotation)
    if "tuple" in text:
        return tuple(float(p.strip()) for p in value.split(","))
    if annotation in (int, "int"):
        return int(value)
    return float(value)


def save_config(path: str, cfg: PipelineConfig) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for f in fields(PipelineConfig):
            v = getattr(cfg, f.name)
            if isinstance(v, tuple):
                fh.write(f"{f.name} = {', '.join(repr(float(x)) for x in v)}\n")
            else:
                fh.write(f"{f.name} = {v!r}\n")
