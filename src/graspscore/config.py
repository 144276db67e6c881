"""Pipeline configuration and its key=value file format.

The config file is a flat, human-editable text file::

    # a wider gripper that grasps at two depths
    max_width = 0.1
    depth_levels = 0.02, 0.04

Blank lines and ``#`` comments are ignored. Unknown keys are rejected so
typos fail loudly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields, replace

import numpy as np

from .closure import DEFAULT_BINS, FrictionBins
from .errors import ConfigError
from .gripper import DEFAULT_COLLISION_MARGIN, GripperModel
from .mesh import DEFAULT_SURFACE_DENSITY
from .metrics import DEFAULT_KNN_K, MetricWeights


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the labeling and evaluation pipeline.

    Lengths are meters, densities are points per square meter, the NMS
    rotation threshold is in degrees (friendlier to edit than radians).
    """

    # gripper: the fields of GripperModel, by name and default
    max_width: float = GripperModel.max_width
    finger_length: float = GripperModel.finger_length
    finger_thickness: float = GripperModel.finger_thickness
    depth_levels: tuple[float, ...] = GripperModel.depth_levels
    # score weights: the fields of MetricWeights, by name and default
    lambda_t: float = MetricWeights.lambda_t
    lambda_f: float = MetricWeights.lambda_f
    lambda_g: float = MetricWeights.lambda_g
    lambda_c: float = MetricWeights.lambda_c
    # candidate grid
    n_seeds: int = 256
    n_views: int = 300
    n_rotations: int = 12
    width_clearance: float = 0.01
    # scoring
    knn_k: int = DEFAULT_KNN_K
    surface_density: float = DEFAULT_SURFACE_DENSITY
    friction_bins: tuple[float, ...] = DEFAULT_BINS
    # evaluation
    nms_trans_thresh: float = 0.03
    nms_rot_thresh_deg: float = 30.0
    collision_margin: float = DEFAULT_COLLISION_MARGIN
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
        if not self.score_thresholds:
            raise ValueError("score_thresholds must hold at least one threshold")
        if not all(0.0 <= x <= 1.0 for x in self.score_thresholds):
            raise ValueError(f"score_thresholds must lie in [0, 1], got {self.score_thresholds!r}")
        self.gripper(), self.weights(), self.bins()  # each checks its own rules

    def gripper(self) -> GripperModel:
        return GripperModel(**_shared_fields(self, GripperModel))

    def weights(self) -> MetricWeights:
        return MetricWeights(**_shared_fields(self, MetricWeights))

    def bins(self) -> FrictionBins:
        return FrictionBins(self.friction_bins)

    @property
    def nms_rot_thresh(self) -> float:
        return float(np.deg2rad(self.nms_rot_thresh_deg))

    def with_weights(self, weights: MetricWeights) -> "PipelineConfig":
        return replace(self, **_shared_fields(weights, MetricWeights))


def _shared_fields(source, component) -> dict:
    """The values in ``source`` of the fields of dataclass ``component``, by name."""
    return {f.name: getattr(source, f.name) for f in fields(component)}


def load_config(path: str) -> PipelineConfig:
    """Parse a key=value config file into a PipelineConfig.

    Raises:
        ConfigError: a byte that is not ascii, an unknown key, a bad
            value, or an invalid resulting configuration; the message names
            the file and, but for the last, the line.
    """
    known = {f.name: f for f in fields(PipelineConfig)}
    overrides = {}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # lines end at LF, CR LF or a lone CR, as in a text-mode read
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ConfigError(f"{path}:{line}: byte {raw[exc.start]:#04x} is not ascii") from exc
    lines = io.StringIO(text, newline=None).readlines()

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
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid configuration: {exc}") from exc


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
