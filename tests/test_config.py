import pytest

from graspscore import PipelineConfig, load_config, save_config
from graspscore.errors import ConfigError
from graspscore.metrics import MetricWeights


def test_defaults_build_valid_models():
    cfg = PipelineConfig()
    assert cfg.gripper().max_width == 0.085
    assert cfg.weights() == MetricWeights()
    assert cfg.bins().mus == tuple(round(0.1 * k, 10) for k in range(1, 11))
    assert cfg.nms_rot_thresh == pytest.approx(0.5235987755982988)


def test_save_load_round_trip(tmp_path):
    cfg = PipelineConfig(n_seeds=32, n_views=40, max_width=0.1,
                         depth_levels=(0.005, 0.015), lambda_t=1.0,
                         lambda_f=0.0, lambda_g=0.0, lambda_c=0.0,
                         score_thresholds=(0.0, 0.5))
    path = str(tmp_path / "pipeline.cfg")
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text(
        "# tuned for tests\n"
        "\n"
        "n_seeds = 8   # tiny grid\n"
        "n_views = 6\n"
    )
    cfg = load_config(str(path))
    assert cfg.n_seeds == 8
    assert cfg.n_views == 6
    assert cfg.max_width == 0.085


def test_unknown_key_reports_location(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("n_seeds = 8\nn_wiews = 6\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "n_wiews" in str(err.value)
    assert f"{path}:2" in str(err.value)


def test_bad_value_reports_location(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("n_seeds = many\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert f"{path}:1" in str(err.value)


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("n_seeds 8\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_invalid_weights_rejected(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("lambda_t = 0.9\n")  # sum now exceeds 1
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "invalid configuration" in str(err.value)


@pytest.mark.parametrize("key", ["n_seeds", "n_views", "n_rotations", "knn_k"])
def test_counts_below_one_rejected(tmp_path, key):
    path = tmp_path / "pipeline.cfg"
    path.write_text(f"{key} = 0\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(path) in str(err.value)
    assert key in str(err.value)


@pytest.mark.parametrize("line, key", [
    ("score_thresholds = 0.5, 1.5", "score_thresholds"),
    ("score_thresholds = 0.0, -0.2", "score_thresholds"),
    ("score_thresholds = 0.5, nan", "score_thresholds"),
    ("nms_trans_thresh = nan", "nms_trans_thresh"),
    ("max_width = inf", "max_width"),
    ("lambda_t = nan", "lambda_t"),
    ("depth_levels = 0.01, inf", "depth_levels"),
    ("friction_bins = 0.2, nan", "friction_bins"),
    ("width_clearance = -1", "width_clearance"),
    ("nms_trans_thresh = -0.01", "nms_trans_thresh"),
    ("nms_rot_thresh_deg = -5", "nms_rot_thresh_deg"),
    ("collision_margin = -0.001", "collision_margin"),
    ("surface_density = 0", "surface_density"),
    ("surface_density = -10", "surface_density"),
])
def test_bad_values_rejected(tmp_path, line, key):
    path = tmp_path / "pipeline.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="invalid configuration") as err:
        load_config(str(path))
    assert str(path) in str(err.value)
    assert key in str(err.value)


@pytest.mark.parametrize("overrides, message", [
    ({"score_thresholds": ()}, "score_thresholds"),
    ({"lambda_t": 0.9}, "weights must sum to 1"),
    ({"depth_levels": ()}, "depth levels"),
    ({"friction_bins": (0.4, 0.2)}, "strictly increasing"),
])
def test_config_checks_itself_when_built(overrides, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**overrides)


def test_boundary_values_accepted(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("score_thresholds = 0.0, 1.0\nwidth_clearance = 0\nnms_trans_thresh = 0\n"
                    "nms_rot_thresh_deg = 0\ncollision_margin = 0\n")
    cfg = load_config(str(path))
    assert cfg.score_thresholds == (0.0, 1.0)
    assert cfg.width_clearance == cfg.collision_margin == 0.0


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))


def test_with_weights_replaces_lambdas():
    cfg = PipelineConfig().with_weights(MetricWeights(1.0, 0.0, 0.0, 0.0))
    assert cfg.lambda_t == 1.0
    assert cfg.lambda_f == cfg.lambda_g == cfg.lambda_c == 0.0
    assert cfg.n_seeds == 256


def test_tuple_values_parse(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("depth_levels = 0.01, 0.03\nfriction_bins = 0.2, 0.4, 0.8\n")
    cfg = load_config(str(path))
    assert cfg.depth_levels == (0.01, 0.03)
    assert cfg.bins().mus == (0.2, 0.4, 0.8)
