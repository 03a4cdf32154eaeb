import json

import pytest

from beliefret.config import (
    LossSettings,
    TrainConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)
from beliefret.errors import ConfigError


def test_round_trip(tmp_path):
    cfg = TrainConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def test_unknown_keys_rejected():
    data = config_to_dict(TrainConfig())
    data["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(data)
    data = config_to_dict(TrainConfig())
    data["optim"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="momentum"):
        config_from_dict(data)


def test_validation():
    data = config_to_dict(TrainConfig())
    data["stage"] = "stage3"
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = config_to_dict(TrainConfig())
    data["precision"] = "float16"
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = config_to_dict(TrainConfig())
    data["loss"]["tau"] = -1.0
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_overrides_typed():
    cfg = TrainConfig()
    out = apply_overrides(cfg, ["optim.steps=99", "loss.lambda_cs=0.5", "loss.t_trainable=yes", "seed=7"])
    assert out.optim.steps == 99
    assert out.loss.lambda_cs == 0.5
    assert out.loss.t_trainable is True
    assert out.seed == 7
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["optim.warp=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["optim.steps=many"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["loss.t_trainable=perhaps"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["loss.tau"])


def test_defaults_match_documented_loss_settings():
    cfg = TrainConfig()
    assert cfg.loss.tau == 0.07
    assert cfg.loss.lambda_cs == 1.0
    assert cfg.model.spatial_units == 2
    assert cfg.model.temporal_units == 3


def test_loss_settings_validation():
    LossSettings()
    with pytest.raises(ConfigError, match="loss.tau must be positive"):
        LossSettings(tau=0.0)
    with pytest.raises(ConfigError, match="loss.lambda_cs must be nonnegative"):
        LossSettings(lambda_cs=-1.0)


def test_unit_count_zero_accepted_and_below_refused():
    cfg = apply_overrides(TrainConfig(), ["model.spatial_units=0", "model.temporal_units=0"])
    assert cfg.model.spatial_units == 0 and cfg.model.temporal_units == 0
    for dotted, least in (("model.spatial_units", 0), ("model.temporal_units", 0), ("model.heads", 1)):
        with pytest.raises(ConfigError, match=f"{dotted} must be at least {least}"):
            apply_overrides(TrainConfig(), [f"{dotted}={least - 1}"])


def test_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("dotted, value", [
    ("loss.t_trainable", "false"),
    ("seed", "x"),
    ("seed", 1.0),
    ("optim.batch_size", 8.5),
    ("model.heads", True),
    ("loss.tau", "0.07"),
    ("precision", 32),
])
def test_leaf_types_checked_at_load(dotted, value):
    data = config_to_dict(TrainConfig())
    *sections, leaf = dotted.split(".")
    node = data
    for part in sections:
        node = node[part]
    node[leaf] = value
    with pytest.raises(ConfigError, match=f"config key {dotted} must be of type "):
        config_from_dict(data)


def test_float_field_takes_an_int():
    data = config_to_dict(TrainConfig())
    data["loss"]["tau"] = 1
    cfg = config_from_dict(data)
    assert cfg.loss.tau == 1.0 and type(cfg.loss.tau) is float
    assert apply_overrides(cfg, ["loss.tau=0.5"]).loss.tau == 0.5
    data["loss"]["tau"] = 10**400  # an int beyond the float range is infinite, not an OverflowError
    with pytest.raises(ConfigError, match="config key loss.tau must be finite"):
        config_from_dict(data)


@pytest.mark.parametrize("dotted", ["optim.learning_rate", "loss.tau"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_refused(dotted, raw, tmp_path):
    # NaN slips past every range check (it compares false both ways), and an
    # infinite temperature trains to a constant loss
    with pytest.raises(ConfigError, match=f"config key {dotted} must be finite"):
        apply_overrides(TrainConfig(), [f"{dotted}={raw}"])
    data = config_to_dict(TrainConfig())
    *sections, leaf = dotted.split(".")
    node = data
    for part in sections:
        node = node[part]
    node[leaf] = float(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))  # written as NaN, Infinity or -Infinity
    with pytest.raises(ConfigError, match=f"config key {dotted} must be finite"):
        load_config(path)


REMOVED_KEYS = {
    "instruction_source": "frozen-scene-table",
    "dropout_rate": 0.0,
    "model.use_position_encoding": True,
    "model.ffn_ratio": 2,
    "model.vocab_size": 48,
    "loss.epsilon": 1e-12,
    "use_spatial_pae": True,
    "use_temporal_pae": True,
    "loss.t_logit": 2.659,
    "belief": {"mode": "hard", "filter_k": 8},
}


def test_removed_keys_refused():
    # keys of settings that were deleted are unknown, each named by its dotted path
    for dotted, value in REMOVED_KEYS.items():
        data = config_to_dict(TrainConfig())
        *sections, leaf = dotted.split(".")
        node = data
        for part in sections:
            node = node[part]
        node[leaf] = value
        with pytest.raises(ConfigError, match=f"unknown config key.*'{dotted}'"):
            config_from_dict(data)


# -- rules across values, each checked when the config is built ---------------------


def test_encoder_dim_below_embed_dim_refused():
    # the towers project their internal width down to the embedding width
    assert apply_overrides(TrainConfig(), ["model.encoder_dim=32"]).model.encoder_dim == 32
    with pytest.raises(ConfigError, match="model.encoder_dim=31 must be at least model.embed_dim=32"):
        apply_overrides(TrainConfig(), ["model.encoder_dim=31"])


def test_patch_size_must_divide_image_size():
    with pytest.raises(ConfigError, match="model.patch_size=5 must divide model.image_size=16"):
        apply_overrides(TrainConfig(), ["model.patch_size=5"])


@pytest.mark.parametrize("overrides, width", [
    (["model.heads=5"], "embed_dim=32"),
    (["model.heads=4", "model.encoder_dim=50"], "encoder_dim=50"),
    (["model.heads=3"], "embed_dim=32"),  # divides the towers' 48, not the stacks' 32
], ids=["neither", "towers", "stacks"])
def test_heads_must_divide_both_widths(overrides, width):
    with pytest.raises(ConfigError, match=f"model.heads=.* must divide model.{width}"):
        apply_overrides(TrainConfig(), overrides)
