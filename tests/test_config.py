import json

import pytest

from beliefret.config import (
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
    data["belief"]["mode"] = "fuzzy"
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = config_to_dict(TrainConfig())
    data["loss"]["tau"] = -1.0
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_overrides_typed():
    cfg = TrainConfig()
    out = apply_overrides(cfg, ["optim.steps=99", "loss.lambda_cs=0.5", "use_temporal_pae=false", "seed=7"])
    assert out.optim.steps == 99
    assert out.loss.lambda_cs == 0.5
    assert out.use_temporal_pae is False
    assert out.seed == 7
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["optim.warp=1"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["optim.steps=many"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["use_spatial_pae=perhaps"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["loss.tau"])


def test_defaults_match_documented_loss_settings():
    cfg = TrainConfig()
    assert cfg.loss.tau == 0.07
    assert cfg.loss.lambda_cs == 1.0
    assert cfg.model.spatial_units == 2
    assert cfg.model.temporal_units == 3


def test_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("dotted, value", [
    ("use_spatial_pae", "false"),
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


@pytest.mark.parametrize("dotted", ["optim.learning_rate", "loss.tau", "loss.t_logit"])
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
    "loss.epsilon": 1e-12,
}


def test_instruction_source_key_refused():
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
