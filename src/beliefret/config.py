"""Run configuration documents.

Configs are JSON with a schema version. Loading rejects unknown keys, and
command-line overrides use dotted paths (``--set optim.steps=200``) with type
coercion against the dataclass field types.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field

from .belief import MODES as BELIEF_MODES
from .errors import ConfigError
from .losses import LossConfig

SCHEMA_VERSION = 1

STAGES = ("closed-domain", "stage1-pretrain", "stage2-finetune")
PRECISIONS = ("float64", "float32")

@dataclass
class ModelSettings:
    embed_dim: int = 32
    encoder_dim: int = 48
    heads: int = 2
    encoder_blocks: int = 2
    spatial_units: int = 2
    temporal_units: int = 3
    patch_size: int = 4
    image_size: int = 16
    max_text_len: int = 16
    vocab_size: int = 0  # 0: take from the dataset header

    def __post_init__(self):
        for name in ("embed_dim", "encoder_dim", "heads", "encoder_blocks", "spatial_units",
                     "temporal_units", "patch_size", "image_size", "max_text_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be at least 1")


@dataclass
class BeliefSettings:
    mode: str = "soft-sequence"
    filter_k: int = 8  # hard mode only

    def __post_init__(self):
        if self.mode not in BELIEF_MODES:
            raise ConfigError(f"belief.mode must be one of {BELIEF_MODES}, got {self.mode!r}")
        if self.filter_k < 1:
            raise ConfigError("belief.filter_k must be at least 1")


@dataclass
class OptimSettings:
    learning_rate: float = 0.02
    steps: int = 500
    batch_size: int = 32
    eval_every_epochs: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("optim.learning_rate must be positive")
        if self.steps < 0:
            raise ConfigError("optim.steps must be nonnegative")
        for name in ("batch_size", "eval_every_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"optim.{name} must be at least 1")


@dataclass
class DataSettings:
    train_path: str = ""
    val_path: str = ""  # empty: stratified split from the training file
    val_images_per_class: int = 2

    def __post_init__(self):
        if self.val_images_per_class < 0:
            raise ConfigError("data.val_images_per_class must be nonnegative")


@dataclass
class TrainConfig:
    schema_version: int = SCHEMA_VERSION
    stage: str = "closed-domain"
    seed: int = 0
    model: ModelSettings = field(default_factory=ModelSettings)
    belief: BeliefSettings = field(default_factory=BeliefSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    optim: OptimSettings = field(default_factory=OptimSettings)
    data: DataSettings = field(default_factory=DataSettings)
    use_spatial_pae: bool = True
    use_temporal_pae: bool = True
    precision: str = "float64"
    init_from: str = ""  # stage-2 fine-tuning: checkpoint to start from

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {self.schema_version}")
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}")


def config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


_field_types = functools.cache(typing.get_type_hints)


def _build(cls, data: dict, path: str):
    """Build ``cls`` from a JSON object, checking each leaf against its field's
    type (a float field also takes an int, but not NaN or an infinity)."""
    kinds = _field_types(cls)
    unknown = sorted(f"{path}.{key}" if path else key for key in set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {unknown}")
    kwargs = {}
    for key, value in data.items():
        dotted, kind = f"{path}.{key}" if path else key, kinds[key]
        if dataclasses.is_dataclass(kind):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be an object")
            value = _build(kind, value, dotted)
        elif kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        elif type(value) is not kind:
            raise ConfigError(f"config key {dotted} must be of type {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"config key {dotted} must be finite, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> TrainConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return _build(TrainConfig, dict(data), "")


def load_json(path):
    """The JSON document in a UTF-8 file; anything else is a ConfigError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> TrainConfig:
    return config_from_dict(load_json(path))


def _coerce(raw: str, target_type, key: str):
    if target_type is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean override {key}={raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse override {key}={raw!r} as {target_type.__name__}") from exc
    return raw


def apply_overrides(cfg: TrainConfig, overrides) -> TrainConfig:
    """Apply ``key.path=value`` strings and revalidate the config."""
    data = config_to_dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        *sections, leaf = dotted.split(".")
        node = data
        for part in sections:
            if not isinstance(node.get(part), dict):
                raise ConfigError(f"unknown config section {dotted!r}")
            node = node[part]
        if leaf not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node[leaf] = _coerce(raw, type(node[leaf]), dotted)
    return config_from_dict(data)
