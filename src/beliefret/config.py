"""Run configuration documents.

Configs are JSON with a schema version. Loading rejects unknown keys, and
command-line overrides use dotted paths (``--set optim.steps=200``) with type
coercion against the dataclass field types. Every rule of a valid config is
checked here, when it is built: each settings class checks its own values, and
``TrainConfig`` applies its stage's preset, so a config that builds is one a
model can be built from.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError

SCHEMA_VERSION = 1

STAGES = ("closed-domain", "stage1-pretrain")
PRECISIONS = ("float64", "float32")

@dataclass
class ModelSettings:
    embed_dim: int = 32
    encoder_dim: int = 48
    heads: int = 2
    encoder_blocks: int = 2
    spatial_units: int = 2  # 0: no spatial stack, instruction prior or belief filter
    temporal_units: int = 3  # 0: no temporal stack
    patch_size: int = 4
    image_size: int = 16
    max_text_len: int = 16

    def __post_init__(self):
        for name in ("embed_dim", "encoder_dim", "heads", "encoder_blocks", "spatial_units",
                     "temporal_units", "patch_size", "image_size", "max_text_len"):
            least = 0 if name.endswith("_units") else 1
            if getattr(self, name) < least:
                raise ConfigError(f"model.{name} must be at least {least}")
        if self.encoder_dim < self.embed_dim:
            raise ConfigError(f"model.encoder_dim={self.encoder_dim} must be at least model.embed_dim={self.embed_dim}")
        for name in ("embed_dim", "encoder_dim"):
            if getattr(self, name) % self.heads:
                raise ConfigError(f"model.heads={self.heads} must divide model.{name}={getattr(self, name)}")
        if self.image_size % self.patch_size:
            raise ConfigError(f"model.patch_size={self.patch_size} must divide model.image_size={self.image_size}")


@dataclass
class LossSettings:
    tau: float = 0.07  # contrastive temperature; the affiliation scale starts at 1/tau
    t_trainable: bool = False  # learn the affiliation log-scale from ln(1/tau)
    lambda_cs: float = 1.0  # affiliation weight; 0: the pairwise loss alone

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"loss.tau must be positive, got {self.tau}")
        if self.lambda_cs < 0:
            raise ConfigError(f"loss.lambda_cs must be nonnegative, got {self.lambda_cs}")


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
    loss: LossSettings = field(default_factory=LossSettings)
    optim: OptimSettings = field(default_factory=OptimSettings)
    data: DataSettings = field(default_factory=DataSettings)
    precision: str = "float32"  # of every parameter, op and embedding; a checkpoint keeps its own
    init_from: str = ""  # checkpoint to start from, as stage two starts from stage one

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema version {self.schema_version}")
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}")
        if self.stage == "stage1-pretrain":  # a plain dual encoder under the pairwise loss alone
            self.model = dataclasses.replace(self.model, spatial_units=0, temporal_units=0)
            self.loss = dataclasses.replace(self.loss, lambda_cs=0.0)


def config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


_field_types = functools.cache(typing.get_type_hints)


def build_checked(cls, data, path: str = ""):
    """Build the dataclass ``cls`` from a JSON object, checking each leaf
    against its field's type: a float field also takes an int, but not NaN or
    an infinity, and an ``X | None`` field also takes null."""
    if not isinstance(data, dict):
        what = f"config key {path}" if path else "config document"
        raise ConfigError(f"{what} must be a JSON object")
    kinds = _field_types(cls)
    unknown = sorted(f"{path}.{key}" if path else key for key in set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config key(s): {unknown}")
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    missing = sorted(f"{path}.{key}" if path else key for key in required - set(data))
    if missing:
        raise ConfigError(f"missing config key(s): {missing}")
    kwargs = {}
    for key, value in data.items():
        dotted, kind = f"{path}.{key}" if path else key, kinds[key]
        if typing.get_args(kind):  # X | None
            if value is None:
                kwargs[key] = None
                continue
            kind = typing.get_args(kind)[0]
        if dataclasses.is_dataclass(kind):
            value = build_checked(kind, value, dotted)
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
    return build_checked(TrainConfig, data)


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
