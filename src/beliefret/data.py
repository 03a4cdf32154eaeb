"""Synthetic scene-labelled image-text corpora and dataset file I/O.

Each scene class gets a distinct blocky colour motif. Every image perturbs its
class motif with three systematic attributes (channel tint, marker-corner
position, brightness level) plus mild pixel jitter, and an optional fraction
of patch cells is replaced with random clutter. Captions always name the scene
class; in fine granularity they also name the three attributes, which makes
them near-unique per image and, because the attributes are rendered into the
pixels, learnable on held-out images. Filler tokens come from one shared pool,
so coarse captions overlap heavily across classes.

Dataset files are line-delimited JSON: a header object with a schema version
and corpus metadata, then one record per line with fixed field names
(``id``, ``scene_label``, ``pixels`` as a flat array, ``captions`` as arrays
of token ids).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_open
from .errors import ConfigError, InputError, ParseError
from .rng import child

SCHEMA_VERSION = 1

GRANULARITIES = ("coarse", "fine")

TINT_LEVELS = 3
CORNER_LEVELS = 4
BRIGHTNESS_LEVELS = 3
ATTRIBUTE_TOKENS = TINT_LEVELS + CORNER_LEVELS + BRIGHTNESS_LEVELS
MIN_FILLER_TOKENS = 4
CELL = 4  # side of a motif, corner-marker and clutter cell, in pixels

_TINT_GAIN = 0.65  # off-channel damping
_BRIGHTNESS = (0.7, 0.85, 1.0)


@dataclass
class CorpusSpec:
    num_classes: int
    images_per_class: int
    captions_per_image: int = 5
    image_size: int = 16
    vocab_size: int = 64
    caption_len_min: int = 6
    caption_len_max: int = 10
    granularity: str = "fine"
    noise: float = 0.0
    seed: int = 0
    motif_seed: int | None = None  # shared class appearance across corpora

    def __post_init__(self):
        for name in ("num_classes", "images_per_class", "captions_per_image", "image_size", "vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}")
        if not 0.0 <= self.noise < 1.0:
            raise ConfigError(f"noise fraction must lie in [0, 1), got {self.noise}")
        # fine captions carry the class token plus one token per attribute slot
        core = 1 + (3 if self.granularity == "fine" else 0)
        if not core <= self.caption_len_min <= self.caption_len_max:
            raise ConfigError(
                f"caption length range [{self.caption_len_min}, {self.caption_len_max}] "
                f"cannot hold the {core} core tokens"
            )
        if self.image_size % CELL != 0:
            raise ConfigError(f"image size must be a multiple of the {CELL}-pixel motif cell")
        if self.vocab_size < self.num_classes + ATTRIBUTE_TOKENS + MIN_FILLER_TOKENS:
            raise ConfigError(
                f"vocabulary of {self.vocab_size} too small for class separation: needs at least "
                f"{self.num_classes + ATTRIBUTE_TOKENS + MIN_FILLER_TOKENS}"
            )


def token_layout(spec: CorpusSpec) -> dict:
    """Fixed vocabulary layout: class tokens, attribute tokens, shared fillers."""
    c = spec.num_classes
    return {
        "class": list(range(c)),
        "tint": list(range(c, c + TINT_LEVELS)),
        "corner": list(range(c + TINT_LEVELS, c + TINT_LEVELS + CORNER_LEVELS)),
        "brightness": list(range(c + TINT_LEVELS + CORNER_LEVELS, c + ATTRIBUTE_TOKENS)),
        "filler": list(range(c + ATTRIBUTE_TOKENS, spec.vocab_size)),
    }


@dataclass
class DatasetRecord:
    id: int
    scene_label: int
    pixels: np.ndarray  # (3, H, W)
    captions: list = field(default_factory=list)  # list of token-id lists

    def __eq__(self, other):
        return (
            isinstance(other, DatasetRecord)
            and self.id == other.id
            and self.scene_label == other.scene_label
            and np.array_equal(self.pixels, other.pixels)
            and self.captions == other.captions
        )


@dataclass
class DatasetMeta:
    schema_version: int
    num_classes: int
    image_size: int
    vocab_size: int
    captions_per_image: int
    granularity: str
    seed: int
    motif_seed: int
    num_records: int


@dataclass
class Dataset:
    meta: DatasetMeta
    records: list


def _class_motif(motif_seed: int, label: int, size: int) -> np.ndarray:
    rng = child(motif_seed, "motif", label)
    cells = size // CELL
    coarse = rng.uniform(0.15, 0.85, size=(3, cells, cells))
    return np.kron(coarse, np.ones((CELL, CELL)))


def _render_image(spec: CorpusSpec, label: int, index: int, motif: np.ndarray):
    rng = child(spec.seed, "image", label, index)
    tint = int(rng.integers(0, TINT_LEVELS))
    corner = int(rng.integers(0, CORNER_LEVELS))
    brightness = int(rng.integers(0, BRIGHTNESS_LEVELS))

    img = motif.copy()
    gains = np.full(3, _TINT_GAIN)
    gains[tint] = 1.0
    img *= gains[:, None, None]
    img *= _BRIGHTNESS[brightness]

    half = spec.image_size // 2
    row = 0 if corner in (0, 1) else half
    col = 0 if corner in (0, 2) else half
    checker = np.indices((CELL, CELL)).sum(axis=0) % 2
    img[:, row : row + CELL, col : col + CELL] = 0.05 + 0.9 * checker

    img += rng.uniform(-0.02, 0.02, size=img.shape)

    if spec.noise > 0.0:
        cells = spec.image_size // CELL
        total = cells * cells
        n_clutter = int(round(spec.noise * total))
        chosen = rng.choice(total, size=n_clutter, replace=False)
        for cell in chosen:
            r, c = (cell // cells) * CELL, (cell % cells) * CELL
            img[:, r : r + CELL, c : c + CELL] = rng.random((3, CELL, CELL))

    img = np.round(np.clip(img, 0.0, 1.0), 4)
    return img, (tint, corner, brightness)


def _make_captions(spec: CorpusSpec, layout: dict, label: int, index: int, attrs) -> list:
    rng = child(spec.seed, "captions", label, index)
    tint, corner, brightness = attrs
    core = [layout["class"][label]]
    if spec.granularity == "fine":
        core += [layout["tint"][tint], layout["corner"][corner], layout["brightness"][brightness]]
    captions = []
    for _ in range(spec.captions_per_image):
        length = int(rng.integers(spec.caption_len_min, spec.caption_len_max + 1))
        fillers = rng.choice(layout["filler"], size=length - len(core), replace=True).tolist()
        tokens = np.array(core + fillers, dtype=np.int64)
        rng.shuffle(tokens)
        captions.append([int(t) for t in tokens])
    return captions


def generate_corpus(spec: CorpusSpec) -> Dataset:
    """Deterministic corpus: records ordered by (class, image index)."""
    layout = token_layout(spec)
    motif_seed = spec.motif_seed if spec.motif_seed is not None else spec.seed
    records = []
    next_id = 0
    for label in range(spec.num_classes):
        motif = _class_motif(motif_seed, label, spec.image_size)
        for index in range(spec.images_per_class):
            pixels, attrs = _render_image(spec, label, index, motif)
            captions = _make_captions(spec, layout, label, index, attrs)
            records.append(DatasetRecord(next_id, label, pixels, captions))
            next_id += 1
    meta = DatasetMeta(
        schema_version=SCHEMA_VERSION,
        num_classes=spec.num_classes,
        image_size=spec.image_size,
        vocab_size=spec.vocab_size,
        captions_per_image=spec.captions_per_image,
        granularity=spec.granularity,
        seed=spec.seed,
        motif_seed=motif_seed,
        num_records=len(records),
    )
    return Dataset(meta, records)


# -- file I/O -------------------------------------------------------------------


def write_dataset(dataset: Dataset, path) -> None:
    meta = dict(dataset.meta.__dict__)
    meta["num_records"] = len(dataset.records)
    lines = [json.dumps(meta, sort_keys=True)]
    for rec in dataset.records:
        lines.append(
            json.dumps(
                {
                    "id": rec.id,
                    "scene_label": rec.scene_label,
                    "pixels": [float(p) for p in rec.pixels.reshape(-1)],
                    "captions": rec.captions,
                },
                sort_keys=True,
            )
        )
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _integer(value, name: str) -> int:
    number = int(value)
    if number != value or isinstance(value, bool):  # int() truncates 1.9 to 1 and reads true as 1
        raise ValueError(f"{name} {value!r} is not an integer")
    return number


def _record_problem(rec: DatasetRecord, meta: DatasetMeta) -> str | None:
    """Why a parsed record cannot be trained on, or None if it can."""
    if not 0 <= rec.scene_label < meta.num_classes:
        return f"scene_label {rec.scene_label} outside [0, {meta.num_classes})"
    # NaN fails both comparisons, so this also rejects non-finite pixels
    outside = ~((rec.pixels >= 0.0) & (rec.pixels <= 1.0))
    if outside.any():
        return f"pixel value {float(rec.pixels[outside][0])!r} outside [0, 1]"
    if not rec.captions:
        return "no captions"
    for i, cap in enumerate(rec.captions):
        if not cap:
            return f"caption {i} is empty"
        bad = [t for t in cap if not 0 <= t < meta.vocab_size]
        if bad:
            return f"caption {i} has token id {bad[0]} outside [0, {meta.vocab_size})"
    return None


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}:1: empty dataset file")
    try:
        header = json.loads(lines[0])
        meta = DatasetMeta(**header)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ParseError(f"{path}:1: bad dataset header: {exc}") from exc
    if meta.schema_version != SCHEMA_VERSION:
        raise ParseError(f"{path}:1: unsupported schema version {meta.schema_version}")
    records = []
    id_lines = {}  # id -> line that defined it; epoch_batches keys caption picks by id
    size = meta.image_size
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            rec = DatasetRecord(
                id=_integer(raw["id"], "id"),
                scene_label=_integer(raw["scene_label"], "scene_label"),
                pixels=np.array(raw["pixels"], dtype=np.float64).reshape(3, size, size),
                # a plain int token needs no conversion, which keeps large files fast
                captions=[[t if type(t) is int else _integer(t, "token id") for t in cap]
                          for cap in raw["captions"]],
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
        problem = _record_problem(rec, meta)
        if rec.id in id_lines:
            problem = f"id {rec.id} repeats the record on line {id_lines[rec.id]}"
        if problem:
            raise ParseError(f"{path}:{lineno}: bad dataset record: {problem}")
        id_lines[rec.id] = lineno
        records.append(rec)
    if len(records) != meta.num_records:
        raise ParseError(f"{path}: header promises {meta.num_records} records, found {len(records)}")
    return Dataset(meta, records)


# -- batching -------------------------------------------------------------------


@dataclass
class PairBatch:
    images: np.ndarray  # (B, 3, H, W)
    captions: list  # B token-id lists
    labels: np.ndarray  # (B,)
    record_ids: np.ndarray  # (B,)


def epoch_batches(records, batch_size: int, seed: int, epoch: int):
    """Batches covering every record exactly once; the final partial batch is kept.

    The permutation and per-record caption picks are functions of
    (seed, epoch), so any position in the stream can be reconstructed.
    """
    if batch_size < 1:
        raise ConfigError("batch size must be at least 1")
    n = len(records)
    if n == 0:
        raise InputError("cannot iterate over an empty record list")
    order = child(seed, "epoch", epoch).permutation(n)
    caption_pick = child(seed, "caption-pick", epoch)
    picks = {
        rec.id: int(caption_pick.integers(0, len(rec.captions))) for rec in records
    }
    for start in range(0, n, batch_size):
        chosen = [records[i] for i in order[start : start + batch_size]]
        yield PairBatch(
            images=np.stack([rec.pixels for rec in chosen]),
            captions=[rec.captions[picks[rec.id]] for rec in chosen],
            labels=np.array([rec.scene_label for rec in chosen], dtype=np.int64),
            record_ids=np.array([rec.id for rec in chosen], dtype=np.int64),
        )

