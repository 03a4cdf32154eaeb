"""Toy dual-tower encoders and the scene-prior instruction embedding.

The image encoder embeds non-overlapping patches, prepends a learned global
token, and runs a small pre-norm transformer; the text encoder does the same
over a token embedding table. Both work at an internal width and project the
whole sequence down to the shared embedding dimension with one linear map, so
each returns one (B, d, n + 1) token sequence with its global token in
column 0, as a CLIP tower does. The instruction prior
stands in for a pretrained scene recogniser: a nearest class-mean classifier
over the image's own pixels picks a column of a frozen orthonormal class
table. Its centroids are the training split's per-class mean images, fitted in
closed form; no label is read when an image is embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (
    Dropout,
    LinearParams,
    encoder_block,
    init_encoder_block,
    init_linear,
    linear,
)
from .errors import ConfigError, InputError
from .tensor import Tensor


# -- image encoder -------------------------------------------------------------


@dataclass
class ImageEncoderParams:
    image_size: int
    patch_size: int
    patch: LinearParams  # (d_enc, 3 * p * p)
    cls_token: Tensor  # (d_enc, 1)
    pos: Tensor  # (d_enc, m + 1)
    blocks: list
    proj: LinearParams  # (d, d_enc)
    use_position_encoding: bool = True

    @property
    def tokens(self) -> int:
        side = self.image_size // self.patch_size
        return side * side


def init_image_encoder(
    rng: np.random.Generator,
    d: int,
    d_enc: int,
    image_size: int,
    patch_size: int,
    blocks: int,
    heads: int,
    ffn_ratio: int = 2,
    use_position_encoding: bool = True,
    dtype=np.float64,
) -> ImageEncoderParams:
    if d_enc < d:
        raise ConfigError(f"internal width {d_enc} must be at least the embedding dim {d}")
    if image_size % patch_size != 0:
        raise ConfigError(f"patch size {patch_size} must divide image size {image_size}")
    m = (image_size // patch_size) ** 2
    return ImageEncoderParams(
        image_size=image_size,
        patch_size=patch_size,
        patch=init_linear(rng, 3 * patch_size * patch_size, d_enc, dtype),
        cls_token=Tensor(rng.normal(0.0, 0.5, size=(d_enc, 1)).astype(dtype), requires_grad=True),
        pos=Tensor(rng.normal(0.0, 0.1, size=(d_enc, m + 1)).astype(dtype), requires_grad=True),
        blocks=[init_encoder_block(rng, d_enc, heads, ffn_ratio * d_enc, dtype) for _ in range(blocks)],
        proj=init_linear(rng, d_enc, d, dtype),
        use_position_encoding=use_position_encoding,
    )


def patch_columns(pixels: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, 3, H, W) -> (B, 3 * p * p, m) with patches in row-major grid order."""
    b, c, h, w = pixels.shape
    hp, wp = h // patch_size, w // patch_size
    grid = pixels.reshape(b, c, hp, patch_size, wp, patch_size)
    patches = grid.transpose(0, 2, 4, 1, 3, 5).reshape(b, hp * wp, c * patch_size * patch_size)
    return patches.transpose(0, 2, 1)


def _tower(x: Tensor, params: ImageEncoderParams | TextEncoderParams, drop: Dropout | None) -> Tensor:
    """Shared transformer tower of both encoders.

    Prepends the global token to (B, d_enc, n) inputs, adds the positions of
    the first n + 1 columns, runs the blocks and projects the whole sequence
    to the embedding dimension: (B, d, n + 1), global token in column 0.
    """
    b, _, n = x.shape
    cls = T.broadcast_to(params.cls_token, (b, *params.cls_token.shape))
    x = T.concat([cls, x], axis=-1)
    if params.use_position_encoding:
        x = x + params.pos[:, : n + 1]
    for blk in params.blocks:
        x = encoder_block(x, blk, drop)
    return linear(x, params.proj)


def encode_image_batch(pixels: np.ndarray, params: ImageEncoderParams, drop: Dropout | None = None) -> Tensor:
    """(B, 3, H, W) pixels -> (B, d, m + 1) tokens: f_cls in column 0, then the m patches."""
    pixels = np.asarray(pixels, dtype=params.patch.w.dtype)
    if pixels.shape[1:] != (3, params.image_size, params.image_size):
        raise ConfigError(
            f"image shape {pixels.shape[1:]} does not match configured "
            f"(3, {params.image_size}, {params.image_size})"
        )
    x = linear(Tensor(patch_columns(pixels, params.patch_size)), params.patch)  # (B, d_enc, m)
    return _tower(x, params, drop)


# -- text encoder ---------------------------------------------------------------


@dataclass
class TextEncoderParams:
    vocab_size: int
    max_len: int
    embed: Tensor  # (d_enc, vocab)
    cls_token: Tensor  # (d_enc, 1)
    pos: Tensor  # (d_enc, max_len + 1)
    blocks: list
    proj: LinearParams
    use_position_encoding: bool = True


def init_text_encoder(
    rng: np.random.Generator,
    d: int,
    d_enc: int,
    vocab_size: int,
    max_len: int,
    blocks: int,
    heads: int,
    ffn_ratio: int = 2,
    use_position_encoding: bool = True,
    dtype=np.float64,
) -> TextEncoderParams:
    if d_enc < d:
        raise ConfigError(f"internal width {d_enc} must be at least the embedding dim {d}")
    if vocab_size < 1 or max_len < 1:
        raise ConfigError("text encoder needs a positive vocab size and max length")
    return TextEncoderParams(
        vocab_size=vocab_size,
        max_len=max_len,
        embed=Tensor(rng.normal(0.0, 0.5, size=(d_enc, vocab_size)).astype(dtype), requires_grad=True),
        cls_token=Tensor(rng.normal(0.0, 0.5, size=(d_enc, 1)).astype(dtype), requires_grad=True),
        pos=Tensor(rng.normal(0.0, 0.1, size=(d_enc, max_len + 1)).astype(dtype), requires_grad=True),
        blocks=[init_encoder_block(rng, d_enc, heads, ffn_ratio * d_enc, dtype) for _ in range(blocks)],
        proj=init_linear(rng, d_enc, d, dtype),
        use_position_encoding=use_position_encoding,
    )


def encode_text_batch(ids: np.ndarray, params: TextEncoderParams, drop: Dropout | None = None) -> Tensor:
    """(B, n) equal-length token ids -> (B, d, n + 1) tokens: t_cls in column 0, then F_t."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise InputError(f"token batch must be 2-d, got shape {ids.shape}")
    n = ids.shape[1]
    if not 1 <= n <= params.max_len:
        raise InputError(f"sequence length {n} outside [1, {params.max_len}]")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise InputError(f"token id outside vocabulary of size {params.vocab_size}")
    x = T.transpose(params.embed[:, ids], (1, 0, 2))  # (B, d_enc, n)
    return _tower(x, params, drop)


# -- instruction prior ----------------------------------------------------------------


@dataclass
class InstructionParams:
    """Frozen scene prior: the table column of each image's nearest class mean."""

    table: Tensor  # (d, C) scene-word directions
    centroids: Tensor  # (C, 3 * H * W) class mean pixels; a zero row is never predicted


def init_instruction(
    rng: np.random.Generator, d: int, num_classes: int, pixel_dim: int, dtype=np.float64
) -> InstructionParams:
    """Orthonormal table columns (unit columns when C > d), then random
    centroids that ``fit_instruction`` replaces with class means."""
    if num_classes < 1:
        raise ConfigError("instruction prior needs at least one class")
    if num_classes <= d:
        table, _ = np.linalg.qr(rng.normal(size=(d, num_classes)))
    else:
        table = rng.normal(size=(d, num_classes))
        table /= np.linalg.norm(table, axis=0, keepdims=True)
    centroids = rng.random((num_classes, pixel_dim))
    return InstructionParams(Tensor(table.astype(dtype)), Tensor(centroids.astype(dtype)))


def fit_instruction(params: InstructionParams, pixels: np.ndarray, labels: np.ndarray) -> None:
    """Set each centroid to its class's mean training image; a class with no
    training image gets a zero centroid."""
    flat = pixels.reshape(len(pixels), -1)
    onehot = np.eye(params.centroids.shape[0])[labels]  # (N, C)
    counts = onehot.sum(axis=0)
    means = (onehot.T @ flat) / np.maximum(counts, 1.0)[:, None]
    params.centroids.data = means.astype(params.centroids.data.dtype)


def instruction_batch(pixels: np.ndarray, params: InstructionParams) -> Tensor:
    """(B, 3, H, W) pixels -> f_ins (B, d): the table column of the class whose
    centroid is nearest in cosine, ties going to the lower class.

    Dividing by the image's own norm would not move the argmax, so only the
    centroids are normalised.
    """
    if pixels is None:
        raise InputError("the instruction prior classifies pixels; got none")
    c = params.centroids.data
    norms = np.linalg.norm(c, axis=1)
    unit = c / np.where(norms > 0, norms, 1.0)[:, None]
    scores = np.asarray(pixels).reshape(len(pixels), -1) @ unit.T
    scores[:, norms == 0] = -np.inf
    return T.transpose(params.table[:, np.argmax(scores, axis=1)], (1, 0))
