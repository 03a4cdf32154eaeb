"""Toy dual-tower encoders and the scene-prior instruction embedding.

The image encoder embeds non-overlapping patches, prepends a learned global
token, and runs a small pre-norm transformer; the text encoder does the same
over a token embedding table. Both work at an internal width and project down
to the shared embedding dimension with one linear map. The instruction source
is either a per-class embedding table (frozen by default, standing in for a
pretrained scene recogniser) or a small trainable pixel stack that gets frozen
after a supervised pre-phase.
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

INSTRUCTION_SOURCES = ("frozen-scene-table", "learned-scene-table", "toy-conv-encoder")


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


def _tower(x: Tensor, params: ImageEncoderParams | TextEncoderParams, drop: Dropout | None):
    """Shared transformer tower of both encoders.

    Prepends the global token to (B, d_enc, n) inputs, adds the positions of
    the first n + 1 columns, runs the blocks and projects to the embedding
    dimension; returns (head token (B, d), the other columns (B, d, n)).
    """
    b, _, n = x.shape
    cls = T.broadcast_to(params.cls_token, (b, *params.cls_token.shape))
    x = T.concat([cls, x], axis=-1)
    if params.use_position_encoding:
        pos = params.pos
        if pos.shape[-1] != n + 1:
            pos = T.gather(pos, np.arange(n + 1), axis=-1)
        x = x + pos
    for blk in params.blocks:
        x = encoder_block(x, blk, drop)
    y = linear(x, params.proj)  # (B, d, n + 1)
    head = T.gather(y, np.array([0]), axis=-1).reshape((b, y.shape[-2]))
    return head, T.gather(y, np.arange(1, n + 1), axis=-1)


def encode_image_batch(pixels: np.ndarray, params: ImageEncoderParams, drop: Dropout | None = None):
    """(B, 3, H, W) pixels -> (f_cls (B, d), f_v (B, d, m))."""
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


def encode_text_batch(ids: np.ndarray, params: TextEncoderParams, drop: Dropout | None = None):
    """(B, n) equal-length token ids -> (t_cls (B, d), f_t (B, d, n))."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise InputError(f"token batch must be 2-d, got shape {ids.shape}")
    n = ids.shape[1]
    if not 1 <= n <= params.max_len:
        raise InputError(f"sequence length {n} outside [1, {params.max_len}]")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise InputError(f"token id outside vocabulary of size {params.vocab_size}")
    x = T.transpose(T.gather(params.embed, ids, axis=1), (1, 0, 2))  # (B, d_enc, n)
    return _tower(x, params, drop)


# -- instruction encoder -----------------------------------------------------------


@dataclass
class InstructionParams:
    source: str
    num_classes: int
    table: Tensor | None = None  # (d, C)
    conv_inner: LinearParams | None = None
    conv_out: LinearParams | None = None
    patch_size: int = 4
    frozen: bool = True


def init_instruction(
    rng: np.random.Generator,
    source: str,
    d: int,
    num_classes: int,
    patch_size: int = 4,
    conv_hidden: int = 32,
    dtype=np.float64,
) -> InstructionParams:
    if source not in INSTRUCTION_SOURCES:
        raise ConfigError(f"unknown instruction source {source!r}")
    if num_classes < 1:
        raise ConfigError("instruction encoder needs at least one class")
    if source == "toy-conv-encoder":
        return InstructionParams(
            source=source,
            num_classes=num_classes,
            conv_inner=init_linear(rng, 3 * patch_size * patch_size, conv_hidden, dtype),
            conv_out=init_linear(rng, conv_hidden, d, dtype),
            patch_size=patch_size,
            frozen=False,
        )
    if num_classes <= d:
        # orthonormal class directions
        q, _ = np.linalg.qr(rng.normal(size=(d, num_classes)))
        table = q
    else:
        table = rng.normal(size=(d, num_classes))
        table /= np.linalg.norm(table, axis=0, keepdims=True)
    frozen = source == "frozen-scene-table"
    return InstructionParams(
        source=source,
        num_classes=num_classes,
        table=Tensor(table.astype(dtype), requires_grad=not frozen),
        frozen=frozen,
    )


def _conv_embed(pixels: np.ndarray, params: InstructionParams) -> Tensor:
    cols = Tensor(patch_columns(np.asarray(pixels, dtype=params.conv_inner.w.dtype), params.patch_size))
    h = T.ttanh(linear(cols, params.conv_inner))  # (B, hidden, m)
    pooled = h.mean(axis=-1, keepdims=True)  # (B, hidden, 1)
    out = linear(pooled, params.conv_out)  # (B, d, 1)
    return out.reshape(out.shape[:-1])


def instruction_batch(labels: np.ndarray, pixels: np.ndarray | None, params: InstructionParams) -> Tensor:
    """(B,) labels and optionally (B, 3, H, W) pixels -> f_ins (B, d)."""
    if params.source == "toy-conv-encoder":
        if pixels is None:
            raise InputError("toy-conv instruction source needs image pixels")
        return _conv_embed(pixels, params)
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= params.num_classes):
        raise InputError(f"scene label outside [0, {params.num_classes})")
    return T.transpose(T.gather(params.table, labels.astype(np.intp), axis=1), (1, 0))


def freeze_instruction(params: InstructionParams) -> None:
    for t in (params.table, *(() if params.conv_inner is None else (params.conv_inner.w, params.conv_inner.b)),
              *(() if params.conv_out is None else (params.conv_out.w, params.conv_out.b))):
        if t is not None:
            t.requires_grad = False
            t.grad = None
    params.frozen = True


def pretrain_instruction_conv(
    params: InstructionParams,
    pixels: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    steps: int = 100,
    lr: float = 0.5,
    batch_size: int = 32,
    rng: np.random.Generator | None = None,
) -> None:
    """Fit the toy pixel stack with a temporary classification head, then freeze it."""
    if params.source != "toy-conv-encoder":
        raise ConfigError("pre-phase only applies to the toy-conv instruction source")
    rng = rng if rng is not None else np.random.default_rng(0)
    d = params.conv_out.w.shape[0]
    head = init_linear(rng, d, num_classes, dtype=params.conv_out.w.dtype)
    trainable = [
        ("inner.w", params.conv_inner.w),
        ("inner.b", params.conv_inner.b),
        ("out.w", params.conv_out.w),
        ("out.b", params.conv_out.b),
        ("head.w", head.w),
        ("head.b", head.b),
    ]
    n = pixels.shape[0]
    with T.trap_nonfinite():
        for _ in range(steps):
            pick = rng.integers(0, n, size=min(batch_size, n))
            emb = _conv_embed(pixels[pick], params)  # (b, d)
            logits = linear(emb.reshape((*emb.shape, 1)), head).reshape((len(pick), num_classes))
            onehot = Tensor(np.eye(num_classes, dtype=logits.dtype)[labels[pick]])
            loss = -(T.log_softmax(logits, axis=-1) * onehot).sum() * (1.0 / len(pick))
            loss.backward()
            T.sgd_step(trainable, lr)
    freeze_instruction(params)
