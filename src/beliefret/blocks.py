"""Transformer building blocks over sequences of token rows (..., L, d).

Pre-norm residual wiring throughout: x + Sublayer(LayerNorm(x)), each sublayer
one node of ``tensor.attention`` or ``tensor.ffn``. Feed-forward
stacks use tanh, which is smooth everywhere so difference-based gradient
verification stays tight.

``encoder_block``, an attention sublayer followed by a feed-forward one, is
the one block of both encoder towers and of both attention stacks: a self
block attends over its own input, a cross block (``cross=True``) takes its
keys and values from another sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class LinearParams:
    w: Tensor  # (out, in)
    b: Tensor  # (out, 1)


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int) -> LinearParams:
    w = rng.normal(0.0, fan_in**-0.5, size=(fan_out, fan_in))
    b = np.zeros((fan_out, 1))
    return LinearParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def linear(x, p: LinearParams) -> Tensor:
    return T.affine(p.w, x, p.b)


@dataclass
class NormParams:
    gamma: Tensor  # (d, 1)
    beta: Tensor  # (d, 1)


def init_norm(d: int) -> NormParams:
    return NormParams(
        Tensor(np.ones((d, 1)), requires_grad=True),
        Tensor(np.zeros((d, 1)), requires_grad=True),
    )


@dataclass
class AttentionParams:
    heads: int
    ln_q: NormParams
    ln_kv: NormParams | None  # present only for cross-attention
    qkv: LinearParams  # (3d, d): the query, key and value projections stacked, in that order
    o: LinearParams


def init_attention(rng: np.random.Generator, d: int, heads: int, cross: bool = False) -> AttentionParams:
    return AttentionParams(
        heads=heads,
        ln_q=init_norm(d),
        ln_kv=init_norm(d) if cross else None,
        qkv=init_linear(rng, d, 3 * d),
        o=init_linear(rng, d, d),
    )


def attention_block(q_in: Tensor, kv_in: Tensor, p: AttentionParams, key_mask=None) -> Tensor:
    """Pre-norm residual multi-head attention, one node; queries from q_in,
    keys/values from kv_in (the same tensor for self-attention), padded keys
    marked by ``key_mask`` as in ``tensor.attention``."""
    ln_kv = (None, None) if p.ln_kv is None else (p.ln_kv.gamma, p.ln_kv.beta)
    return T.attention(
        q_in, kv_in, p.ln_q.gamma, p.ln_q.beta, *ln_kv,
        p.qkv.w, p.qkv.b, p.o.w, p.o.b, p.heads, key_mask,
    )


FFN_RATIO = 2  # hidden width of every feed-forward sublayer, in multiples of d


@dataclass
class FfnParams:
    ln: NormParams
    inner: LinearParams
    out: LinearParams


def init_ffn(rng: np.random.Generator, d: int) -> FfnParams:
    return FfnParams(
        ln=init_norm(d),
        inner=init_linear(rng, d, FFN_RATIO * d),
        out=init_linear(rng, FFN_RATIO * d, d),
    )


def ffn_block(x: Tensor, p: FfnParams) -> Tensor:
    """Pre-norm residual feed-forward, one node."""
    return T.ffn(x, p.ln.gamma, p.ln.beta, p.inner.w, p.inner.b, p.out.w, p.out.b)


@dataclass
class EncoderBlockParams:
    attn: AttentionParams
    ffn: FfnParams


def init_encoder_block(rng: np.random.Generator, d: int, heads: int, cross: bool = False) -> EncoderBlockParams:
    return EncoderBlockParams(
        attn=init_attention(rng, d, heads, cross=cross),
        ffn=init_ffn(rng, d),
    )


def encoder_block(x: Tensor, p: EncoderBlockParams, kv: Tensor | None = None, key_mask=None) -> Tensor:
    """Attention then feed-forward, two nodes; queries from x, keys and values
    from ``kv`` when given (a cross block) and from x otherwise."""
    return ffn_block(attention_block(x, x if kv is None else kv, p.attn, key_mask), p.ffn)


def named_tensors(obj, prefix: str = ""):
    """Yield (dotted_name, Tensor) pairs from nested dataclasses / lists."""
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif is_dataclass(obj) and not isinstance(obj, type):
        for field in fields(obj):
            value = getattr(obj, field.name)
            sub = f"{prefix}.{field.name}" if prefix else field.name
            yield from named_tensors(value, sub)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from named_tensors(value, f"{prefix}.{i}" if prefix else str(i))
