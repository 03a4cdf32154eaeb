"""Transformer building blocks over column-layout sequences (..., d, L).

Pre-norm residual wiring throughout: x + Sublayer(LayerNorm(x)), each sublayer
one node of ``tensor.attention`` or ``tensor.ffn``. Feed-forward
stacks use tanh, which is smooth everywhere so difference-based gradient
verification stays tight.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor


@dataclass
class LinearParams:
    w: Tensor  # (out, in)
    b: Tensor  # (out, 1)


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float64) -> LinearParams:
    w = rng.normal(0.0, fan_in**-0.5, size=(fan_out, fan_in)).astype(dtype)
    b = np.zeros((fan_out, 1), dtype=dtype)
    return LinearParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


def linear(x, p: LinearParams) -> Tensor:
    return T.affine(p.w, x, p.b)


@dataclass
class NormParams:
    gamma: Tensor  # (d, 1)
    beta: Tensor  # (d, 1)


def init_norm(d: int, dtype=np.float64) -> NormParams:
    return NormParams(
        Tensor(np.ones((d, 1), dtype=dtype), requires_grad=True),
        Tensor(np.zeros((d, 1), dtype=dtype), requires_grad=True),
    )


@dataclass
class AttentionParams:
    heads: int
    ln_q: NormParams
    ln_kv: NormParams | None  # present only for cross-attention
    q: LinearParams
    k: LinearParams
    v: LinearParams
    o: LinearParams


def init_attention(
    rng: np.random.Generator, d: int, heads: int, cross: bool = False, dtype=np.float64
) -> AttentionParams:
    if d % heads != 0:
        raise ConfigError(f"head count {heads} must divide feature dim {d}")
    return AttentionParams(
        heads=heads,
        ln_q=init_norm(d, dtype),
        ln_kv=init_norm(d, dtype) if cross else None,
        q=init_linear(rng, d, d, dtype),
        k=init_linear(rng, d, d, dtype),
        v=init_linear(rng, d, d, dtype),
        o=init_linear(rng, d, d, dtype),
    )


def attention_block(q_in: Tensor, kv_in: Tensor, p: AttentionParams) -> Tensor:
    """Pre-norm residual multi-head attention, one node; queries from q_in,
    keys/values from kv_in (the same tensor for self-attention)."""
    if q_in.shape[-2] != kv_in.shape[-2]:
        raise DimensionError(f"feature dims differ: {q_in.shape} vs {kv_in.shape}")
    if kv_in is q_in:
        ln_kv = (None, None)
    elif p.ln_kv is None:
        raise ContractError("cross-attention call on self-attention parameters")
    else:
        ln_kv = (p.ln_kv.gamma, p.ln_kv.beta)
    return T.attention(
        q_in, kv_in, p.ln_q.gamma, p.ln_q.beta, *ln_kv,
        p.q.w, p.q.b, p.k.w, p.k.b, p.v.w, p.v.b, p.o.w, p.o.b, p.heads,
    )


FFN_RATIO = 2  # hidden width of every feed-forward sublayer, in multiples of d


@dataclass
class FfnParams:
    ln: NormParams
    inner: LinearParams
    out: LinearParams


def init_ffn(rng: np.random.Generator, d: int, dtype=np.float64) -> FfnParams:
    return FfnParams(
        ln=init_norm(d, dtype),
        inner=init_linear(rng, d, FFN_RATIO * d, dtype),
        out=init_linear(rng, FFN_RATIO * d, d, dtype),
    )


def ffn_block(x: Tensor, p: FfnParams) -> Tensor:
    """Pre-norm residual feed-forward, one node."""
    return T.ffn(x, p.ln.gamma, p.ln.beta, p.inner.w, p.inner.b, p.out.w, p.out.b)


@dataclass
class EncoderBlockParams:
    attn: AttentionParams
    ffn: FfnParams


def init_encoder_block(rng: np.random.Generator, d: int, heads: int, dtype=np.float64) -> EncoderBlockParams:
    return EncoderBlockParams(
        attn=init_attention(rng, d, heads, cross=False, dtype=dtype),
        ffn=init_ffn(rng, d, dtype),
    )


def encoder_block(x: Tensor, p: EncoderBlockParams) -> Tensor:
    return ffn_block(attention_block(x, x, p.attn), p.ffn)


def named_tensors(obj, prefix: str = ""):
    """Yield (dotted_name, Tensor) pairs from nested dataclasses / lists / dicts."""
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
    elif isinstance(obj, dict):
        for key in obj:
            yield from named_tensors(obj[key], f"{prefix}.{key}" if prefix else str(key))
