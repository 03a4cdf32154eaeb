"""Progressive attention encoding.

One layer (``pael``) self-refines a source sequence and then injects it into a
companion sequence through cross-attention: queries come from the companion,
keys and values from the freshly refined source, so the two updates are serial
rather than parallel. One stack type, ``PaeStack``, runs a sequence of such
layers; each layer queries the carried sequence with a projected guide and
carries the query branch forward. The two stacks differ only in the guide:

* ``spatial_pae`` guides the belief-filtered visual sequence with one
  projected instruction column per unit, so the first unit pools the k refined
  tokens into one carried column (attention pooling with a single query);
* ``temporal_pae`` runs over the text encoder's whole sequence (global token
  first), and each layer's guide is a projection of the previous layer's
  output; the last layer's guide is the projected head column alone.

Both read the head token (column 0) of the final carried sequence through one
linear map; the model adds the resulting local embedding to the encoder's
global token to form the final vision/text embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (
    AttentionParams,
    FfnParams,
    LinearParams,
    attention_block,
    ffn_block,
    init_attention,
    init_ffn,
    init_linear,
    linear,
)
from .errors import ConfigError, DimensionError
from .tensor import Tensor


@dataclass
class PaelParams:
    self_attn: AttentionParams
    self_ffn: FfnParams
    cross_attn: AttentionParams
    cross_ffn: FfnParams


def init_pael(rng: np.random.Generator, d: int, heads: int, dtype=np.float64) -> PaelParams:
    return PaelParams(
        self_attn=init_attention(rng, d, heads, cross=False, dtype=dtype),
        self_ffn=init_ffn(rng, d, dtype),
        cross_attn=init_attention(rng, d, heads, cross=True, dtype=dtype),
        cross_ffn=init_ffn(rng, d, dtype),
    )


def pael(h_s: Tensor, h_c: Tensor, params: PaelParams):
    """Return (refined_s, refined_c); shapes (d, N) and (d, N') are preserved.

    refined_s = FFN(SelfAttn(h_s)); refined_c = FFN(CrossAttn(h_c, refined_s)).
    """
    if h_s.shape[-2] != h_c.shape[-2]:
        raise DimensionError(f"feature dims differ: {h_s.shape} vs {h_c.shape}")
    s_out = ffn_block(attention_block(h_s, h_s, params.self_attn), params.self_ffn)
    c_out = ffn_block(attention_block(h_c, s_out, params.cross_attn), params.cross_ffn)
    return s_out, c_out


@dataclass
class PaeStack:
    layers: list
    guide_w: list  # per-layer (d, d) projections of the guide source
    head: LinearParams


def init_pae_stack(rng: np.random.Generator, d: int, heads: int, n_units: int, dtype=np.float64) -> PaeStack:
    if n_units < 1:
        raise ConfigError("attention stack needs at least one unit")
    layers = [init_pael(rng, d, heads, dtype=dtype) for _ in range(n_units)]
    guides = [
        Tensor(rng.normal(0.0, d**-0.5, size=(d, d)).astype(dtype), requires_grad=True)
        for _ in range(n_units)
    ]
    return PaeStack(layers=layers, guide_w=guides, head=init_linear(rng, d, d, dtype))


def _run_stack(cur: Tensor, stack: PaeStack, guide) -> Tensor:
    """Run the units, each guided by guide(w, cur), and read out the head token.

    The head reads only column 0, and every op on the query branch works
    column by column, so the last unit's guide is built from cur[..., :1]
    alone. Its self-refinement still runs over every column: it supplies
    the keys and values.
    """
    last = len(stack.layers) - 1
    for i, (w, layer) in enumerate(zip(stack.guide_w, stack.layers)):
        _, cur = pael(cur, guide(w, cur[..., :1] if i == last else cur), layer)
    out = linear(cur, stack.head)  # (..., d, 1)
    return out.reshape(out.shape[:-1])


def spatial_pae(tokens: Tensor, f_ins: Tensor, stack: PaeStack) -> Tensor:
    """Instruction-guided local embedding from refined tokens (..., d, k).

    Each unit's guide is one column, a fresh projection of the instruction
    embedding f_ins (..., d), with the tokens' leading axes. The first unit
    self-refines the k tokens and lets the guide attend over them; from then
    on the carried sequence is that one column.
    """
    ins_col = f_ins.reshape((*f_ins.shape, 1))
    return _run_stack(tokens, stack, lambda w, cur: T.matmul(w, ins_col))


def temporal_pae(tokens: Tensor, stack: PaeStack) -> Tensor:
    """Local text embedding from the text encoder's sequence (..., d, n + 1),
    [t_cls, F_t] with the global token in column 0.

    The sequence is carried as it is, and the guide is a projection of the
    carried sequence itself, so the previous step's output activates the next;
    the last unit projects the head column alone, the one column read out.
    """
    return _run_stack(tokens, stack, T.matmul)
