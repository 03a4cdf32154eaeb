"""Progressive attention encoding.

One layer (``pael``) is two ``blocks.encoder_block`` calls, the block the
encoder towers use: a self block refines a source sequence, then a cross block
injects it into a companion sequence, with queries from the companion and keys
and values from the freshly refined source, so the two updates are serial
rather than parallel. One stack type, ``PaeStack``, runs a sequence of such
layers; each layer queries the carried sequence with a projected guide and
carries the query branch forward. The two stacks differ only in the guide:

* ``spatial_pae`` guides the belief-filtered visual sequence with one
  projected instruction token per unit, so the first unit pools the k refined
  tokens into one carried token (attention pooling with a single query);
* ``temporal_pae`` runs over the text encoder's whole sequence (global token
  first), and each layer's guide is a projection of the previous layer's
  output; the last layer's guide is the projected head token alone. A batch
  of captions of several lengths runs as one sequence padded to the longest,
  with a key mask that keeps every padded token out of every attention.

Sequences are token rows (..., L, d), as in ``tensor``. Both stacks read the
head token (row 0) of the final carried sequence through one
linear map; the model adds the resulting local embedding to the encoder's
global token to form the final vision/text embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import EncoderBlockParams, LinearParams, encoder_block, init_encoder_block, init_linear, linear
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class PaelParams:
    refine: EncoderBlockParams  # the self block over the source
    inject: EncoderBlockParams  # the cross block from the refined source into the companion


def init_pael(rng: np.random.Generator, d: int, heads: int) -> PaelParams:
    return PaelParams(
        refine=init_encoder_block(rng, d, heads),
        inject=init_encoder_block(rng, d, heads, cross=True),
    )


def pael(h_s: Tensor, h_c: Tensor, params: PaelParams, key_mask=None):
    """Return (refined_s, refined_c); shapes (N, d) and (N', d) are preserved.

    refined_s = FFN(SelfAttn(h_s)); refined_c = FFN(CrossAttn(h_c, refined_s)).
    Both attentions take their keys from the source, so ``key_mask`` (see
    ``tensor.attention``) marks its padded tokens in both.
    """
    s_out = encoder_block(h_s, params.refine, key_mask=key_mask)
    return s_out, encoder_block(h_c, params.inject, kv=s_out, key_mask=key_mask)


@dataclass
class PaeStack:
    layers: list
    guide_w: list  # per-layer (d, d) projections of the guide source
    head: LinearParams


def init_pae_stack(rng: np.random.Generator, d: int, heads: int, n_units: int) -> PaeStack:
    if n_units < 1:
        raise ConfigError("attention stack needs at least one unit")
    layers = [init_pael(rng, d, heads) for _ in range(n_units)]
    guides = [Tensor(rng.normal(0.0, d**-0.5, size=(d, d)), requires_grad=True) for _ in range(n_units)]
    return PaeStack(layers=layers, guide_w=guides, head=init_linear(rng, d, d))


def _run_stack(cur: Tensor, stack: PaeStack, guide, key_mask=None) -> Tensor:
    """Run the units, each guided by guide(w, cur), and read out the head token.

    The head reads only row 0, and every op on the query branch works
    token by token, so the last unit's guide is built from cur[..., :1, :]
    alone. Its self-refinement still runs over every token: it supplies
    the keys and values.
    """
    last = len(stack.layers) - 1
    for i, (w, layer) in enumerate(zip(stack.guide_w, stack.layers)):
        _, cur = pael(cur, guide(w, cur[..., :1, :] if i == last else cur), layer, key_mask=key_mask)
    out = linear(cur, stack.head)  # (..., 1, d)
    return out.reshape((*out.shape[:-2], out.shape[-1]))


def spatial_pae(tokens: Tensor, f_ins: Tensor, stack: PaeStack) -> Tensor:
    """Instruction-guided local embedding from refined tokens (..., k, d).

    Each unit's guide is one token, a fresh projection of the instruction
    embedding f_ins (..., d), with the tokens' leading axes. The first unit
    self-refines the k tokens and lets the guide attend over them; from then
    on the carried sequence is that one token.
    """
    ins_row = f_ins.reshape((*f_ins.shape[:-1], 1, f_ins.shape[-1]))
    return _run_stack(tokens, stack, lambda w, cur: T.affine(w, ins_row))


def temporal_pae(tokens: Tensor, stack: PaeStack, key_mask=None) -> Tensor:
    """Local text embedding from the text encoder's sequence (..., n + 1, d),
    [t_cls, F_t] with the global token in row 0.

    The sequence is carried as it is, and the guide is a projection of the
    carried sequence itself, so the previous step's output activates the next;
    the last unit projects the head token alone, the one token read out.

    ``key_mask`` (..., 1, n + 1, 1) marks the trailing tokens a shorter
    caption was padded with (see ``tensor.attention``); row 0 is never
    padded. Every op works token by token except attention, whose padded
    keys get weight 0, so a padded token never reaches a real one: up to
    rounding, each caption's embedding is the one its unpadded sequence gives.
    """
    return _run_stack(tokens, stack, T.affine, key_mask)
