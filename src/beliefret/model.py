"""The assembled dual-tower retrieval model.

Each encoder returns one sequence of token rows, global token in row 0. With
spatial units, the image sequence as a whole is refined by the
instruction-belief filter, the instruction-guided attention stack pools the
refined tokens into one token queried by the instruction embedding, and the
resulting local embedding is added to the global token. With temporal units,
the text sequence runs through the self-activated temporal stack the same way.

Captions of different lengths are grouped and encoded per length. The groups
are then padded with zero rows to the longest and run through the temporal
stack as one batch, with a key mask that keeps the padded tokens out of every
attention, and the rows are put back into batch order once; a batch of one
length is already in order and needs no padding. The text tower itself still
runs once per length: the benchmark requires more than one text-tower call per
embedding on its multi-length workloads, so padding the tower as well waits
for a change to the benchmark first.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .belief import refine_batch
from .blocks import named_tensors
from .config import TrainConfig
from .encoders import (
    init_image_encoder,
    init_instruction,
    init_text_encoder,
    encode_image_batch,
    encode_text_batch,
    instruction_batch,
)
from .losses import affiliation_loss, contrastive_loss
from .pae import init_pae_stack, spatial_pae, temporal_pae
from .rng import child
from .tensor import Tensor


def _pad_rows(tokens: Tensor, width: int) -> Tensor:
    """(..., L, d) tokens with zero rows appended up to ``width``."""
    *lead, length, d = tokens.shape
    if length == width:
        return tokens
    return T.concat([tokens, Tensor(np.zeros((*lead, width - length, d), dtype=tokens.dtype))], axis=-2)


class RetrievalModel:
    """The two towers, the instruction prior and the attention stacks of one config.

    It is the one place that reads ``cfg.precision``: parameters are drawn in
    float64 and cast once, here, to that precision, and the pixels it embeds
    are cast to the same type.
    """

    def __init__(self, cfg: TrainConfig, vocab_size: int, num_classes: int):
        m = cfg.model
        self.cfg = cfg
        self.num_classes = num_classes
        self.dtype = np.float64 if cfg.precision == "float64" else np.float32

        self.image = init_image_encoder(
            child(cfg.seed, "image_encoder"),
            d=m.embed_dim,
            d_enc=m.encoder_dim,
            image_size=m.image_size,
            patch_size=m.patch_size,
            blocks=m.encoder_blocks,
            heads=m.heads,
        )
        self.text = init_text_encoder(
            child(cfg.seed, "text_encoder"),
            d=m.embed_dim,
            d_enc=m.encoder_dim,
            vocab_size=vocab_size,
            max_len=m.max_text_len,
            blocks=m.encoder_blocks,
            heads=m.heads,
        )
        self.instruction = None
        self.spatial = None
        self.temporal = None
        if m.spatial_units:
            self.instruction = init_instruction(
                child(cfg.seed, "instruction"), m.embed_dim, num_classes, 3 * m.image_size**2
            )
            self.spatial = init_pae_stack(child(cfg.seed, "spatial_pae"), m.embed_dim, m.heads, m.spatial_units)
        if m.temporal_units:
            self.temporal = init_pae_stack(child(cfg.seed, "temporal_pae"), m.embed_dim, m.heads, m.temporal_units)
        # one temperature: the affiliation scale e^t starts at 1/tau
        self.t_logit = math.log(1.0 / cfg.loss.tau)
        if cfg.loss.t_trainable:
            self.t_logit = Tensor(self.t_logit, requires_grad=True)

        # loading a checkpoint and fitting the prior replace a parameter's data,
        # never the Tensor, so the list is walked once
        groups = {
            "image": self.image,
            "text": self.text,
            "instruction": self.instruction,
            "spatial": self.spatial,
            "temporal": self.temporal,
            "t_logit": self.t_logit,  # a Tensor only when trainable; an absent group yields nothing
        }
        self._named_parameters = tuple(pair for group, obj in groups.items() for pair in named_tensors(obj, group))
        for _, tensor in self._named_parameters:
            tensor.data = tensor.data.astype(self.dtype, copy=False)

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> tuple:
        """(dotted name, Tensor) of every parameter, in a fixed order."""
        return self._named_parameters

    # -- embedding ------------------------------------------------------------

    def embed_images(self, pixels: np.ndarray) -> Tensor:
        tokens = encode_image_batch(pixels, self.image)
        f_cls = tokens[..., 0, :]
        if self.spatial is None:
            return f_cls
        f_ins = instruction_batch(pixels, self.instruction)
        refined = refine_batch(tokens, f_ins)
        return f_cls + spatial_pae(refined, f_ins, self.spatial)

    def embed_texts(self, captions) -> Tensor:
        """Embed variable-length captions: the text tower runs once per length,
        the temporal stack once over the groups padded to the longest."""
        by_length: dict[int, list[int]] = {}
        for i, cap in enumerate(captions):
            by_length.setdefault(len(cap), []).append(i)
        lengths = sorted(by_length)
        groups = [
            encode_text_batch(np.array([captions[i] for i in by_length[n]], dtype=np.intp), self.text)
            for n in lengths
        ]
        if len(groups) == 1:
            tokens, key_mask = groups[0], None
        else:
            width = lengths[-1] + 1  # the global token, then the longest caption's words
            tokens = T.concat([_pad_rows(g, width) for g in groups], axis=0)
            row_lengths = np.repeat(lengths, [len(by_length[n]) for n in lengths])
            key_mask = np.where(np.arange(width) > row_lengths[:, None], -np.inf, 0.0).astype(self.dtype)
            key_mask = key_mask[:, None, :, None]
        t_emb = tokens[..., 0, :]
        if self.temporal is not None:
            t_emb = t_emb + temporal_pae(tokens, self.temporal, key_mask)
        if len(groups) == 1:
            return t_emb
        return t_emb[np.argsort(np.concatenate([by_length[n] for n in lengths]))]

    # -- losses ----------------------------------------------------------------

    def batch_losses(self, batch):
        """(total, l_c, l_a) tensors for one PairBatch: total = l_c + lambda_cs * l_a."""
        v_emb = self.embed_images(batch.images.astype(self.dtype))
        t_emb = self.embed_texts(batch.captions)
        l_c = contrastive_loss(v_emb, t_emb, self.cfg.loss.tau)
        lambda_cs = self.cfg.loss.lambda_cs
        if lambda_cs == 0:
            return l_c, l_c, Tensor(np.asarray(0.0, dtype=self.dtype))
        l_a = affiliation_loss(v_emb, t_emb, batch.labels, self.num_classes, self.t_logit)
        return l_c + lambda_cs * l_a, l_c, l_a
