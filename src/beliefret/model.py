"""The assembled dual-tower retrieval model.

Each encoder returns one token sequence, global token in column 0. When the
spatial stack is enabled, the image sequence as a whole is refined by the
instruction-belief filter and the instruction-guided attention stack, and the
resulting local embedding is added to the global token. The text sequence
optionally runs through the self-activated temporal stack the same way.
Captions of different lengths are grouped and encoded per length, then put
back into batch order.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .belief import refine_batch
from .blocks import Dropout, named_tensors
from .config import TrainConfig
from .encoders import (
    init_image_encoder,
    init_instruction,
    init_text_encoder,
    encode_image_batch,
    encode_text_batch,
    instruction_batch,
)
from .errors import ConfigError
from .losses import affiliation_loss, contrastive_loss, total_loss, LabeledBatch
from .pae import init_pae_stack, spatial_pae, temporal_pae
from .rng import child
from .tensor import Tensor


class RetrievalModel:
    def __init__(self, cfg: TrainConfig, vocab_size: int, num_classes: int):
        m = cfg.model
        if vocab_size < 1:
            raise ConfigError("model needs a positive vocabulary size")
        dtype = np.float64 if cfg.precision == "float64" else np.float32
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.num_classes = num_classes
        self.dtype = dtype

        self.image = init_image_encoder(
            child(cfg.seed, "image_encoder"),
            d=m.embed_dim,
            d_enc=m.encoder_dim,
            image_size=m.image_size,
            patch_size=m.patch_size,
            blocks=m.encoder_blocks,
            heads=m.heads,
            ffn_ratio=m.ffn_ratio,
            use_position_encoding=m.use_position_encoding,
            dtype=dtype,
        )
        self.text = init_text_encoder(
            child(cfg.seed, "text_encoder"),
            d=m.embed_dim,
            d_enc=m.encoder_dim,
            vocab_size=vocab_size,
            max_len=m.max_text_len,
            blocks=m.encoder_blocks,
            heads=m.heads,
            ffn_ratio=m.ffn_ratio,
            use_position_encoding=m.use_position_encoding,
            dtype=dtype,
        )
        self.instruction = None
        self.spatial = None
        self.temporal = None
        if cfg.use_spatial_pae:
            self.instruction = init_instruction(
                child(cfg.seed, "instruction"), m.embed_dim, num_classes, 3 * m.image_size**2, dtype=dtype
            )
            self.spatial = init_pae_stack(
                child(cfg.seed, "spatial_pae"), m.embed_dim, m.heads, m.spatial_units, dtype=dtype
            )
            if cfg.belief.mode == "hard" and cfg.belief.filter_k > self.image.tokens + 1:
                raise ConfigError(
                    f"belief.filter_k={cfg.belief.filter_k} exceeds the {self.image.tokens + 1} visual tokens"
                )
        if cfg.use_temporal_pae:
            self.temporal = init_pae_stack(
                child(cfg.seed, "temporal_pae"), m.embed_dim, m.heads, m.temporal_units, dtype=dtype
            )
        if cfg.loss.t_trainable:
            self.t_logit = Tensor(np.asarray(cfg.loss.t_logit, dtype=dtype), requires_grad=True)
        else:
            self.t_logit = cfg.loss.t_logit

    # -- parameters ---------------------------------------------------------

    def _groups(self) -> dict:
        groups = {"image": self.image, "text": self.text}
        if self.instruction is not None:
            groups["instruction"] = self.instruction
        if self.spatial is not None:
            groups["spatial"] = self.spatial
        if self.temporal is not None:
            groups["temporal"] = self.temporal
        if isinstance(self.t_logit, Tensor):
            groups["t_logit"] = self.t_logit
        return groups

    def named_parameters(self):
        return [pair for group, obj in self._groups().items() for pair in named_tensors(obj, group)]

    def active_components(self):
        parts = ["image_encoder", "text_encoder", "contrastive_loss"]
        if self.spatial is not None:
            parts += ["instruction_encoder", "belief_filter", "spatial_pae"]
        if self.temporal is not None:
            parts.append("temporal_pae")
        if self.cfg.loss.lambda_cs > 0:
            parts.append("affiliation_loss")
        return tuple(parts)

    # -- embedding ------------------------------------------------------------

    def embed_images(self, pixels: np.ndarray, drop: Dropout | None = None) -> Tensor:
        tokens = encode_image_batch(pixels, self.image, drop)
        f_cls = tokens[..., 0]
        if self.spatial is None:
            return f_cls
        f_ins = instruction_batch(pixels, self.instruction)
        refined = refine_batch(tokens, f_ins, self.cfg.belief.mode, self.cfg.belief.filter_k)
        return f_cls + spatial_pae(refined, f_ins, self.spatial, drop)

    def _embed_text_group(self, ids: np.ndarray, drop: Dropout | None) -> Tensor:
        tokens = encode_text_batch(ids, self.text, drop)
        t_cls = tokens[..., 0]
        if self.temporal is None:
            return t_cls
        return t_cls + temporal_pae(tokens, self.temporal, drop)

    def embed_texts(self, captions, drop: Dropout | None = None) -> Tensor:
        """Embed variable-length captions by grouping equal lengths."""
        by_length: dict[int, list[int]] = {}
        for i, cap in enumerate(captions):
            by_length.setdefault(len(cap), []).append(i)
        chunks = []
        order = []
        for length in sorted(by_length):
            rows = by_length[length]
            ids = np.array([captions[i] for i in rows], dtype=np.intp)
            chunks.append(self._embed_text_group(ids, drop))
            order.extend(rows)
        stacked = chunks[0] if len(chunks) == 1 else T.concat(chunks, axis=0)
        return stacked[np.argsort(np.array(order))]

    # -- losses ----------------------------------------------------------------

    def batch_losses(self, batch, drop: Dropout | None = None):
        """(total, l_c, l_a) tensors for one PairBatch."""
        v_emb = self.embed_images(batch.images.astype(self.dtype), drop)
        t_emb = self.embed_texts(batch.captions, drop)
        l_c = contrastive_loss(v_emb, t_emb, self.cfg.loss.tau)
        if self.cfg.loss.lambda_cs > 0:
            labelled = LabeledBatch(v_emb, t_emb, batch.labels, num_classes=self.num_classes)
            l_a = affiliation_loss(labelled, self.t_logit, self.cfg.loss.epsilon)
        else:
            l_a = Tensor(np.asarray(0.0, dtype=self.dtype))
        return total_loss(l_c, l_a, self.cfg.loss.lambda_cs), l_c, l_a
