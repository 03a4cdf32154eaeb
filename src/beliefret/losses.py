"""Contrastive alignment objectives.

``contrastive_loss`` is the symmetric pairwise form over cosine similarities:
row- and column-softmax cross-entropy against the matched diagonal, averaged
and summed over both directions. ``affiliation_loss`` replaces each sample's
counterpart with its class prototype (the l2-normalised per-class mean of the
other modality), pulling embeddings toward cross-modal cluster centers; the
two directional cross-entropies are averaged with a 1/2 factor. The total
objective is their weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError
from .tensor import Tensor

DEFAULT_TAU = 0.07
DEFAULT_T_LOGIT = math.log(1.0 / DEFAULT_TAU)  # e^t = 1/tau
EPSILON = 1e-12  # keeps an empty class's prototype scale finite
DEFAULT_LAMBDA_CS = 1.0


@dataclass
class LossConfig:
    tau: float = DEFAULT_TAU
    t_logit: float = DEFAULT_T_LOGIT
    t_trainable: bool = False
    lambda_cs: float = DEFAULT_LAMBDA_CS

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        if self.lambda_cs < 0:
            raise ConfigError(f"lambda_cs must be nonnegative, got {self.lambda_cs}")


@dataclass
class LabeledBatch:
    v: Tensor  # (B, d) image embeddings
    t: Tensor  # (B, d) text embeddings
    labels: np.ndarray  # (B,), values in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        b = self.v.shape[0]
        if b < 1:
            raise InputError("batch must contain at least one pair")
        if self.t.shape != self.v.shape or self.labels.shape != (b,):
            raise InputError(
                f"mismatched batch shapes: v {self.v.shape}, t {self.t.shape}, labels {self.labels.shape}"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise InputError(f"label outside [0, {self.num_classes})")


def _diagonal_mean_log_softmax(logits: Tensor, axis: int) -> Tensor:
    b = logits.shape[0]
    eye = Tensor(np.eye(b, dtype=logits.dtype))
    return (T.log_softmax(logits, axis=axis) * eye).sum() * (1.0 / b)


def contrastive_loss(v: Tensor, t: Tensor, tau: float = DEFAULT_TAU) -> Tensor:
    """Symmetric pairwise loss over cosine similarities (rows normalised here)."""
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if v.ndim != 2 or v.shape != t.shape:
        raise InputError(f"embedding shapes differ: {v.shape} vs {t.shape}")
    if v.shape[0] < 1:
        raise InputError("contrastive loss needs at least one pair")
    vn = T.l2_normalize(v, axis=-1)
    tn = T.l2_normalize(t, axis=-1)
    logits = T.matmul(vn, tn.swapaxes(-1, -2)) * (1.0 / tau)
    row_term = _diagonal_mean_log_softmax(logits, axis=-1)
    col_term = _diagonal_mean_log_softmax(logits, axis=-2)
    return -(row_term + col_term)


def affiliation_loss(batch: LabeledBatch, t_logit: float | Tensor = DEFAULT_T_LOGIT) -> Tensor:
    """Cluster-prototype symmetric loss over a labelled batch.

    Normalise both sides, build per-class prototypes scaled by 1/(count + eps),
    align each sample with its class center of the other modality, and score
    e^t-scaled similarities against the diagonal with cross-entropy from both
    directions, averaged with a 1/2 factor.
    """
    b = batch.v.shape[0]
    c = batch.num_classes
    vn = T.l2_normalize(batch.v, axis=-1)
    tn = T.l2_normalize(batch.t, axis=-1)

    onehot = np.eye(c, dtype=vn.dtype)[batch.labels]  # (B, C)
    counts = onehot.sum(axis=0) + EPSILON  # (C,)
    y = Tensor(onehot)
    y_t = Tensor(onehot.T)
    inv_counts = Tensor((1.0 / counts)[:, None])

    v_proto = T.matmul(y_t, vn) * inv_counts  # (C, d)
    t_proto = T.matmul(y_t, tn) * inv_counts
    v_centers = T.matmul(y, v_proto)  # (B, d), sample-aligned
    t_centers = T.matmul(y, t_proto)

    if isinstance(t_logit, Tensor):
        scale = T.texp(t_logit).reshape((1, 1))
    else:
        scale = math.exp(t_logit)
    z_i2t = T.matmul(vn, t_centers.swapaxes(-1, -2)) * scale
    z_t2i = T.matmul(tn, v_centers.swapaxes(-1, -2)) * scale
    ce_i2t = -_diagonal_mean_log_softmax(z_i2t, axis=-1)
    ce_t2i = -_diagonal_mean_log_softmax(z_t2i, axis=-1)
    return (ce_i2t + ce_t2i) * 0.5


def total_loss(l_c, l_a, lambda_cs: float = DEFAULT_LAMBDA_CS):
    """Weighted sum of the pairwise and affiliation terms."""
    if lambda_cs < 0:
        raise ConfigError(f"lambda_cs must be nonnegative, got {lambda_cs}")
    return l_c + lambda_cs * l_a
