"""Instruction-feature belief weights and hard/soft token refinement.

The belief vector is a softmax over inner products between the instruction
embedding and each of the m+1 visual token columns (global token first). Hard
refinement keeps the top-k columns by belief; soft refinement reweights every
column by its belief plus the inverse square root of its rank. Ranks and sort
orders are piecewise constant, so gradients flow through belief values and
token features but never through the ordering itself.

``refine_batch`` is the only implementation: the model calls it, and
``beliefret verify`` checks it directly (gradients, the rank and hard-filter
oracles, the soft-weight bounds and the argmax scale invariance).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .tensor import Tensor

MODES = ("hard", "soft-sequence", "soft-aggregate")


def _strict_rank(values: np.ndarray) -> np.ndarray:
    # rank_j = 1 + #{k : v_k < v_j}, computed along the last axis
    return 1 + (values[..., None, :] < values[..., :, None]).sum(axis=-1)


def refine_batch(features: Tensor, f_ins: Tensor, mode: str, k: int = 0) -> Tensor:
    """Batched refinement: features (B, d, m+1), f_ins (B, d) -> (B, d, k').

    Returns k columns for hard mode, ordered by descending belief with ties
    toward the lower column index; m+1 columns for soft-sequence, each scaled
    by belief + 1/sqrt(rank); 1 column, their sum, for soft-aggregate.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown belief mode {mode!r}")
    b, d, length = features.shape
    if f_ins.shape != (b, d):
        raise DimensionError(f"instruction batch {f_ins.shape} does not match features {features.shape}")
    scores = T.matmul(f_ins.reshape((b, 1, d)), features)  # (B, 1, m+1)
    beliefs = T.softmax(scores, axis=-1)
    if mode == "hard":
        if not 1 <= k <= length:
            raise ConfigError(f"filter size {k} outside [1, {length}]")
        order = np.argsort(-beliefs.data[:, 0, :], axis=-1, kind="stable")[:, :k]
        return features[np.arange(b)[:, None, None], np.arange(d)[:, None], order[:, None, :]]
    rank = _strict_rank(beliefs.data[:, 0, :])  # (B, m+1)
    boost = Tensor((1.0 / np.sqrt(rank.astype(beliefs.dtype)))[:, None, :])
    weights = beliefs + boost
    scaled = features * weights
    if mode == "soft-sequence":
        return scaled
    return scaled.sum(axis=-1, keepdims=True)
