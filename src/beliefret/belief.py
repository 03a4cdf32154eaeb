"""Instruction-feature belief weights and soft-sequence token refinement.

The belief vector is a softmax over inner products between the instruction
embedding and each of the m+1 visual token rows (global token first).
Refinement keeps every token and reweights it by its belief plus the inverse
square root of its rank. The rank runs upward from the lowest belief: rank 1
is the least-believed token, so it gets the largest boost, 1, and the
most-believed of m+1 tokens gets 1/sqrt(m+1) (about 0.24 for the 17 tokens of
the desk model). Ranks are piecewise constant, so gradients flow through
belief values and token features but never through the ordering itself.

``refine_batch`` is the only implementation: the model calls it, and
``beliefret verify`` checks it directly (gradients, the rank oracle, the
soft-weight bounds and the rank boost's scale invariance).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor


def _strict_rank(values: np.ndarray) -> np.ndarray:
    # rank_j = 1 + #{k : v_k < v_j} along the last axis, so the lowest value has rank 1
    return 1 + (values[..., None, :] < values[..., :, None]).sum(axis=-1)


def refine_batch(features: Tensor, f_ins: Tensor) -> Tensor:
    """Batched refinement: features (B, m+1, d), f_ins (B, d) -> (B, m+1, d),
    each token row scaled by belief + 1/sqrt(rank)."""
    b, _, d = features.shape
    if f_ins.shape != (b, d):
        raise DimensionError(f"instruction batch {f_ins.shape} does not match features {features.shape}")
    scores = T.matmul(features, f_ins.reshape((b, d, 1)))  # (B, m+1, 1)
    beliefs = T.softmax(scores, axis=-2)
    rank = _strict_rank(beliefs.data[:, :, 0])  # (B, m+1)
    boost = Tensor((1.0 / np.sqrt(rank.astype(beliefs.dtype)))[:, :, None])
    return features * (beliefs + boost)
