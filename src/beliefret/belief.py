"""Instruction-feature belief weights and hard/soft token refinement.

The belief vector is a softmax over inner products between the instruction
embedding and each of the m+1 visual token columns (global token first). Hard
refinement keeps the top-k columns by belief; soft refinement reweights every
column by its belief plus the inverse square root of its rank. Ranks and sort
orders are piecewise constant, so gradients flow through belief values and
token features but never through the ordering itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, InputError
from .tensor import Tensor

MODES = ("hard", "soft-sequence", "soft-aggregate")


@dataclass
class BeliefMatrix:
    """Probability vector over the m+1 token columns."""

    weights: Tensor  # (m+1,)

    def __post_init__(self):
        v = self.weights.data
        if v.ndim != 1:
            raise InputError(f"belief weights must be a vector, got shape {v.shape}")
        if (v < 0).any() or abs(float(v.sum()) - 1.0) > 1e-6:
            raise InputError("belief weights must be nonnegative and sum to 1")


@dataclass
class RankVector:
    """1-based strict-less-than ranks; ties share a rank."""

    ranks: np.ndarray

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        if self.ranks.size and self.ranks.min() != 1:
            raise InputError("rank vectors always contain rank 1")


@dataclass
class RefinedFeatures:
    mode: str
    tokens: Tensor  # (d, k)
    kept_indices: np.ndarray | None = None
    weights: Tensor | None = field(default=None)  # soft modes: per-token weights


def belief_matrix(f_ins: Tensor, features: Tensor) -> BeliefMatrix:
    """Softmax of instruction/token inner products; features are (d, m+1)."""
    f_ins = T._as_tensor(f_ins)
    features = T._as_tensor(features)
    if f_ins.ndim != 1 or features.ndim != 2 or f_ins.shape[0] != features.shape[0]:
        raise DimensionError(
            f"instruction dim {f_ins.shape} does not match features {features.shape}"
        )
    scores = T.matmul(f_ins.reshape((1, -1)), features)  # (1, m+1)
    weights = T.softmax(scores, axis=-1).reshape((features.shape[1],))
    return BeliefMatrix(weights)


def _strict_rank(values: np.ndarray) -> np.ndarray:
    # rank_j = 1 + #{k : v_k < v_j}, computed along the last axis
    return 1 + (values[..., None, :] < values[..., :, None]).sum(axis=-1)


def ranks(m: BeliefMatrix) -> RankVector:
    """Rank of each belief entry: one plus the count of strictly smaller entries."""
    return RankVector(_strict_rank(m.weights.data))


def hard_filter(features: Tensor, m: BeliefMatrix, k: int) -> RefinedFeatures:
    """Keep the k highest-belief columns, ordered by descending belief.

    Ties break toward the lower original column index (stable sort).
    """
    features = T._as_tensor(features)
    length = features.shape[-1]
    if not 1 <= k <= length:
        raise ConfigError(f"filter size {k} outside [1, {length}]")
    order = np.argsort(-m.weights.data, kind="stable")[:k]
    return RefinedFeatures("hard", T.gather(features, order, axis=-1), kept_indices=order)


def soft_reweight(
    features: Tensor, m: BeliefMatrix, mode: str = "soft-sequence", rank_override: RankVector | None = None
) -> RefinedFeatures:
    """Reweight every column by belief + 1/sqrt(rank).

    soft-sequence keeps all m+1 columns (each scaled); soft-aggregate sums the
    scaled columns into a single vector. ``rank_override`` pins ranks to a
    precomputed vector, e.g. to freeze them during gradient verification.
    """
    if mode not in ("soft-sequence", "soft-aggregate"):
        raise ConfigError(f"unknown soft mode {mode!r}")
    features = T._as_tensor(features)
    r = rank_override if rank_override is not None else ranks(m)
    boost = Tensor(1.0 / np.sqrt(r.ranks.astype(np.float64)))
    weights = m.weights + boost  # gradient flows through beliefs, not ranks
    scaled = features * weights
    if mode == "soft-sequence":
        return RefinedFeatures(mode, scaled, weights=weights)
    return RefinedFeatures(mode, scaled.sum(axis=-1, keepdims=True), weights=weights)


def refine_batch(features: Tensor, f_ins: Tensor, mode: str, k: int = 0) -> Tensor:
    """Batched refinement: features (B, d, m+1), f_ins (B, d) -> (B, d, k').

    Returns k columns for hard mode, m+1 for soft-sequence, 1 for soft-aggregate.
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
        return T.take_along_last(features, order[:, None, :])
    rank = _strict_rank(beliefs.data[:, 0, :])  # (B, m+1)
    boost = Tensor((1.0 / np.sqrt(rank.astype(beliefs.dtype)))[:, None, :])
    weights = beliefs + boost
    scaled = features * weights
    if mode == "soft-sequence":
        return scaled
    return scaled.sum(axis=-1, keepdims=True)
