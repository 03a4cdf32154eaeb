"""Similarity tables and the bidirectional recall@K protocol.

Captions retrieve images (each caption has exactly one ground-truth image, its
owner) and images retrieve captions (an image's ground truth is every caption
it owns).
Ranking is by descending similarity with ties broken toward the lower
candidate index, and a report's mean recall ``mr`` is read off its six R@{1,5,10} values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InputError

DIRECTIONS = ("i2t", "t2i")
_RECALL_KEYS = ("i2t_r1", "i2t_r5", "i2t_r10", "t2i_r1", "t2i_r5", "t2i_r10")
REPORT_KEYS = (*_RECALL_KEYS, "mr")
REPORT_KS = (1, 5, 10)
# Image rows per comparison pass or finiteness check: 16 x 5000 captions keeps each mask at 80 KB.
_RANK_BLOCK = 16


@dataclass
class RetrievalTable:
    sim: np.ndarray  # (N_img, N_txt)
    owner: np.ndarray  # (N_txt,) caption index -> its one ground-truth image index

    def __post_init__(self):
        self.sim = np.asarray(self.sim, dtype=np.float64)
        if self.sim.ndim != 2:
            raise InputError(f"similarity matrix must be 2-d, got shape {self.sim.shape}")
        n_img, n_txt = self.sim.shape
        # a block of rows at a time: one N x 5N boolean mask would be the read path's peak memory
        for r0 in range(0, n_img, _RANK_BLOCK):
            if not np.isfinite(self.sim[r0 : r0 + _RANK_BLOCK]).all():
                raise InputError("similarity matrix contains non-finite values")
        owner = np.asarray(self.owner)
        if owner.shape != (n_txt,):
            raise InputError(f"owner must have shape ({n_txt},), one image per caption, got {owner.shape}")
        if not np.issubdtype(owner.dtype, np.integer):
            raise InputError(f"owner must hold integer image indices, got dtype {owner.dtype}")
        bad = np.flatnonzero((owner < 0) | (owner >= n_img))
        if bad.size:
            raise InputError(f"caption {bad[0]} has image index {owner[bad[0]]} outside [0, {n_img})")
        self.owner = owner.astype(np.intp, copy=False)
        orphans = np.flatnonzero(np.bincount(self.owner, minlength=n_img) == 0)
        if orphans.size:
            raise InputError(f"image {orphans[0]} has no ground-truth captions")


def similarity_matrix(v_rows: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
    """Cosine similarities between image rows and caption rows."""
    v = np.asarray(v_rows, dtype=np.float64)
    t = np.asarray(t_rows, dtype=np.float64)
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    tn = np.linalg.norm(t, axis=-1, keepdims=True)
    if not (vn > 0).all() or not (tn > 0).all():
        raise DegenerateInputError("similarity_matrix received a zero-norm embedding")
    return (v / vn) @ (t / tn).T


def _check_k(table: RetrievalTable, k: int, direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if k < 1:
        raise ConfigError(f"K must be at least 1, got {k}")
    n_img, n_txt = table.sim.shape
    candidates = n_txt if direction == "i2t" else n_img
    if k > candidates:
        raise ConfigError(f"K={k} exceeds the {candidates} available candidates")


def _ground_truth_ranks(table: RetrievalTable, direction: str) -> np.ndarray:
    """0-based rank of each query's ground truth: #(s > s_gt) + #(s == s_gt, index < gt).

    An image's ground truth is its best own caption (highest similarity, then
    lowest index), whose rank is the least over all of its captions. Each
    direction makes one comparison pass over ``sim``, _RANK_BLOCK image rows
    at a time so that the temporaries stay small.
    """
    sim = table.sim
    n_img, n_txt = sim.shape
    owner = table.owner
    captions = np.arange(n_txt)
    s_own = sim[owner, captions]
    if direction == "i2t":
        order = np.lexsort((-s_own, owner))  # stable: equal similarities keep index order
        sorted_owner = owner[order]
        gt = order[np.concatenate(([True], sorted_owner[1:] != sorted_owner[:-1]))]
        s_gt = s_own[gt]
        ranks = np.empty(n_img, dtype=np.intp)
        for r0 in range(0, n_img, _RANK_BLOCK):
            rows = slice(r0, r0 + _RANK_BLOCK)
            block, s, g = sim[rows], s_gt[rows, None], gt[rows, None]
            ranks[rows] = np.count_nonzero((block > s) | ((block == s) & (captions < g)), axis=1)
        return ranks
    images = np.arange(n_img)[:, None]
    ranks = np.zeros(n_txt, dtype=np.intp)
    for r0 in range(0, n_img, _RANK_BLOCK):
        rows = slice(r0, r0 + _RANK_BLOCK)
        block = sim[rows]
        ranks += np.count_nonzero((block > s_own) | ((block == s_own) & (images[rows] < owner)), axis=0)
    return ranks


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * int(np.count_nonzero(ranks < k)) / ranks.size


def recall_at_k(table: RetrievalTable, k: int, direction: str) -> float:
    """Percentage of queries whose ground truth appears in the top-k candidates."""
    _check_k(table, k, direction)
    return _recall(_ground_truth_ranks(table, direction), k)


@dataclass
class RecallReport:
    i2t_r1: float
    i2t_r5: float
    i2t_r10: float
    t2i_r1: float
    t2i_r5: float
    t2i_r10: float

    def __post_init__(self):
        for name in _RECALL_KEYS:
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise InputError(f"{name}={value} outside [0, 100]")
        if not (self.i2t_r1 <= self.i2t_r5 <= self.i2t_r10):
            raise InputError("image-to-text recalls must be nondecreasing in K")
        if not (self.t2i_r1 <= self.t2i_r5 <= self.t2i_r10):
            raise InputError("text-to-image recalls must be nondecreasing in K")

    @property
    def mr(self) -> float:
        """Mean recall: the arithmetic mean of the six percentages, summed in key order."""
        return sum(float(getattr(self, key)) for key in _RECALL_KEYS) / 6.0

    @classmethod
    def from_table(cls, table: RetrievalTable) -> "RecallReport":
        values = []
        for direction in DIRECTIONS:
            for k in REPORT_KS:
                _check_k(table, k, direction)
            ranks = _ground_truth_ranks(table, direction)
            values += [_recall(ranks, k) for k in REPORT_KS]
        return cls(*values)

    def to_dict(self) -> dict:
        return {key: float(getattr(self, key)) for key in REPORT_KEYS}
