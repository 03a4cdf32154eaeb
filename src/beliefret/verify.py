"""Self-check suites runnable from the command line.

Three suites: ``gradients`` re-derives every differentiable mechanism against
central differences; ``oracles`` compares fast implementations to independent
brute-force references; ``invariants`` asserts structural properties. Each
suite is one table of rows, and ``run_suite``, the one entry, turns each row
into a result; the CLI exits nonzero when any row fails.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .belief import _strict_rank, refine_batch
from .config import LossSettings
from .errors import BeliefretError, ConfigError
from .losses import EPSILON, affiliation_loss, contrastive_loss
from .pae import init_pae_stack, init_pael, pael, spatial_pae, temporal_pae
from .retrieval import RecallReport, RetrievalTable, recall_at_k
from .rng import child
from .tensor import Tensor, grad_check

SUITES = ("gradients", "oracles", "invariants")
GRAD_TOLERANCE = 1e-4
GRAD_SEEDS = 100  # seeds per gradient row
_TAU = LossSettings().tau  # the losses' oracle and invariant rows run at the default temperature


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


def _diverse_labels(rng, b: int, c: int) -> np.ndarray:
    # at least two classes present, otherwise the affiliation loss is constant
    return rng.permutation(np.r_[np.arange(min(b, c)), rng.integers(0, c, size=b - min(b, c))])


# -- gradient suite ---------------------------------------------------------------


def _token_rows(a: np.ndarray) -> np.ndarray:
    """Token rows (..., L, d) of a draw shaped (..., d, L).

    The cases draw their sequences in that shape, in the rng order the table's
    values were first read with, so each row probes the same points."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _probe_each(args: list, readout, skip=frozenset()) -> float:
    """Worst grad_check error of ``readout(args)`` over each probed argument."""
    worst = 0.0
    for i, arg in enumerate(args):
        if i not in skip:
            worst = max(worst, grad_check(lambda v: readout(args[:i] + [v] + args[i + 1 :]), arg))
    return worst


def _grad_contrastive(seed: int) -> float:
    rng = child(seed, "gs-contrastive")
    args = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2)]
    # tau 0.5 keeps the softmax unsaturated: at 0.07 true gradient components
    # fall to ~1e-8, below the 64-bit central-difference noise floor; the
    # backward path itself does not depend on tau
    return _probe_each(args, lambda a: contrastive_loss(*a, tau=0.5))


def _grad_affiliation(seed: int) -> float:
    rng = child(seed, "gs-affiliation")
    b, c = 4, 2
    args = [Tensor(rng.normal(size=(b, 3)), requires_grad=True) for _ in range(2)]
    labels = _diverse_labels(rng, b, c)
    t_logit = float(rng.normal())
    return _probe_each(args, lambda a: affiliation_loss(*a, labels, c, t_logit))


def _grad_pael(seed: int) -> float:
    rng = child(seed, "gs-pael")
    d = 4
    params = init_pael(child(seed, "gs-pael-params"), d, heads=2)
    args = [Tensor(_token_rows(rng.normal(size=(d, n))), requires_grad=True) for n in (3, 2)]
    coef_s = Tensor(_token_rows(rng.normal(size=(d, 3))))
    coef_c = Tensor(_token_rows(rng.normal(size=(d, 2))))

    def readout(a):
        s, c = pael(*a, params)
        return (s * coef_s).sum() + (c * coef_c).sum()

    return _probe_each(args, readout)


def _grad_spatial(seed: int) -> float:
    rng = child(seed, "gs-spatial")
    d = 4
    # two units, as training runs it: the second unit carries the one pooled token
    stack = init_pae_stack(child(seed, "gs-spatial-params"), d, heads=2, n_units=2)
    tokens, f_ins = (rng.normal(size=shape) for shape in ((d, 3), d))
    args = [Tensor(_token_rows(tokens), requires_grad=True), Tensor(f_ins, requires_grad=True)]
    coef = Tensor(rng.normal(size=d))
    return _probe_each(args, lambda a: (spatial_pae(*a, stack) * coef).sum())


def _grad_temporal(seed: int) -> float:
    rng = child(seed, "gs-temporal")
    d = 4
    # three units, as training runs it: all but the last guide from the whole sequence
    stack = init_pae_stack(child(seed, "gs-temporal-params"), d, heads=2, n_units=3)
    # the text encoder's sequence: global token in row 0, then two tokens
    tokens = Tensor(_token_rows(rng.normal(size=(d, 3))), requires_grad=True)
    coef = Tensor(rng.normal(size=d))
    return grad_check(lambda x: (temporal_pae(x, stack) * coef).sum(), tokens)


def _grad_refine_batch(seed: int) -> float:
    # ranks are piecewise constant, so central differences see them frozen
    rng = child(seed, "gs-refine")
    b, d, length = 2, 3, 5
    features, f_ins = (rng.normal(size=shape) for shape in ((b, d, length), (b, d)))
    args = [Tensor(_token_rows(features), requires_grad=True), Tensor(f_ins, requires_grad=True)]
    coef = Tensor(_token_rows(rng.normal(size=(b, d, length))))
    return _probe_each(args, lambda a: (refine_batch(*a) * coef).sum())


def _grad_affine(seed: int) -> float:
    rng = child(seed, "gs-affine")
    b, d_in, d_out, length = 2, 4, 3, 5
    w, x, bias = (rng.normal(size=shape) for shape in ((d_out, d_in), (b, d_in, length), (d_out, 1)))
    args = [Tensor(a, requires_grad=True) for a in (w, _token_rows(x), bias)]
    coef = Tensor(_token_rows(rng.normal(size=(b, d_out, length))))
    return _probe_each(args, lambda a: (T.ttanh(T.affine(*a)) * coef).sum())


def _grad_ffn(seed: int) -> float:
    rng = child(seed, "gs-ffn")
    b, d, hidden, length = 2, 4, 6, 3
    # [x, gamma, beta, w1, b1, w2, b2]; weights at the 1/sqrt(fan-in) init scale,
    # as in _attention_case: a saturated tanh unit has true gradient components
    # near 1e-7, below the central-difference noise floor
    shapes = ((b, d, length), (d, 1), (d, 1), (hidden, d), (hidden, 1), (d, hidden), (d, 1))
    draws = [rng.normal(size=shape) * (shape[1] ** -0.5 if i in (3, 5) else 1.0) for i, shape in enumerate(shapes)]
    args = [Tensor(_token_rows(a) if i == 0 else a, requires_grad=True) for i, a in enumerate(draws)]
    coef = Tensor(_token_rows(rng.normal(size=(b, d, length))))
    return _probe_each(args, lambda a: (T.ttanh(T.ffn(*a)) * coef).sum())


def _attention_case(seed: int, cross: bool, masked: bool = False):
    """Inputs, norms, weights and biases, and a scalar readout of ``attention``.

    Batched (B, L, d) token rows, drawn as (B, d, L) and transposed;
    cross-attention has Lq != Lk. The arguments are [xq, xkv, gamma_q,
    beta_q, gamma_kv, beta_kv, wq, bq, wk, bk, wv, bv, wo, bo]; for
    self-attention xkv is xq and the key/value norm is None. The
    readout stacks them into w_qkv and b_qkv, so the key bias is probed apart.
    With ``masked``, the inputs are the same and the second row's last key is
    padded: the key mask is −inf there.
    """
    rng = child(seed, "gs-attention", int(cross))
    b, d, heads, lq, lk = 2, 4, 2, 3, 2
    key_mask = None
    if masked:
        key_mask = np.zeros((b, 1, lk if cross else lq, 1))
        key_mask[1, :, -1] = -np.inf
    xq = Tensor(_token_rows(rng.normal(size=(b, d, lq))), requires_grad=True)
    xkv = Tensor(_token_rows(rng.normal(size=(b, d, lk))), requires_grad=True) if cross else xq
    norms = [Tensor(rng.normal(size=(d, 1)), requires_grad=True) for _ in range(4 if cross else 2)]
    # weights at the 1/sqrt(d) init scale keep softmax and tanh unsaturated, so no
    # true gradient component falls to the central-difference noise floor
    params = [
        Tensor(rng.normal(size=(d, d)) * d**-0.5 if i % 2 == 0 else rng.normal(size=(d, 1)),
               requires_grad=True)
        for i in range(8)
    ]
    coef = Tensor(_token_rows(rng.normal(size=(b, d, lq))))

    def readout(a):
        xkv_ = a[1] if cross else a[0]
        w_qkv, b_qkv = T.concat(a[6:12:2], axis=0), T.concat(a[7:12:2], axis=0)
        return (T.ttanh(T.attention(a[0], xkv_, *a[2:6], w_qkv, b_qkv, *a[12:], heads, key_mask)) * coef).sum()

    return [xq, xkv, *norms, *([] if cross else [None, None]), *params], readout


# index of the key bias in _attention_case's arguments
_KEY_BIAS = 9


def _grad_attention(seed: int, cross: bool, masked: bool = False) -> float:
    args, readout = _attention_case(seed, cross, masked)
    # the key bias gradient is exactly 0, so a relative error reads ~1 on rounding
    # noise; _key_bias_grad checks it in absolute terms instead
    skip = {_KEY_BIAS} | (set() if cross else {1, 4, 5})
    return _probe_each(args, readout, skip)


def _grad_attention_masked(seed: int) -> float:
    return max(_grad_attention(seed, cross, masked=True) for cross in (False, True))


def _key_bias_grad(seed: int) -> float:
    """Largest |analytic key bias gradient|, self and cross: softmax ignores a
    per-query constant, so it is zero."""
    worst = 0.0
    for cross in (False, True):
        args, readout = _attention_case(seed, cross)
        readout(args).backward()
        worst = max(worst, float(np.abs(args[_KEY_BIAS].grad).max()))
    return worst


# -- oracle suite ------------------------------------------------------------------


def _brute_rank(weights) -> np.ndarray:
    """1 + the number of strictly smaller weights, by counting."""
    return np.array([1 + sum(1 for vk in weights if vk < vj) for vj in weights])


def _rank_case(seed: int):
    rng = child(seed, "vo-rank")
    length = int(rng.integers(1, 65))
    values = rng.random(length)
    if seed % 2:
        values = np.round(values * 4) / 4.0
    weights = values / values.sum() if values.sum() > 0 else np.full(length, 1.0 / length)
    return None if np.array_equal(_strict_rank(weights), _brute_rank(weights)) else "ranks differ"


def _affiliation_case(seed: int) -> float:
    rng = child(seed, "vo-aff")
    b = int(rng.integers(1, 17))
    c = int(rng.integers(1, 6))
    d = int(rng.integers(2, 9))
    v = rng.normal(size=(b, d))
    t = rng.normal(size=(b, d))
    labels = rng.integers(0, c, size=b)
    t_logit = float(rng.normal())
    got = affiliation_loss(Tensor(v), Tensor(t), labels, c, t_logit).item()
    return abs(got - _loop_affiliation(v, t, labels, c, t_logit, EPSILON))


def _loop_affiliation(v, t, labels, num_classes, t_logit, epsilon):
    b, d = v.shape
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    v_proto, t_proto = [], []
    for c in range(num_classes):
        v_sum, t_sum, count = np.zeros(d), np.zeros(d), 0
        for i in range(b):
            if labels[i] == c:
                v_sum = v_sum + vn[i]
                t_sum = t_sum + tn[i]
                count += 1
        v_proto.append(v_sum / (count + epsilon))
        t_proto.append(t_sum / (count + epsilon))
    scale = math.exp(t_logit)

    def ce(queries, centers):
        total = 0.0
        for i in range(b):
            logits = np.array([scale * float(queries[i] @ centers[j]) for j in range(b)])
            shifted = logits - logits.max()
            total += -(shifted[i] - math.log(np.exp(shifted).sum()))
        return total / b

    return 0.5 * (
        ce(vn, [t_proto[labels[i]] for i in range(b)])
        + ce(tn, [v_proto[labels[i]] for i in range(b)])
    )


def _unique_label_case(seed: int) -> float:
    """|L_a - 0.5 L_c| when every label is its own class."""
    rng = child(seed, "vo-uniq")
    b = int(rng.integers(2, 9))
    d = int(rng.integers(2, 8))
    v, t = rng.normal(size=(b, d)), rng.normal(size=(b, d))
    labels = rng.permutation(b)
    l_a = affiliation_loss(Tensor(v), Tensor(t), labels, b, math.log(1.0 / _TAU)).item()
    l_c = contrastive_loss(Tensor(v), Tensor(t), _TAU).item()
    return abs(l_a - 0.5 * l_c)


def _recall_case(seed: int):
    rng = child(seed, "vo-recall")
    n_img = int(rng.integers(2, 11))
    cpi = int(rng.integers(1, 6))
    sim = rng.normal(size=(n_img, n_img * cpi))
    if rng.random() < 0.3:
        sim = np.round(sim, 1)
    table = RetrievalTable(sim, np.repeat(np.arange(n_img), cpi))
    k = int(rng.integers(1, n_img + 1))
    for direction in ("i2t", "t2i"):
        if recall_at_k(table, k, direction) != _exhaustive_recall(table, k, direction):
            return f"{direction} R@{k} differs"
    return None


def _exhaustive_recall(table, k, direction):
    n_img, n_txt = table.sim.shape
    hits = 0
    if direction == "i2t":
        for i in range(n_img):
            order = sorted(range(n_txt), key=lambda j: (-table.sim[i, j], j))
            hits += i in table.owner[order[:k]]
        return 100.0 * hits / n_img
    for j in range(n_txt):
        order = sorted(range(n_img), key=lambda i: (-table.sim[i, j], i))
        hits += table.owner[j] in order[:k]
    return 100.0 * hits / n_txt


def _published_row_error(_seed: int) -> float:
    """|mR - 39.25| of a published row's six recalls."""
    return abs(RecallReport(18.36, 42.04, 55.53, 13.36, 44.47, 61.73).mr - 39.25)


# -- invariant suite -----------------------------------------------------------------


def _softmax_case(seed: int):
    rng = child(seed, "vi-softmax")
    x = rng.normal(size=8) * 5
    y = T.softmax(Tensor(x)).data
    if abs(y.sum() - 1.0) > 1e-6 or (y < 0).any():
        return "off the simplex"
    perm = rng.permutation(8)
    if not np.allclose(T.softmax(Tensor(x[perm])).data, y[perm], atol=1e-12):
        return "not permutation equivariant"
    return None


def _soft_weight_case(seed: int):
    """M < w <= M + 1, and w = M + 1/sqrt(rank) to 1e-12."""
    rng = child(seed, "vi-bounds")
    length = int(rng.integers(1, 24))
    weights = rng.random(length) + 1e-3
    weights /= weights.sum()
    # identity features and f_ins = log(weights) make the beliefs the weights,
    # and row j e_j times its refinement weight w_j
    out = refine_batch(Tensor(np.eye(length)[None]), Tensor(np.log(weights)[None]))
    w = np.diagonal(out.data[0])
    if not ((w > weights).all() and (w <= weights + 1.0 + 1e-12).all()):
        return "weight outside (M, M + 1]"
    if np.abs(w - (weights + 1.0 / np.sqrt(_brute_rank(weights)))).max() > 1e-12:
        return "boost is not 1/sqrt(rank)"
    return None


def _pael_shape_case(seed: int):
    rng = child(seed, "vi-pael")
    d = int(rng.integers(1, 5)) * 2
    params = init_pael(child(seed, "vi-pael-params"), d, heads=2)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    s, c = pael(Tensor(_token_rows(rng.normal(size=(d, n)))), Tensor(_token_rows(rng.normal(size=(d, m)))), params)
    return None if (s.shape, c.shape) == ((n, d), (m, d)) else f"shapes {s.shape}, {c.shape}"


def _nonnegative_case(seed: int):
    rng = child(seed, "vi-nonneg")
    b, d, c = int(rng.integers(1, 9)), 4, 3
    v, t = Tensor(rng.normal(size=(b, d))), Tensor(rng.normal(size=(b, d)))
    labels = rng.integers(0, c, size=b)
    if contrastive_loss(v, t, _TAU).item() < 0:
        return "contrastive loss below 0"
    if affiliation_loss(v, t, labels, c, math.log(1.0 / _TAU)).item() < 0:
        return "affiliation loss below 0"
    return None


def _rank_scale_case(seed: int):
    """The rank boost, each weight minus its belief, is unchanged to 1e-12 when
    f_ins is scaled by c in [0.1, 10]: scaling keeps the beliefs' order."""
    rng = child(seed, "vi-rank-scale")
    length = 9
    scores = rng.normal(size=(1, length)) * 3.0
    boosts = []
    for c in (1.0, float(rng.uniform(0.1, 10.0))):
        # identity features and f_ins = c * scores make the beliefs softmax(c * scores)
        out = refine_batch(Tensor(np.eye(length)[None]), Tensor(c * scores))
        boosts.append(np.diagonal(out.data[0]) - T.softmax(Tensor(c * scores), axis=-1).data[0])
    return None if np.abs(boosts[0] - boosts[1]).max() <= 1e-12 else "rank boost moved under scaling"


# -- the tables and their runner --------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    """A check of ``cases`` seeds (None: the gradient seed count). With a bound,
    ``probe(seed)`` is an error that must stay below it; without one, it is
    None or the reason that case failed."""

    name: str
    cases: int | None
    probe: Callable
    bound: float | None = None


_TABLES = {
    "gradients": (
        _Row("affine", None, _grad_affine, GRAD_TOLERANCE),
        _Row("ffn", None, _grad_ffn, GRAD_TOLERANCE),
        _Row("attention_self", None, lambda seed: _grad_attention(seed, cross=False), GRAD_TOLERANCE),
        _Row("attention_cross", None, lambda seed: _grad_attention(seed, cross=True), GRAD_TOLERANCE),
        _Row("attention_masked", None, _grad_attention_masked, GRAD_TOLERANCE),
        _Row("contrastive_loss", None, _grad_contrastive, GRAD_TOLERANCE),
        _Row("affiliation_loss", None, _grad_affiliation, GRAD_TOLERANCE),
        _Row("pael", None, _grad_pael, GRAD_TOLERANCE),
        _Row("spatial_pae", None, _grad_spatial, GRAD_TOLERANCE),
        _Row("temporal_pae", None, _grad_temporal, GRAD_TOLERANCE),
        _Row("refine_batch", None, _grad_refine_batch, GRAD_TOLERANCE),
        _Row("attention_key_bias", None, _key_bias_grad, 1e-12),
    ),
    "oracles": (
        _Row("rank_vs_brute_force", 1000, _rank_case),
        _Row("affiliation_vs_loop_oracle", 200, _affiliation_case, 1e-8),
        _Row("unique_label_reduction", 100, _unique_label_case, 1e-6),
        _Row("recall_vs_sort_oracle", 500, _recall_case),
        _Row("mean_recall_published_row", 1, _published_row_error, 0.005),
    ),
    "invariants": (
        _Row("softmax_simplex", 200, _softmax_case),
        _Row("soft_weight_bounds", 200, _soft_weight_case),
        _Row("pael_shape_preservation", 25, _pael_shape_case),
        _Row("loss_nonnegative", 100, _nonnegative_case),
        _Row("belief_rank_scale_invariant", 100, _rank_scale_case),
    ),
}


def _run_row(suite: str, row: _Row, grad_seeds: int) -> CheckResult:
    cases = grad_seeds if row.cases is None else row.cases
    if row.bound is None:
        for seed in range(cases):
            reason = row.probe(seed)
            if reason is not None:
                return CheckResult(suite, row.name, False, f"{reason} at case {seed}")
        return CheckResult(suite, row.name, True, f"{cases} cases pass")
    worst = float(max(row.probe(seed) for seed in range(cases)))
    return CheckResult(
        suite, row.name, worst < row.bound, f"max error {worst:.2e} over {cases} cases (bound {row.bound:.0e})"
    )


def run_suite(suite: str, grad_seeds: int = GRAD_SEEDS) -> list:
    """Every row of ``suite``, or of all three for "all"; the gradient suite
    runs ``grad_seeds`` seeds per row and ends with its runtime row."""
    if suite not in (*SUITES, "all"):
        raise BeliefretError(f"unknown verification suite {suite!r}")
    if grad_seeds < 1:
        raise ConfigError(f"--grad-seeds must be at least 1, got {grad_seeds}")
    results = []
    for name in SUITES:
        if suite in (name, "all"):
            started = time.perf_counter()
            results += [_run_row(name, row, grad_seeds) for row in _TABLES[name]]
            if name == "gradients":
                elapsed = time.perf_counter() - started
                results.append(CheckResult(name, "runtime", elapsed < 60.0, f"{elapsed:.1f}s (budget 60s)"))
    return results
