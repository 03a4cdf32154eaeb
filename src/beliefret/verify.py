"""Self-check suites runnable from the command line.

Three suites: ``gradients`` re-derives every differentiable mechanism against
central differences; ``oracles`` compares fast implementations to independent
brute-force references; ``invariants`` asserts structural properties. Each
check returns a result row, and the CLI exits nonzero when any row fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .belief import _strict_rank, refine_batch
from .errors import BeliefretError
from .losses import DEFAULT_T_LOGIT, DEFAULT_TAU, EPSILON, LabeledBatch, affiliation_loss, contrastive_loss
from .pae import init_pae_stack, init_pael, pael, spatial_pae, temporal_pae
from .retrieval import RetrievalTable, mean_recall, recall_at_k
from .rng import child
from .tensor import Tensor, grad_check

SUITES = ("gradients", "oracles", "invariants")
GRAD_TOLERANCE = 1e-4


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


def _grad_contrastive(seed: int) -> float:
    rng = child(seed, "gs-contrastive")
    v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    # tau 0.5 keeps the softmax unsaturated: at 0.07 true gradient components
    # fall to ~1e-8, below the 64-bit central-difference noise floor; the
    # backward path itself does not depend on tau
    return max(
        grad_check(lambda x: contrastive_loss(x, t, tau=0.5), v),
        grad_check(lambda x: contrastive_loss(v, x, tau=0.5), t),
    )


def _grad_affiliation(seed: int) -> float:
    rng = child(seed, "gs-affiliation")
    b, c = 4, 2
    v = Tensor(rng.normal(size=(b, 3)), requires_grad=True)
    t = Tensor(rng.normal(size=(b, 3)), requires_grad=True)
    labels = _diverse_labels(rng, b, c)
    t_logit = float(rng.normal())
    return max(
        grad_check(lambda x: affiliation_loss(LabeledBatch(x, t, labels, c), t_logit), v),
        grad_check(lambda x: affiliation_loss(LabeledBatch(v, x, labels, c), t_logit), t),
    )


def _grad_pael(seed: int) -> float:
    rng = child(seed, "gs-pael")
    d = 4
    params = init_pael(child(seed, "gs-pael-params"), d, heads=2)
    h_s = Tensor(rng.normal(size=(d, 3)), requires_grad=True)
    h_c = Tensor(rng.normal(size=(d, 2)), requires_grad=True)
    coef_s = Tensor(rng.normal(size=(d, 3)))
    coef_c = Tensor(rng.normal(size=(d, 2)))

    def readout(s, c):
        return (s * coef_s).sum() + (c * coef_c).sum()

    return max(
        grad_check(lambda x: readout(*pael(x, h_c, params)), h_s),
        grad_check(lambda x: readout(*pael(h_s, x, params)), h_c),
    )


def _grad_spatial(seed: int) -> float:
    rng = child(seed, "gs-spatial")
    d = 4
    # two units, as training runs it: the second unit carries the one pooled column
    stack = init_pae_stack(child(seed, "gs-spatial-params"), d, heads=2, n_units=2)
    tokens = Tensor(rng.normal(size=(d, 3)), requires_grad=True)
    ins = Tensor(rng.normal(size=d), requires_grad=True)
    coef = Tensor(rng.normal(size=d))
    return max(
        grad_check(lambda x: (spatial_pae(x, ins, stack) * coef).sum(), tokens),
        grad_check(lambda x: (spatial_pae(tokens, x, stack) * coef).sum(), ins),
    )


def _grad_temporal(seed: int) -> float:
    rng = child(seed, "gs-temporal")
    d = 4
    stack = init_pae_stack(child(seed, "gs-temporal-params"), d, heads=2, n_units=1)
    # the text encoder's sequence: global token in column 0, then two tokens
    tokens = Tensor(rng.normal(size=(d, 3)), requires_grad=True)
    coef = Tensor(rng.normal(size=d))
    return grad_check(lambda x: (temporal_pae(x, stack) * coef).sum(), tokens)


def _grad_refine_batch(seed: int) -> float:
    # ranks are piecewise constant, so central differences see them frozen
    rng = child(seed, "gs-refine")
    b, d, length = 2, 3, 5
    feats = Tensor(rng.normal(size=(b, d, length)), requires_grad=True)
    ins = Tensor(rng.normal(size=(b, d)), requires_grad=True)
    worst = 0.0
    for mode, width in (("soft-sequence", length), ("soft-aggregate", 1)):
        coef = Tensor(rng.normal(size=(b, d, width)))
        worst = max(
            worst,
            grad_check(lambda x: (refine_batch(x, ins, mode) * coef).sum(), feats),
            grad_check(lambda x: (refine_batch(feats, x, mode) * coef).sum(), ins),
        )
    return worst


def _probe_each(args: list, readout, skip=frozenset()) -> float:
    """Worst grad_check error of ``readout(args)`` over each probed argument."""
    worst = 0.0
    for i, arg in enumerate(args):
        if i not in skip:
            worst = max(worst, grad_check(lambda v: readout(args[:i] + [v] + args[i + 1 :]), arg))
    return worst


def _grad_affine(seed: int) -> float:
    rng = child(seed, "gs-affine")
    b, d_in, d_out, length = 2, 4, 3, 5
    args = [
        Tensor(rng.normal(size=shape), requires_grad=True)
        for shape in ((d_out, d_in), (b, d_in, length), (d_out, 1))
    ]
    coef = Tensor(rng.normal(size=(b, d_out, length)))
    return _probe_each(args, lambda a: (T.ttanh(T.affine(*a)) * coef).sum())


def _grad_ffn(seed: int) -> float:
    rng = child(seed, "gs-ffn")
    b, d, hidden, length = 2, 4, 6, 3
    # [x, gamma, beta, w1, b1, w2, b2]; weights at the 1/sqrt(fan-in) init scale,
    # as in _attention_case: a saturated tanh unit has true gradient components
    # near 1e-7, below the central-difference noise floor
    shapes = ((b, d, length), (d, 1), (d, 1), (hidden, d), (hidden, 1), (d, hidden), (d, 1))
    args = [
        Tensor(rng.normal(size=shape) * (shape[1] ** -0.5 if i in (3, 5) else 1.0), requires_grad=True)
        for i, shape in enumerate(shapes)
    ]
    coef = Tensor(rng.normal(size=(b, d, length)))
    return _probe_each(args, lambda a: (T.ttanh(T.ffn(*a)) * coef).sum())


def _attention_case(seed: int, cross: bool):
    """Inputs, norms, weights and biases, and a scalar readout of ``attention``.

    Batched (B, d, L) inputs; cross-attention has Lq != Lk. The arguments are
    [xq, xkv, gamma_q, beta_q, gamma_kv, beta_kv, wq, bq, wk, bk, wv, bv, wo,
    bo]; for self-attention xkv is xq and the key/value norm is None.
    """
    rng = child(seed, "gs-attention", int(cross))
    b, d, heads, lq, lk = 2, 4, 2, 3, 2
    xq = Tensor(rng.normal(size=(b, d, lq)), requires_grad=True)
    xkv = Tensor(rng.normal(size=(b, d, lk)), requires_grad=True) if cross else xq
    norms = [Tensor(rng.normal(size=(d, 1)), requires_grad=True) for _ in range(4 if cross else 2)]
    # weights at the 1/sqrt(d) init scale keep softmax and tanh unsaturated, so no
    # true gradient component falls to the central-difference noise floor
    params = [
        Tensor(rng.normal(size=(d, d)) * d**-0.5 if i % 2 == 0 else rng.normal(size=(d, 1)),
               requires_grad=True)
        for i in range(8)
    ]
    coef = Tensor(rng.normal(size=(b, d, lq)))

    def readout(a):
        xkv_ = a[1] if cross else a[0]
        return (T.ttanh(T.attention(a[0], xkv_, *a[2:], heads)) * coef).sum()

    return [xq, xkv, *norms, *([] if cross else [None, None]), *params], readout


# index of the key bias in _attention_case's arguments
_KEY_BIAS = 9


def _grad_attention(seed: int, cross: bool) -> float:
    args, readout = _attention_case(seed, cross)
    # the key bias gradient is exactly 0, so a relative error reads ~1 on rounding
    # noise; attention_key_bias checks it in absolute terms instead
    skip = {_KEY_BIAS} | (set() if cross else {1, 4, 5})
    return _probe_each(args, readout, skip)


def attention_key_bias_check(seeds: int = 100) -> CheckResult:
    """The analytic key bias gradient is zero: softmax ignores a per-query constant."""
    bound = 1e-12
    worst = 0.0
    for seed in range(seeds):
        for cross in (False, True):
            args, readout = _attention_case(seed, cross)
            readout(args).backward()
            worst = max(worst, float(np.abs(args[_KEY_BIAS].grad).max()))
    return CheckResult(
        "gradients",
        "attention_key_bias",
        worst <= bound,
        f"max |grad| {worst:.1e} over {seeds} seeds, self and cross (bound {bound:.0e})",
    )


GRADIENT_CHECKS = (
    ("affine", _grad_affine),
    ("ffn", _grad_ffn),
    ("attention_self", lambda seed: _grad_attention(seed, cross=False)),
    ("attention_cross", lambda seed: _grad_attention(seed, cross=True)),
    ("contrastive_loss", _grad_contrastive),
    ("affiliation_loss", _grad_affiliation),
    ("pael", _grad_pael),
    ("spatial_pae", _grad_spatial),
    ("temporal_pae", _grad_temporal),
    ("refine_batch", _grad_refine_batch),
)


def gradient_checks(seeds: int = 100) -> list:
    results = []
    started = time.perf_counter()
    for name, fn in GRADIENT_CHECKS:
        worst = max(fn(seed) for seed in range(seeds))
        results.append(
            CheckResult(
                "gradients",
                name,
                worst < GRAD_TOLERANCE,
                f"max rel err {worst:.3e} over {seeds} seeds (tolerance {GRAD_TOLERANCE:.0e})",
            )
        )
    results.append(attention_key_bias_check(seeds))
    elapsed = time.perf_counter() - started
    results.append(
        CheckResult("gradients", "runtime", elapsed < 60.0, f"{elapsed:.1f}s (budget 60s)")
    )
    return results


# -- oracle suite ------------------------------------------------------------------


def rank_oracle_check(cases: int = 1000) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vo-rank")
        length = int(rng.integers(1, 65))
        values = rng.random(length)
        if seed % 2:
            values = np.round(values * 4) / 4.0
        weights = values / values.sum() if values.sum() > 0 else np.full(length, 1.0 / length)
        got = _strict_rank(weights)
        want = np.array([1 + sum(1 for vk in weights if vk < vj) for vj in weights])
        if not np.array_equal(got, want):
            return CheckResult("oracles", "rank_vs_brute_force", False, f"mismatch at case {seed}")
    return CheckResult("oracles", "rank_vs_brute_force", True, f"{cases} cases, exact match")


def hard_filter_oracle_check(cases: int = 1000) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vo-filter")
        length = int(rng.integers(1, 33))
        values = rng.random(length) + 1e-6
        if seed % 3 == 0:
            values = np.round(values * 3) / 3.0 + 0.05
        weights = values / values.sum()
        k = int(rng.integers(1, length + 1))
        # identity features and f_ins = log(weights) make the beliefs the weights,
        # and each output column the one-hot of its source index
        out = refine_batch(Tensor(np.eye(length)[None]), Tensor(np.log(weights)[None]), "hard", k)
        kept = np.argmax(out.data[0], axis=0)
        expected_order = sorted(range(length), key=lambda j: (-weights[j], j))[:k]
        top_multiset = np.sort(np.sort(weights)[::-1][:k])
        if not np.array_equal(kept, expected_order):
            return CheckResult("oracles", "hard_filter_top_k", False, f"tie rule broken at case {seed}")
        if not np.allclose(np.sort(weights[kept]), top_multiset, atol=0):
            return CheckResult("oracles", "hard_filter_top_k", False, f"multiset mismatch at case {seed}")
    return CheckResult("oracles", "hard_filter_top_k", True, f"{cases} cases, exact match")


def affiliation_oracle_check(cases: int = 200, tolerance: float = 1e-8) -> CheckResult:
    worst = 0.0
    for seed in range(cases):
        rng = child(seed, "vo-aff")
        b = int(rng.integers(1, 17))
        c = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(b, d))
        labels = rng.integers(0, c, size=b)
        t_logit = float(rng.normal())
        got = affiliation_loss(LabeledBatch(Tensor(v), Tensor(t), labels, c), t_logit).item()
        want = _loop_affiliation(v, t, labels, c, t_logit, EPSILON)
        worst = max(worst, abs(got - want))
    return CheckResult(
        "oracles",
        "affiliation_vs_loop_oracle",
        worst < tolerance,
        f"max |Δ| {worst:.2e} over {cases} batches (tolerance {tolerance:.0e})",
    )


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


def unique_label_reduction_check(cases: int = 100, tolerance: float = 1e-6) -> CheckResult:
    worst = 0.0
    for seed in range(cases):
        rng = child(seed, "vo-uniq")
        b = int(rng.integers(2, 9))
        d = int(rng.integers(2, 8))
        v, t = rng.normal(size=(b, d)), rng.normal(size=(b, d))
        labels = rng.permutation(b)
        l_a = affiliation_loss(LabeledBatch(Tensor(v), Tensor(t), labels, num_classes=b), DEFAULT_T_LOGIT).item()
        l_c = contrastive_loss(Tensor(v), Tensor(t), tau=DEFAULT_TAU).item()
        worst = max(worst, abs(l_a - 0.5 * l_c))
    return CheckResult(
        "oracles",
        "unique_label_reduction",
        worst < tolerance,
        f"max |L_a - 0.5 L_c| {worst:.2e} over {cases} batches (tolerance {tolerance:.0e})",
    )


def recall_oracle_check(cases: int = 500) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vo-recall")
        n_img = int(rng.integers(2, 11))
        cpi = int(rng.integers(1, 6))
        sim = rng.normal(size=(n_img, n_img * cpi))
        if rng.random() < 0.3:
            sim = np.round(sim, 1)
        table = RetrievalTable(sim, np.repeat(np.arange(n_img), cpi))
        k = int(rng.integers(1, n_img + 1))
        for direction in ("i2t", "t2i"):
            got = recall_at_k(table, k, direction)
            want = _exhaustive_recall(table, k, direction)
            if got != want:
                return CheckResult("oracles", "recall_vs_sort_oracle", False, f"case {seed} {direction}")
    return CheckResult("oracles", "recall_vs_sort_oracle", True, f"{cases} tables, exact match")


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


def mean_recall_arithmetic_check() -> CheckResult:
    values = [18.36, 42.04, 55.53, 13.36, 44.47, 61.73]
    got = mean_recall(values)
    ok = abs(got - 39.25) <= 0.005
    return CheckResult("oracles", "mean_recall_published_row", ok, f"mean {got:.4f} vs 39.25 ± 0.005")


def oracle_checks() -> list:
    return [
        rank_oracle_check(),
        hard_filter_oracle_check(),
        affiliation_oracle_check(),
        unique_label_reduction_check(),
        recall_oracle_check(),
        mean_recall_arithmetic_check(),
    ]


# -- invariant suite -----------------------------------------------------------------


def softmax_invariant_check(cases: int = 200) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vi-softmax")
        x = rng.normal(size=8) * 5
        y = T.softmax(Tensor(x)).data
        if abs(y.sum() - 1.0) > 1e-6 or (y < 0).any():
            return CheckResult("invariants", "softmax_simplex", False, f"case {seed}")
        perm = rng.permutation(8)
        if not np.allclose(T.softmax(Tensor(x[perm])).data, y[perm], atol=1e-12):
            return CheckResult("invariants", "softmax_simplex", False, f"equivariance, case {seed}")
    return CheckResult("invariants", "softmax_simplex", True, f"{cases} cases")


def soft_weight_bounds_check(cases: int = 200) -> CheckResult:
    tolerance = 1e-12
    for seed in range(cases):
        rng = child(seed, "vi-bounds")
        length = int(rng.integers(1, 24))
        weights = rng.random(length) + 1e-3
        weights /= weights.sum()
        # beliefs = weights as in hard_filter_oracle_check; column j is e_j times w_j
        out = refine_batch(Tensor(np.eye(length)[None]), Tensor(np.log(weights)[None]), "soft-sequence")
        w = np.diagonal(out.data[0])
        if not ((w > weights).all() and (w <= weights + 1.0 + 1e-12).all()):
            return CheckResult("invariants", "soft_weight_bounds", False, f"case {seed}")
        rank = np.array([1 + sum(1 for vk in weights if vk < vj) for vj in weights])
        if np.abs(w - (weights + 1.0 / np.sqrt(rank))).max() > tolerance:
            return CheckResult(
                "invariants", "soft_weight_bounds", False, f"boost is not 1/sqrt(rank), case {seed}"
            )
    return CheckResult(
        "invariants", "soft_weight_bounds", True,
        f"{cases} cases, M < w <= M + 1, w = M + 1/sqrt(rank) to {tolerance:.0e}",
    )


def pael_shape_check(cases: int = 25) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vi-pael")
        d = int(rng.integers(1, 5)) * 2
        params = init_pael(child(seed, "vi-pael-params"), d, heads=2)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        s, c = pael(Tensor(rng.normal(size=(d, n))), Tensor(rng.normal(size=(d, m))), params)
        if s.shape != (d, n) or c.shape != (d, m):
            return CheckResult("invariants", "pael_shape_preservation", False, f"case {seed}")
    return CheckResult("invariants", "pael_shape_preservation", True, f"{cases} cases")


def loss_nonnegative_check(cases: int = 100) -> CheckResult:
    for seed in range(cases):
        rng = child(seed, "vi-nonneg")
        b, d, c = int(rng.integers(1, 9)), 4, 3
        v, t = Tensor(rng.normal(size=(b, d))), Tensor(rng.normal(size=(b, d)))
        labels = rng.integers(0, c, size=b)
        if contrastive_loss(v, t).item() < 0:
            return CheckResult("invariants", "loss_nonnegative", False, f"contrastive, case {seed}")
        if affiliation_loss(LabeledBatch(v, t, labels, c)).item() < 0:
            return CheckResult("invariants", "loss_nonnegative", False, f"affiliation, case {seed}")
    return CheckResult("invariants", "loss_nonnegative", True, f"{cases} random batches")


def belief_argmax_scale_check(cases: int = 100) -> CheckResult:
    # hard mode at k=1 keeps the argmax column, so equal outputs mean equal argmax
    for seed in range(cases):
        rng = child(seed, "vi-argmax")
        d, length = 5, 9
        f_ins = Tensor(rng.normal(size=(1, d)))
        feats = Tensor(rng.normal(size=(1, d, length)))
        base = refine_batch(feats, f_ins, "hard", 1).data
        scaled = refine_batch(feats, f_ins * float(rng.uniform(0.1, 10.0)), "hard", 1).data
        if not np.array_equal(base, scaled):
            return CheckResult("invariants", "belief_argmax_scale_invariant", False, f"case {seed}")
    return CheckResult("invariants", "belief_argmax_scale_invariant", True, f"{cases} cases")


def invariant_checks() -> list:
    return [
        softmax_invariant_check(),
        soft_weight_bounds_check(),
        pael_shape_check(),
        loss_nonnegative_check(),
        belief_argmax_scale_check(),
    ]


def run_suite(suite: str, grad_seeds: int = 100) -> list:
    if suite == "all":
        return gradient_checks(grad_seeds) + oracle_checks() + invariant_checks()
    if suite == "gradients":
        return gradient_checks(grad_seeds)
    if suite == "oracles":
        return oracle_checks()
    if suite == "invariants":
        return invariant_checks()
    raise BeliefretError(f"unknown verification suite {suite!r}")
