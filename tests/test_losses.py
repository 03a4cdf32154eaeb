import math

import numpy as np
import numpy.testing as npt
import pytest

from beliefret.errors import ConfigError, DegenerateInputError, InputError
from beliefret.losses import (
    DEFAULT_T_LOGIT,
    EPSILON,
    LabeledBatch,
    LossConfig,
    affiliation_loss,
    contrastive_loss,
    total_loss,
)
from beliefret.rng import child
from beliefret.tensor import Tensor, grad_check, sgd_step


def loop_affiliation_oracle(v, t, labels, num_classes, t_logit, epsilon):
    """Explicit per-class-mean reference, no matrix algebra."""
    b, d = v.shape
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    v_proto, t_proto = [], []
    for c in range(num_classes):
        v_sum = np.zeros(d)
        t_sum = np.zeros(d)
        count = 0
        for i in range(b):
            if labels[i] == c:
                v_sum += vn[i]
                t_sum += tn[i]
                count += 1
        v_proto.append(v_sum / (count + epsilon))
        t_proto.append(t_sum / (count + epsilon))
    scale = math.exp(t_logit)

    def cross_entropy(queries, keys_per_sample):
        total = 0.0
        for i in range(b):
            logits = np.array([scale * float(queries[i] @ keys_per_sample[j]) for j in range(b)])
            shifted = logits - logits.max()
            total += -(shifted[i] - math.log(np.exp(shifted).sum()))
        return total / b

    t_centers = [t_proto[labels[i]] for i in range(b)]
    v_centers = [v_proto[labels[i]] for i in range(b)]
    return 0.5 * (cross_entropy(vn, t_centers) + cross_entropy(tn, v_centers))


# -- contrastive loss -----------------------------------------------------------


def test_contrastive_single_pair_is_zero():
    v = Tensor(child(0, "c1").normal(size=(1, 4)))
    assert abs(contrastive_loss(v, v, tau=0.07).item()) < 1e-12


def test_contrastive_identical_embeddings_two_pairs():
    u = np.array([[0.6, 0.8], [0.6, 0.8]])
    loss = contrastive_loss(Tensor(u), Tensor(u), tau=1.0)
    npt.assert_allclose(loss.item(), 2.0 * math.log(2.0), atol=1e-12)
    npt.assert_allclose(loss.item(), 1.38629, atol=1e-5)


def test_contrastive_separated_pairs_saturate_to_zero():
    v = Tensor(np.eye(2))
    loss = contrastive_loss(v, v, tau=0.01)
    assert loss.item() < 1e-6


def test_contrastive_empty_batch_rejected():
    with pytest.raises(InputError):
        contrastive_loss(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))))
    with pytest.raises(ConfigError):
        contrastive_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), tau=0.0)


def test_contrastive_normalises_internally():
    rng = child(1, "cnorm")
    v, t = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    a = contrastive_loss(Tensor(v), Tensor(t)).item()
    b = contrastive_loss(Tensor(v * 7.0), Tensor(t * 0.1)).item()
    npt.assert_allclose(a, b, atol=1e-10)


# -- affiliation loss -----------------------------------------------------------


def make_batch(seed, b=6, d=5, c=3):
    rng = child(seed, "batch")
    return LabeledBatch(
        v=Tensor(rng.normal(size=(b, d))),
        t=Tensor(rng.normal(size=(b, d))),
        labels=rng.integers(0, c, size=b),
        num_classes=c,
    )


def test_affiliation_unique_labels_reduces_to_half_contrastive():
    rng = child(2, "uniq")
    v, t = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    tau = 0.07
    batch = LabeledBatch(Tensor(v), Tensor(t), np.array([0, 1]), num_classes=2)
    l_a = affiliation_loss(batch, t_logit=math.log(1.0 / tau)).item()
    l_c = contrastive_loss(Tensor(v), Tensor(t), tau=tau).item()
    assert abs(l_a - 0.5 * l_c) < 1e-6


def test_affiliation_same_class_identical_embeddings():
    u = np.array([[0.6, 0.8], [0.6, 0.8]])
    batch = LabeledBatch(Tensor(u), Tensor(u), np.array([0, 0]), num_classes=1)
    loss = affiliation_loss(batch, t_logit=DEFAULT_T_LOGIT)
    npt.assert_allclose(loss.item(), math.log(2.0), atol=1e-9)


def test_affiliation_zero_scale_gives_log_b():
    batch = make_batch(3, b=5)
    loss = affiliation_loss(batch, t_logit=-np.inf)
    npt.assert_allclose(loss.item(), math.log(5.0), atol=1e-12)


def test_affiliation_validation():
    with pytest.raises(InputError):
        LabeledBatch(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), np.array([0, 5]), num_classes=3)
    with pytest.raises(InputError):
        LabeledBatch(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))), np.array([]), num_classes=1)
    batch = LabeledBatch(
        Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])),
        Tensor(np.ones((2, 2))),
        np.array([0, 0]),
        num_classes=1,
    )
    with pytest.raises(DegenerateInputError):
        affiliation_loss(batch)


def test_affiliation_matches_loop_oracle():
    for seed in range(200):
        rng = child(seed, "aff-oracle")
        b = int(rng.integers(1, 17))
        c = int(rng.integers(1, 6))
        d = int(rng.integers(2, 9))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(b, d))
        labels = rng.integers(0, c, size=b)
        t_logit = float(rng.normal(0.0, 1.0))
        got = affiliation_loss(LabeledBatch(Tensor(v), Tensor(t), labels, num_classes=c), t_logit=t_logit).item()
        want = loop_affiliation_oracle(v, t, labels, c, t_logit, EPSILON)
        assert abs(got - want) < 1e-8, f"seed {seed}: {got} vs {want}"


def test_both_losses_nonnegative():
    for seed in range(50):
        batch = make_batch(seed)
        assert contrastive_loss(batch.v, batch.t).item() >= 0.0
        assert affiliation_loss(batch).item() >= 0.0


def test_losses_invariant_under_row_permutation():
    rng = child(4, "perm")
    batch = make_batch(4, b=8, c=3)
    perm = rng.permutation(8)
    v_p = Tensor(batch.v.data[perm])
    t_p = Tensor(batch.t.data[perm])
    batch_p = LabeledBatch(v_p, t_p, batch.labels[perm], num_classes=3)
    npt.assert_allclose(
        contrastive_loss(batch.v, batch.t).item(), contrastive_loss(v_p, t_p).item(), atol=1e-10
    )
    npt.assert_allclose(affiliation_loss(batch).item(), affiliation_loss(batch_p).item(), atol=1e-10)


def test_loss_gradients():
    worst_c, worst_a = 0.0, 0.0
    for seed in range(30):
        rng = child(seed, "loss-grad")
        b, d, c = 4, 3, 2
        v = Tensor(rng.normal(size=(b, d)), requires_grad=True)
        t = Tensor(rng.normal(size=(b, d)), requires_grad=True)
        # at least two classes present: a single-class batch makes the
        # affiliation loss constant (log B), with no gradient to verify
        labels = rng.permutation(np.r_[np.arange(c), rng.integers(0, c, size=b - c)])

        # unsaturated temperature: at 0.07 some true gradient components drop
        # below what central differences can resolve in relative terms
        worst_c = max(worst_c, grad_check(lambda x: contrastive_loss(x, t, tau=0.5), v))
        worst_c = max(worst_c, grad_check(lambda x: contrastive_loss(v, x, tau=0.5), t))

        def aff_v(x):
            return affiliation_loss(LabeledBatch(x, t, labels, num_classes=c))

        def aff_t(x):
            return affiliation_loss(LabeledBatch(v, x, labels, num_classes=c))

        worst_a = max(worst_a, grad_check(aff_v, v), grad_check(aff_t, t))
    assert worst_c < 1e-4
    assert worst_a < 1e-4


def test_trainable_scale_gradient():
    rng = child(5, "tgrad")
    b, d = 4, 3
    v = Tensor(rng.normal(size=(b, d)))
    t = Tensor(rng.normal(size=(b, d)))
    labels = rng.integers(0, 2, size=b)
    t_logit = Tensor(np.array(DEFAULT_T_LOGIT), requires_grad=True)

    def f(x):
        return affiliation_loss(LabeledBatch(v, t, labels, num_classes=2), t_logit=x)

    assert grad_check(f, t_logit) < 1e-4


# -- total loss ------------------------------------------------------------------


def test_total_loss_arithmetic():
    assert total_loss(1.0, 0.5, lambda_cs=0.0) == 1.0
    assert total_loss(1.0, 0.5, lambda_cs=1.0) == 1.5
    assert total_loss(0.7, 0.0, lambda_cs=12.0) == 0.7
    with pytest.raises(ConfigError):
        total_loss(1.0, 1.0, lambda_cs=-0.1)
    out = total_loss(Tensor([1.0]), Tensor([0.5]), lambda_cs=2.0)
    npt.assert_allclose(out.data, [2.0])


def test_loss_config_validation():
    LossConfig()
    with pytest.raises(ConfigError):
        LossConfig(tau=0.0)
    with pytest.raises(ConfigError):
        LossConfig(lambda_cs=-1.0)


# -- cluster-pull property ----------------------------------------------------------


def mean_intra_class_cosine(v, labels):
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    sims = vn @ vn.T
    same = np.equal.outer(labels, labels) & ~np.eye(len(labels), dtype=bool)
    return float(sims[same].mean())


def test_cluster_pull_increases_intra_class_cosine():
    rng = child(6, "pull")
    b, d, c = 16, 8, 4
    labels = np.repeat(np.arange(c), b // c)
    v = Tensor(rng.normal(size=(b, d)), requires_grad=True)
    t = Tensor(rng.normal(size=(b, d)), requires_grad=True)
    before = mean_intra_class_cosine(v.data, labels)
    params = [("v", v), ("t", t)]
    for _ in range(200):
        batch = LabeledBatch(v, t, labels, num_classes=c)
        loss = total_loss(contrastive_loss(v, t), affiliation_loss(batch), lambda_cs=1.0)
        loss.backward()
        sgd_step(params, lr=0.5)
    after = mean_intra_class_cosine(v.data, labels)
    assert after > before
