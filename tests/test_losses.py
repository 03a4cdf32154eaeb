import math

import numpy as np
import numpy.testing as npt
import pytest

from beliefret.config import LossSettings
from beliefret.errors import DegenerateInputError, InputError
from beliefret.losses import affiliation_loss, contrastive_loss
from beliefret.rng import child
from beliefret.tensor import Tensor, grad_check

TAU = LossSettings().tau
T_LOGIT = math.log(1.0 / TAU)  # e^t = 1/tau, as the model starts it


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
        contrastive_loss(Tensor(np.zeros((0, 3))), Tensor(np.zeros((0, 3))), TAU)


def test_contrastive_normalises_internally():
    rng = child(1, "cnorm")
    v, t = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    a = contrastive_loss(Tensor(v), Tensor(t), TAU).item()
    b = contrastive_loss(Tensor(v * 7.0), Tensor(t * 0.1), TAU).item()
    npt.assert_allclose(a, b, atol=1e-10)


# -- affiliation loss -----------------------------------------------------------


def make_batch(seed, b=6, d=5, c=3):
    """(v, t, labels, num_classes) of a random labelled batch."""
    rng = child(seed, "batch")
    return Tensor(rng.normal(size=(b, d))), Tensor(rng.normal(size=(b, d))), rng.integers(0, c, size=b), c


def test_affiliation_same_class_identical_embeddings():
    u = np.array([[0.6, 0.8], [0.6, 0.8]])
    loss = affiliation_loss(Tensor(u), Tensor(u), np.array([0, 0]), 1, T_LOGIT)
    npt.assert_allclose(loss.item(), math.log(2.0), atol=1e-9)


def test_affiliation_zero_scale_gives_log_b():
    loss = affiliation_loss(*make_batch(3, b=5), -np.inf)
    npt.assert_allclose(loss.item(), math.log(5.0), atol=1e-12)


def test_affiliation_validation():
    v = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateInputError):
        affiliation_loss(v, Tensor(np.ones((2, 2))), np.array([0, 0]), 1, T_LOGIT)


def test_losses_invariant_under_row_permutation():
    rng = child(4, "perm")
    v, t, labels, c = make_batch(4, b=8, c=3)
    perm = rng.permutation(8)
    v_p = Tensor(v.data[perm])
    t_p = Tensor(t.data[perm])
    npt.assert_allclose(
        contrastive_loss(v, t, TAU).item(), contrastive_loss(v_p, t_p, TAU).item(), atol=1e-10
    )
    npt.assert_allclose(
        affiliation_loss(v, t, labels, c, T_LOGIT).item(),
        affiliation_loss(v_p, t_p, labels[perm], c, T_LOGIT).item(),
        atol=1e-10,
    )


def test_trainable_scale_gradient():
    rng = child(5, "tgrad")
    b, d = 4, 3
    v = Tensor(rng.normal(size=(b, d)))
    t = Tensor(rng.normal(size=(b, d)))
    labels = rng.integers(0, 2, size=b)
    t_logit = Tensor(np.array(T_LOGIT), requires_grad=True)

    def f(x):
        return affiliation_loss(v, t, labels, 2, x)

    assert grad_check(f, t_logit) < 1e-4
