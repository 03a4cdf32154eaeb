import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefret import tensor as T
from beliefret.belief import _strict_rank, refine_batch
from beliefret.errors import DimensionError
from beliefret.rng import child
from beliefret.tensor import Tensor


def brute_force_ranks(values):
    out = []
    for j, vj in enumerate(values):
        smaller = 0
        for vk in values:
            if vk < vj:
                smaller += 1
        out.append(1 + smaller)
    return np.array(out, dtype=np.int64)


def identity_batch(scores):
    """refine_batch inputs with identity features and f_ins = scores (B, L).

    The beliefs are softmax(scores), and each output row holds the one-hot
    of its source index scaled by that token's refinement weight.
    """
    scores = np.asarray(scores, dtype=np.float64)
    b, length = scores.shape
    return Tensor(np.tile(np.eye(length), (b, 1, 1))), Tensor(scores)


def soft_weights(scores):
    """Per-token soft weights belief + 1/sqrt(rank) for scores (B, L)."""
    return refine_batch(*identity_batch(scores)).data.sum(axis=-1)


def beliefs_of(scores):
    """Beliefs read off refine_batch: the soft weights minus their rank boost."""
    return soft_weights(scores) - 1.0 / np.sqrt(_strict_rank(np.asarray(scores)))


# -- belief matrix ------------------------------------------------------------


def test_belief_matrix_closed_form():
    out = refine_batch(*identity_batch([[1.0, 0.0]])).data[0]
    e = math.e
    # beliefs e/(e+1) and 1/(e+1) have ranks 2 and 1, so boosts 1/sqrt(2) and 1
    npt.assert_allclose(np.diagonal(out), [e / (e + 1.0) + 2**-0.5, 1.0 / (e + 1.0) + 1.0], atol=1e-12)
    npt.assert_allclose(np.diagonal(out) - [2**-0.5, 1.0], [0.7311, 0.2689], atol=5e-5)
    npt.assert_array_equal(out[[1, 0], [0, 1]], [0.0, 0.0])


def test_belief_matrix_orthogonal_instruction_uniform():
    # instruction hits only the first feature, which is identically zero:
    # the beliefs are uniform 1/4 and all rank 1, so each token is scaled by 1.25
    features = np.c_[np.zeros((4, 1)), child(0, "bm").normal(size=(3, 4)).T]
    out = refine_batch(Tensor(features[None]), Tensor([[1.0, 0.0, 0.0, 0.0]]))
    npt.assert_allclose(out.data[0], 1.25 * features, atol=1e-12)


def test_belief_matrix_scaling_sharpens():
    rng = child(1, "bm-scale")
    f_ins = rng.normal(size=6)
    feats = rng.normal(size=(6, 9))
    scores = (f_ins @ feats)[None]
    assert beliefs_of(3.0 * scores).max() > beliefs_of(scores).max()


def test_belief_matrix_dim_mismatch():
    with pytest.raises(DimensionError):
        refine_batch(Tensor(np.ones((1, 5, 2))), Tensor([[1.0, 0.0, 0.0]]))


def test_belief_matrix_invariants():
    rng = child(2, "bm-inv")
    f_ins, feats = zip(*((rng.normal(size=5), rng.normal(size=(5, 8))) for _ in range(20)))
    beliefs = beliefs_of(np.einsum("bd,bdl->bl", np.array(f_ins), np.array(feats)))
    assert (beliefs >= 0).all()
    assert (np.abs(beliefs.sum(axis=-1) - 1.0) < 1e-6).all()


# -- ranks ---------------------------------------------------------------------


def test_ranks_hand_cases():
    npt.assert_array_equal(_strict_rank(np.array([0.5, 0.2, 0.3])), [3, 1, 2])
    npt.assert_array_equal(_strict_rank(np.array([0.4, 0.4, 0.2])), [2, 2, 1])
    npt.assert_array_equal(_strict_rank(np.array([0.25, 0.25, 0.25, 0.25])), [1, 1, 1, 1])
    # refine_batch ranks each batch row on its own
    npt.assert_array_equal(_strict_rank(np.array([[0.5, 0.2, 0.3], [0.4, 0.4, 0.2]])), [[3, 1, 2], [2, 2, 1]])


# -- soft reweight ---------------------------------------------------------------


def test_soft_reweight_two_token_hand_case():
    out = refine_batch(*identity_batch([[0.0, 0.0]]))  # beliefs 0.5 and 0.5, both rank 1
    npt.assert_allclose(out.data[0], [[1.5, 0.0], [0.0, 1.5]])


def test_soft_reweight_uniform_weights():
    length = 5
    npt.assert_allclose(soft_weights(np.zeros((1, length)))[0], np.full(length, 1.0 / length + 1.0))


# -- batched refinement ----------------------------------------------------------


def test_refine_batch_matches_per_sample():
    rng = child(5, "refine-batch")
    b, d, length = 3, 6, 7
    feats = rng.normal(size=(b, length, d))
    ins = rng.normal(size=(b, d))
    batched = refine_batch(Tensor(feats), Tensor(ins))
    for i in range(b):
        single = refine_batch(Tensor(feats[i : i + 1]), Tensor(ins[i : i + 1]))
        npt.assert_allclose(batched.data[i], single.data[0], atol=1e-12)


def test_refine_batch_shapes_and_validation():
    feats = Tensor(np.ones((2, 5, 3)))
    ins = Tensor(np.ones((2, 3)))
    assert refine_batch(feats, ins).shape == (2, 5, 3)
    with pytest.raises(DimensionError):
        refine_batch(feats, Tensor(np.ones((2, 4))))


# -- properties over random batches ------------------------------------------------


@st.composite
def one_hot_batches(draw):
    """(scores (B, d), L) for features whose L token rows are e_0..e_{L-1} in R^d.

    features @ f_ins is then scores[:, :L] exactly, and every output row is
    the one-hot of its source index times its weight. Quarter-step scores make
    ties common; the other draws are arbitrary floats.
    """
    b = draw(st.integers(1, 4))
    length = draw(st.integers(1, 8))
    d = draw(st.integers(length, length + 3))
    score = st.one_of(st.integers(-12, 12).map(lambda v: v / 4.0), st.floats(-6.0, 6.0))
    scores = np.array(draw(st.lists(score, min_size=b * d, max_size=b * d))).reshape(b, d)
    return scores, length


def _one_hot_inputs(scores, length):
    b, d = scores.shape
    features = np.tile(np.eye(d)[:length], (b, 1, 1))
    beliefs = T.softmax(Tensor(np.ascontiguousarray(scores[:, None, :length])), axis=-1).data[:, 0]
    return Tensor(features), Tensor(scores), beliefs


@given(one_hot_batches())
def test_property_soft_weights_within_one_above_belief(case):
    scores, length = case
    features, f_ins, beliefs = _one_hot_inputs(scores, length)
    w = refine_batch(features, f_ins).data.sum(axis=-1)
    assert (w > beliefs).all()
    assert (w <= beliefs + 1.0).all()


@st.composite
def tied_score_rows(draw):
    """(B, L) rows of scores; quarter steps force ties, the other draws are arbitrary floats."""
    b, length = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    value = st.one_of(st.integers(0, 4).map(lambda v: v / 4.0), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(value, min_size=b * length, max_size=b * length))).reshape(b, length)


@given(tied_score_rows())
def test_property_strict_rank_matches_brute_force(values):
    npt.assert_array_equal(_strict_rank(values), [brute_force_ranks(row) for row in values])
