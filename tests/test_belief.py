import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefret import tensor as T
from beliefret.belief import _strict_rank, refine_batch
from beliefret.errors import ConfigError, DimensionError
from beliefret.rng import child
from beliefret.tensor import Tensor, grad_check


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

    The beliefs are softmax(scores), and each output column holds the one-hot
    of its source index scaled by that column's refinement weight.
    """
    scores = np.asarray(scores, dtype=np.float64)
    b, length = scores.shape
    return Tensor(np.tile(np.eye(length), (b, 1, 1))), Tensor(scores)


def weights_batch(values, tokens=None):
    """A batch of one whose beliefs are the normalised ``values`` (L,).

    The features are the identity stacked on ``tokens`` (t, L), and f_ins is
    log(weights) padded with zeros, so the first L rows of each output column
    are the one-hot of its source index and the rest are that token's values.
    """
    v = np.asarray(values, dtype=np.float64)
    tokens = np.zeros((0, v.size)) if tokens is None else np.asarray(tokens, dtype=np.float64)
    features = np.vstack([np.eye(v.size), tokens])
    f_ins = np.r_[np.log(v / v.sum()), np.zeros(len(tokens))]
    return Tensor(features[None]), Tensor(f_ins[None])


def kept_indices(out, length):
    """Source index of each hard-mode output column of a weights_batch."""
    return np.argmax(out.data[0, :length], axis=0)


def soft_weights(scores):
    """Per-column soft weights belief + 1/sqrt(rank) for scores (B, L)."""
    return refine_batch(*identity_batch(scores), "soft-aggregate").data[..., 0]


def beliefs_of(scores):
    """Beliefs read off refine_batch: the soft weights minus their rank boost."""
    return soft_weights(scores) - 1.0 / np.sqrt(_strict_rank(np.asarray(scores)))


# -- belief matrix ------------------------------------------------------------


def test_belief_matrix_closed_form():
    out = refine_batch(*identity_batch([[1.0, 0.0]]), "soft-sequence").data[0]
    e = math.e
    # beliefs e/(e+1) and 1/(e+1) have ranks 2 and 1, so boosts 1/sqrt(2) and 1
    npt.assert_allclose(np.diagonal(out), [e / (e + 1.0) + 2**-0.5, 1.0 / (e + 1.0) + 1.0], atol=1e-12)
    npt.assert_allclose(np.diagonal(out) - [2**-0.5, 1.0], [0.7311, 0.2689], atol=5e-5)
    npt.assert_array_equal(out[[1, 0], [0, 1]], [0.0, 0.0])


def test_belief_matrix_orthogonal_instruction_uniform():
    # instruction hits only the first feature row, which is identically zero:
    # the beliefs are uniform 1/4 and all rank 1, so each column is scaled by 1.25
    features = np.r_[np.zeros((1, 4)), child(0, "bm").normal(size=(3, 4))]
    out = refine_batch(Tensor(features[None]), Tensor([[1.0, 0.0, 0.0, 0.0]]), "soft-sequence")
    npt.assert_allclose(out.data[0], 1.25 * features, atol=1e-12)


def test_belief_matrix_scaling_preserves_argmax_and_sharpens():
    rng = child(1, "bm-scale")
    f_ins = rng.normal(size=6)
    feats = rng.normal(size=(6, 9))
    base = refine_batch(Tensor(feats[None]), Tensor(f_ins[None]), "hard", 1)
    scaled = refine_batch(Tensor(feats[None]), Tensor(3.0 * f_ins[None]), "hard", 1)
    npt.assert_array_equal(base.data, scaled.data)
    scores = (f_ins @ feats)[None]
    assert beliefs_of(3.0 * scores).max() > beliefs_of(scores).max()


def test_belief_matrix_dim_mismatch():
    with pytest.raises(DimensionError):
        refine_batch(Tensor(np.ones((1, 2, 5))), Tensor([[1.0, 0.0, 0.0]]), "soft-sequence")


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


def test_ranks_match_brute_force_including_ties():
    for seed in range(1000):
        rng = child(seed, "rank-oracle")
        length = int(rng.integers(1, 65))
        values = rng.random(length)
        if seed % 2:  # quantise to force heavy ties
            values = np.round(values * 4) / 4.0
        weights = values / values.sum() if values.sum() > 0 else np.full(length, 1.0 / length)
        npt.assert_array_equal(_strict_rank(weights), brute_force_ranks(weights))


# -- hard filter ---------------------------------------------------------------


def test_hard_filter_sort_oracle():
    tokens = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    out = refine_batch(*weights_batch([0.2, 0.5, 0.3], tokens), "hard", 2)
    npt.assert_array_equal(kept_indices(out, 3), [1, 2])
    npt.assert_allclose(out.data[0, 3:], [[2.0, 3.0], [20.0, 30.0]])


def test_hard_filter_full_keep_sorts():
    tokens = child(3, "hf").normal(size=(4, 3))
    out = refine_batch(*weights_batch([0.2, 0.5, 0.3], tokens), "hard", 3)
    npt.assert_array_equal(kept_indices(out, 3), [1, 2, 0])
    npt.assert_array_equal(out.data[0, 3:], tokens[:, [1, 2, 0]])


def test_hard_filter_tie_keeps_lower_index():
    out = refine_batch(*weights_batch([0.4, 0.4, 0.2]), "hard", 1)
    npt.assert_array_equal(kept_indices(out, 3), [0])


def test_hard_filter_k_out_of_range():
    batch = weights_batch([0.3, 0.3, 0.4])
    with pytest.raises(ConfigError):
        refine_batch(*batch, "hard", 0)
    with pytest.raises(ConfigError):
        refine_batch(*batch, "hard", 4)


def test_hard_filter_kept_beliefs_are_k_largest():
    for seed in range(1000):
        rng = child(seed, "hf-oracle")
        length = int(rng.integers(1, 33))
        values = rng.random(length)
        if seed % 3 == 0:
            values = np.round(values * 3) / 3.0 + 0.05
        weights = values / values.sum()
        k = int(rng.integers(1, length + 1))
        out = refine_batch(*weights_batch(weights, rng.normal(size=(3, length))), "hard", k)
        kept = kept_indices(out, length)
        expected = np.sort(weights)[::-1][:k]
        npt.assert_allclose(np.sort(weights[kept]), np.sort(expected), atol=0)
        # documented tie rule: stable descending order by (belief, original index)
        oracle = sorted(range(length), key=lambda j: (-weights[j], j))[:k]
        npt.assert_array_equal(kept, oracle)


# -- soft reweight ---------------------------------------------------------------


def test_soft_reweight_two_token_hand_case():
    batch = weights_batch([0.5, 0.5])
    agg = refine_batch(*batch, "soft-aggregate")
    npt.assert_allclose(agg.data[0], [[1.5], [1.5]])
    seq = refine_batch(*batch, "soft-sequence")
    npt.assert_allclose(seq.data[0], [[1.5, 0.0], [0.0, 1.5]])


def test_soft_reweight_uniform_weights():
    length = 5
    npt.assert_allclose(soft_weights(np.zeros((1, length)))[0], np.full(length, 1.0 / length + 1.0))


def test_soft_reweight_weight_bounds():
    for seed in range(200):
        rng = child(seed, "soft-bounds")
        length = int(rng.integers(1, 20))
        weights = rng.random(length) + 1e-3
        weights = weights / weights.sum()
        out = refine_batch(*weights_batch(weights, rng.normal(size=(2, length))), "soft-sequence")
        w = np.diagonal(out.data[0, :length])
        assert (w > weights).all()
        assert (w <= weights + 1.0 + 1e-12).all()


def test_soft_reweight_unknown_mode():
    batch = weights_batch([0.5, 0.5])
    with pytest.raises(ConfigError):
        refine_batch(*batch, "soft")
    with pytest.raises(ConfigError):
        refine_batch(*batch, "hard")  # hard mode needs a filter size


def test_soft_reweight_gradients_with_frozen_ranks():
    # ranks are constants of the graph, so the gradient flows through beliefs only
    rng = child(4, "soft-grad")
    feats = Tensor(rng.normal(size=(1, 3, 5)), requires_grad=True)
    f_ins = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    coef = Tensor(rng.normal(size=(1, 3, 5)))

    def f(t):
        return (refine_batch(t, f_ins, "soft-sequence") * coef).sum()

    assert grad_check(f, feats) < 1e-4

    coef_ins = Tensor(rng.normal(size=(1, 3, 5)))

    def g(t):
        return (refine_batch(feats, t, "soft-aggregate") * coef_ins.sum(axis=-1, keepdims=True)).sum()

    assert grad_check(g, f_ins) < 1e-4


# -- batched refinement ----------------------------------------------------------


def test_refine_batch_matches_per_sample():
    rng = child(5, "refine-batch")
    b, d, length = 3, 6, 7
    feats = rng.normal(size=(b, d, length))
    ins = rng.normal(size=(b, d))
    for mode, k in (("hard", 3), ("soft-sequence", 0), ("soft-aggregate", 0)):
        batched = refine_batch(Tensor(feats), Tensor(ins), mode, k)
        for i in range(b):
            single = refine_batch(Tensor(feats[i : i + 1]), Tensor(ins[i : i + 1]), mode, k)
            npt.assert_allclose(batched.data[i], single.data[0], atol=1e-12)


def test_refine_batch_shapes_and_validation():
    feats = Tensor(np.ones((2, 3, 5)))
    ins = Tensor(np.ones((2, 3)))
    assert refine_batch(feats, ins, "hard", 2).shape == (2, 3, 2)
    assert refine_batch(feats, ins, "soft-sequence").shape == (2, 3, 5)
    assert refine_batch(feats, ins, "soft-aggregate").shape == (2, 3, 1)
    with pytest.raises(ConfigError):
        refine_batch(feats, ins, "nope")
    with pytest.raises(DimensionError):
        refine_batch(feats, Tensor(np.ones((2, 4))), "soft-sequence")


def test_refine_batch_hard_mode_gradient_flows_through_features():
    rng = child(6, "hard-grad")
    feats = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    ins = Tensor(rng.normal(size=(2, 3)))
    coef = Tensor(rng.normal(size=(2, 3, 2)))

    def f(t):
        return (refine_batch(t, ins, "hard", 2) * coef).sum()

    # selection indices are constants; gradients reach the kept columns
    assert grad_check(f, feats) < 1e-4


# -- properties over random batches ------------------------------------------------


@st.composite
def one_hot_batches(draw):
    """(scores (B, d), L, k) for features whose L columns are e_0..e_{L-1} in R^d.

    f_ins @ features is then scores[:, :L] exactly, and every output column is
    the one-hot of its source index times its weight. Quarter-step scores make
    ties common; the other draws are arbitrary floats.
    """
    b = draw(st.integers(1, 4))
    length = draw(st.integers(1, 8))
    d = draw(st.integers(length, length + 3))
    score = st.one_of(st.integers(-12, 12).map(lambda v: v / 4.0), st.floats(-6.0, 6.0))
    scores = np.array(draw(st.lists(score, min_size=b * d, max_size=b * d))).reshape(b, d)
    return scores, length, draw(st.integers(1, length))


def _one_hot_inputs(scores, length):
    b, d = scores.shape
    features = np.tile(np.eye(d)[:, :length], (b, 1, 1))
    beliefs = T.softmax(Tensor(np.ascontiguousarray(scores[:, None, :length])), axis=-1).data[:, 0]
    return Tensor(features), Tensor(scores), beliefs


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(one_hot_batches())
def test_property_hard_keeps_k_largest_in_stable_order(case):
    scores, length, k = case
    features, f_ins, beliefs = _one_hot_inputs(scores, length)
    out = refine_batch(features, f_ins, "hard", k).data  # (B, d, k)
    for row, belief in zip(out, beliefs):
        kept = np.argmax(row, axis=0)
        npt.assert_array_equal(row, np.eye(row.shape[0])[:, kept])
        npt.assert_array_equal(kept, sorted(range(length), key=lambda j: (-belief[j], j))[:k])
        npt.assert_array_equal(np.sort(belief[kept]), np.sort(belief)[length - k :])


@PROPERTY_SETTINGS
@given(one_hot_batches())
def test_property_soft_weights_within_one_above_belief(case):
    scores, length, _ = case
    features, f_ins, beliefs = _one_hot_inputs(scores, length)
    w = refine_batch(features, f_ins, "soft-aggregate").data[:, :length, 0]
    assert (w > beliefs).all()
    assert (w <= beliefs + 1.0).all()


@st.composite
def tied_score_rows(draw):
    """(B, L) rows of scores; quarter steps force ties, the other draws are arbitrary floats."""
    b, length = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    value = st.one_of(st.integers(0, 4).map(lambda v: v / 4.0), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(value, min_size=b * length, max_size=b * length))).reshape(b, length)


@PROPERTY_SETTINGS
@given(tied_score_rows())
def test_property_strict_rank_matches_brute_force(values):
    npt.assert_array_equal(_strict_rank(values), [brute_force_ranks(row) for row in values])
