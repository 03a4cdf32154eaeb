import math

import numpy as np
import numpy.testing as npt
import pytest

from beliefret import tensor as T
from beliefret.errors import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)
from beliefret.rng import child
from beliefret.tensor import Tensor, grad_check


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[2.0], [3.0]]))
    npt.assert_allclose(out.data, [[2.0], [3.0]])


def test_matmul_hand_arithmetic():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    npt.assert_allclose(out.data, [[11.0]])


def test_matmul_zero_annihilates():
    zero = Tensor(np.zeros((3, 4)))
    other = Tensor(child(0, "matmul").normal(size=(4, 2)))
    npt.assert_array_equal(T.matmul(zero, other).data, np.zeros((3, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_matmul_gradient_rule():
    rng = child(1, "matmul-grad")
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = T.matmul(a, b)
    out.sum().backward()
    g = np.ones((2, 4))
    npt.assert_allclose(a.grad, g @ b.data.T)
    npt.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_batched_broadcast_gradient():
    rng = child(2, "matmul-batch")
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
    err = grad_check(lambda t: T.matmul(w, t).sum(), x)
    assert err < 1e-6
    err_w = grad_check(lambda t: (T.matmul(t, x) * x).sum(), w)
    assert err_w < 1e-6


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_input():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]))
    npt.assert_allclose(out.data, np.full(3, 1.0 / 3.0))


def test_softmax_closed_form():
    out = T.softmax(Tensor([1.0, 0.0]))
    e = math.e
    npt.assert_allclose(out.data, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)
    npt.assert_allclose(out.data, [0.7311, 0.2689], atol=5e-5)


def test_softmax_large_logits_stable():
    out = T.softmax(Tensor([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    npt.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_empty_axis_rejected():
    with pytest.raises(DimensionError):
        T.softmax(Tensor(np.zeros((2, 0))), axis=-1)
    with pytest.raises(DimensionError):
        T.softmax(Tensor(3.0))


def test_softmax_sums_to_one_and_permutation_equivariant():
    for seed in range(50):
        rng = child(seed, "softmax-prop")
        x = rng.normal(size=8) * 5.0
        y = T.softmax(Tensor(x)).data
        assert abs(y.sum() - 1.0) < 1e-6
        assert (y >= 0).all()
        perm = rng.permutation(8)
        y_perm = T.softmax(Tensor(x[perm])).data
        npt.assert_allclose(y_perm, y[perm], atol=1e-12)


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_vector():
    out = T.layer_norm(Tensor([2.5, 2.5, 2.5]), 1.0, 0.0)
    npt.assert_allclose(out.data, np.zeros(3), atol=1e-6)


def test_layer_norm_already_standard():
    out = T.layer_norm(Tensor([1.0, -1.0]), 1.0, 0.0)
    npt.assert_allclose(out.data, [1.0, -1.0], atol=1e-5)


def test_layer_norm_zero_gamma_gives_beta():
    x = Tensor(child(3, "ln").normal(size=6))
    out = T.layer_norm(x, 0.0, 4.5)
    npt.assert_allclose(out.data, np.full(6, 4.5))


def test_layer_norm_standardises_along_axis():
    x = Tensor(child(4, "ln-axis").normal(size=(3, 5, 7)) * 3.0 + 1.0)
    out = T.layer_norm(x, 1.0, 0.0, axis=-2)
    npt.assert_allclose(out.data.mean(axis=-2), 0.0, atol=1e-6)
    npt.assert_allclose(out.data.var(axis=-2), 1.0, atol=1e-4)


def composed_layer_norm(x, gamma, beta, eps=1e-5, axis=-1):
    """The layer norm as a graph of primitive ops: the reference the fused op matches."""
    mu = T.tmean(x, axis=axis, keepdims=True)
    centered = x - mu
    var = T.tmean(centered * centered, axis=axis, keepdims=True)
    return gamma * (centered / T.tsqrt(var + eps)) + beta


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_norm_fused_forward_matches_composed_bit_for_bit(dtype):
    for seed in range(20):
        rng = child(seed, "ln-fused", np.dtype(dtype).name)
        x = Tensor(rng.normal(size=(3, 6, 5)) * 4.0 + 2.0, dtype=dtype)
        gamma = Tensor(rng.normal(size=(6, 1)), dtype=dtype)
        beta = Tensor(rng.normal(size=(6, 1)), dtype=dtype)
        for args, axis in (((gamma, beta), -2), ((1.3, -0.2), -1)):
            fused = T.layer_norm(x, *args, axis=axis).data
            assert fused.dtype == np.dtype(dtype)
            npt.assert_array_equal(fused, composed_layer_norm(x, *args, axis=axis).data)


# -- l2 normalize -------------------------------------------------------------


def test_l2_normalize_hand_case():
    out = T.l2_normalize(Tensor([3.0, 4.0]))
    npt.assert_allclose(out.data, [0.6, 0.8])


def test_l2_normalize_unit_vector_fixed_point():
    v = np.array([1.0, 0.0, 0.0])
    npt.assert_allclose(T.l2_normalize(Tensor(v)).data, v)


def test_l2_normalize_zero_row_rejected():
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(Tensor([0.0, 0.0]))
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(Tensor([[1.0, 2.0], [0.0, 0.0]]), axis=-1)


def test_l2_normalize_rows_unit_norm():
    x = Tensor(child(5, "l2").normal(size=(10, 6)))
    out = T.l2_normalize(x, axis=-1)
    npt.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-6)


# -- backward contract --------------------------------------------------------


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_backward_accumulates_over_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    npt.assert_allclose(x.grad, [4.0, 8.0])
    x.zero_grad()
    assert x.grad is None


def test_backward_through_shared_subexpression():
    x = Tensor([3.0], requires_grad=True)
    y = x * 2.0
    (y * y).sum().backward()  # d/dx (2x)^2 = 8x
    npt.assert_allclose(x.grad, [24.0])


def test_backward_keeps_gradients_only_on_leaves():
    x = Tensor([3.0], requires_grad=True)
    y = x * 2.0
    loss = (y * y).sum()
    loss.backward()
    loss.backward()  # the same graph twice: the leaf accumulates
    npt.assert_allclose(x.grad, [48.0])
    assert y.grad is None and loss.grad is None


def test_no_grad_blocks_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


def test_non_finite_op_output_rejected():
    with pytest.warns(RuntimeWarning, match="divide by zero"), pytest.raises(NumericError):
        T.tlog(Tensor([0.0]))
    with pytest.raises(NumericError):
        Tensor([np.inf])


@pytest.mark.parametrize(
    "op,f",
    [
        ("multiply", lambda: Tensor([1e200]) * Tensor([1e200])),
        ("exp", lambda: T.texp(Tensor([1000.0]))),
        ("matmul", lambda: T.matmul(Tensor(np.full((2, 2), 1e200)), Tensor(np.full((2, 2), 1e200)))),
        ("log", lambda: T.tlog(Tensor([0.0]))),
        ("divide", lambda: Tensor([0.0]) / Tensor([0.0])),
        ("sqrt", lambda: T.tsqrt(Tensor([-1.0]))),
    ],
)
def test_trap_names_the_numpy_op(op, f):
    with pytest.raises(NumericError, match=f"non-finite value: .* encountered in {op}$"):
        with T.trap_nonfinite():
            f()
    # leaving the scope, even by an error, brings back the per-op scan
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="tensor data"):
        f()


# -- grad_check oracle --------------------------------------------------------


def test_grad_check_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda t: (t * t).sum(), x)
    assert err < 1e-8
    # analytic gradient is [2, 4]
    x.zero_grad()
    (x * x).sum().backward()
    npt.assert_allclose(x.grad, [2.0, 4.0])


def test_grad_check_softmax_cross_entropy():
    rng = child(6, "sce")
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    onehot = Tensor(np.eye(5)[rng.integers(0, 5, size=4)])

    def f(t):
        return -(T.log_softmax(t, axis=-1) * onehot).sum() * (1.0 / 4.0)

    assert grad_check(f, logits) < 1e-4


def test_grad_check_constant_function():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    c = Tensor([5.0])
    assert grad_check(lambda t: c.sum(), x) == 0.0


# layer_norm cases use the production layout: a (B, d, L) input normalised
# along d (axis -2) with (d, 1) gamma and beta; the probed tensor is x, gamma or
# beta, and the coefficient tensor has the input's shape.
LN_GAMMA = Tensor(child(10, "gc-ln-gamma").normal(size=(4, 1)))
LN_BETA = Tensor(child(10, "gc-ln-beta").normal(size=(4, 1)))
RANDOMISED_SHAPES = {
    "layer_norm_x": ((2, 4, 3), (2, 4, 3)),
    "layer_norm_gamma": ((4, 1), (2, 4, 3)),
    "layer_norm_beta": ((4, 1), (2, 4, 3)),
    "index_hard_filter": ((2, 3, 5), (2, 3, 4)),
}
# the hard filter's key: per batch row, the kept columns of every feature row
# (a repeated column checks that the scatter sums)
HARD_FILTER_KEY = (
    np.arange(2)[:, None, None], np.arange(3)[:, None], np.array([[[0, 2, 2, 4]], [[3, 1, 0, 3]]])
)


def along_last(shape, idx):
    """The index key that picks idx along the last axis of a tensor of this
    shape, as np.take_along_axis does (idx broadcasts over the leading axes)."""
    lead = tuple(np.arange(n).reshape((-1,) + (1,) * (len(shape) - 1 - a)) for a, n in enumerate(shape[:-1]))
    return lead + (idx,)


# Readouts are weighted by a random coefficient tensor so the gradient never
# collapses to an identical zero (softmax/layer_norm sums are constants).
@pytest.mark.parametrize(
    "name,f",
    [
        ("softmax", lambda t, c: (T.softmax(t, axis=-1) * c).sum()),
        ("log_softmax", lambda t, c: (T.log_softmax(t, axis=-1) * c).sum()),
        ("layer_norm", lambda t, c: (T.layer_norm(t, 1.3, -0.2, axis=-1) * c).sum()),
        ("l2_normalize", lambda t, c: (T.l2_normalize(t, axis=-1) * c).sum()),
        ("exp", lambda t, c: (T.texp(t * 0.3) * c).sum()),
        ("log", lambda t, c: (T.tlog(t * t + 1.0) * c).sum()),
        ("sqrt", lambda t, c: (T.tsqrt(t * t + 0.5) * c).sum()),
        ("tanh", lambda t, c: (T.ttanh(t) * c).sum()),
        ("div", lambda t, c: ((t / (t * t + 2.0)) * c).sum()),
        ("mean", lambda t, c: (t.mean(axis=0, keepdims=True) * c).sum() + t.mean()),
        ("swapaxes", lambda t, c: (t.swapaxes(0, 1) * c.swapaxes(0, 1)).sum()),
        ("broadcast", lambda t, c: (T.broadcast_to(t.reshape((2, 4, 1)), (2, 4, 3)) * c.reshape((2, 4, 1))).sum()),
        ("index_slice", lambda t, c: (t[:, 1:3] * c[:, 1:3]).sum()),
        ("index_ellipsis", lambda t, c: (t[..., 0] * c[..., 0]).sum()),
        ("index_repeated", lambda t, c: (t[:, [1, 0, 1]] * 2.0).sum()),
        ("concat", lambda t, c: (T.concat([t, t * 2.0], axis=0) * 0.25).sum()),
        ("softmax_axis0", lambda t, c: (T.softmax(t, axis=0) * c).sum()),
        ("matmul", lambda t, c: (T.matmul(t, c.swapaxes(0, 1)) * T.matmul(c, c.swapaxes(0, 1))).sum()),
        ("arithmetic", lambda t, c: (t * c + t - (-t) / (c * c + 1.0)).sum()),
        ("reshape", lambda t, c: (t.reshape((4, 2)) * c.reshape((4, 2))).sum()),
        ("transpose", lambda t, c: (T.transpose(t, (1, 0)) * T.transpose(c, (1, 0))).sum()),
        ("take_along_last", lambda t, c: (t[along_last(t.shape, np.array([[0, 2, 2], [3, 1, 0]]))] * 0.5).sum()),
        ("index_hard_filter", lambda t, c: (t[HARD_FILTER_KEY] * c).sum()),
        ("dropout_fixed_mask", lambda t, c: (T.dropout(t, 0.4, child(9, "gc-drop")) * c).sum()),
        ("layer_norm_x", lambda t, c: (T.layer_norm(t, LN_GAMMA, LN_BETA, axis=-2) * c).sum()),
        ("layer_norm_gamma", lambda t, c: (T.layer_norm(c * 2.0 + 0.5, t, LN_BETA, axis=-2) * c).sum()),
        ("layer_norm_beta", lambda t, c: (T.layer_norm(c, LN_GAMMA, t, axis=-2) * T.ttanh(c)).sum()),
    ],
)
def test_grad_check_ops_randomised(name, f):
    x_shape, coef_shape = RANDOMISED_SHAPES.get(name, ((2, 4), (2, 4)))
    worst = 0.0
    for seed in range(100):
        rng = child(seed, "op-grad", name)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        coef = Tensor(rng.normal(size=coef_shape))
        worst = max(worst, grad_check(lambda t: f(t, coef), x))
    assert worst < 1e-4, f"{name}: worst rel err {worst}"


def test_grad_check_take_along_last():
    rng = child(7, "tal")
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    idx = rng.integers(0, 5, size=(2, 1, 4))
    key = along_last(x.shape, idx)
    npt.assert_array_equal(x[key].data, np.take_along_axis(x.data, np.broadcast_to(idx, (2, 3, 4)), axis=-1))

    def f(t):
        return (t[key] * 0.5).sum()

    assert grad_check(f, x) < 1e-6


# -- index op ---------------------------------------------------------------


def test_index_matches_numpy_and_sums_repeated_ids():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = x[:, [2, 2, 0]]
    npt.assert_array_equal(out.data, x.data[:, [2, 2, 0]])
    out.sum().backward()
    npt.assert_array_equal(x.grad, np.tile([1.0, 0.0, 2.0, 0.0], (3, 1)))


def test_index_key_that_does_not_fit_raises():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    for key in (5, (slice(None), [0, 3]), (0, 0, 0), ([0, 1], [0, 1, 2]), 1.5):
        with pytest.raises(DimensionError):
            x[key]


# -- backward engine ------------------------------------------------------------


def _count_backward_calls(loss):
    """Wrap the backward closure of every op behind ``loss``; returns op -> calls."""
    calls = {}
    todo, seen = [loss], {loss}
    while todo:
        node = todo.pop()
        if node._backward_fn is not None:
            calls[node] = 0

            def counted(g, node=node, fn=node._backward_fn):
                calls[node] += 1
                return fn(g)

            node._backward_fn = counted
        for parent in node._parents:
            if parent not in seen:
                seen.add(parent)
                todo.append(parent)
    return calls


def test_backward_runs_each_op_once_in_a_residual_graph():
    rng = child(3, "residual")
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)

    def f(t, w_):
        h = t
        for _ in range(4):
            h = h + T.ttanh(T.matmul(h, w_))  # h feeds the branch and the skip
        # t was first consumed by the first branch, long before these ops
        return (h * t).sum() + T.texp(t[:, :1] * 0.5).sum()

    loss = f(x, w)
    calls = _count_backward_calls(loss)
    loss.backward()
    assert len(calls) == 19 and set(calls.values()) == {1}  # 4 x 3 branch ops, then 7
    got_x, got_w = x.grad.copy(), w.grad.copy()
    assert grad_check(lambda t: f(t, w), x) < 1e-6
    assert grad_check(lambda v: f(x, v), w) < 1e-6
    x.zero_grad()
    w.zero_grad()
    f(x, w).backward()
    npt.assert_array_equal(x.grad, got_x)
    npt.assert_array_equal(w.grad, got_w)


def test_backward_through_a_long_chain():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(10_000):
        y = y + 1.0
    (y * 2.0).sum().backward()
    npt.assert_array_equal(x.grad, [2.0])


# -- determinism --------------------------------------------------------------


def test_forward_determinism_same_seed():
    def run(seed):
        rng = child(seed, "determinism")
        x = Tensor(rng.normal(size=(5, 5)))
        w = Tensor(rng.normal(size=(5, 5)))
        return T.softmax(T.matmul(w, x), axis=0).data

    npt.assert_array_equal(run(42), run(42))
    assert not np.array_equal(run(42), run(43))


def test_dropout_seeded_and_disabled():
    x = Tensor(np.ones((4, 4)))
    a = T.dropout(x, 0.5, child(0, "drop"))
    b = T.dropout(x, 0.5, child(0, "drop"))
    npt.assert_array_equal(a.data, b.data)
    assert T.dropout(x, 0.0, child(0, "drop")) is x


def test_rng_type_named_streams():
    from beliefret.rng import ALGORITHM

    assert ALGORITHM == "pcg64"
    assert isinstance(child(5, "weights").bit_generator, np.random.PCG64)
    a = child(5, "weights").normal(size=4)
    b = child(5, "weights").normal(size=4)
    c = child(5, "other").normal(size=4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
