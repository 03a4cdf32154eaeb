import math
import weakref

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

from composed import composed_layer_norm


# The package has no log or mean op: these references are built from its ops,
# so the gradient oracle and the trap still cover a log and a scaled sum.


def tlog(x):
    return T._op(np.log(x.data), (x,), lambda g: (g / x.data,))


def tmean(x, axis=None, keepdims=False):
    count = x.data.size if axis is None else x.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


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


# -- layer norm ---------------------------------------------------------------
#
# The norm lives inside the pre-norm ops ffn and attention; these check its
# private helper, which normalises the feature axis (-1), and, through ffn,
# the gamma and beta that each op folds into its first product.


def test_layer_norm_constant_vector():
    normed, _ = T._normalize(np.full((1, 3), 2.5))
    npt.assert_allclose(normed, np.zeros((1, 3)), atol=1e-6)


def test_layer_norm_already_standard():
    normed, _ = T._normalize(np.array([[1.0, -1.0]]))
    npt.assert_allclose(normed, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_zero_gamma_gives_beta():
    # with gamma 0 the normed input is beta: ffn(x) = x + tanh(βᵀ w1ᵀ + b1ᵀ) w2ᵀ + b2ᵀ
    rng = child(3, "ln")
    x = rng.normal(size=(1, 6))
    w1, b1, w2, b2 = (rng.normal(size=shape) for shape in ((4, 6), (4, 1), (6, 4), (6, 1)))
    beta = np.full((6, 1), 4.5)
    out = T.ffn(Tensor(x), np.zeros((6, 1)), beta, w1, b1, w2, b2)
    npt.assert_allclose(out.data, x + (w2 @ np.tanh(w1 @ beta + b1) + b2).T, rtol=0, atol=1e-12)


def test_layer_norm_standardises_along_axis():
    x = child(4, "ln-axis").normal(size=(3, 7, 5)) * 3.0 + 1.0
    normed, std = T._normalize(x)
    npt.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-6)
    npt.assert_allclose(normed.var(axis=-1), 1.0, atol=1e-4)
    npt.assert_allclose(std, np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5), rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_norm_fused_forward_matches_composed_bit_for_bit(dtype):
    for seed in range(20):
        rng = child(seed, "ln-fused", np.dtype(dtype).name)
        for shape in ((3, 5, 6), (1, 6)):
            x = Tensor(rng.normal(size=shape) * 4.0 + 2.0, dtype=dtype)
            normed, std = T._normalize(x.data)
            assert normed.dtype == std.dtype == np.dtype(dtype)
            ref_normed, ref_std = composed_layer_norm(x)
            npt.assert_array_equal(normed, ref_normed.data)
            npt.assert_array_equal(std, ref_std.data)


def test_pre_norm_ops_refuse_mismatched_norms():
    rng = child(5, "ln-shapes")
    x, kv = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 2, 4)))
    ones, zeros = np.ones((4, 1)), np.zeros((4, 1))
    w = [np.zeros((12, 4)), np.zeros((12, 1)), np.eye(4), zeros]
    with pytest.raises(DimensionError, match="ffn norm"):
        T.ffn(x, np.ones((3, 1)), zeros, np.eye(4), zeros, np.eye(4), zeros)
    with pytest.raises(DimensionError, match="key/value norm"):
        T.attention(x, kv, ones, zeros, ones, np.zeros(4), *w, heads=2)
    # a key/value norm exactly when keys and values come from a second input
    with pytest.raises(ContractError):
        T.attention(x, x, ones, zeros, ones, zeros, *w, heads=2)
    with pytest.raises(ContractError):
        T.attention(x, kv, ones, zeros, None, None, *w, heads=2)


# -- fused sublayers ------------------------------------------------------------
#
# tests/composed.py builds the same sublayers from primitive ops; test_pae.py
# checks every output and gradient of the fused blocks against it.


def _sublayer_case(kind, seed, dtype):
    """(fused op, arguments) of one random batched case."""
    rng = child(seed, "fold", kind)
    d = 4

    def leaf(shape, scale=1.0):
        return Tensor((rng.normal(size=shape) * scale).astype(dtype), requires_grad=True)

    x = leaf((2, 5, d))
    if kind == "ffn":
        args = [x, leaf((d, 1)), leaf((d, 1)), leaf((6, d), 0.5), leaf((6, 1)), leaf((d, 6), 0.5), leaf((d, 1))]
        return T.ffn, args
    kv, norm_kv = (x, [None, None]) if kind == "self" else (leaf((2, 3, d)), [leaf((d, 1)), leaf((d, 1))])
    weights = [leaf((3 * d, d), 0.5), leaf((3 * d, 1)), leaf((d, d), 0.5), leaf((d, 1))]
    args = [x, kv, leaf((d, 1)), leaf((d, 1)), *norm_kv, *weights]
    return lambda *a: T.attention(*a, heads=2), args


def _leaves(args):
    return list({id(t): t for t in args if t is not None}.values())


def _arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Tensor):
        yield obj.data
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_in(item)


@pytest.mark.parametrize("kind", ["ffn", "self", "cross"])
def test_folded_sublayer_stays_float32(kind, monkeypatch):
    helpers = []  # every array the norm and fold helpers return, forward and backward
    for name in ("_normalize", "_fold", "_fold_grads", "_norm_grads"):

        def recording(*a, fn=getattr(T, name), **kw):
            out = fn(*a, **kw)
            helpers.extend(_arrays_in(out))
            return out

        monkeypatch.setattr(T, name, recording)
    fused, args = _sublayer_case(kind, 0, np.float32)
    out = fused(*args)
    kept = list(_arrays_in([cell.cell_contents for cell in out._backward_fn.__closure__]))
    (out * child(0, "fold-coef32").normal(size=out.shape).astype(np.float32)).sum().backward()
    grads = [t.grad for t in _leaves(args)]
    assert len(helpers) > 6 and len(kept) > 6 and all(g is not None for g in grads)
    for arr in [out.data, *helpers, *kept, *grads]:
        assert arr.dtype == np.float32


def _closure(fn) -> dict:
    """name -> value of each variable a backward closure captured."""
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


@pytest.mark.parametrize("kind,saved", [("ffn", "h"), ("self", "p"), ("cross", "p")])
def test_backward_frees_what_an_op_saved(kind, saved):
    fused, args = _sublayer_case(kind, 0, np.float64)
    out = fused(*args)
    kept = weakref.ref(_closure(out._backward_fn)[saved])  # tanh(·) of ffn, attention's softmax
    assert kept() is not None
    (out * 2.0).sum().backward()
    # the op outlives its backward, but not its inputs or the arrays it saved
    assert out._parents == () and kept() is None
    assert all(t.grad is not None for t in _leaves(args))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["self", "cross"])
def test_attention_stacked_gradients_match_concatenation(kind, dtype, monkeypatch):
    # dQ, dK and dV go straight into one buffer; each token row must hold the
    # bits of the per-head products stacked with one np.concatenate, at batch size
    rng = child(0, "stacked", kind)
    b, d, heads, lq = 8, 48, 2, 17
    lk = lq if kind == "self" else 5
    dh = d // heads

    def leaf(shape, scale=1.0):
        return Tensor((rng.normal(size=shape) * scale).astype(dtype), requires_grad=True)

    x = leaf((b, lq, d))
    kv, norm_kv = (x, [None, None]) if kind == "self" else (leaf((b, lk, d)), [leaf((d, 1)), leaf((d, 1))])
    weights = [leaf((3 * d, d), d**-0.5), leaf((3 * d, 1)), leaf((d, d), d**-0.5), leaf((d, 1))]
    out = T.attention(x, kv, leaf((d, 1)), leaf((d, 1)), *norm_kv, *weights, heads=heads)
    saved = _closure(out._backward_fn)
    coef = rng.normal(size=out.shape).astype(dtype)

    received = []  # the gradient at each stacked product's output, in product order

    def recording(g, *rest, fn=T._fold_grads):
        received.append(g.copy())
        return fn(g, *rest)

    monkeypatch.setattr(T, "_fold_grads", recording)
    (out * coef).sum().backward()  # the op's gradient is coef itself

    p, lead = saved["p"], saved["lead"]  # P stored as (..., h, Lk, Lq)

    def token_rows(a):
        """(..., h, L, dh) per-head slices as (N, d) token rows."""
        return a.swapaxes(-3, -2).reshape(-1, d)

    gctx = (coef.reshape(-1, d) @ saved["wo"].data).reshape((*lead, lq, heads, dh)).swapaxes(-3, -2)
    gv = token_rows(p @ gctx)
    gscore = saved["vh"] @ gctx.swapaxes(-1, -2)  # dP, then dS, key by query
    gscore -= np.ones((1, lk), dtype=dtype) @ (gscore * p)
    gscore *= p
    gscore *= saved["scale"]
    gq = token_rows(gscore.swapaxes(-1, -2) @ saved["kh"])
    gk = token_rows(gscore @ saved["qh"])
    if kind == "self":
        expected = [np.concatenate([gq, gk, gv], axis=-1)]
    else:
        expected = [gq, np.concatenate([gk, gv], axis=-1)]
    assert len(received) == len(expected)
    for got, want in zip(received, expected):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["self", "cross"])
def test_attention_masked_key_gets_zero_dk_and_dv(kind, monkeypatch):
    # P is exactly 0 on a masked key, so dS is too, and with it dK = Q dS and
    # dV = G P at that key, with no backward term of its own for the mask
    rng = child(0, "masked", kind)
    b, d, heads, lq = 3, 8, 2, 5
    lk = lq if kind == "self" else 4
    # (B, 1, lk, 1): row 0 unpadded, then rows of lk - 1 and 1 real keys; key 0 is never padded
    mask = np.where(np.arange(lk)[:, None] >= np.array([lk, lk - 1, 1])[:, None, None, None], -np.inf, 0.0)

    def leaf(shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    x = leaf((b, lq, d))
    kv, norm_kv = (x, [None, None]) if kind == "self" else (leaf((b, lk, d)), [leaf((d, 1)), leaf((d, 1))])
    weights = [leaf((3 * d, d), d**-0.5), leaf((3 * d, 1)), leaf((d, d), d**-0.5), leaf((d, 1))]
    args = [x, kv, leaf((d, 1)), leaf((d, 1)), *norm_kv, *weights]
    with pytest.raises(DimensionError, match="key mask"):
        T.attention(*args, heads=heads, key_mask=mask[:, :, 1:])

    received = []  # the gradient at each stacked product's output, in product order

    def recording(g, *rest, fn=T._fold_grads):
        received.append(g.copy())
        return fn(g, *rest)

    monkeypatch.setattr(T, "_fold_grads", recording)
    with T.trap_nonfinite():
        out = T.attention(*args, heads=heads, key_mask=mask)
        (out * rng.normal(size=out.shape)).sum().backward()
    gkv = received[-1].reshape((b, lk, -1))[..., -2 * d :]  # dK and dV of the key/value product, per key
    padded = np.isinf(mask[:, 0, :, 0])
    assert padded.any() and not padded[:, 0].any()
    for row in range(b):
        assert np.all(gkv[row][padded[row]] == 0.0)
        assert np.all(gkv[row][~padded[row], d:] != 0.0)  # a real key's dV, P > 0


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
    with pytest.raises(ContractError, match="consumed"):
        loss.backward()  # the first walk consumed the graph
    npt.assert_allclose(x.grad, [24.0])
    assert y.grad is None and loss.grad is None


def test_no_grad_blocks_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


def test_non_finite_op_output_rejected():
    with pytest.warns(RuntimeWarning, match="divide by zero"), pytest.raises(NumericError):
        tlog(Tensor([0.0]))
    with pytest.raises(NumericError):
        Tensor([np.inf])


@pytest.mark.parametrize(
    "op,f",
    [
        ("multiply", lambda: Tensor([1e200]) * Tensor([1e200])),
        ("exp", lambda: T.texp(Tensor([1000.0]))),
        ("matmul", lambda: T.matmul(Tensor(np.full((2, 2), 1e200)), Tensor(np.full((2, 2), 1e200)))),
        ("log", lambda: tlog(Tensor([0.0]))),
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


RANDOMISED_SHAPES = {
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
# collapses to an identical zero (softmax sums are constants).
@pytest.mark.parametrize(
    "name,f",
    [
        ("softmax", lambda t, c: (T.softmax(t, axis=-1) * c).sum()),
        ("log_softmax", lambda t, c: (T.log_softmax(t, axis=-1) * c).sum()),
        ("l2_normalize", lambda t, c: (T.l2_normalize(t, axis=-1) * c).sum()),
        ("exp", lambda t, c: (T.texp(t * 0.3) * c).sum()),
        ("log", lambda t, c: (tlog(t * t + 1.0) * c).sum()),
        ("sqrt", lambda t, c: (T.tsqrt(t * t + 0.5) * c).sum()),
        ("tanh", lambda t, c: (T.ttanh(t) * c).sum()),
        ("div", lambda t, c: ((t / (t * t + 2.0)) * c).sum()),
        ("mean", lambda t, c: (tmean(t, axis=0, keepdims=True) * c).sum() + tmean(t)),
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


def test_rng_type_named_streams():
    assert isinstance(child(5, "weights").bit_generator, np.random.PCG64)
    a = child(5, "weights").normal(size=4)
    b = child(5, "weights").normal(size=4)
    c = child(5, "other").normal(size=4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
