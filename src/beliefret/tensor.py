"""Dense tensors with reverse-mode differentiation.

Values are numpy arrays (float64 by default, float32 opt-in for training) and
every operation records a backward closure, so calling ``backward()`` on a
scalar accumulates exact partial derivatives into ``.grad`` of every leaf
tensor that requires them (op outputs keep no gradient). ``grad_check``
verifies any scalar-valued function against central differences.

Non-finite values are an error state, caught in one of two ways. Data entering
as a leaf (``Tensor(...)``) is always scanned. Outside a ``trap_nonfinite()``
scope every op output is scanned too. Inside one, numpy raises at the first
overflow, division by zero or invalid operation instead, which the scope
turns into a ``NumericError`` naming the numpy op; from finite leaves no op
can make a non-finite value without raising, so the per-op scan is skipped.

Sequence features throughout the package use column layout: a stack of L
tokens of width d is a (d, L) matrix, optionally with leading batch axes.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    NumericError,
)

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True
_TRAPPING = False


@contextlib.contextmanager
def no_grad():
    """Skip graph construction inside the block (evaluation / numeric probes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def trap_nonfinite():
    """Raise ``NumericError`` at the first numpy op inside the block that
    overflows, divides by zero or makes a NaN; op outputs skip their scan.

    Underflow stays ignored: it rounds towards zero and stays finite.
    """
    global _TRAPPING
    prev = _TRAPPING
    _TRAPPING = True
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"non-finite value: {exc}") from exc
    finally:
        _TRAPPING = prev


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite value encountered in tensor data")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        _check_finite(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``.grad`` of every reachable leaf
        (a requires_grad tensor that no op produced).

        ``self`` must be a scalar; repeated calls keep accumulating. Ops run
        latest-created first: an op is created after its inputs, so by the time
        it is popped every consumer has passed it its gradient. Op outputs keep
        ``.grad`` as None: their gradients are dropped once passed on.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        pending: dict[Tensor, np.ndarray] = {}
        heap: list = []

        def send(node: Tensor, g: np.ndarray) -> None:
            if node._backward_fn is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
            elif node in pending:
                pending[node] = pending[node] + g
            else:
                pending[node] = g
                heapq.heappush(heap, (-node._seq, node))

        send(self, np.ones_like(self.data))
        while heap:
            node = heapq.heappop(heap)[1]
            for parent, pg in zip(node._parents, node._backward_fn(pending.pop(node))):
                if pg is not None:
                    send(parent, pg)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return _op(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __getitem__(self, key):
        return index(self, key)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)


# -- graph plumbing ----------------------------------------------------------


_CREATED = itertools.count()  # creation stamps of graph nodes; backward runs the latest first


def _op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if not _TRAPPING:
        _check_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._seq = next(_CREATED)
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE))


def _operands(a, b) -> tuple:
    """Both operands as tensors; a non-tensor one takes the other's dtype."""
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return _as_tensor(a, dtype=b.dtype), b
    a = _as_tensor(a)
    return a, _as_tensor(b, dtype=a.dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the originating shape.

    Leading axes are summed first, then the kept size-1 axes: for a (B, d, L)
    gradient and a (d, 1) bias, numpy takes 4-10x longer for one sum over
    axes (0, 2) than for a sum over axis 0 and then over axis 2.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(
        a.data + b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        ),
    )


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(
        a.data - b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        ),
    )


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        ),
    )


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None,
        ),
    )


def texp(x) -> Tensor:
    x = _as_tensor(x)
    y = np.exp(x.data)
    return _op(y, (x,), lambda g: (g * y,))


def tlog(x) -> Tensor:
    x = _as_tensor(x)
    return _op(np.log(x.data), (x,), lambda g: (g / x.data,))


def tsqrt(x) -> Tensor:
    x = _as_tensor(x)
    y = np.sqrt(x.data)
    return _op(y, (x,), lambda g: (g * 0.5 / y,))


def ttanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    return _op(y, (x,), lambda g: (g * (1.0 - y * y),))


# -- reductions --------------------------------------------------------------


def _expand_reduced(g: np.ndarray, src_shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        axes = tuple(range(len(src_shape)))
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(src_shape) for a in axes)
    if not keepdims:
        kept = list(g.shape)
        for a in sorted(axes):
            kept.insert(a, 1)
        g = g.reshape(kept)
    return np.broadcast_to(g, src_shape)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data)
    return _op(data, (x,), lambda g: (_expand_reduced(g, x.data.shape, axis, keepdims),))


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        count = x.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for a in axes:
            count *= x.data.shape[a]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / count)


# -- shape manipulation ------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    src = x.data.shape
    return _op(x.data.reshape(shape), (x,), lambda g: (g.reshape(src),))


def swapaxes(x, a: int, b: int) -> Tensor:
    x = _as_tensor(x)
    return _op(x.data.swapaxes(a, b), (x,), lambda g: (g.swapaxes(a, b),))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    inverse = tuple(np.argsort(axes))
    return _op(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    src = x.data.shape
    return _op(np.broadcast_to(x.data, shape), (x,), lambda g: (_unbroadcast(g, src),))


def concat(tensors, axis: int = -1) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _op(data, tuple(parts), bw)


def index(x, key) -> Tensor:
    """x[key] under numpy's basic and integer-array indexing.

    Backward scatters the gradient into zeros of x's shape with ``np.add.at``,
    so an element selected more than once (a repeated token id) sums its
    gradients.
    """
    x = _as_tensor(x)
    try:
        data = np.asarray(x.data[key])
    except IndexError as exc:
        raise DimensionError(f"index does not fit shape {x.data.shape}: {exc}") from exc
    src_shape = x.data.shape

    def bw(g):
        gx = np.zeros(src_shape, dtype=g.dtype)
        np.add.at(gx, key, g)
        return (gx,)

    return _op(data, (x,), bw)


# -- linear algebra ----------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product with optional broadcast leading batch axes.

    Gradients: dA = dC @ Bᵀ, dB = Aᵀ @ dC (summed over broadcast axes).
    """
    a, b = _operands(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} vs {b.data.shape}"
        )
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise DimensionError(f"matmul batch axes incompatible: {a.data.shape} vs {b.data.shape}") from exc

    def bw(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _op(data, (a, b), bw)


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Σ g xᵀ over every batch axis and the sequence axis, in one product.

    g (..., out, L) and x (..., in, L) give the (out, in) gradient of a weight
    applied as w @ x.
    """
    axes = tuple(range(g.ndim - 2)) + (g.ndim - 1,)
    return np.tensordot(g, x, axes=(axes, axes))


def _check_weights(x: Tensor, pairs, op_name: str) -> None:
    """Each (w, b) maps width w.shape[1] to w.shape[0] with a (out, 1) bias."""
    width = x.data.shape[-2] if x.data.ndim >= 2 else None
    for w, b in pairs:
        if w.data.ndim != 2 or w.data.shape[1] != width or b.data.shape != (w.data.shape[0], 1):
            raise DimensionError(
                f"{op_name} weight {w.data.shape} and bias {b.data.shape} do not fit input {x.data.shape}"
            )
        width = w.data.shape[0]


def affine(w, x, b) -> Tensor:
    """w @ x + b as one node: w (out, in), x (..., in, L), b (out, 1).

    Backward: dx = wᵀ @ g, dw = Σ g xᵀ over batch and sequence axes (one
    tensordot) and db = Σ g over the same axes.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, dtype=x.dtype)
    b = _as_tensor(b, dtype=x.dtype)
    _check_weights(x, ((w, b),), "affine")
    # biases are added in place: a second output-sized temporary of a few hundred
    # KB is handed back to the OS when freed, and faulted in afresh on each call
    data = w.data @ x.data
    data += b.data

    def bw(g):
        return (
            _weight_grad(g, x.data) if w.requires_grad else None,
            w.data.T @ g if x.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _op(data, (w, x, b), bw)


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """w2 · tanh(w1 · x + b1) + b2 as one node, over x (..., d, L).

    Backward with h = tanh(w1 · x + b1) and ĝ = (w2ᵀ g)(1 − h²):
    dx = w1ᵀ ĝ, dw1 = Σ ĝ xᵀ, db1 = Σ ĝ, dw2 = Σ g hᵀ, db2 = Σ g.
    """
    x = _as_tensor(x)
    w1, b1, w2, b2 = (_as_tensor(t, dtype=x.dtype) for t in (w1, b1, w2, b2))
    _check_weights(x, ((w1, b1), (w2, b2)), "ffn")
    h = w1.data @ x.data
    h += b1.data
    if not _TRAPPING:
        _check_finite(h)  # tanh would hide an overflow here
    np.tanh(h, out=h)
    data = w2.data @ h
    data += b2.data

    def bw(g):
        gpre = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gpre = w2.data.T @ g
            gpre -= gpre * h * h
        return (
            w1.data.T @ gpre if x.requires_grad else None,
            _weight_grad(gpre, x.data) if w1.requires_grad else None,
            _unbroadcast(gpre, b1.data.shape) if b1.requires_grad else None,
            _weight_grad(g, h) if w2.requires_grad else None,
            _unbroadcast(g, b2.data.shape) if b2.requires_grad else None,
        )

    return _op(data, (x, w1, b1, w2, b2), bw)


def attention(hq, hkv, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, rate: float = 0.0, rng=None) -> Tensor:
    """Multi-head scaled dot-product attention as one node, before the residual add.

    hq (..., d, Lq) gives the queries and hkv (..., d, Lk) the keys and
    values; passing the same tensor twice makes it self-attention. Each w is
    (d, d) and each b (d, 1). Per head, with Q, K, V the head's rows of
    wq·hq + bq, wk·hkv + bk and wv·hkv + bv, P = softmax(QᵀK / √dh) along
    keys and the context V Pᵀ; the heads' contexts, stacked back to d rows,
    go through wo·(·) + bo. Self-attention projects Q, K and V in one stacked
    product and cross-attention K and V. With ``rate`` > 0 the attention
    weights P are dropped by an inverted-dropout mask of shape
    (..., heads, Lq, Lk) drawn from ``rng``, as ``dropout`` draws it.

    Backward, with Pd the dropped weights and G the context gradient per head:
    dV = G Pd, dP = mask · (Gᵀ V), dS = (dP − Σ_k dP·P) P / √dh, dQ = K dSᵀ,
    dK = Q dS. Each weight gradient is one tensordot over batch and sequence
    axes, and the stacked projections share one. The key bias gradient is zero
    in exact arithmetic: a per-query constant added to every score leaves the
    softmax unchanged.
    """
    hq = _as_tensor(hq)
    hkv = _as_tensor(hkv, dtype=hq.dtype)
    params = [_as_tensor(t, dtype=hq.dtype) for t in (wq, bq, wk, bk, wv, bv, wo, bo)]
    wq, bq, wk, bk, wv, bv, wo, bo = params
    if hq.data.ndim < 2 or hkv.data.shape[:-1] != hq.data.shape[:-1]:
        raise DimensionError(f"attention inputs do not match: {hq.data.shape} vs {hkv.data.shape}")
    *lead, d, lq = hq.data.shape
    lk = hkv.data.shape[-1]
    if any(t.data.shape != ((d, d) if i % 2 == 0 else (d, 1)) for i, t in enumerate(params)):
        raise DimensionError(f"attention weights must be ({d}, {d}) and biases ({d}, 1)")
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"head count {heads} must divide feature dim {d}")
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    dh = d // heads
    # self-attention projects Q, K and V in one product, cross-attention K and V
    self_attn = hkv is hq
    x_in, ws, bs = (hq, (wq, wk, wv), (bq, bk, bv)) if self_attn else (hkv, (wk, wv), (bk, bv))
    w_in = np.concatenate([w.data for w in ws])
    proj = w_in @ x_in.data
    proj += np.concatenate([b.data for b in bs])
    if self_attn:
        q, k, v = proj[..., :d, :], proj[..., d : 2 * d, :], proj[..., 2 * d :, :]
    else:
        q = wq.data @ hq.data
        q += bq.data
        k, v = proj[..., :d, :], proj[..., d:, :]
    qh = q.reshape((*lead, heads, dh, lq))
    kh = k.reshape((*lead, heads, dh, lk))
    vh = v.reshape((*lead, heads, dh, lk))
    scale = np.asarray(dh**-0.5, dtype=hq.dtype)
    p = qh.swapaxes(-1, -2) @ kh  # scores (..., h, Lq, Lk), then their softmax in place
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    mask = _dropout_mask(p.shape, rate, rng, p.dtype) if rate > 0.0 else None
    pd = p if mask is None else p * mask
    ctx = (vh @ pd.swapaxes(-1, -2)).reshape((*lead, d, lq))
    data = wo.data @ ctx
    data += bo.data

    def bw(g):
        gctx = (wo.data.T @ g).reshape((*lead, heads, dh, lq))
        gv = (gctx @ pd).reshape((*lead, d, lk))
        gs = gctx.swapaxes(-1, -2) @ vh  # dP, then dS in place
        if mask is not None:
            gs *= mask
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = (kh @ gs.swapaxes(-1, -2)).reshape((*lead, d, lq))
        gk = (qh @ gs).reshape((*lead, d, lk))
        g_in = np.concatenate([gq, gk, gv] if self_attn else [gk, gv], axis=-2)
        gx_in = w_in.T @ g_in if x_in.requires_grad else None
        gw_in = _weight_grad(g_in, x_in.data)
        gb_in = _unbroadcast(g_in, (g_in.shape[-2], 1))
        gw = [gw_in[i * d : (i + 1) * d] for i in range(len(ws))]
        gb = [gb_in[i * d : (i + 1) * d] for i in range(len(ws))]
        if self_attn:
            ghq, ghkv = gx_in, None
        else:
            ghq, ghkv = (wq.data.T @ gq if hq.requires_grad else None), gx_in
            gw.insert(0, _weight_grad(gq, hq.data))
            gb.insert(0, _unbroadcast(gq, bq.data.shape))
        gw.append(_weight_grad(g, ctx))
        gb.append(_unbroadcast(g, bo.data.shape))
        grads = [ghq, ghkv]
        for w, b, gw_i, gb_i in zip(params[::2], params[1::2], gw, gb):
            grads += [gw_i if w.requires_grad else None, gb_i if b.requires_grad else None]
        return grads

    return _op(data, (hq, hkv, *params), bw)


# -- normalisations ----------------------------------------------------------


def _check_axis(x: Tensor, axis: int, op_name: str) -> int:
    if x.data.ndim == 0:
        raise DimensionError(f"{op_name} needs at least one axis, got a scalar")
    ax = axis % x.data.ndim
    if x.data.shape[ax] == 0:
        raise DimensionError(f"{op_name} over an empty axis (shape {x.data.shape})")
    return ax


def softmax(x, axis: int = -1) -> Tensor:
    """Max-stabilised softmax along one axis; outputs are positive and sum to 1."""
    x = _as_tensor(x)
    ax = _check_axis(x, axis, "softmax")
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=ax, keepdims=True)
        return ((g - inner) * y,)

    return _op(y, (x,), bw)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    ax = _check_axis(x, axis, "log_softmax")
    m = x.data.max(axis=ax, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=ax, keepdims=True)) + m
    y = x.data - lse

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=ax, keepdims=True),)

    return _op(y, (x,), bw)


def layer_norm(x, gamma, beta, eps: float = 1e-5, axis: int = -1) -> Tensor:
    """Normalise to zero mean / unit variance along ``axis``, then apply affine.

    One graph node. With x̂ = (x − μ) / s and s = sqrt(var + eps), the backward
    pass is dβ = Σ g, dγ = Σ g·x̂ (over broadcast axes) and
    dx = (ĝ − mean(ĝ) − x̂·mean(ĝ·x̂)) / s with ĝ = g·γ, means along ``axis``.
    """
    x = _as_tensor(x)
    ax = _check_axis(x, axis, "layer_norm") - x.data.ndim  # negative: γ/β may add leading axes
    gamma = _as_tensor(gamma, dtype=x.dtype)
    beta = _as_tensor(beta, dtype=x.dtype)
    # the same numpy expressions, in the same order, as the composed
    # mean / centre / variance / sqrt / affine graph, so values match it bit for bit
    inv_n = np.asarray(1.0 / x.data.shape[ax], dtype=x.dtype)
    centered = x.data - x.data.sum(axis=ax, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=ax, keepdims=True) * inv_n + np.asarray(eps, dtype=x.dtype))
    normed = centered / std
    out = gamma.data * normed + beta.data

    def bw(g):
        gx = None
        if x.requires_grad:
            gn = g * gamma.data
            mean_gn = gn.sum(axis=ax, keepdims=True) * inv_n
            mean_gn_normed = (gn * normed).sum(axis=ax, keepdims=True) * inv_n
            gx = _unbroadcast((gn - mean_gn - normed * mean_gn_normed) / std, x.data.shape)
        ggamma = _unbroadcast(g * normed, gamma.data.shape) if gamma.requires_grad else None
        gbeta = _unbroadcast(g, beta.data.shape) if beta.requires_grad else None
        return gx, ggamma, gbeta

    return _op(out, (x, gamma, beta), bw)


def l2_normalize(x, axis: int = -1) -> Tensor:
    """Scale rows (slices along ``axis``) to unit Euclidean norm."""
    x = _as_tensor(x)
    _check_axis(x, axis, "l2_normalize")
    sq = tsum(x * x, axis=axis, keepdims=True)
    if not np.all(sq.data > 0.0):
        raise DegenerateInputError("l2_normalize received a zero-norm row")
    return x / tsqrt(sq)


# -- stochastic ops ----------------------------------------------------------


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Seeded inverted-dropout mask; identity when rate is 0."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = _dropout_mask(x.data.shape, rate, rng, x.data.dtype)
    return _op(x.data * mask, (x,), lambda g: (g * mask,))


def _dropout_mask(shape, rate: float, rng: np.random.Generator, dtype) -> np.ndarray:
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


# -- verification ------------------------------------------------------------


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of scalar ``f`` at ``x``
    and central differences with step ``h``.

    Per coordinate: |analytic − numeric| / (|analytic| + |numeric| + 1e−12).
    """
    if not isinstance(x, Tensor) or not x.requires_grad:
        raise ContractError("grad_check needs a requires_grad Tensor input")
    if not x.data.flags["C_CONTIGUOUS"]:
        # the probe below perturbs a flat view in place
        x.data = np.ascontiguousarray(x.data)
    x.zero_grad()
    out = f(x)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ContractError("grad_check needs a scalar-valued function")
    out.backward()
    if x.grad is None:
        analytic = np.zeros_like(x.data, dtype=np.float64)
    else:
        analytic = np.asarray(x.grad, dtype=np.float64).copy()
    x.zero_grad()

    numeric = np.zeros(x.data.shape, dtype=np.float64).reshape(-1)
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        with no_grad():
            hi = float(f(x).data.reshape(()))
        flat[i] = orig - h
        with no_grad():
            lo = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * h)
    numeric = numeric.reshape(x.data.shape)

    err = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(err.max()) if err.size else 0.0


def sgd_step(params, lr: float) -> None:
    """In-place gradient descent on every (name, tensor) pair; clears grads."""
    for _, p in params:
        if p.requires_grad and p.grad is not None:
            p.data -= lr * p.grad
            p.grad = None
