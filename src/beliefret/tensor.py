"""Dense tensors with reverse-mode differentiation.

Values are numpy arrays (a float array keeps its type, anything else becomes
float64; training runs at the config's ``precision``, float32 unless set) and
every operation records a backward closure, so calling ``backward()`` on a
scalar accumulates exact partial derivatives into ``.grad`` of every leaf
tensor that requires them (op outputs keep no gradient). ``backward()``
consumes the graph it walks: each op lets go of its inputs and the arrays its
closure saved once it has passed its gradient on, so a graph takes one
backward pass, and leaves accumulate across graphs. ``grad_check`` verifies
any scalar-valued function against central differences.

Non-finite values are an error state, caught in one of two ways. Data entering
as a leaf (``Tensor(...)``) is always scanned. Outside a ``trap_nonfinite()``
scope every op output is scanned too. Inside one, numpy raises at the first
overflow, division by zero or invalid operation instead, which the scope
turns into a ``NumericError`` naming the numpy op; from finite leaves no op
can make a non-finite value without raising, so the per-op scan is skipped.

Sequence features throughout the package use token rows: a stack of L
tokens of width d is an (L, d) matrix, a row per token, optionally with
leading batch axes, as CLIP-style towers hold them.
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

        ``self`` must be a scalar. Ops run latest-created first: an op is
        created after its inputs, so by the time it is popped every consumer
        has passed it its gradient. Op outputs keep ``.grad`` as None: their
        gradients are dropped once passed on.

        The walk consumes the graph: once an op has passed its gradients on,
        it drops its inputs and its closure, and with them the activations
        the closure saved, so they are freed during the walk rather than when
        the caller lets go of the loss. A second backward through a consumed
        op raises ``ContractError``; leaves keep accumulating across graphs.
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
            parents, backward_fn = node._parents, node._backward_fn
            node._parents, node._backward_fn = (), _consumed
            for parent, pg in zip(parents, backward_fn(pending.pop(node))):
                if pg is not None:
                    send(parent, pg)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return _op(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __getitem__(self, key):
        return index(self, key)

    def swapaxes(self, a: int, b: int):
        return swapaxes(self, a, b)


# -- graph plumbing ----------------------------------------------------------


_CREATED = itertools.count()  # creation stamps of graph nodes; backward runs the latest first


def _consumed(g):
    """The backward closure of an op whose gradient an earlier walk passed on."""
    raise ContractError("backward through a graph that an earlier backward() consumed")


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

    Leading axes are summed first, then the kept size-1 axes: for a (B, n, m)
    gradient and an (n, 1) operand, numpy takes 4-10x longer for one sum over
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


def _rows(x: np.ndarray) -> np.ndarray:
    """x (..., n) as one (N, n) matrix, a row per token (a view where x allows)."""
    return x.reshape(-1, x.shape[-1])


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Σ gᵀ x over every token, one product of the flattened rows.

    g (..., out) and x (..., in) give the (out, in) gradient of a weight
    applied as x wᵀ.
    """
    return _rows(g).T @ _rows(x)


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """Σ g over every token, as the (out, 1) gradient of a bias added as bᵀ."""
    return _rows(g).sum(axis=0)[:, None]


def _check_weights(x: Tensor, pairs, op_name: str) -> None:
    """Each (w, b) maps width w.shape[1] to w.shape[0] with a (out, 1) bias, or none."""
    width = x.data.shape[-1] if x.data.ndim >= 1 else None
    for w, b in pairs:
        if w.data.ndim != 2 or w.data.shape[1] != width or (b is not None and b.data.shape != (w.data.shape[0], 1)):
            raise DimensionError(
                f"{op_name} weight {w.data.shape} and bias {None if b is None else b.data.shape} "
                f"do not fit input {x.data.shape}"
            )
        width = w.data.shape[0]


def affine(w, x, b=None) -> Tensor:
    """x wᵀ + bᵀ as one node: w (out, in), x (..., in), b (out, 1) or None.

    All N token rows go through one product of the flattened (N, in) rows.
    Backward: dx = g w, and dw = Σ gᵀ x and db = Σ g over all tokens, each
    one product or one sum of the flattened rows.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, dtype=x.dtype)
    b = None if b is None else _as_tensor(b, dtype=x.dtype)
    _check_weights(x, ((w, b),), "affine")
    # the bias goes in place, so no second output-sized array is allocated
    data = _rows(x.data) @ w.data.T
    if b is not None:
        data += b.data.T
    data = data.reshape((*x.data.shape[:-1], w.data.shape[0]))

    def bw(g):
        grads = [
            _weight_grad(g, x.data) if w.requires_grad else None,
            (_rows(g) @ w.data).reshape(x.data.shape) if x.requires_grad else None,
        ]
        if b is not None:
            grads.append(_bias_grad(g) if b.requires_grad else None)
        return grads

    return _op(data, (w, x) if b is None else (w, x, b), bw)


# -- pre-norm residual sublayers ----------------------------------------------
#
# Each sublayer is one node x + sublayer(LN(x)), with LN(x) = x̂·diag(γ) + βᵀ
# along the feature axis (-1), (d, 1) γ and β, x̂ = (x − μ) / s and
# s = sqrt(var + eps). The norm feeds only the sublayer's first product, so γ
# and β fold into it: LN(x) wᵀ + bᵀ = x̂ (w∘γᵀ)ᵀ + (w β + b)ᵀ, where w∘γᵀ scales
# column j of w by γ_j; LN(x) itself is never formed. μ and
# var = mean((x − μ)²) are products with the (d, 1) column of 1/d.
#
# Token rows: a sequence of L tokens of width d is held as (..., L, d), and
# every sublayer works on its flattened (N, d) rows, N the number of tokens,
# so each weight product, weight gradient and norm statistic is one BLAS call
# over all N tokens. Held as columns (..., d, L), w @ x would contract the
# middle axis, which numpy runs as one small product per sequence, and the
# weight gradient would be a tensordot that copies both operands across the
# 9-17-long sequence axis: for 64 sequences of 9 tokens at d = 32, float32
# (numpy 2.4.6, one BLAS thread), the (96, 32) QKV product takes 77 µs as 64
# column products against 44 µs as one product of the (576, 32) rows, and
# its weight gradient 108 µs as a tensordot against 45 µs. A bias adds along
# the contiguous last axis as bᵀ, and a norm statistic is one GEMV.
#
# numpy still pays per row of a short last axis: attention's scores are
# (..., h, Lk, Lq), with the queries on the short last axis, so the softmax
# runs along key rows (axis −2), its max as one reduce over that axis and its
# sums as products with a (1, Lk) ones row, never along the last axis.
#
# Backward from g, the gradient at the first product's output, with G = Σ gᵀ x̂
# and S = Σ g over all tokens: dw = G∘γᵀ + S βᵀ, db = S,
# dγ = Σ_rows (w∘G), dβ = wᵀ S, and the gradient at x̂ is g (w∘γᵀ). Only the
# last is activation-sized; ``_norm_grads`` carries it back to x.

_LN_EPS = 1e-5


def _check_norm(x: Tensor, gamma: Tensor, beta: Tensor, op_name: str) -> None:
    d = x.data.shape[-1] if x.data.ndim >= 1 else None
    if gamma.data.shape != (d, 1) or beta.data.shape != (d, 1):
        raise DimensionError(
            f"{op_name} norm gamma {gamma.data.shape} and beta {beta.data.shape} do not fit input {x.data.shape}"
        )


def _avg_col(x: np.ndarray) -> np.ndarray:
    """The (d, 1) column of 1/d, in x's dtype: x @ avg is the mean along axis -1."""
    d = x.shape[-1]
    return np.full((d, 1), 1.0 / d, dtype=x.dtype)


def _normalize(x: np.ndarray):
    """(x̂, s) along axis -1, with x̂ = (x − μ) / s and s = sqrt(var + eps)."""
    avg = _avg_col(x)
    normed = x - x @ avg
    std = (normed * normed) @ avg
    std += _LN_EPS
    np.sqrt(std, out=std)
    normed /= std
    return normed, std


def _norm_grads(gn: np.ndarray, normed: np.ndarray, std: np.ndarray, residual=None) -> np.ndarray:
    """dx of x̂ = normalize(x) from gn, the gradient at x̂, plus ``residual``, the
    gradient x gets past the sublayer.

    dx = (gn − mean(gn) − x̂·mean(gn·x̂)) / s, means along the feature axis.
    gn is the op's own temporary and becomes dx in place.
    """
    avg = _avg_col(gn)
    mean_gn_normed = (gn * normed) @ avg
    gn -= gn @ avg
    gn -= normed * mean_gn_normed
    gn /= std
    if residual is not None:
        gn += residual
    return gn


def _fold(w: np.ndarray, gamma: np.ndarray, beta: np.ndarray, b: np.ndarray):
    """(w∘γᵀ, w β + b): the product and bias that map x̂ to LN(x) wᵀ + bᵀ."""
    return w * gamma.T, w @ beta + b


def _fold_grads(g: np.ndarray, normed: np.ndarray, w: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """(dγ, dβ, dw, db) of x̂ (w∘γᵀ)ᵀ + (w β + b)ᵀ from g, the gradient at its output."""
    outer = _weight_grad(g, normed)  # G = Σ gᵀ x̂
    total = _bias_grad(g)  # S = Σ g
    gw = outer * gamma.T
    gw += total @ beta.T
    return (w * outer).sum(axis=0)[:, None], w.T @ total, gw, total


def ffn(x, gamma, beta, w1, b1, w2, b2) -> Tensor:
    """x + tanh(LN(x) w1ᵀ + b1ᵀ) w2ᵀ + b2ᵀ as one node, over x (..., L, d).

    The first product is x̂ (w1∘γᵀ)ᵀ + (w1 β + b1)ᵀ, with γ and β folded in.

    Backward with h = tanh(LN(x) w1ᵀ + b1ᵀ) and ĝ = (g w2)(1 − h²):
    dw2 = Σ gᵀ h, db2 = Σ g; with G = Σ ĝᵀ x̂ and S = Σ ĝ, dw1 = G∘γᵀ + S βᵀ,
    db1 = S, dγ = Σ_rows (w1∘G), dβ = w1ᵀ S; and dx = g plus the norm's
    share of ĝ (w1∘γᵀ), the gradient at x̂.
    """
    x = _as_tensor(x)
    gamma, beta, w1, b1, w2, b2 = (_as_tensor(t, dtype=x.dtype) for t in (gamma, beta, w1, b1, w2, b2))
    _check_norm(x, gamma, beta, "ffn")
    _check_weights(x, ((w1, b1), (w2, b2)), "ffn")
    rows = _rows(x.data)
    normed, std = _normalize(rows)
    w_fold, b_fold = _fold(w1.data, gamma.data, beta.data, b1.data)
    h = normed @ w_fold.T
    h += b_fold.T
    if not _TRAPPING:
        _check_finite(h)  # tanh would hide an overflow here
    np.tanh(h, out=h)
    data = h @ w2.data.T
    data += b2.data.T
    data += rows

    def bw(g):
        g = _rows(g)
        gpre = g @ w2.data
        gpre -= gpre * h * h
        return (
            _norm_grads(gpre @ w_fold, normed, std, residual=g).reshape(x.data.shape) if x.requires_grad else None,
            *_fold_grads(gpre, normed, w1.data, gamma.data, beta.data),
            _weight_grad(g, h) if w2.requires_grad else None,
            _bias_grad(g) if b2.requires_grad else None,
        )

    return _op(data.reshape(x.data.shape), (x, gamma, beta, w1, b1, w2, b2), bw)


def attention(
    xq, xkv, gamma_q, beta_q, gamma_kv, beta_kv, w_qkv, b_qkv, wo, bo, heads: int, key_mask=None
) -> Tensor:
    """xq + MultiHead(LN_q(xq), LN_kv(xkv)) as one node.

    xq (..., Lq, d) gives the queries and xkv (..., Lk, d) the keys and
    values. Passing the same tensor twice makes it self-attention: one norm,
    and gamma_kv and beta_kv are None. Gammas and betas are (d, 1), w_qkv
    (3d, d) and b_qkv (3d, 1) stack the Q, K and V projections, wo is (d, d)
    and bo (d, 1). Per head, with Q, K, V the head's (L, dh) slices of the
    projections of LN_q(xq), LN_kv(xkv) and LN_kv(xkv), the scores
    S = K Qᵀ / √dh are held key by query, (..., h, Lk, Lq), and P = softmax(S)
    along the keys (axis −2), so the context is Pᵀ V, written straight into
    the heads' slices of its (..., Lq, d) rows; they go through ctx woᵀ + boᵀ.
    Self-attention projects with all of w_qkv at once, cross-attention Q with
    its rows [:d] and K and V with its rows [d:]; each product has its norm's
    γ and β folded in, x̂ (w∘γᵀ)ᵀ + (w β + b)ᵀ, over the flattened token rows.

    The softmax works along key rows, never along the short last axis (see
    the notes on the pre-norm sublayers): the max is one reduce over axis −2,
    and the denominators are the product of a (1, Lk) ones row with the
    exponentials.

    ``key_mask``, a constant (..., 1, Lk, 1) array of 0 on real keys and −inf
    on padded ones, is added to every head's scaled scores before the
    softmax, so P is exactly 0 on a padded key. A row of the batch must keep
    at least one real key, or its softmax has no finite entry.

    Backward, with G the context gradient per head: dV = P G,
    dP = V Gᵀ, dS = (dP − Σ_k dP∘P) ∘ P / √dh, the sum over keys again a
    ones-row product, dQ = dSᵀ K and dK = dS Q, each written straight into
    the rows of the gradient at its product's output.
    Each folded product, from the gradient g at its output, with
    G = Σ gᵀ x̂ and S = Σ g over all tokens, gives dw = G∘γᵀ + S βᵀ, db = S,
    dγ = Σ_rows (w∘G), dβ = wᵀ S and the gradient g (w∘γᵀ) at x̂. The key
    bias gradient is zero in exact arithmetic: a per-query constant added to
    every score leaves the softmax unchanged. dxq is g plus the query norm's
    share. The mask needs no term of its own: where P is 0, so are dS, and
    with it a padded key's dK and dV.
    """
    self_attn = xkv is xq
    xq = _as_tensor(xq)
    xkv = xq if self_attn else _as_tensor(xkv, dtype=xq.dtype)
    if self_attn != (gamma_kv is None and beta_kv is None):
        raise ContractError("attention takes a key/value norm exactly when keys come from a second input")
    norm_q = [_as_tensor(t, dtype=xq.dtype) for t in (gamma_q, beta_q)]
    norm_kv = [] if self_attn else [_as_tensor(t, dtype=xq.dtype) for t in (gamma_kv, beta_kv)]
    params = [_as_tensor(t, dtype=xq.dtype) for t in (w_qkv, b_qkv, wo, bo)]
    w_qkv, b_qkv, wo, bo = params
    if (xq.data.ndim < 2 or xkv.data.shape[:-2] != xq.data.shape[:-2]
            or xkv.data.shape[-1] != xq.data.shape[-1]):
        raise DimensionError(f"attention inputs do not match: {xq.data.shape} vs {xkv.data.shape}")
    *lead, lq, d = xq.data.shape
    lk = xkv.data.shape[-2]
    _check_norm(xq, *norm_q, "attention query")
    if norm_kv:
        _check_norm(xkv, *norm_kv, "attention key/value")
    if [t.data.shape for t in params] != [(3 * d, d), (3 * d, 1), (d, d), (d, 1)]:
        raise DimensionError(f"attention weights must be (3d, d), (3d, 1), (d, d) and (d, 1) for d={d}")
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"head count {heads} must divide feature dim {d}")
    if key_mask is not None and np.shape(key_mask) != (*lead, 1, lk, 1):
        raise DimensionError(f"attention key mask {np.shape(key_mask)} does not fit keys {xkv.data.shape}")
    dh = d // heads

    def by_head(rows: np.ndarray, length: int, part: int) -> np.ndarray:
        """The (..., h, length, dh) view of projection ``part`` of (N, parts·d) rows."""
        return rows.reshape((*lead, length, -1, heads, dh))[..., part, :, :].swapaxes(-3, -2)

    # one folded product per normed input: Q, K and V of xq in self-attention;
    # Q of xq, then K and V of xkv in cross-attention
    inputs = [(xq, norm_q, slice(None))] if self_attn else [
        (xq, norm_q, slice(None, d)),
        (xkv, norm_kv, slice(d, None)),
    ]
    products = []  # (x, normed x̂, s, w rows, γ, β, folded w)
    outs = []
    for x, (gamma, beta), rows in inputs:
        normed, std = _normalize(_rows(x.data))
        w = w_qkv.data[rows]
        w_fold, b_fold = _fold(w, gamma.data, beta.data, b_qkv.data[rows])
        out = normed @ w_fold.T
        out += b_fold.T
        outs.append(out)
        products.append((x, normed, std, w, gamma.data, beta.data, w_fold))
    qh = by_head(outs[0], lq, 0)
    kh, vh = (by_head(outs[-1], lk, part) for part in ((1, 2) if self_attn else (0, 1)))
    scale = np.asarray(dh**-0.5, dtype=xq.dtype)
    ones = np.ones((1, lk), dtype=xq.dtype)  # ones @ a sums a's key rows
    p = kh @ qh.swapaxes(-1, -2)  # scores (..., h, Lk, Lq), then their softmax along keys in place
    p *= scale
    if key_mask is not None:
        p += key_mask
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= ones @ p
    ctx = _rows(np.empty((*lead, lq, d), dtype=xq.dtype))
    np.matmul(p.swapaxes(-1, -2), vh, out=by_head(ctx, lq, 0))
    data = ctx @ wo.data.T
    data += bo.data.T
    data += _rows(xq.data)

    def bw(g):
        g = _rows(g)
        gctx = by_head(g @ wo.data, lq, 0)
        # dQ, dK and dV go straight into the rows of one buffer, the gradient
        # at the stacked product's output; cross-attention stacks only dK and
        # dV, as its dQ feeds a product of its own
        stacked = _rows(np.empty((*lead, lk, (3 if self_attn else 2) * d), dtype=g.dtype))
        np.matmul(p, gctx, out=by_head(stacked, lk, -1))  # dV
        gscore = vh @ gctx.swapaxes(-1, -2)  # dP, then dS in place, key by query
        gscore -= ones @ (gscore * p)
        gscore *= p
        gscore *= scale
        gq = stacked if self_attn else np.empty_like(g)
        np.matmul(gscore.swapaxes(-1, -2), kh, out=by_head(gq, lq, 0))  # dQ
        np.matmul(gscore, qh, out=by_head(stacked, lk, -2))  # dK
        g_outs = [stacked] if self_attn else [gq, stacked]
        grads, rows = [], []
        for g_out, (x, normed, std, w, gamma, beta, w_fold) in zip(g_outs, products):
            residual = g if x is xq else None
            grads.append(
                _norm_grads(g_out @ w_fold, normed, std, residual).reshape(x.data.shape) if x.requires_grad else None
            )
            ggamma, gbeta, *row_grads = _fold_grads(g_out, normed, w, gamma, beta)
            grads += [ggamma, gbeta]
            rows.append(row_grads)
        # cross-attention's two products each give their rows of w_qkv and b_qkv
        gw_qkv, gb_qkv = rows[0] if self_attn else map(np.concatenate, zip(*rows))
        param_grads = (gw_qkv, gb_qkv, _weight_grad(g, ctx), _bias_grad(g))
        return grads + [gp if t.requires_grad else None for t, gp in zip(params, param_grads)]

    parents = (xq, *norm_q) if self_attn else (xq, *norm_q, xkv, *norm_kv)
    return _op(data.reshape(xq.data.shape), (*parents, *params), bw)


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


def l2_normalize(x, axis: int = -1) -> Tensor:
    """Scale rows (slices along ``axis``) to unit Euclidean norm."""
    x = _as_tensor(x)
    _check_axis(x, axis, "l2_normalize")
    sq = tsum(x * x, axis=axis, keepdims=True)
    if not np.all(sq.data > 0.0):
        raise DegenerateInputError("l2_normalize received a zero-norm row")
    return x / tsqrt(sq)


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
