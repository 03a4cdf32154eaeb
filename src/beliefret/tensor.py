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


def _add_bias(out: np.ndarray, b: np.ndarray) -> None:
    """out += b in place, for out (..., n, L) and an (n, 1) bias b.

    The bias is first repeated into one contiguous (n, L) block, so numpy adds
    that block to each batch row instead of broadcasting b along the short
    sequence axis (see the notes on the pre-norm sublayers below). The bits
    are those of out + b.
    """
    out += np.repeat(b, out.shape[-1], axis=1)


def affine(w, x, b) -> Tensor:
    """w @ x + b as one node: w (out, in), x (..., in, L), b (out, 1).

    Backward: dx = wᵀ @ g, dw = Σ g xᵀ over batch and sequence axes (one
    tensordot) and db = Σ g over the same axes.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, dtype=x.dtype)
    b = _as_tensor(b, dtype=x.dtype)
    _check_weights(x, ((w, b),), "affine")
    # the bias goes in place, so no second output-sized array is allocated
    data = w.data @ x.data
    _add_bias(data, b.data)

    def bw(g):
        return (
            _weight_grad(g, x.data) if w.requires_grad else None,
            w.data.T @ g if x.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _op(data, (w, x, b), bw)


# -- pre-norm residual sublayers ----------------------------------------------
#
# Each sublayer is one node x + sublayer(LN(x)), with LN(x) = γ·x̂ + β
# along the feature axis (-2), (d, 1) γ and β, x̂ = (x − μ) / s and
# s = sqrt(var + eps). The norm feeds only the sublayer's first product, so γ
# and β fold into it: w·(γ·x̂ + β) + b = (w∘γᵀ)·x̂ + (w β + b), where w∘γᵀ scales
# column j of w by γ_j; γ·x̂ + β is never formed. μ and var = mean((x − μ)²)
# are products with the (1, d) row of 1/d: for a (B, d, L) input BLAS takes
# them several times faster than a numpy sum across the short sequence axis.
#
# numpy pays per row of the last axis: a reduction along the 9-17-long
# sequence axis, or a broadcast of an (n, 1) bias along it, runs one short
# inner loop per row, and at the desk shapes that loop overhead, not the
# arithmetic, sets the cost. At (64, 2, 11, 11) float32 (numpy 2.4.6, one
# thread) a max along the last axis takes 110-136 µs and a sum 38 µs, against
# 10 µs for ``exp`` of the whole array and 6.5 µs for a product with a ones
# row; adding a (144, 1) bias to (64, 144, 11) takes 78 µs, against 29 µs for
# the bias repeated to one contiguous (144, 11) block. So no sublayer reduces
# or broadcasts along that axis: means and softmax sums are ones-row products,
# attention's softmax runs along key rows, and biases go in through
# ``_add_bias``.
#
# Backward from g, the gradient at the first product's output, with G = Σ g x̂ᵀ
# and S = Σ g over batch and sequence axes: dw = G∘γᵀ + S βᵀ, db = S,
# dγ = Σ_rows (w∘G), dβ = wᵀ S, and the gradient at x̂ is (w∘γᵀ)ᵀ g. Only the
# last is activation-sized; ``_norm_grads`` carries it back to x.

_LN_EPS = 1e-5


def _check_norm(x: Tensor, gamma: Tensor, beta: Tensor, op_name: str) -> None:
    d = x.data.shape[-2] if x.data.ndim >= 2 else None
    if gamma.data.shape != (d, 1) or beta.data.shape != (d, 1):
        raise DimensionError(
            f"{op_name} norm gamma {gamma.data.shape} and beta {beta.data.shape} do not fit input {x.data.shape}"
        )


def _avg_row(x: np.ndarray) -> np.ndarray:
    """The (1, d) row of 1/d, in x's dtype: avg @ x is the mean along axis -2."""
    d = x.shape[-2]
    return np.full((1, d), 1.0 / d, dtype=x.dtype)


def _normalize(x: np.ndarray):
    """(x̂, s) along axis -2, with x̂ = (x − μ) / s and s = sqrt(var + eps)."""
    avg = _avg_row(x)
    normed = x - avg @ x
    std = avg @ (normed * normed)
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
    avg = _avg_row(gn)
    mean_gn_normed = avg @ (gn * normed)
    gn -= avg @ gn
    gn -= normed * mean_gn_normed
    gn /= std
    if residual is not None:
        gn += residual
    return gn


def _fold(w: np.ndarray, gamma: np.ndarray, beta: np.ndarray, b: np.ndarray):
    """(w∘γᵀ, w β + b): the product and bias that map x̂ to w·(γ·x̂ + β) + b."""
    return w * gamma.T, w @ beta + b


def _fold_grads(g: np.ndarray, normed: np.ndarray, w: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """(dγ, dβ, dw, db) of (w∘γᵀ)·x̂ + (w β + b) from g, the gradient at its output."""
    outer = _weight_grad(g, normed)  # G = Σ g x̂ᵀ
    total = _unbroadcast(g, (g.shape[-2], 1))  # S = Σ g
    gw = outer * gamma.T
    gw += total @ beta.T
    return (w * outer).sum(axis=0)[:, None], w.T @ total, gw, total


def ffn(x, gamma, beta, w1, b1, w2, b2) -> Tensor:
    """x + w2 · tanh(w1 · LN(x) + b1) + b2 as one node, over x (..., d, L).

    The first product is (w1∘γᵀ)·x̂ + (w1 β + b1), with γ and β folded in.

    Backward with h = tanh(w1 · LN(x) + b1) and
    ĝ = (w2ᵀ g)(1 − h²): dw2 = Σ g hᵀ, db2 = Σ g; with G = Σ ĝ x̂ᵀ and
    S = Σ ĝ, dw1 = G∘γᵀ + S βᵀ, db1 = S, dγ = Σ_rows (w1∘G), dβ = w1ᵀ S; and
    dx = g plus the norm's share of (w1∘γᵀ)ᵀ ĝ, the gradient at x̂.
    """
    x = _as_tensor(x)
    gamma, beta, w1, b1, w2, b2 = (_as_tensor(t, dtype=x.dtype) for t in (gamma, beta, w1, b1, w2, b2))
    _check_norm(x, gamma, beta, "ffn")
    _check_weights(x, ((w1, b1), (w2, b2)), "ffn")
    normed, std = _normalize(x.data)
    w_fold, b_fold = _fold(w1.data, gamma.data, beta.data, b1.data)
    h = w_fold @ normed
    _add_bias(h, b_fold)
    if not _TRAPPING:
        _check_finite(h)  # tanh would hide an overflow here
    np.tanh(h, out=h)
    data = w2.data @ h
    _add_bias(data, b2.data)
    data += x.data

    def bw(g):
        gpre = w2.data.T @ g
        gpre -= gpre * h * h
        return (
            _norm_grads(w_fold.T @ gpre, normed, std, residual=g) if x.requires_grad else None,
            *_fold_grads(gpre, normed, w1.data, gamma.data, beta.data),
            _weight_grad(g, h) if w2.requires_grad else None,
            _unbroadcast(g, b2.data.shape) if b2.requires_grad else None,
        )

    return _op(data, (x, gamma, beta, w1, b1, w2, b2), bw)


def attention(
    xq, xkv, gamma_q, beta_q, gamma_kv, beta_kv, w_qkv, b_qkv, wo, bo, heads: int, key_mask=None
) -> Tensor:
    """xq + MultiHead(LN_q(xq), LN_kv(xkv)) as one node.

    xq (..., d, Lq) gives the queries and xkv (..., d, Lk) the keys and
    values. Passing the same tensor twice makes it self-attention: one norm,
    and gamma_kv and beta_kv are None. Gammas and betas are (d, 1), w_qkv
    (3d, d) and b_qkv (3d, 1) stack the Q, K and V projections, wo is (d, d)
    and bo (d, 1). Per head, with Q, K, V the head's rows of the projections
    of LN_q(xq), LN_kv(xkv) and LN_kv(xkv), the scores S = KᵀQ / √dh are held
    key by query, (..., h, Lk, Lq), and P = softmax(S) along the keys (axis
    −2), so the context is V P; the heads' contexts, stacked back to d rows, go
    through wo·(·) + bo. Self-attention projects with all of w_qkv at once,
    cross-attention Q with its rows [:d] and K and V with its rows [d:]; each
    product has its norm's γ and β folded in, (w∘γᵀ)·x̂ + (w β + b).

    The softmax works along key rows, never along the short last axis (see
    the notes on the pre-norm sublayers): the max is one reduce over axis −2,
    and the denominators are the product of a (1, Lk) ones row with the
    exponentials.

    ``key_mask``, a constant (..., 1, 1, Lk) array of 0 on real keys and −inf
    on padded ones, is added, as its swapped (..., 1, Lk, 1) view, to every
    head's scaled scores before the softmax, so P is exactly 0 on a padded
    key. A row of the batch must keep at least one real key, or its softmax
    has no finite entry.

    Backward, with G the context gradient per head: dV = G Pᵀ,
    dP = Vᵀ G, dS = (dP − Σ_k dP∘P) ∘ P / √dh, the sum over keys again a
    ones-row product, dQ = K dS and dK = Q dSᵀ.
    Each folded product, from the gradient g at its output, with
    G = Σ g x̂ᵀ (one tensordot over batch and sequence axes) and S = Σ g, gives
    dw = G∘γᵀ + S βᵀ, db = S, dγ = Σ_rows (w∘G), dβ = wᵀ S and the gradient
    (w∘γᵀ)ᵀ g at x̂. The key bias gradient is zero in exact arithmetic: a per-query
    constant added to every score leaves the softmax unchanged. dxq is g plus
    the query norm's share. The mask needs no term of its own: where P is 0,
    so are dS, and with it a padded key's dK and dV.
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
    if xq.data.ndim < 2 or xkv.data.shape[:-1] != xq.data.shape[:-1]:
        raise DimensionError(f"attention inputs do not match: {xq.data.shape} vs {xkv.data.shape}")
    *lead, d, lq = xq.data.shape
    lk = xkv.data.shape[-1]
    _check_norm(xq, *norm_q, "attention query")
    if norm_kv:
        _check_norm(xkv, *norm_kv, "attention key/value")
    if [t.data.shape for t in params] != [(3 * d, d), (3 * d, 1), (d, d), (d, 1)]:
        raise DimensionError(f"attention weights must be (3d, d), (3d, 1), (d, d) and (d, 1) for d={d}")
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"head count {heads} must divide feature dim {d}")
    if key_mask is not None and np.shape(key_mask) != (*lead, 1, 1, lk):
        raise DimensionError(f"attention key mask {np.shape(key_mask)} does not fit keys {xkv.data.shape}")
    dh = d // heads
    # one folded product per normed input: Q, K and V of xq in self-attention;
    # Q of xq, then K and V of xkv in cross-attention
    inputs = [(xq, norm_q, slice(None))] if self_attn else [
        (xq, norm_q, slice(None, d)),
        (xkv, norm_kv, slice(d, None)),
    ]
    products = []  # (x, normed x̂, s, w rows, γ, β, folded w)
    outs = []
    for x, (gamma, beta), rows in inputs:
        normed, std = _normalize(x.data)
        w = w_qkv.data[rows]
        w_fold, b_fold = _fold(w, gamma.data, beta.data, b_qkv.data[rows])
        out = w_fold @ normed
        _add_bias(out, b_fold)
        outs.append(out)
        products.append((x, normed, std, w, gamma.data, beta.data, w_fold))
    if self_attn:
        q, k, v = outs[0][..., :d, :], outs[0][..., d : 2 * d, :], outs[0][..., 2 * d :, :]
    else:
        q, k, v = outs[0], outs[1][..., :d, :], outs[1][..., d:, :]
    qh = q.reshape((*lead, heads, dh, lq))
    kh = k.reshape((*lead, heads, dh, lk))
    vh = v.reshape((*lead, heads, dh, lk))
    scale = np.asarray(dh**-0.5, dtype=xq.dtype)
    ones = np.ones((1, lk), dtype=xq.dtype)  # ones @ a sums a's key rows
    p = kh.swapaxes(-1, -2) @ qh  # scores (..., h, Lk, Lq), then their softmax along keys in place
    p *= scale
    if key_mask is not None:
        p += key_mask.swapaxes(-1, -2)
    p -= p.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= ones @ p
    ctx = (vh @ p).reshape((*lead, d, lq))
    data = wo.data @ ctx
    _add_bias(data, bo.data)
    data += xq.data

    def bw(g):
        gctx = (wo.data.T @ g).reshape((*lead, heads, dh, lq))
        # dQ, dK and dV go straight into the rows of one buffer, the gradient
        # at the stacked product's output; cross-attention stacks only dK and
        # dV, as its dQ feeds a product of its own
        stacked = np.empty((*lead, 3 if self_attn else 2, heads, dh, lk), dtype=gctx.dtype)
        np.matmul(gctx, p.swapaxes(-1, -2), out=stacked[..., -1, :, :, :])  # dV
        gscore = vh.swapaxes(-1, -2) @ gctx  # dP, then dS in place, key by query
        gscore -= ones @ (gscore * p)
        gscore *= p
        gscore *= scale
        gq = np.matmul(kh, gscore, out=stacked[..., 0, :, :, :] if self_attn else None)
        np.matmul(qh, gscore.swapaxes(-1, -2), out=stacked[..., -2, :, :, :])  # dK
        stacked = stacked.reshape((*lead, -1, lk))
        g_outs = [stacked] if self_attn else [gq.reshape((*lead, d, lq)), stacked]
        grads, rows = [], []
        for g_out, (x, normed, std, w, gamma, beta, w_fold) in zip(g_outs, products):
            residual = g if x is xq else None
            grads.append(_norm_grads(w_fold.T @ g_out, normed, std, residual) if x.requires_grad else None)
            ggamma, gbeta, *row_grads = _fold_grads(g_out, normed, w, gamma, beta)
            grads += [ggamma, gbeta]
            rows.append(row_grads)
        # cross-attention's two products each give their rows of w_qkv and b_qkv
        gw_qkv, gb_qkv = rows[0] if self_attn else map(np.concatenate, zip(*rows))
        param_grads = (gw_qkv, gb_qkv, _weight_grad(g, ctx), _unbroadcast(g, bo.data.shape))
        return grads + [gp if t.requires_grad else None for t, gp in zip(params, param_grads)]

    parents = (xq, *norm_q) if self_attn else (xq, *norm_q, xkv, *norm_kv)
    return _op(data, (*parents, *params), bw)


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
