"""The fused sublayers built from primitive ops: the one reference the fused
ops and blocks are checked against.

The package calls one-node ops (affine, and ffn and attention with their norm
and residual inside) with hand-derived backward passes. These build the same
blocks from primitive ops, as the package did before those ops existed.
"""

import numpy as np

from beliefret import tensor as T
from beliefret.tensor import Tensor


def composed_linear(x, p):
    """x wᵀ + bᵀ over token rows (..., L, in)."""
    return T.matmul(x, p.w.swapaxes(0, 1)) + p.b.swapaxes(0, 1)


def composed_layer_norm(x, eps=1e-5):
    """(x̂, s) along the feature axis (-1) as a graph of primitive ops, with the
    mean and variance taken as products with the (d, 1) column of 1/d: the
    reference the fused helper matches bit for bit."""
    d = x.shape[-1]
    avg = Tensor(np.full((d, 1), 1.0 / d), dtype=x.dtype)
    centered = x - T.matmul(x, avg)
    std = T.tsqrt(T.matmul(centered * centered, avg) + eps)
    return centered / std, std


def composed_norm(x, p):
    """Layer norm along the feature axis (-1), scaled by gamma and shifted by beta."""
    return p.gamma.swapaxes(0, 1) * composed_layer_norm(x)[0] + p.beta.swapaxes(0, 1)


def composed_attention_block(q_in, kv_in, p, key_mask=None):
    hq = composed_norm(q_in, p.ln_q)
    hkv = hq if kv_in is q_in else composed_norm(kv_in, p.ln_kv)

    def split_heads(x):
        """(..., L, d) rows -> (..., h, L, dh), one slice of the features per head."""
        *lead, length, d = x.shape
        return x.reshape((*lead, length, p.heads, d // p.heads)).swapaxes(-3, -2)

    d = q_in.shape[-1]
    rows = (slice(0, d), slice(d, 2 * d), slice(2 * d, 3 * d))  # Q, K and V of the stacked qkv
    q, k, v = (
        split_heads(T.matmul(h, p.qkv.w[r].swapaxes(0, 1)) + p.qkv.b[r].swapaxes(0, 1))
        for h, r in zip((hq, hkv, hkv), rows)
    )
    dh = q.shape[-1]
    scores = T.matmul(q, k.swapaxes(-1, -2)) * (dh**-0.5)  # (..., h, Lq, Lk)
    if key_mask is None:
        weights = T.softmax(scores, axis=-1)
    else:
        # the masked softmax: a padded key's exponential is zeroed before the sum;
        # the (..., 1, Lk, 1) mask marks keys along axis -2
        e = T.texp(scores) * (np.swapaxes(key_mask, -1, -2) == 0)
        weights = e / e.sum(axis=-1, keepdims=True)
    ctx = T.matmul(weights, v).swapaxes(-3, -2)  # (..., Lq, h, dh)
    *lead, lq, _, _ = ctx.shape
    out = composed_linear(ctx.reshape((*lead, lq, p.heads * dh)), p.o)
    return q_in + out


def composed_ffn_block(x, p):
    out = composed_linear(T.ttanh(composed_linear(composed_norm(x, p.ln), p.inner)), p.out)
    return x + out
