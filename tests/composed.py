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
    return T.matmul(p.w, x) + p.b


def composed_layer_norm(x, eps=1e-5):
    """(x̂, s) along the feature axis (-2) as a graph of primitive ops, with the
    mean and variance taken as products with the (1, d) row of 1/d: the
    reference the fused helper matches bit for bit."""
    d = x.shape[-2]
    avg = Tensor(np.full((1, d), 1.0 / d), dtype=x.dtype)
    centered = x - T.matmul(avg, x)
    std = T.tsqrt(T.matmul(avg, centered * centered) + eps)
    return centered / std, std


def composed_norm(x, p):
    """Layer norm along the feature axis (-2), scaled by gamma and shifted by beta."""
    return p.gamma * composed_layer_norm(x)[0] + p.beta


def composed_attention_block(q_in, kv_in, p, key_mask=None):
    hq = composed_norm(q_in, p.ln_q)
    hkv = hq if kv_in is q_in else composed_norm(kv_in, p.ln_kv)

    def split_heads(x):
        *lead, d, length = x.shape
        return x.reshape((*lead, p.heads, d // p.heads, length))

    d = q_in.shape[-2]
    rows = (slice(0, d), slice(d, 2 * d), slice(2 * d, 3 * d))  # Q, K and V of the stacked qkv
    q, k, v = (split_heads(T.matmul(p.qkv.w[r], h) + p.qkv.b[r]) for h, r in zip((hq, hkv, hkv), rows))
    dh = q.shape[-2]
    scores = T.matmul(q.swapaxes(-1, -2), k) * (dh**-0.5)
    if key_mask is None:
        weights = T.softmax(scores, axis=-1)
    else:
        # the masked softmax: a padded key's exponential is zeroed before the sum
        e = T.texp(scores) * (key_mask == 0)
        weights = e / e.sum(axis=-1, keepdims=True)
    ctx = T.matmul(v, weights.swapaxes(-1, -2))
    *lead, _, _, lq = ctx.shape
    out = composed_linear(ctx.reshape((*lead, p.heads * dh, lq)), p.o)
    return q_in + out


def composed_ffn_block(x, p):
    out = composed_linear(T.ttanh(composed_linear(composed_norm(x, p.ln), p.inner)), p.out)
    return x + out
