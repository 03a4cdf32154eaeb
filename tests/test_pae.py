import numpy as np
import numpy.testing as npt
import pytest

from beliefret import pae
from beliefret import tensor as T
from beliefret.blocks import (
    attention_block,
    ffn_block,
    init_attention,
    init_ffn,
    linear,
    named_tensors,
)
from beliefret.errors import DimensionError, ConfigError
from beliefret.pae import PaeStack, init_pae_stack, init_pael, pael, spatial_pae, temporal_pae
from beliefret.rng import child
from beliefret.tensor import Tensor, grad_check

D, HEADS = 8, 2


def make_pael(seed):
    return init_pael(child(seed, "pael"), D, HEADS)


# -- pael ----------------------------------------------------------------------


def test_pael_single_token_sequences():
    p = make_pael(0)
    rng = child(0, "pael-in")
    s, c = pael(Tensor(rng.normal(size=(D, 1))), Tensor(rng.normal(size=(D, 1))), p)
    assert s.shape == (D, 1)
    assert c.shape == (D, 1)


@pytest.mark.parametrize("n,m", [(3, 5), (7, 2), (1, 4)])
def test_pael_preserves_shapes(n, m):
    p = make_pael(1)
    rng = child(1, "pael-shapes")
    s, c = pael(Tensor(rng.normal(size=(D, n))), Tensor(rng.normal(size=(D, m))), p)
    assert s.shape == (D, n)
    assert c.shape == (D, m)


def test_pael_batched_matches_per_sample():
    p = make_pael(2)
    rng = child(2, "pael-batch")
    hs = rng.normal(size=(3, D, 4))
    hc = rng.normal(size=(3, D, 2))
    s_b, c_b = pael(Tensor(hs), Tensor(hc), p)
    for i in range(3):
        s_i, c_i = pael(Tensor(hs[i]), Tensor(hc[i]), p)
        npt.assert_allclose(s_b.data[i], s_i.data, atol=1e-12)
        npt.assert_allclose(c_b.data[i], c_i.data, atol=1e-12)


def test_pael_dim_mismatch():
    p = make_pael(3)
    with pytest.raises(DimensionError):
        pael(Tensor(np.ones((D, 3))), Tensor(np.ones((D + 2, 3))), p)


def test_pael_key_permutation_property():
    # permuting the source columns permutes the self output and leaves the
    # cross output unchanged (attention is permutation-invariant over keys)
    p = make_pael(4)
    rng = child(4, "pael-perm")
    hs = rng.normal(size=(D, 6))
    hc = rng.normal(size=(D, 3))
    perm = rng.permutation(6)
    s0, c0 = pael(Tensor(hs), Tensor(hc), p)
    s1, c1 = pael(Tensor(hs[:, perm]), Tensor(hc), p)
    npt.assert_allclose(s1.data, s0.data[:, perm], atol=1e-10)
    npt.assert_allclose(c1.data, c0.data, atol=1e-10)


def test_pael_gradient_flows_through_both_branches():
    # cross output must depend on the source input: the serial wiring feeds the
    # refined source into cross-attention
    worst = 0.0
    for seed in range(20):
        p = make_pael(100 + seed)
        rng = child(seed, "pael-grad")
        hs = Tensor(rng.normal(size=(D, 3)), requires_grad=True)
        hc = Tensor(rng.normal(size=(D, 2)))
        coef = Tensor(rng.normal(size=(D, 2)))

        def f(t):
            _, c = pael(t, hc, p)
            return (c * coef).sum()

        worst = max(worst, grad_check(f, hs))
    assert worst < 1e-4


def test_pael_serial_wiring_differs_from_parallel():
    # regression pin: cross-attention consumes the refined source, so swapping
    # in the raw source (parallel wiring) changes the output
    p = make_pael(5)
    rng = child(5, "pael-serial")
    hs = Tensor(rng.normal(size=(D, 4)))
    hc = Tensor(rng.normal(size=(D, 3)))
    _, serial = pael(hs, hc, p)
    refined_raw = ffn_block(attention_block(hc, hs, p.cross_attn), p.cross_ffn)
    assert np.abs(serial.data - refined_raw.data).max() > 1e-6


def test_pael_deterministic_without_dropout():
    p = make_pael(6)
    rng = child(6, "pael-det")
    hs, hc = rng.normal(size=(D, 3)), rng.normal(size=(D, 2))
    a = pael(Tensor(hs), Tensor(hc), p)
    b = pael(Tensor(hs), Tensor(hc), p)
    npt.assert_array_equal(a[0].data, b[0].data)
    npt.assert_array_equal(a[1].data, b[1].data)


# -- spatial stack ---------------------------------------------------------------


def test_spatial_pae_minimal_stack():
    stack = init_pae_stack(child(7, "spa"), D, HEADS, n_units=1)
    rng = child(7, "spa-in")
    out = spatial_pae(Tensor(rng.normal(size=(D, 1))), Tensor(rng.normal(size=D)), stack)
    assert out.shape == (D,)


def test_spatial_pae_default_unit_counts_accepted():
    init_pae_stack(child(8, "spa2"), D, HEADS, n_units=2)
    init_pae_stack(child(8, "tmp3"), D, HEADS, n_units=3)
    with pytest.raises(ConfigError):
        init_pae_stack(child(8, "spa0"), D, HEADS, n_units=0)


def test_spatial_pae_zero_instruction_zero_weights_is_input_independent():
    # with a zero instruction and all projection weights zeroed, the carried
    # query branch sees no image content; only bias paths reach the output
    stack = init_pae_stack(child(9, "spa-zero"), D, HEADS, n_units=2)
    for name, t in _stack_tensors(stack):
        if name.endswith(".w") or ".guide_w" in name:
            t.data[...] = 0.0
    rng = child(9, "spa-zero-in")
    f_ins = Tensor(np.zeros(D))
    out_a = spatial_pae(Tensor(rng.normal(size=(D, 5))), f_ins, stack)
    out_b = spatial_pae(Tensor(rng.normal(size=(D, 5)) * 3.0), f_ins, stack)
    npt.assert_allclose(out_a.data, out_b.data, atol=1e-12)


def _stack_tensors(stack):
    from beliefret.blocks import named_tensors

    return list(named_tensors(stack, "stack"))


def test_spatial_pae_batched_matches_per_sample():
    stack = init_pae_stack(child(10, "spa-b"), D, HEADS, n_units=2)
    rng = child(10, "spa-b-in")
    toks = rng.normal(size=(3, D, 4))
    ins = rng.normal(size=(3, D))
    batched = spatial_pae(Tensor(toks), Tensor(ins), stack)
    for i in range(3):
        single = spatial_pae(Tensor(toks[i]), Tensor(ins[i]), stack)
        npt.assert_allclose(batched.data[i], single.data, atol=1e-12)


def test_spatial_pae_gradients():
    stack = init_pae_stack(child(11, "spa-g"), D, HEADS, n_units=1)
    rng = child(11, "spa-g-in")
    toks = Tensor(rng.normal(size=(D, 3)), requires_grad=True)
    ins = Tensor(rng.normal(size=D), requires_grad=True)
    coef = Tensor(rng.normal(size=D))
    assert grad_check(lambda t: (spatial_pae(t, ins, stack) * coef).sum(), toks) < 1e-4
    assert grad_check(lambda t: (spatial_pae(toks, t, stack) * coef).sum(), ins) < 1e-4


def all_columns_stack(cur, stack, guide):
    """A stack run whose every unit is guided by guide(w, cur) over all carried
    columns, reading out column 0 at the end: the reference both stacks are
    checked against, living only here."""
    for w, layer in zip(stack.guide_w, stack.layers):
        _, cur = pae.pael(cur, guide(w, cur), layer)
    out = linear(cur[..., :1], stack.head)
    return out.reshape(out.shape[:-1])


def replicated_guide_spatial_pae(tokens, f_ins, stack):
    """The replicated-guide spatial stack: the projected instruction broadcast
    to all k carried columns. Every op on the query branch works column by
    column, so the k columns stay identical and the head reads what one column
    gives."""
    ins_col = f_ins.reshape((*f_ins.shape, 1))
    return all_columns_stack(tokens, stack, lambda w, cur: T.broadcast_to(T.matmul(w, ins_col), cur.shape))


@pytest.mark.parametrize("k", [1, 8, 17], ids=["soft-aggregate", "hard-k8", "soft-sequence"])
@pytest.mark.parametrize("n_units", [1, 2])
def test_spatial_pae_matches_replicated_guide(n_units, k):
    rng = child(n_units, k, "spa-rep")
    stack = _random_params(init_pae_stack(child(n_units, "spa-rep-params"), D, HEADS, n_units), rng)
    tokens = Tensor(rng.normal(size=(3, D, k)), requires_grad=True)
    f_ins = Tensor(rng.normal(size=(3, D)), requires_grad=True)
    coef = rng.normal(size=(3, D))
    leaves = [tokens, f_ins, *(t for _, t in named_tensors(stack))]
    results = []
    for run in (spatial_pae, replicated_guide_spatial_pae):
        for t in leaves:
            t.zero_grad()
        out = run(tokens, f_ins, stack)
        (out * coef).sum().backward()
        results.append((out.data, [t.grad for t in leaves]))
    (out, grads), (ref_out, ref_grads) = results
    npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    for g, ref in zip(grads, ref_grads):
        npt.assert_allclose(g, ref, rtol=0, atol=1e-10)


def test_spatial_pae_guides_with_one_column(monkeypatch):
    # the default soft-sequence filter hands the stack all 17 visual tokens;
    # the first unit pools them into one column, and every guide is one column
    from beliefret.config import TrainConfig
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    shapes = []
    run_pael = pae.pael

    def recording_pael(h_s, h_c, params):
        shapes.append((h_s.shape, h_c.shape))
        return run_pael(h_s, h_c, params)

    monkeypatch.setattr(pae, "pael", recording_pael)
    model.embed_images(child(17, "spa-one").random((2, 3, 16, 16)))
    assert [s[-1] for s, _ in shapes] == [17, 1]
    assert [c for _, c in shapes] == [(2, 32, 1)] * 2


# -- temporal stack ----------------------------------------------------------------


def test_temporal_pae_three_units_and_cls_only():
    stack = init_pae_stack(child(12, "tmp"), D, HEADS, n_units=3)
    rng = child(12, "tmp-in")
    out = temporal_pae(Tensor(rng.normal(size=(D, 6))), stack)
    assert out.shape == (D,)
    # n = 0: the sequence is just the global token
    out_cls = temporal_pae(Tensor(rng.normal(size=(D, 1))), stack)
    assert out_cls.shape == (D,)


def test_temporal_pae_identical_tokens_symmetry():
    # identical columns and identity step projections keep every column equal,
    # so the output is a fixed function of the one distinct token
    stack = init_pae_stack(child(13, "tmp-sym"), D, HEADS, n_units=2)
    for w in stack.guide_w:
        w.data[...] = np.eye(D)
    tok = child(13, "tmp-sym-in").normal(size=D)
    out_wide = temporal_pae(Tensor(np.repeat(tok[:, None], 5, axis=1)), stack)
    out_narrow = temporal_pae(Tensor(np.repeat(tok[:, None], 2, axis=1)), stack)
    npt.assert_allclose(out_wide.data, out_narrow.data, atol=1e-10)


def test_temporal_pae_batched_matches_per_sample():
    stack = init_pae_stack(child(14, "tmp-b"), D, HEADS, n_units=2)
    rng = child(14, "tmp-b-in")
    tokens = rng.normal(size=(3, D, 5))
    batched = temporal_pae(Tensor(tokens), stack)
    for i in range(3):
        single = temporal_pae(Tensor(tokens[i]), stack)
        npt.assert_allclose(batched.data[i], single.data, atol=1e-12)


def test_temporal_pae_gradients():
    stack = init_pae_stack(child(15, "tmp-g"), D, HEADS, n_units=1)
    rng = child(15, "tmp-g-in")
    # one probe covers the global token (column 0) and the word tokens
    tokens = Tensor(rng.normal(size=(D, 4)), requires_grad=True)
    coef = Tensor(rng.normal(size=D))
    assert grad_check(lambda t: (temporal_pae(t, stack) * coef).sum(), tokens) < 1e-4


def all_columns_temporal_pae(tokens, stack):
    """The temporal stack with every unit's guide built from all carried
    columns. Every op on the query branch works column by column and the head
    reads column 0, so temporal_pae, whose last guide is column 0 alone, must
    read the same."""
    return all_columns_stack(tokens, stack, T.matmul)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("n_units", [1, 3])
def test_temporal_pae_matches_all_columns(n_units, lead):
    rng = child(n_units, len(lead), "tmp-all")
    stack = _random_params(init_pae_stack(child(n_units, "tmp-all-params"), D, HEADS, n_units), rng)
    tokens = Tensor(rng.normal(size=(*lead, D, 6)), requires_grad=True)
    coef = rng.normal(size=(*lead, D))
    leaves = [tokens, *(t for _, t in named_tensors(stack))]
    results = []
    for run in (temporal_pae, all_columns_temporal_pae):
        for t in leaves:
            t.zero_grad()
        out = run(tokens, stack)
        (out * coef).sum().backward()
        results.append((out.data, [t.grad for t in leaves]))
    (out, grads), (ref_out, ref_grads) = results
    npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    for g, ref in zip(grads, ref_grads):
        assert g is not None and g.shape == ref.shape
        npt.assert_allclose(g, ref, rtol=0, atol=1e-10)


def test_temporal_pae_last_unit_queries_one_column(monkeypatch):
    # the default stack has three units over captions of 5 tokens plus the
    # global token; only the last unit's guide narrows to the head column
    from beliefret.config import TrainConfig
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    shapes = []
    run_pael = pae.pael

    def recording_pael(h_s, h_c, params):
        shapes.append((h_s.shape, h_c.shape))
        return run_pael(h_s, h_c, params)

    monkeypatch.setattr(pae, "pael", recording_pael)
    model.embed_texts(child(18, "tmp-one").integers(0, 30, size=(2, 5)).tolist())
    assert [s for s, _ in shapes] == [(2, 32, 6)] * 3
    assert [c for _, c in shapes] == [(2, 32, 6), (2, 32, 6), (2, 32, 1)]


def test_temporal_pae_shares_the_stack_type():
    # one stack type serves both guides; the model names the temporal guides guide_w
    from beliefret.config import TrainConfig
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    assert isinstance(model.spatial, PaeStack) and isinstance(model.temporal, PaeStack)
    names = {name for name, _ in model.named_parameters()}
    assert {"spatial.guide_w.1", "temporal.guide_w.2"} <= names
    assert not any("step_w" in name for name in names)


# -- embedding composition -----------------------------------------------------------


def test_compose_embeddings():
    # final embedding = global token + the stack's local embedding, elementwise:
    # a zero head reads out a zero local embedding, a bias-only head reads out its bias
    from beliefret.config import TrainConfig
    from beliefret.encoders import encode_image_batch, encode_text_batch
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    rng = child(16, "compose")
    pixels = rng.random((2, 3, 16, 16))
    captions = rng.integers(0, 30, size=(2, 5))
    f_cls = encode_image_batch(pixels, model.image).data[..., 0]
    t_cls = encode_text_batch(captions, model.text).data[..., 0]
    for stack in (model.spatial, model.temporal):
        stack.head.w.data[...] = 0.0
        stack.head.b.data[...] = 0.0
    npt.assert_array_equal(model.embed_images(pixels).data, f_cls)
    npt.assert_array_equal(model.embed_texts(captions.tolist()).data, t_cls)
    bias = rng.normal(size=(32, 1))
    for stack in (model.spatial, model.temporal):
        stack.head.b.data[...] = bias
    npt.assert_allclose(model.embed_images(pixels).data, f_cls + bias[:, 0], atol=1e-12)
    npt.assert_allclose(model.embed_texts(captions.tolist()).data, t_cls + bias[:, 0], atol=1e-12)


# -- fused blocks against the composed reference ------------------------------------
#
# The blocks call one-node ops (affine, and ffn and attention with their norm and
# residual inside) with hand-derived backward passes. The references below build
# the same blocks from primitive ops, as the package did before those ops
# existed; they live only here.


def composed_linear(x, p):
    return T.matmul(p.w, x) + p.b


def composed_norm(x, p):
    """Layer norm along the feature axis (-2) as a graph of primitive ops."""
    inv_d = 1.0 / x.shape[-2]
    mu = x.sum(axis=-2, keepdims=True) * inv_d
    centered = x - mu
    var = (centered * centered).sum(axis=-2, keepdims=True) * inv_d
    return p.gamma * (centered / T.tsqrt(var + 1e-5)) + p.beta


def composed_attention_block(q_in, kv_in, p):
    hq = composed_norm(q_in, p.ln_q)
    hkv = hq if kv_in is q_in else composed_norm(kv_in, p.ln_kv)

    def split_heads(x):
        *lead, d, length = x.shape
        return x.reshape((*lead, p.heads, d // p.heads, length))

    q, k, v = (split_heads(composed_linear(h, lin)) for h, lin in ((hq, p.q), (hkv, p.k), (hkv, p.v)))
    dh = q.shape[-2]
    weights = T.softmax(T.matmul(q.swapaxes(-1, -2), k) * (dh**-0.5), axis=-1)
    ctx = T.matmul(v, weights.swapaxes(-1, -2))
    *lead, _, _, lq = ctx.shape
    out = composed_linear(ctx.reshape((*lead, p.heads * dh, lq)), p.o)
    return q_in + out


def composed_ffn_block(x, p):
    out = composed_linear(T.ttanh(composed_linear(composed_norm(x, p.ln), p.inner)), p.out)
    return x + out


def _random_params(params, rng, dtype=np.float64):
    # nonzero biases and non-unit norms, so every parameter's gradient path is live
    for _, t in named_tensors(params):
        t.data = (t.data + rng.normal(0.0, 0.3, size=t.shape)).astype(dtype)
    return params


def _fused_and_composed(kind, lead, rng, dtype=np.float64):
    """(output, input and parameter gradients) of the fused and the composed block."""
    lq, lk = 5, 3
    if kind == "ffn":
        params = _random_params(init_ffn(child(0, "eq-ffn"), D), rng, dtype)
        blocks = [lambda x, kv, p, f=f: f(x, p) for f in (ffn_block, composed_ffn_block)]
    else:
        params = init_attention(child(0, "eq-attn"), D, HEADS, cross=kind == "cross")
        params = _random_params(params, rng, dtype)
        blocks = (attention_block, composed_attention_block)
    x = Tensor(rng.normal(size=(*lead, D, lq)).astype(dtype), requires_grad=True)
    kv = Tensor(rng.normal(size=(*lead, D, lk)).astype(dtype), requires_grad=True) if kind == "cross" else x
    coef = rng.normal(size=(*lead, D, lq)).astype(dtype)
    leaves = [x, kv, *(t for _, t in named_tensors(params))]
    results = []
    for block in blocks:
        for t in leaves:
            t.zero_grad()
        out = block(x, kv, params)
        (out * coef).sum().backward()
        results.append((out.data, [t.grad for t in leaves]))
    return results


@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
# the ids keep the names these cases had beside a dropout variant
@pytest.mark.parametrize("kind", ["self", "cross", "ffn"], ids=lambda kind: f"no-dropout-{kind}")
def test_fused_block_matches_composed(kind, lead):
    for seed in range(5):
        rng = child(seed, "eq", kind)
        (out, grads), (ref_out, ref_grads) = _fused_and_composed(kind, lead, rng)
        npt.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            npt.assert_allclose(g, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", ["self", "cross", "ffn"])
def test_fused_block_float32_outputs_and_gradients(kind):
    (out, grads), _ = _fused_and_composed(kind, (2,), child(0, "eq32", kind), np.float32)
    assert out.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads)


def test_fused_model_matches_composed(monkeypatch):
    from beliefret import blocks, encoders, pae
    from beliefret.config import TrainConfig, apply_overrides
    from beliefret.data import CorpusSpec, epoch_batches, generate_corpus
    from beliefret.pipeline import Trainer

    spec = CorpusSpec(num_classes=4, images_per_class=10, vocab_size=40, seed=3, granularity="fine")
    data = generate_corpus(spec)
    # three steps and no evaluation, so no validation split (8 images could not rank R@10)
    cfg = apply_overrides(TrainConfig(), ["optim.batch_size=8", "seed=11", "data.val_images_per_class=0"])

    def three_losses():
        trainer = Trainer(cfg, dataset=data)
        batches = epoch_batches(trainer.train_records, 8, cfg.seed, 0)
        return [trainer._train_step(next(batches))["loss"] for _ in range(3)]

    fused = three_losses()
    for module in (blocks, pae):
        monkeypatch.setattr(module, "attention_block", composed_attention_block)
        monkeypatch.setattr(module, "ffn_block", composed_ffn_block)
    for module in (blocks, encoders, pae):
        monkeypatch.setattr(module, "linear", composed_linear)
    composed = three_losses()
    npt.assert_allclose(fused, composed, rtol=0, atol=1e-12)
