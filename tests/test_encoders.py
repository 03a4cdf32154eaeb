import numpy as np
import numpy.testing as npt
import pytest

from beliefret.encoders import (
    encode_image_batch,
    encode_text_batch,
    init_image_encoder,
    init_instruction,
    init_text_encoder,
    instruction_batch,
    patch_columns,
    pretrain_instruction_conv,
)
from beliefret.errors import ConfigError, InputError
from beliefret.rng import child

D, D_ENC, HEADS = 8, 12, 2


def image_params(seed=0, **kw):
    args = dict(d=D, d_enc=D_ENC, image_size=16, patch_size=4, blocks=2, heads=HEADS)
    args.update(kw)
    return init_image_encoder(child(seed, "imgenc"), **args)


def text_params(seed=0, **kw):
    args = dict(d=D, d_enc=D_ENC, vocab_size=30, max_len=12, blocks=2, heads=HEADS)
    args.update(kw)
    return init_text_encoder(child(seed, "txtenc"), **args)


def rand_image(seed=0):
    return child(seed, "pix").random((3, 16, 16))


# -- image encoder ---------------------------------------------------------------


def test_image_encoder_token_count():
    f_cls, f_v = encode_image_batch(rand_image()[None], image_params())
    assert f_v.shape == (1, D, 16)  # (16/4)^2 patches
    assert f_cls.shape == (1, D)


def test_patch_columns_grid_order():
    px = np.zeros((1, 3, 8, 8))
    px[0, :, 0:4, 4:8] = 1.0  # second patch in row-major grid order
    cols = patch_columns(px, 4)
    assert cols.shape == (1, 48, 4)
    npt.assert_array_equal(cols[0, :, 1], np.ones(48))
    npt.assert_array_equal(cols[0, :, 0], np.zeros(48))


def test_zero_image_gives_equal_patch_columns():
    params = image_params(use_position_encoding=False)
    f_v = encode_image_batch(np.zeros((1, 3, 16, 16)), params)[1].data[0]
    npt.assert_allclose(f_v, np.repeat(f_v[:, :1], 16, axis=1), atol=1e-10)


def test_image_encoder_deterministic():
    params = image_params()
    pixels = rand_image(3)[None]
    a = encode_image_batch(pixels, params)
    b = encode_image_batch(pixels, params)
    npt.assert_array_equal(a[0].data, b[0].data)
    npt.assert_array_equal(a[1].data, b[1].data)


def test_image_encoder_batch_matches_single():
    params = image_params(4)
    pixels = child(4, "pixb").random((3, 3, 16, 16))
    f_cls, f_v = encode_image_batch(pixels, params)
    for i in range(3):
        one_cls, one_v = encode_image_batch(pixels[i : i + 1], params)
        npt.assert_allclose(f_cls.data[i], one_cls.data[0], atol=1e-12)
        npt.assert_allclose(f_v.data[i], one_v.data[0], atol=1e-12)


def test_image_encoder_patch_mismatch_rejected():
    with pytest.raises(ConfigError):
        image_params(patch_size=5)
    with pytest.raises(ConfigError):
        encode_image_batch(np.zeros((1, 3, 8, 8)), image_params())


def test_image_encoder_requires_projection_width():
    with pytest.raises(ConfigError):
        image_params(d_enc=D - 1)


# -- text encoder ------------------------------------------------------------------


def test_text_encoder_single_token():
    t_cls, f_t = encode_text_batch([[5]], text_params())
    assert f_t.shape == (1, D, 1)
    assert t_cls.shape == (1, D)


def test_text_encoder_permutation_equivariance_without_positions():
    params = text_params(5, use_position_encoding=False)
    rng = child(5, "perm")
    ids = rng.integers(0, 30, size=7)
    perm = rng.permutation(7)
    base_cls, base_t = encode_text_batch(ids[None], params)
    perm_cls, perm_t = encode_text_batch(ids[perm][None], params)
    npt.assert_allclose(perm_t.data, base_t.data[..., perm], atol=1e-10)
    npt.assert_allclose(perm_cls.data, base_cls.data, atol=1e-10)


def test_text_encoder_deterministic():
    params = text_params()
    a = encode_text_batch([[1, 2, 3]], params)
    b = encode_text_batch([[1, 2, 3]], params)
    npt.assert_array_equal(a[1].data, b[1].data)


def test_text_encoder_validation():
    params = text_params()
    with pytest.raises(InputError):
        encode_text_batch(np.zeros((1, 0), dtype=int), params)
    with pytest.raises(InputError):
        encode_text_batch([[30]], params)  # out of vocab
    with pytest.raises(InputError):
        encode_text_batch([list(range(13))], params)  # beyond max_len
    with pytest.raises(InputError):
        encode_text_batch(np.zeros((2, 2, 2), dtype=int), params)


def test_text_encoder_batch_matches_single():
    params = text_params(6)
    ids = child(6, "ids").integers(0, 30, size=(3, 5))
    t_cls, f_t = encode_text_batch(ids, params)
    for i in range(3):
        one_cls, one_t = encode_text_batch(ids[i : i + 1], params)
        npt.assert_allclose(t_cls.data[i], one_cls.data[0], atol=1e-12)
        npt.assert_allclose(f_t.data[i], one_t.data[0], atol=1e-12)


# -- instruction encoder --------------------------------------------------------------


def test_frozen_table_lookup_deterministic():
    params = init_instruction(child(7, "ins"), "frozen-scene-table", D, num_classes=4)
    a = instruction_batch(np.array([2]), None, params)
    b = instruction_batch(np.array([2]), None, params)
    npt.assert_array_equal(a.data, b.data)
    assert params.source == "frozen-scene-table"
    assert not params.table.requires_grad


def test_orthogonal_table_initialisation():
    params = init_instruction(child(8, "ins"), "frozen-scene-table", D, num_classes=2)
    f0, f1 = instruction_batch(np.array([0, 1]), None, params).data
    assert abs(float(f0 @ f1)) < 1e-10
    npt.assert_allclose(np.linalg.norm(f0), 1.0, atol=1e-10)


def test_learned_table_is_trainable():
    params = init_instruction(child(9, "ins"), "learned-scene-table", D, num_classes=3)
    assert params.table.requires_grad
    assert not params.frozen


def test_instruction_label_validation():
    params = init_instruction(child(10, "ins"), "frozen-scene-table", D, num_classes=3)
    with pytest.raises(InputError):
        instruction_batch(np.array([3]), None, params)
    with pytest.raises(ConfigError):
        init_instruction(child(10, "ins"), "mystery", D, num_classes=3)


def test_instruction_batch_matches_single():
    params = init_instruction(child(11, "ins"), "frozen-scene-table", D, num_classes=5)
    out = instruction_batch(np.array([4, 0, 2]), None, params)
    for i, label in enumerate([4, 0, 2]):
        npt.assert_array_equal(out.data[i], instruction_batch(np.array([label]), None, params).data[0])


def test_toy_conv_pre_phase_separates_classes():
    # after the pre-phase, same-class pairs should be closer (cosine) than the
    # cross-class mean
    rng = child(12, "conv-pre")
    n_per, classes = 24, 3
    motifs = [rng.random((3, 16, 16)) for _ in range(classes)]
    pixels, labels = [], []
    for c in range(classes):
        for _ in range(n_per):
            img = np.clip(motifs[c] + rng.normal(0.0, 0.05, size=(3, 16, 16)), 0.0, 1.0)
            pixels.append(img)
            labels.append(c)
    pixels = np.stack(pixels)
    labels = np.array(labels)

    params = init_instruction(child(12, "ins"), "toy-conv-encoder", D, num_classes=classes)
    pretrain_instruction_conv(params, pixels, labels, classes, steps=150, lr=0.5, rng=child(12, "pre"))
    assert params.frozen
    assert not params.conv_inner.w.requires_grad

    emb = instruction_batch(labels, pixels, params).data
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = emb @ emb.T
    same = np.equal.outer(labels, labels) & ~np.eye(len(labels), dtype=bool)
    cross = ~np.equal.outer(labels, labels)
    assert sims[same].mean() > sims[cross].mean()


def test_toy_conv_same_image_deterministic():
    params = init_instruction(child(13, "ins"), "toy-conv-encoder", D, num_classes=2)
    pixels = rand_image(13)[None]
    a = instruction_batch(np.array([0]), pixels, params)
    b = instruction_batch(np.array([0]), pixels, params)
    npt.assert_array_equal(a.data, b.data)
    with pytest.raises(InputError):
        instruction_batch(np.array([0]), None, params)
