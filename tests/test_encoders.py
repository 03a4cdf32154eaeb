import numpy as np
import numpy.testing as npt
import pytest

from beliefret.encoders import (
    encode_image_batch,
    encode_text_batch,
    fit_instruction,
    init_image_encoder,
    init_instruction,
    init_text_encoder,
    instruction_batch,
    patch_columns,
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
    tokens = encode_image_batch(rand_image()[None], image_params())
    assert tokens.shape == (1, D, 17)  # the global token, then (16/4)^2 patches
    assert tokens[..., 0].shape == (1, D)


def test_patch_columns_grid_order():
    px = np.zeros((1, 3, 8, 8))
    px[0, :, 0:4, 4:8] = 1.0  # second patch in row-major grid order
    cols = patch_columns(px, 4)
    assert cols.shape == (1, 48, 4)
    npt.assert_array_equal(cols[0, :, 1], np.ones(48))
    npt.assert_array_equal(cols[0, :, 0], np.zeros(48))


def test_zero_image_gives_equal_patch_columns():
    params = image_params(use_position_encoding=False)
    f_v = encode_image_batch(np.zeros((1, 3, 16, 16)), params).data[0, :, 1:]
    npt.assert_allclose(f_v, np.repeat(f_v[:, :1], 16, axis=1), atol=1e-10)


def test_image_encoder_deterministic():
    params = image_params()
    pixels = rand_image(3)[None]
    a = encode_image_batch(pixels, params)
    b = encode_image_batch(pixels, params)
    npt.assert_array_equal(a.data, b.data)


def test_image_encoder_batch_matches_single():
    params = image_params(4)
    pixels = child(4, "pixb").random((3, 3, 16, 16))
    tokens = encode_image_batch(pixels, params)
    for i in range(3):
        one = encode_image_batch(pixels[i : i + 1], params)
        npt.assert_allclose(tokens.data[i], one.data[0], atol=1e-12)


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
    tokens = encode_text_batch([[5]], text_params())
    assert tokens.shape == (1, D, 2)  # the global token, then the one word
    assert tokens[..., 0].shape == (1, D)


def test_text_encoder_permutation_equivariance_without_positions():
    params = text_params(5, use_position_encoding=False)
    rng = child(5, "perm")
    ids = rng.integers(0, 30, size=7)
    perm = rng.permutation(7)
    base = encode_text_batch(ids[None], params).data
    permuted = encode_text_batch(ids[perm][None], params).data
    npt.assert_allclose(permuted[..., 1:], base[..., 1:][..., perm], atol=1e-10)
    npt.assert_allclose(permuted[..., 0], base[..., 0], atol=1e-10)


def test_text_encoder_deterministic():
    params = text_params()
    a = encode_text_batch([[1, 2, 3]], params)
    b = encode_text_batch([[1, 2, 3]], params)
    npt.assert_array_equal(a.data[..., 1:], b.data[..., 1:])


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
    tokens = encode_text_batch(ids, params)
    for i in range(3):
        one = encode_text_batch(ids[i : i + 1], params)
        npt.assert_allclose(tokens.data[i], one.data[0], atol=1e-12)


# -- instruction prior ----------------------------------------------------------------

PIXEL_DIM = 3 * 16 * 16


def instruction(seed, num_classes):
    return init_instruction(child(seed, "ins"), D, num_classes, PIXEL_DIM)


def motif_images(seed, classes=3, n_per=24):
    rng = child(seed, "motifs")
    motifs = [rng.random((3, 16, 16)) for _ in range(classes)]
    pixels = [np.clip(motifs[c] + rng.normal(0.0, 0.05, size=(3, 16, 16)), 0.0, 1.0)
              for c in range(classes) for _ in range(n_per)]
    return np.stack(pixels), np.repeat(np.arange(classes), n_per)


def test_frozen_table_lookup_deterministic():
    params = instruction(7, 4)
    pixels = rand_image(7)[None]
    npt.assert_array_equal(instruction_batch(pixels, params).data, instruction_batch(pixels, params).data)
    assert not params.table.requires_grad
    assert not params.centroids.requires_grad
    # the table is the stream's first draw, so it does not depend on the centroids
    q, _ = np.linalg.qr(child(7, "ins").normal(size=(D, 4)))
    npt.assert_array_equal(params.table.data, q)


def test_toy_conv_same_image_deterministic():
    # the pixel classifier that replaced the toy conv keeps its contract:
    # the same image gives the same instruction, and pixels are required
    pixels, labels = motif_images(13, classes=2, n_per=4)
    params = instruction(13, 2)
    fit_instruction(params, pixels, labels)
    image = rand_image(13)[None]
    npt.assert_array_equal(instruction_batch(image, params).data, instruction_batch(image, params).data)
    with pytest.raises(InputError):
        instruction_batch(None, params)


def test_orthogonal_table_initialisation():
    params = instruction(8, 2)
    pixels, labels = motif_images(8, classes=2, n_per=1)
    fit_instruction(params, pixels, labels)
    f0, f1 = instruction_batch(pixels, params).data
    assert abs(float(f0 @ f1)) < 1e-10
    npt.assert_allclose(np.linalg.norm(f0), 1.0, atol=1e-10)


def test_instruction_batch_matches_single():
    params = instruction(11, 5)
    pixels, labels = motif_images(11, classes=5, n_per=1)
    fit_instruction(params, pixels, labels)
    pixels = pixels[[4, 0, 2]]
    out = instruction_batch(pixels, params)
    npt.assert_array_equal(out.data, params.table.data[:, [4, 0, 2]].T)
    for i in range(3):
        npt.assert_array_equal(out.data[i], instruction_batch(pixels[i : i + 1], params).data[0])


def test_centroid_fit_predicts_motif_classes():
    pixels, labels = motif_images(12)
    params = instruction(12, 3)
    fit_instruction(params, pixels, labels)
    npt.assert_allclose(params.centroids.data[1], pixels[labels == 1].reshape(-1, PIXEL_DIM).mean(axis=0))
    want = params.table.data[:, labels].T
    npt.assert_array_equal(instruction_batch(pixels, params).data, want)
    # the argmax is the cosine argmax: an image's own scale does not move it
    npt.assert_array_equal(instruction_batch(0.5 * pixels, params).data, want)


def test_class_without_training_image_is_never_predicted():
    pixels, labels = motif_images(14)
    params = instruction(14, 4)
    fit_instruction(params, pixels, np.where(labels == 2, 3, labels))  # class 2 has no image
    assert np.isfinite(params.centroids.data).all()
    npt.assert_array_equal(params.centroids.data[2], 0.0)
    probes = np.concatenate([pixels, child(14, "probe").random((50, 3, 16, 16)), np.zeros((1, 3, 16, 16))])
    picked = instruction_batch(probes, params).data @ params.table.data  # one-hot rows
    assert not np.isclose(picked[:, 2], 1.0).any()
    # an all-zero image ties every fitted class and goes to the lowest
    npt.assert_allclose(picked[-1], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
