import hashlib
import json

import numpy as np
import pytest

from beliefret.data import (
    CorpusSpec,
    epoch_batches,
    generate_corpus,
    load_dataset,
    token_layout,
    write_dataset,
)
from beliefret.errors import ConfigError, InputError, ParseError


def small_spec(**kw):
    args = dict(num_classes=3, images_per_class=6, vocab_size=40, seed=11)
    args.update(kw)
    return CorpusSpec(**args)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- spec validation -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(num_classes=0)
    with pytest.raises(ConfigError):
        small_spec(noise=1.0)
    with pytest.raises(ConfigError):
        small_spec(granularity="medium")
    with pytest.raises(ConfigError):
        small_spec(caption_len_min=2, caption_len_max=3)  # cannot hold core tokens
    with pytest.raises(ConfigError):
        small_spec(vocab_size=12)  # too small to separate classes


def test_token_layout_partitions_vocab():
    spec = small_spec()
    layout = token_layout(spec)
    all_tokens = sum(layout.values(), [])
    assert sorted(all_tokens) == list(range(spec.vocab_size))


# -- generation -----------------------------------------------------------------


def test_generation_deterministic_and_seeded():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec())
    c = generate_corpus(small_spec(seed=12))
    assert a.records == b.records
    assert a.records != c.records


def test_generated_record_structure():
    spec = small_spec()
    ds = generate_corpus(spec)
    assert len(ds.records) == spec.num_classes * spec.images_per_class
    assert ds.meta.captions_per_image == 5
    for rec in ds.records:
        assert rec.pixels.shape == (3, 16, 16)
        assert rec.pixels.min() >= 0.0 and rec.pixels.max() <= 1.0
        assert 0 <= rec.scene_label < spec.num_classes
        assert len(rec.captions) == 5
        for cap in rec.captions:
            assert spec.caption_len_min <= len(cap) <= spec.caption_len_max
            assert all(0 <= t < spec.vocab_size for t in cap)
            assert rec.scene_label in cap  # class token always present


def test_fine_captions_carry_attribute_tokens():
    spec = small_spec(granularity="fine")
    layout = token_layout(spec)
    ds = generate_corpus(spec)
    attr_tokens = set(layout["tint"] + layout["corner"] + layout["brightness"])
    for rec in ds.records:
        for cap in rec.captions:
            assert len(attr_tokens & set(cap)) == 3


def test_coarse_captions_share_fillers_across_classes():
    spec = small_spec(granularity="coarse", caption_len_min=5, caption_len_max=8)
    layout = token_layout(spec)
    ds = generate_corpus(spec)
    filler = set(layout["filler"])
    per_class_fillers = []
    for label in range(spec.num_classes):
        used = set()
        for rec in ds.records:
            if rec.scene_label == label:
                for cap in rec.captions:
                    used |= set(cap) & filler
        per_class_fillers.append(used)
    shared = set.intersection(*per_class_fillers)
    assert len(shared) >= 2  # heavy cross-class token overlap


def test_shared_motif_seed_aligns_classes_across_corpora():
    coarse = generate_corpus(small_spec(seed=20, motif_seed=7, granularity="coarse"))
    fine = generate_corpus(small_spec(seed=21, motif_seed=7, granularity="fine"))
    different = generate_corpus(small_spec(seed=21, motif_seed=8, granularity="fine"))
    # same class looks alike across corpora, images themselves differ
    a = np.stack([r.pixels for r in coarse.records if r.scene_label == 0]).mean(axis=0)
    b = np.stack([r.pixels for r in fine.records if r.scene_label == 0]).mean(axis=0)
    c = np.stack([r.pixels for r in different.records if r.scene_label == 0]).mean(axis=0)
    assert np.abs(a - b).mean() < np.abs(a - c).mean()
    assert fine.records[0] != coarse.records[0]


def test_nearest_centroid_accuracy_on_clean_corpus():
    spec = small_spec(num_classes=4, images_per_class=12, vocab_size=48, seed=5)
    ds = generate_corpus(spec)
    X = np.stack([r.pixels.reshape(-1) for r in ds.records])
    y = np.array([r.scene_label for r in ds.records])
    centroids = np.stack([X[y == c].mean(axis=0) for c in range(4)])
    dists = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = (dists.argmin(axis=1) == y).mean()
    assert accuracy >= 0.95


def test_linear_probe_separates_two_classes():
    # least-squares probe on patch-cell means, trained on half, scored on half
    spec = small_spec(num_classes=2, images_per_class=16, vocab_size=40, seed=9, noise=0.0)
    ds = generate_corpus(spec)
    feats, labels = [], []
    for rec in ds.records:
        cells = rec.pixels.reshape(3, 4, 4, 4, 4).mean(axis=(2, 4)).reshape(-1)
        feats.append(cells)
        labels.append(rec.scene_label)
    X = np.c_[np.stack(feats), np.ones(len(feats))]
    y = 2.0 * np.array(labels) - 1.0
    train = np.arange(len(y)) % 2 == 0
    w, *_ = np.linalg.lstsq(X[train], y[train], rcond=None)
    predictions = np.sign(X[~train] @ w)
    assert (predictions == y[~train]).all()


def test_noise_replaces_patches():
    clean = generate_corpus(small_spec(seed=30, noise=0.0))
    noisy = generate_corpus(small_spec(seed=30, noise=0.4))
    diff = np.abs(clean.records[0].pixels - noisy.records[0].pixels)
    cell_changed = diff.reshape(3, 4, 4, 4, 4).max(axis=(0, 2, 4)) > 0.05
    assert 0 < cell_changed.sum() < 16


# -- file round trip ---------------------------------------------------------------


def test_write_load_round_trip(tmp_path):
    ds = generate_corpus(small_spec())
    path = tmp_path / "corpus.jsonl"
    write_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.meta == ds.meta
    assert loaded.records == ds.records


def test_same_seed_byte_identical_files(tmp_path):
    for name in ("a", "b"):
        write_dataset(generate_corpus(small_spec()), tmp_path / f"{name}.jsonl")
    assert file_digest(tmp_path / "a.jsonl") == file_digest(tmp_path / "b.jsonl")


def test_load_reports_bad_line_number(tmp_path):
    ds = generate_corpus(small_spec(images_per_class=2))
    path = tmp_path / "corpus.jsonl"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-20]  # truncate a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=":4:"):
        load_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(ParseError, match=":1:"):
        load_dataset(path)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("captions", [[1, 2], [3, 99]], "caption 1 has token id 99 outside \\[0, 40\\)"),
        ("captions", [[1, 2], []], "caption 1 is empty"),
        ("pixels", 5.0, "pixel value 5.0 outside \\[0, 1\\]"),
        ("pixels", float("nan"), "pixel value nan outside \\[0, 1\\]"),
        ("scene_label", 3, "scene_label 3 outside \\[0, 3\\)"),
        ("scene_label", -1, "scene_label -1 outside \\[0, 3\\)"),
        ("captions", [[1, 2], [3, 3.7]], "token id 3.7 is not an integer"),
        ("scene_label", 1.9, "scene_label 1.9 is not an integer"),
        ("id", 2.5, "id 2.5 is not an integer"),
        ("scene_label", "1", "scene_label '1' is not an integer"),
        ("scene_label", True, "scene_label True is not an integer"),
    ],
    ids=["token-id", "empty-caption", "pixel-range", "pixel-nan", "label-high", "label-negative",
         "token-fraction", "label-fraction", "id-fraction", "label-string", "label-bool"],
)
def test_load_rejects_malformed_record_with_line_number(tmp_path, field, value, message):
    ds = generate_corpus(small_spec(images_per_class=2))
    path = tmp_path / "corpus.jsonl"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    if field == "pixels":
        record["pixels"][7] = value
    else:
        record[field] = value
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"corpus.jsonl:4: bad dataset record: {message}"):
        load_dataset(path)


# -- batching ------------------------------------------------------------------------


def test_epoch_covers_every_record_once():
    ds = generate_corpus(small_spec(images_per_class=7))  # 21 records
    seen = []
    for batch in epoch_batches(ds.records, batch_size=4, seed=3, epoch=0):
        seen.extend(batch.record_ids.tolist())
        assert batch.images.shape[0] == len(batch.captions) == len(batch.labels)
    assert sorted(seen) == [r.id for r in ds.records]
    sizes = [len(b.labels) for b in epoch_batches(ds.records, 4, 3, 0)]
    assert sizes == [4, 4, 4, 4, 4, 1]  # final partial batch emitted


def test_epochs_are_distinct_seeded_permutations():
    ds = generate_corpus(small_spec())
    first = [b.record_ids.tolist() for b in epoch_batches(ds.records, 6, 3, 0)]
    again = [b.record_ids.tolist() for b in epoch_batches(ds.records, 6, 3, 0)]
    second = [b.record_ids.tolist() for b in epoch_batches(ds.records, 6, 3, 1)]
    assert first == again
    assert first != second


def test_batch_iterator_multiple_epochs_and_validation():
    ds = generate_corpus(small_spec(images_per_class=2))
    batches = [b for epoch in range(3) for b in epoch_batches(ds.records, 4, seed=0, epoch=epoch)]
    assert sum(len(b.labels) for b in batches) == 3 * len(ds.records)
    assert [b.epoch for b in batches] == [e for e in range(3) for _ in range(2)]
    with pytest.raises(ConfigError):
        list(epoch_batches(ds.records, 0, 0, 0))
    with pytest.raises(InputError):
        list(epoch_batches([], 4, 0, 0))
