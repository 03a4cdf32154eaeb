import ctypes
import math
import re
import resource

import numpy as np
import numpy.testing as npt
import pytest

from beliefret import pipeline
from beliefret import tensor as T
from beliefret.blocks import named_tensors
from beliefret.checkpoint import SCHEMA_VERSION, load_checkpoint, save_checkpoint
from beliefret.config import TrainConfig, apply_overrides, config_from_dict, config_to_dict
from beliefret.data import CorpusSpec, Dataset, generate_corpus, write_dataset
from beliefret.errors import ConfigError, InputError, ParseError
from beliefret.pipeline import (
    Trainer,
    embed_records,
    evaluate_model,
    history_to_csv,
    run_stage,
    stratified_split,
    sweep,
    write_outputs,
)
from beliefret.retrieval import REPORT_KEYS, RecallReport


def make_config(**overrides):
    cfg = TrainConfig()
    return apply_overrides(cfg, [f"{k}={v}" for k, v in overrides.items()])


def tiny_dataset(seed=42, classes=5, per_class=8, granularity="fine"):
    return generate_corpus(
        CorpusSpec(
            num_classes=classes,
            images_per_class=per_class,
            vocab_size=48,
            seed=seed,
            granularity=granularity,
        )
    )


TINY = tiny_dataset()
FAST = dict(
    **{"optim.steps": "12", "optim.batch_size": "16", "optim.eval_every_epochs": "3"},
)


# -- splits and config normalisation ---------------------------------------------


def test_stratified_split_holds_out_per_class():
    train, val = stratified_split(TINY.records, 2)
    assert len(val) == 10 and len(train) == 30
    labels = [r.scene_label for r in val]
    assert sorted(set(labels)) == [0, 1, 2, 3, 4]
    train_ids = {r.id for r in train}
    assert not train_ids & {r.id for r in val}
    with pytest.raises(ConfigError):
        stratified_split(TINY.records, 8)


def test_stage_preset_is_in_the_built_config():
    # the stage-1 preset is part of the built config, and the trainer uses it as given
    stage1 = make_config(stage="stage1-pretrain")
    assert stage1.model.spatial_units == 0 and stage1.model.temporal_units == 0
    assert stage1.loss.lambda_cs == 0.0
    assert Trainer(stage1, dataset=tiny_dataset(granularity="coarse")).cfg is stage1
    # a closed-domain run keeps its settings, an override included
    closed = make_config(**{"loss.t_trainable": "true"})
    assert (closed.model.spatial_units, closed.model.temporal_units, closed.loss.lambda_cs) == (2, 3, 1.0)
    assert closed.loss.t_trainable is True
    assert Trainer(closed, dataset=TINY).cfg is closed
    with pytest.raises(ConfigError, match="stage must be one of"):
        make_config(stage="stage2-finetune")


# -- training basics -----------------------------------------------------------------


def test_training_runs_and_tracks_history():
    cfg = make_config(**FAST)
    out = run_stage(cfg, dataset=TINY)
    assert len(out.history) == 12
    steps = [row["step"] for row in out.history]
    assert steps == list(range(1, 13))
    assert all(np.isfinite(row["loss"]) for row in out.history)
    assert out.best_report is not None
    eval_rows = [row for row in out.history if row.get("mr") is not None]
    assert eval_rows, "validation rows recorded"


def test_training_deterministic_across_runs():
    cfg = make_config(**FAST)
    a = run_stage(cfg, dataset=tiny_dataset())
    b = run_stage(cfg, dataset=tiny_dataset())
    assert history_to_csv(a.history) == history_to_csv(b.history)
    for (name_a, pa), (name_b, pb) in zip(
        a.model.named_parameters(), b.model.named_parameters()
    ):
        assert name_a == name_b
        npt.assert_array_equal(pa.data, pb.data)


def test_training_seed_changes_trajectory():
    a = run_stage(make_config(**FAST, seed="0"), dataset=TINY)
    b = run_stage(make_config(**FAST, seed="1"), dataset=TINY)
    assert history_to_csv(a.history) != history_to_csv(b.history)


def test_baseline_flag_reduction():
    cfg = make_config(
        **FAST,
        **{"model.spatial_units": "0", "model.temporal_units": "0", "loss.lambda_cs": "0"},
    )
    trainer = Trainer(cfg, dataset=TINY)
    model = trainer.model
    assert model.spatial is None and model.instruction is None and model.temporal is None
    assert model.cfg.loss.lambda_cs == 0
    out = trainer.train()
    assert all(row["l_a"] == 0.0 for row in out.history)


def test_ablation_grid_reachable_from_flags():
    seen = set()
    for spa in (0, 2):
        for tpa in (0, 3):
            for lam in (0.0, 1.0):
                cfg = make_config(
                    **{"optim.steps": "2", "optim.batch_size": "16"},
                    **{"model.spatial_units": str(spa), "model.temporal_units": str(tpa)},
                    **{"loss.lambda_cs": str(lam)},
                )
                model = Trainer(cfg, dataset=TINY).model
                active = (model.spatial is not None, model.temporal is not None, model.cfg.loss.lambda_cs > 0)
                assert active == (spa > 0, tpa > 0, lam > 0)
                assert (model.instruction is not None) == (spa > 0)
                if spa:
                    assert len(model.spatial.layers) == spa
                if tpa:
                    assert len(model.temporal.layers) == tpa
                seen.add(active)
    assert len(seen) == 8


# -- evaluation ------------------------------------------------------------------------


def test_evaluate_model_protocol():
    cfg = make_config(**{"optim.steps": "1", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    report = evaluate_model(trainer.model, trainer.val_records)
    assert 0.0 <= report.mr <= 100.0
    again = evaluate_model(trainer.model, trainer.val_records)
    assert report == again


def test_embed_records_matches_per_record_embeddings(monkeypatch):
    # 40 records and 200 captions: chunks of 64 cross record boundaries
    trainer = Trainer(make_config(precision="float64", **{"optim.steps": "1", "optim.batch_size": "16"}), dataset=TINY)
    model, records = trainer.model, TINY.records
    v, t = embed_records(model, records)
    pixels = np.stack([r.pixels for r in records]).astype(model.dtype)
    with T.no_grad():
        v_reversed = model.embed_images(pixels[::-1].copy()).data[::-1]
        v_one = np.concatenate([model.embed_images(p[None]).data for p in pixels])
        t_one = [model.embed_texts(r.captions).data for r in records]
    # an image's row does not depend on its place in the batch
    npt.assert_array_equal(v, v_reversed)
    # each sublayer multiplies all of a batch's token rows in one product, and
    # BLAS picks its kernel, and with it a row's last bit, by the number of
    # rows: an image embedded on its own moves by rounding only; a row out of
    # order would differ by O(1)
    npt.assert_allclose(v, v_one, rtol=0, atol=1e-12)
    # a caption's padded width in the temporal stack depends on the longest
    # caption it is embedded with, which moves its row by rounding only; a row
    # out of order would differ by O(1)
    npt.assert_allclose(t, np.concatenate(t_one), rtol=0, atol=1e-12)
    # chunks of 16 put the 40 images in three batches
    monkeypatch.setattr(pipeline, "_EMBED_CHUNK", 16)
    v_chunked, _ = embed_records(model, records)
    npt.assert_allclose(v_chunked, v_one, rtol=0, atol=1e-12)
    with pytest.raises(InputError):
        embed_records(model, [])


def test_embed_records_encodes_length_sorted_chunks(monkeypatch):
    # captions are embedded in length order, so a chunk of 64 holds one length,
    # or two at a boundary, and the text tower runs once per length in a chunk
    from beliefret import model as bmodel

    lengths = []
    encode = bmodel.encode_text_batch

    def counting_encode(ids, params):
        lengths.append(ids.shape[1])
        return encode(ids, params)

    monkeypatch.setattr(bmodel, "encode_text_batch", counting_encode)
    trainer = Trainer(make_config(**{"optim.steps": "1", "optim.batch_size": "16"}), dataset=TINY)
    captions = [cap for r in TINY.records for cap in r.captions]
    distinct = len({len(cap) for cap in captions})
    assert distinct > 1
    embed_records(trainer.model, TINY.records)
    assert len(lengths) <= -(-len(captions) // 64) + distinct - 1
    assert lengths == sorted(lengths)


def test_one_length_batch_is_not_regrouped(monkeypatch):
    # captions of one length form one group already in batch order: the
    # temporal stack runs over that group's tokens as they are, with no pad or
    # key mask, and no index node follows the embedding
    from beliefret import model as bmodel
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    encoded, stacked = [], []
    encode, run_temporal = bmodel.encode_text_batch, bmodel.temporal_pae

    def recording_encode(ids, params):
        encoded.append(encode(ids, params))
        return encoded[-1]

    def recording_temporal(tokens, stack, key_mask):
        stacked.append((tokens, key_mask, run_temporal(tokens, stack, key_mask)))
        return stacked[-1][-1]

    monkeypatch.setattr(bmodel, "encode_text_batch", recording_encode)
    monkeypatch.setattr(bmodel, "temporal_pae", recording_temporal)
    captions = np.random.default_rng(0).integers(0, 30, size=(4, 5)).tolist()
    out = model.embed_texts(captions)
    assert len(encoded) == len(stacked) == 1
    tokens, key_mask, local = stacked[0]
    assert tokens is encoded[0] and key_mask is None
    # the embedding is the sum node t_cls + local itself
    assert out._parents[1] is local and out._parents[0]._parents == (tokens,)


def per_length_embed_texts(model, captions):
    """Each caption length through the text tower and the temporal stack on its
    own, unpadded, with the rows put back in batch order: the reference the
    padded, masked single pass is checked against, living only here."""
    from beliefret.encoders import encode_text_batch
    from beliefret.pae import temporal_pae

    by_length = {}
    for i, cap in enumerate(captions):
        by_length.setdefault(len(cap), []).append(i)
    chunks, order = [], []
    for n in sorted(by_length):
        tokens = encode_text_batch(np.array([captions[i] for i in by_length[n]]), model.text)
        chunks.append(tokens[..., 0, :] + temporal_pae(tokens, model.temporal))
        order += by_length[n]
    return T.concat(chunks, axis=0)[np.argsort(order)]


def test_masked_text_pass_matches_per_length_reference(monkeypatch):
    # a default desk batch of 32 holds several caption lengths; at float64 the
    # padded, masked pass moves embeddings and gradients by rounding only
    from beliefret.data import epoch_batches

    data = generate_corpus(CorpusSpec(num_classes=8, images_per_class=12, vocab_size=48, seed=11))
    trainer = Trainer(make_config(precision="float64", **{"data.val_images_per_class": "0"}), dataset=data)
    model = trainer.model
    batch = next(epoch_batches(trainer.train_records, 32, 0, 0))
    assert len({len(cap) for cap in batch.captions}) > 2
    results = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(model, "embed_texts", lambda caps: per_length_embed_texts(model, caps))
        with T.no_grad():
            emb = model.embed_texts(batch.captions).data
        loss = model.batch_losses(batch)[0]
        loss.backward()
        grads = [p.grad for _, p in model.named_parameters()]
        for _, p in model.named_parameters():
            p.zero_grad()
        results.append((emb, loss.item(), grads))
    (emb, loss, grads), (ref_emb, ref_loss, ref_grads) = results
    npt.assert_allclose(emb, ref_emb, rtol=0, atol=1e-12)
    assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
    assert [g is None for g in grads] == [ref is None for ref in ref_grads]  # the frozen prior has none
    for g, ref in zip(grads, ref_grads):
        if ref is not None:
            npt.assert_allclose(g, ref, rtol=0, atol=1e-12)


# -- checkpointing -----------------------------------------------------------------------


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_checkpoint_resume_bit_identical(tmp_path, precision):
    cfg = make_config(precision=precision,
                      **{"optim.steps": "20", "optim.batch_size": "16", "optim.eval_every_epochs": "5"})
    straight = Trainer(cfg, dataset=tiny_dataset())
    straight_out = straight.train()

    first = Trainer(cfg, dataset=tiny_dataset())
    first.cfg = config_from_dict({**config_to_dict(cfg), "optim": {**config_to_dict(cfg)["optim"], "steps": 10}})
    first.train()
    ck = tmp_path / "mid.npz"
    first.save(ck)

    resumed = Trainer.from_checkpoint(ck, dataset=tiny_dataset())
    assert resumed.global_step == 10
    resumed.cfg = cfg
    resumed.train()

    for (name_a, pa), (name_b, pb) in zip(
        straight.model.named_parameters(), resumed.model.named_parameters()
    ):
        assert name_a == name_b
        npt.assert_array_equal(pa.data, pb.data)
    assert straight_out.history[-1]["loss"] == resumed.history[-1]["loss"]


def test_resumed_history_keeps_rows_before_the_resume(tmp_path):
    # 30 training records in batches of 7: five steps an epoch, so step 7 is mid-epoch
    cfg = make_config(**{"optim.steps": "13", "optim.batch_size": "7", "optim.eval_every_epochs": "1"})
    straight = Trainer(cfg, dataset=TINY).train()

    first = Trainer(cfg, dataset=TINY)
    first.cfg.optim.steps = 7
    first.train()
    first.save(tmp_path / "mid.npz")

    resumed = Trainer.from_checkpoint(tmp_path / "mid.npz", dataset=TINY)
    resumed.cfg.optim.steps = 13
    resumed.train()
    assert [row["step"] for row in resumed.history] == list(range(1, 14))
    assert resumed.history[:7] == first.history
    assert [row["loss"] for row in resumed.history[7:]] == [row["loss"] for row in straight.history[7:]]
    # the best report counts the evaluations made before the resume
    best = max(row["mr"] for row in first.history if row.get("mr") is not None)
    assert resumed.best_report.mr >= best


def test_resume_reads_the_checkpoint_once_and_fits_nothing(tmp_path, monkeypatch):
    from beliefret import checkpoint, pipeline

    trainer = Trainer(make_config(**{"optim.steps": "2", "optim.batch_size": "16"}), dataset=TINY).train()
    trainer.save(tmp_path / "ck.npz")
    reads = []

    def counted(path, fn=checkpoint.load_checkpoint):
        reads.append(path)
        return fn(path)

    def fitted(*args):
        raise AssertionError("the strict restore overwrites every fitted centroid")

    monkeypatch.setattr(checkpoint, "load_checkpoint", counted)
    monkeypatch.setattr(pipeline, "load_checkpoint", counted)
    monkeypatch.setattr(pipeline, "fit_instruction", fitted)
    resumed = Trainer.from_checkpoint(tmp_path / "ck.npz", dataset=TINY)
    assert reads == [tmp_path / "ck.npz"]
    assert resumed.cfg == trainer.cfg and resumed.global_step == 2 and resumed.history == trainer.history
    for (name, a), (_, b) in zip(resumed.model.named_parameters(), trainer.model.named_parameters()):
        npt.assert_array_equal(a.data, b.data, err_msg=name)


def test_restored_arrays_are_fresh_c_order_copies():
    from beliefret.checkpoint import restore_parameters

    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    params = {name: np.asfortranarray(t.data + 1.0) for name, t in trainer.model.named_parameters()}
    restore_parameters(trainer.model, params, strict=True)
    for name, t in trainer.model.named_parameters():
        assert t.data.flags["C_CONTIGUOUS"] and not np.shares_memory(t.data, params[name])
        npt.assert_array_equal(t.data, params[name])


def test_tied_best_report_keeps_the_earlier_row(tmp_path):
    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)

    def row(step, i2t_r1, t2i_r1):
        report = RecallReport(i2t_r1, 60.0, 70.0, t2i_r1, 50.0, 60.0)
        return {"step": step, "loss": 1.0, "l_c": 1.0, "l_a": 0.0, **report.to_dict()}

    # rows 1 and 3 tie on mR: their recalls sum to 310 in either order
    trainer.history = [row(1, 30.0, 40.0), row(2, 35.0, 20.0), row(3, 40.0, 30.0), row(4, 10.0, 20.0)]
    trainer.best_params = {name: t.data.copy() for name, t in trainer.model.named_parameters()}
    assert trainer.best_report.i2t_r1 == 30.0
    assert trainer.final_report.i2t_r1 == 10.0
    trainer.save_best(tmp_path / "best.npz")
    header, _ = load_checkpoint(tmp_path / "best.npz")
    assert header["history"] == trainer.history[:1]


def test_checkpoint_without_history_loads_but_does_not_resume(tmp_path):
    # a schema-3 header of the older form: step counters and the best mR, no history
    trainer = Trainer(make_config(**{"optim.steps": "2", "optim.batch_size": "16"}), dataset=TINY)
    trainer.train()
    path = tmp_path / "old.npz"
    header = {"config": config_to_dict(trainer.cfg), "global_step": 2, "epoch": 1, "pos_in_epoch": 0,
              "best_mr": 10.0, "best_step": 2}
    save_checkpoint(path, {name: t.data for name, t in trainer.model.named_parameters()}, header)
    started = Trainer(make_config(init_from=str(path), **{"optim.batch_size": "16"}), dataset=TINY)
    for (name, a), (_, b) in zip(started.model.named_parameters(), trainer.model.named_parameters()):
        if name != "instruction.centroids":
            npt.assert_array_equal(a.data, b.data)
    with pytest.raises(ParseError, match=f"{path}: checkpoint holds no training history"):
        Trainer.from_checkpoint(path, dataset=TINY)


RESUME_FAULTS = {  # id: (header keys replaced, message after the path)
    "step-negative": ({"history": [{"step": -1}]}, "checkpoint history[0] has step -1, below the previous step 0"),
    "history-object": ({"history": {"step": 1}}, "checkpoint history must be a list of rows, got {'step': 1}"),
    "row-step-string": (
        {"history": [{"step": "a"}]},
        "checkpoint history: config key history[0].step must be of type int, got 'a'",
    ),
    "row-loss-string": (
        {"history": [{"step": 1, "loss": "1.0"}]},
        "checkpoint history: config key history[0].loss must be of type float, got '1.0'",
    ),
    "row-unknown-key": (
        {"history": [{"step": 1, "lr": 0.1}]},
        "checkpoint history: unknown config key(s): ['history[0].lr']",
    ),
    "row-no-step": ({"history": [{"loss": 1.0}]}, "checkpoint history: missing config key(s): ['history[0].step']"),
    "row-number": ({"history": [7]}, "checkpoint history: config key history[0] must be a JSON object"),
    "row-after-step": (
        {"history": [{"step": 2}, {"step": 1}]},
        "checkpoint history[1] has step 1, below the previous step 2",
    ),
    "row-recall-incomplete": (
        {"history": [{"step": 1, **dict.fromkeys(REPORT_KEYS[1:], 50.0)}]},
        "checkpoint history[0]: incomplete report, no i2t_r1",
    ),
    "row-recall-out-of-range": (
        {"history": [{"step": 1, **dict.fromkeys(REPORT_KEYS, 50.0), "i2t_r10": 150.0}]},
        "checkpoint history[0]: i2t_r10=150.0 outside [0, 100]",
    ),
    "row-mr-not-mean": (
        {"history": [{"step": 1, **dict.fromkeys(REPORT_KEYS, 10.0), "mr": 90.0}]},
        "checkpoint history[0]: mr=90.0 is not 10.0, the mean of the six recalls",
    ),
}


@pytest.mark.parametrize("fault", list(RESUME_FAULTS))
def test_resume_refuses_a_malformed_step_or_history(tmp_path, fault):
    replaced, message = RESUME_FAULTS[fault]
    trainer = Trainer(make_config(**{"optim.steps": "2", "optim.batch_size": "16"}), dataset=TINY).train()
    header = trainer._header(trainer.global_step)
    header.update(replaced)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, {name: t.data for name, t in trainer.model.named_parameters()}, header)
    with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
        Trainer.from_checkpoint(path, dataset=TINY)


def test_resume_steps_on_from_the_last_row(tmp_path):
    # a step count stored beside the rows, as schema 8 held one, is not read
    cfg = make_config(**{"optim.steps": "3", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY).train()
    save_checkpoint(tmp_path / "ck.npz", {name: t.data for name, t in trainer.model.named_parameters()},
                    {**trainer._header(3), "global_step": 10})
    resumed = Trainer.from_checkpoint(tmp_path / "ck.npz", dataset=TINY)
    resumed.cfg.optim.steps = 6
    assert [row["step"] for row in resumed.train().history] == [1, 2, 3, 4, 5, 6]


def test_resume_keeps_the_stored_history_rows(tmp_path):
    # rows of a no-step run and rows with and without recall are all taken as stored
    trainer = Trainer(make_config(**{"optim.steps": "0", "optim.batch_size": "16"}), dataset=TINY).train()
    trainer.history += [{"step": 0, "loss": 1, "l_c": 0.5, "l_a": None}]
    trainer.save(tmp_path / "ck.npz")
    resumed = Trainer.from_checkpoint(tmp_path / "ck.npz", dataset=TINY)
    assert resumed.global_step == 0
    assert resumed.history == trainer.history and type(resumed.history[-1]["loss"]) is int


def test_resumed_run_keeps_its_earlier_best_checkpoint(tmp_path):
    # seed 1 reads its best mR at step 2, before the resume at step 6, and
    # never beats it after: the resumed run's outputs keep that row's best.npz
    cfg = make_config(seed=1, **{"optim.steps": "6", "optim.batch_size": "16", "optim.eval_every_epochs": "1"})
    run_dir = tmp_path / "run"
    run_stage(cfg, out_dir=run_dir, dataset=TINY)
    best_header, best_arrays = load_checkpoint(run_dir / "best.npz")
    metrics = (run_dir / "metrics.json").read_bytes()

    resumed = Trainer.from_checkpoint(run_dir / "checkpoint.npz", dataset=TINY)
    assert resumed.best_params is not None
    resumed.cfg.optim.steps = 12
    resumed.train()
    assert resumed._best_row()["step"] == best_header["history"][-1]["step"] == 2
    write_outputs(run_dir, resumed)
    header, arrays = load_checkpoint(run_dir / "best.npz")
    assert header["history"][-1]["step"] == 2 and arrays.keys() == best_arrays.keys()
    for name, arr in best_arrays.items():
        npt.assert_array_equal(arrays[name], arr, err_msg=name)
    assert (run_dir / "metrics.json").read_bytes() == metrics
    # a best.npz that is this run's by its header but lacks a parameter is refused, by name
    arrays.pop("text.embed")
    save_checkpoint(run_dir / "best.npz", arrays, header)
    with pytest.raises(ParseError, match="best.npz: best checkpoint does not hold"):
        Trainer.from_checkpoint(run_dir / "checkpoint.npz", dataset=TINY)

    # the best.npz of another run (seed 2), at the same step 2, is not this run's best
    other = tmp_path / "other"
    run_stage(make_config(seed=2, **{"optim.steps": "6", "optim.batch_size": "16"}), out_dir=other, dataset=TINY)
    assert load_checkpoint(other / "best.npz")[0]["history"][-1]["step"] == 2
    (other / "checkpoint.npz").write_bytes((run_dir / "checkpoint.npz").read_bytes())
    assert Trainer.from_checkpoint(other / "checkpoint.npz", dataset=TINY).best_params is None


def test_named_parameters_built_once_and_kept_through_loading():
    from beliefret.checkpoint import restore_parameters
    from beliefret.encoders import fit_instruction

    trainer = Trainer(make_config(**{"loss.t_trainable": "true", **FAST}), dataset=TINY)
    model = trainer.model
    params = model.named_parameters()

    def walk():
        groups = {
            "image": model.image,
            "text": model.text,
            "instruction": model.instruction,
            "spatial": model.spatial,
            "temporal": model.temporal,
            "t_logit": model.t_logit,
        }
        return [pair for group, obj in groups.items() for pair in named_tensors(obj, group)]

    def same(a, b):
        return [(name, id(t)) for name, t in a] == [(name, id(t)) for name, t in b]

    assert {"instruction.table", "t_logit"} <= {name for name, _ in params}
    assert same(params, walk())
    before = {name: t.data.copy() for name, t in params}
    restore_parameters(model, {name: a + 1.0 for name, a in before.items()}, strict=True)
    pixels = np.stack([r.pixels for r in trainer.train_records])
    fit_instruction(model.instruction, pixels, np.array([r.scene_label for r in trainer.train_records]))
    assert model.named_parameters() is params and same(params, walk())
    # the kept tensors carry the loaded values; fit_instruction refits the centroids
    for name, t in params:
        if name != "instruction.centroids":
            npt.assert_array_equal(t.data, before[name] + 1.0)


def test_checkpoint_header_contents(tmp_path):
    cfg = make_config(**{"optim.steps": "3", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    trainer.train()
    path = tmp_path / "ck.npz"
    trainer.save(path)
    header, params = load_checkpoint(path)
    # the config and the history are a run's whole state
    assert set(header) == {"config", "history", "schema_version"}
    assert header["history"][-1]["step"] == 3
    assert header["config"]["seed"] == cfg.seed
    names = {name for name, _ in trainer.model.named_parameters()}
    assert set(params) == names


def test_checkpoint_with_non_finite_parameter_rejected(tmp_path):
    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    trainer.model.image.patch.w.data[0, 0] = np.nan
    trainer.save(tmp_path / "ck.npz")
    with pytest.raises(ParseError, match="image.patch.w has non-finite values"):
        load_checkpoint(tmp_path / "ck.npz")


@pytest.mark.parametrize("schema", range(1, SCHEMA_VERSION))
def test_old_schema_checkpoint_rejected(schema, tmp_path, monkeypatch, capsys):
    # every reader refuses an earlier schema by its number, before it reads any
    # layout: a file of the current layout under an old number is refused too
    from beliefret import checkpoint
    from beliefret.cli import main

    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    header = trainer._header(0)
    arrays = {name: t.data for name, t in trainer.model.named_parameters()}
    old = tmp_path / "old.npz"
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "SCHEMA_VERSION", schema)
        save_checkpoint(old, arrays, header)
    message = f"{old}: unsupported checkpoint schema {schema}"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_checkpoint(old)
    with pytest.raises(ParseError, match=re.escape(message)):
        Trainer(make_config(init_from=str(old)), dataset=TINY)
    data = tmp_path / "dataset.jsonl"
    write_dataset(TINY, data)
    for command in ("eval", "dump-embeddings"):
        args = [command, "--checkpoint", str(old), "--dataset", str(data), "--out", str(tmp_path / command)]
        assert main(args) == 3
        assert message in capsys.readouterr().err


# -- output files ------------------------------------------------------------------------


def test_output_files_written_and_deterministic(tmp_path):
    cfg = make_config(**FAST)
    for sub in ("a", "b"):
        run_stage(cfg, out_dir=tmp_path / sub, dataset=tiny_dataset())
    for name in ("history.csv", "metrics.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    assert (tmp_path / "a" / "checkpoint.npz").exists()
    assert (tmp_path / "a" / "best.npz").exists()
    header = (tmp_path / "a" / "history.csv").read_text().splitlines()[0]
    assert header == "step,loss,l_c,l_a,i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"


def test_reused_output_directory_keeps_no_other_runs_files(tmp_path):
    # a run with no validation split writes no best checkpoint or metrics, and
    # leaves none of an earlier run's beside its own checkpoint
    run_dir = tmp_path / "run"
    run_stage(make_config(**FAST), out_dir=run_dir, dataset=TINY)
    assert {p.name for p in run_dir.iterdir()} == {"checkpoint.npz", "best.npz", "history.csv", "metrics.json"}
    run_stage(make_config(**{**FAST, "data.val_images_per_class": "0"}), out_dir=run_dir, dataset=TINY)
    assert {p.name for p in run_dir.iterdir()} == {"checkpoint.npz", "history.csv"}


class HalfWrittenFile:
    """A file whose first write stores half of the data, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("target", ["checkpoint.npz", "best.npz", "history.csv", "metrics.json"])
def test_failed_write_keeps_previous_output(tmp_path, monkeypatch, target):
    import builtins
    import os

    from beliefret import checkpoint

    trainer = Trainer(make_config(**FAST), dataset=TINY)
    trainer.train()
    write_outputs(tmp_path, trainer)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"checkpoint.npz", "best.npz", "history.csv", "metrics.json"}

    def failing_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return HalfWrittenFile(fh) if os.path.basename(path).startswith(target) else fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_outputs(tmp_path, trainer)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    trainer = Trainer(make_config(**FAST), dataset=TINY)
    write_outputs(run_dir, trainer.train())
    write_dataset(TINY, run_dir / "dataset.jsonl")
    return trainer.cfg, run_dir


@pytest.mark.parametrize(
    "target", ["dataset.jsonl", "manifest.json", "metrics.json", "embeddings.csv", "config.json"]
)
def test_failed_command_write_keeps_previous_output(tmp_path, monkeypatch, trained_checkpoint, target):
    import builtins
    import json
    import os

    from beliefret import checkpoint
    from beliefret.cli import main

    cfg, run_dir = trained_checkpoint
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_classes": 3, "images_per_class": 2, "vocab_size": 40, "seed": 5}))
    out = tmp_path / "out"
    model_args = ["--checkpoint", str(run_dir / "best.npz"), "--dataset", str(run_dir / "dataset.jsonl")]

    def write_all():
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0  # dataset + manifest
        assert main(["eval", *model_args, "--out", str(out)]) == 0
        assert main(["dump-embeddings", *model_args, "--out", str(out)]) == 0
        with checkpoint.atomic_open(out / "config.json") as fh:  # a JSON file written as every output is
            json.dump(config_to_dict(cfg), fh)

    write_all()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"dataset.jsonl", "manifest.json", "metrics.json", "embeddings.csv", "config.json"}

    def failing_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return HalfWrittenFile(fh) if os.path.basename(path).startswith(target) else fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_all()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_trapped_step_matches_untrapped_bit_for_bit(precision):
    from beliefret.data import epoch_batches

    cfg = make_config(precision=precision, **{"optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    batch = next(epoch_batches(trainer.train_records, 16, cfg.seed, 0))
    params = list(trainer.model.named_parameters())

    def loss_and_grads():
        loss = trainer.model.batch_losses(batch)[0]
        loss.backward()
        grads = {name: p.grad for name, p in params if p.grad is not None}
        for _, p in params:
            p.zero_grad()
        return loss.data, grads

    plain_loss, plain_grads = loss_and_grads()
    with T.trap_nonfinite():
        trapped_loss, trapped_grads = loss_and_grads()
    assert plain_loss.dtype == np.dtype(precision)
    assert plain_loss.tobytes() == trapped_loss.tobytes()
    assert len(plain_grads) > 10 and plain_grads.keys() == trapped_grads.keys()
    for name, grad in plain_grads.items():
        assert grad.tobytes() == trapped_grads[name].tobytes(), name


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_training_steps_reuse_freed_pages():
    # a batch-128 stage-1 step frees a few MB at the heap top; with glibc's
    # dynamic thresholds the next step faulted it back in, thousands of
    # minor faults per step
    coarse = generate_corpus(
        CorpusSpec(num_classes=8, images_per_class=20, vocab_size=64, seed=7, granularity="coarse",
                   caption_len_min=8, caption_len_max=8)
    )
    cfg = make_config(stage="stage1-pretrain", **{
        "optim.steps": "3", "optim.batch_size": "128", "data.val_images_per_class": "0",
    })
    trainer = Trainer(cfg, dataset=coarse).train()
    faults = []
    for _ in range(4):
        trainer.cfg.optim.steps += 1
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sum(faults) < 500, faults


def test_heap_pin_sets_the_trim_threshold_only_with_the_mmap_one(monkeypatch):
    calls = []

    class Libc:
        def __init__(self, name):
            pass

        def mallopt(self, param, value):
            calls.append(param)
            return accepted

    monkeypatch.setattr(pipeline.ctypes, "CDLL", Libc)
    for accepted, expected in ((1, [-3, -1]), (0, [-3])):
        calls.clear()
        pipeline._pin_heap.__wrapped__()
        assert calls == expected
    del Libc.mallopt  # a C library without mallopt: nothing is set, nothing raised
    calls.clear()
    pipeline._pin_heap.__wrapped__()
    assert calls == []


# -- open domain ---------------------------------------------------------------------------


def coarse_fine_pair(seed=0):
    coarse = generate_corpus(
        CorpusSpec(num_classes=5, images_per_class=10, vocab_size=48,
                   seed=900 + seed, motif_seed=33, granularity="coarse")
    )
    fine = generate_corpus(
        CorpusSpec(num_classes=5, images_per_class=6, vocab_size=48,
                   seed=950 + seed, motif_seed=33, granularity="fine")
    )
    return coarse, fine


def stage_one(tmp_path, dataset, seed="0", steps="8"):
    """Run stage one into tmp_path; return the init_from of a stage two after it."""
    cfg = make_config(stage="stage1-pretrain", seed=seed, **{"optim.steps": steps, "optim.batch_size": "16"})
    outcome = run_stage(cfg, out_dir=tmp_path, dataset=dataset)
    return outcome, str(tmp_path / "checkpoint.npz")


def test_open_domain_two_stage(tmp_path):
    coarse, fine = coarse_fine_pair()
    out1, init_from = stage_one(tmp_path / "stage1", coarse)
    s2 = make_config(
        init_from=init_from,
        **{"model.temporal_units": "0", "optim.steps": "6", "optim.batch_size": "16"},
    )
    # stage two starts from stage one's encoders and its own new spatial stack
    start = Trainer(s2, dataset=fine).model
    first = dict(out1.model.named_parameters())
    for name, t in start.named_parameters():
        if name in first:
            npt.assert_array_equal(t.data, first[name].data)
    assert {name.split(".")[0] for name, _ in start.named_parameters() if name not in first} == {
        "instruction", "spatial"
    }
    out2 = run_stage(s2, out_dir=tmp_path / "stage2", dataset=fine)
    assert out1.model.spatial is None
    assert out2.model.spatial is not None
    assert not any(t.requires_grad for _, t in named_tensors(out2.model.instruction))
    assert (tmp_path / "stage2" / "metrics.json").exists()


def test_stage_granularity_warnings():
    _, fine = coarse_fine_pair()
    s1 = make_config(stage="stage1-pretrain", **{"optim.steps": "1", "optim.batch_size": "16"})
    with pytest.warns(UserWarning, match="coarse"):
        Trainer(s1, dataset=fine)


def test_stage1_zero_steps_equals_from_scratch(tmp_path):
    coarse, fine = coarse_fine_pair()
    _, init_from = stage_one(tmp_path, coarse, seed="3", steps="0")
    s2 = make_config(seed="3", init_from=init_from, **{"optim.steps": "5", "optim.batch_size": "16"})
    warm = run_stage(s2, dataset=fine)
    # the same closed-domain run without init_from
    scratch_cfg = make_config(seed="3", **{"optim.steps": "5", "optim.batch_size": "16"})
    scratch = run_stage(scratch_cfg, dataset=fine)
    assert history_to_csv(warm.history) == history_to_csv(scratch.history)
    for (name_a, pa), (name_b, pb) in zip(
        warm.model.named_parameters(), scratch.model.named_parameters()
    ):
        assert name_a == name_b
        npt.assert_array_equal(pa.data, pb.data)


# -- sweeps ------------------------------------------------------------------------------------


def test_sweep_tables(tmp_path):
    cfg = make_config(**{"optim.steps": "4", "optim.batch_size": "16"})
    rows = sweep(cfg, "seed", [3, 17], out_dir=tmp_path, dataset=TINY)
    assert [row["seed"] for row in rows] == [3, 17]
    assert all("mr" in row for row in rows)
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "seed,i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"
    assert [line.split(",")[0] for line in text[1:]] == ["3", "17"]

    rows_l = sweep(cfg, "loss.lambda_cs", [0.0], dataset=TINY)
    assert len(rows_l) == 1
    with pytest.raises(ConfigError, match="unknown config key 'heads'"):
        sweep(cfg, "heads", [1], dataset=TINY)
    with pytest.raises(ConfigError):
        sweep(cfg, "loss.lambda_cs", [], dataset=TINY)


def test_sweep_refuses_bad_value_before_any_run(monkeypatch):
    cfg = make_config(**{"optim.steps": "4", "optim.batch_size": "16"})

    def no_run(*args, **kwargs):
        raise AssertionError("a sweep run started")

    monkeypatch.setattr("beliefret.pipeline.run_stage", no_run)
    with pytest.raises(ConfigError, match="cannot parse override seed='x' as int"):
        sweep(cfg, "seed", [3, "x"], dataset=TINY)
    with pytest.raises(ConfigError, match="model.heads=5 must divide model.embed_dim=32"):
        sweep(cfg, "model.heads", [2, 5], dataset=TINY)
    # the data's faults too: each value's trainer is built before the first run
    with pytest.raises(ConfigError, match="class 0 has only 8 images, cannot hold out 8"):
        sweep(cfg, "data.val_images_per_class", [2, 8], dataset=TINY)
    with pytest.raises(InputError, match="tokens, more than model.max_text_len=4"):
        sweep(cfg, "model.max_text_len", [16, 4], dataset=TINY)


def test_empty_validation_file_refused(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset(Dataset(TINY.meta, []), path)
    cfg = make_config(**{"optim.steps": "4", "data.val_path": str(path)})
    with pytest.raises(InputError, match="validation set has no records"):
        sweep(cfg, "loss.lambda_cs", [0.0], dataset=TINY)


def test_single_value_sweep_equals_plain_run():
    cfg = make_config(**{"optim.steps": "4", "optim.batch_size": "16"})
    rows = sweep(cfg, "loss.lambda_cs", [1.0], dataset=TINY)
    plain = run_stage(cfg, dataset=TINY)
    report = plain.best_report or plain.final_report
    assert rows[0]["mr"] == report.mr


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_divergence_aborts_with_step_diagnostic(precision):
    from beliefret.errors import NumericError

    cfg = make_config(precision=precision, **{"optim.steps": "4", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    # poison one weight with a value finite in the model's dtype, so the next forward overflows
    weight = trainer.model.image.patch.w.data
    weight[...] = np.finfo(weight.dtype).max / 10
    with pytest.raises(NumericError, match="diverged at step 0"):
        trainer.train()


def test_float32_precision_mode():
    cfg = make_config(precision="float32", **{"optim.steps": "3", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    assert all(t.data.dtype == np.float32 for _, t in trainer.model.named_parameters())
    out = trainer.train()
    assert all(np.isfinite(row["loss"]) for row in out.history)


def test_affiliation_scale_starts_at_one_over_tau():
    from beliefret.model import RetrievalModel

    # a trainable scale is a parameter in the model's precision: ln 10 exactly at float64
    trainable = RetrievalModel(make_config(precision="float64", **{"loss.t_trainable": "true", "loss.tau": "0.1"}),
                               30, 3)
    assert trainable.t_logit.item() == math.log(10.0) and trainable.t_logit.requires_grad
    assert RetrievalModel(make_config(**{"loss.tau": "0.1"}), 30, 3).t_logit == math.log(10.0)


def test_float32_parameters_are_the_float64_draw_cast():
    # the seed, not the precision, decides every draw
    from beliefret.model import RetrievalModel

    base = ["loss.t_trainable=true"]
    wide = RetrievalModel(apply_overrides(TrainConfig(), [*base, "precision=float64"]), vocab_size=30, num_classes=3)
    narrow = RetrievalModel(apply_overrides(TrainConfig(), [*base, "precision=float32"]), vocab_size=30, num_classes=3)
    assert [name for name, _ in narrow.named_parameters()] == [name for name, _ in wide.named_parameters()]
    for (_, w), (_, n) in zip(wide.named_parameters(), narrow.named_parameters()):
        assert w.data.dtype == np.float64 and n.data.dtype == np.float32
        assert n.data.tobytes() == w.data.astype(np.float32).tobytes()


def test_float32_every_op_output_is_float32(monkeypatch):
    from beliefret.data import epoch_batches

    cfg = make_config(precision="float32", **{"optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    batch = next(epoch_batches(trainer.train_records, 16, cfg.seed, 0))
    dtypes = []
    op = T._op

    def recording_op(data, parents, backward_fn):
        dtypes.append(data.dtype)
        return op(data, parents, backward_fn)

    monkeypatch.setattr(T, "_op", recording_op)
    loss = trainer.model.batch_losses(batch)[0]
    # the recorder saw at least every op node of the loss graph
    ops, stack, seen = 0, [loss], {id(loss)}
    while stack:
        node = stack.pop()
        ops += bool(node._parents)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    loss.backward()
    # ops counts graph nodes, and a pre-norm sublayer is one node: about 164 here
    assert len(dtypes) >= ops > 150
    assert set(dtypes) == {np.dtype(np.float32)}
    grads = [p.grad for _, p in trainer.model.named_parameters() if p.grad is not None]
    assert grads and all(g.dtype == np.float32 for g in grads)


def test_default_desk_step_is_float32_end_to_end(monkeypatch):
    # the default config trains and evaluates in float32: a float64 op output,
    # parameter, gradient or embedding on a desk step would be a silent upcast
    from beliefret import pipeline
    from beliefret.data import epoch_batches

    corpus = generate_corpus(CorpusSpec(num_classes=8, images_per_class=12, vocab_size=48, seed=11))
    trainer = Trainer(TrainConfig(), dataset=corpus)
    batch = next(epoch_batches(trainer.train_records, trainer.cfg.optim.batch_size, 0, 0))
    assert len({len(cap) for cap in batch.captions}) > 2  # the padded, masked text pass runs
    op, sgd = T._op, pipeline.sgd_step
    outputs, grads = [], []

    def recording_op(data, parents, backward_fn):
        outputs.append(data.dtype)
        return op(data, parents, backward_fn)

    def recording_sgd(named, learning_rate):
        grads.extend(p.grad.dtype for _, p in named if p.grad is not None)
        return sgd(named, learning_rate)

    monkeypatch.setattr(T, "_op", recording_op)
    monkeypatch.setattr(pipeline, "sgd_step", recording_sgd)
    trainer._train_step(batch)
    assert len(outputs) > 150 and set(outputs) == {np.dtype(np.float32)}
    assert grads and set(grads) == {np.dtype(np.float32)}
    assert {t.data.dtype for _, t in trainer.model.named_parameters()} == {np.dtype(np.float32)}
    outputs.clear()
    v, t = embed_records(trainer.model, trainer.val_records)
    assert outputs and set(outputs) == {np.dtype(np.float32)}
    assert v.dtype == t.dtype == np.float32


def test_full_model_gradient_end_to_end():
    # one composed check across encoder, belief filter, both attention stacks
    # and both losses; unsaturated temperature keeps the probe well-posed
    from beliefret.data import epoch_batches
    from beliefret.tensor import grad_check

    small = generate_corpus(
        CorpusSpec(num_classes=3, images_per_class=3, image_size=8, vocab_size=24,
                   caption_len_min=4, caption_len_max=5, seed=2, granularity="fine")
    )
    cfg = make_config(
        precision="float64",
        **{
            "model.embed_dim": "8", "model.encoder_dim": "8", "model.heads": "2",
            "model.encoder_blocks": "1", "model.spatial_units": "1",
            "model.temporal_units": "1", "model.image_size": "8",
            "loss.tau": "0.5", "optim.batch_size": "4",
            "data.val_images_per_class": "0", "optim.steps": "1",
        }
    )
    trainer = Trainer(cfg, dataset=small)
    batch = next(epoch_batches(trainer.train_records, 4, cfg.seed, 0))

    def loss_fn(_):
        return trainer.model.batch_losses(batch)[0]

    for name in ("image.patch.w", "text.embed", "spatial.guide_w.0", "temporal.head.w"):
        param = dict(trainer.model.named_parameters())[name]
        err = grad_check(loss_fn, param)
        assert err < 1e-4, f"{name}: rel err {err}"
