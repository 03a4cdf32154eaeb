import numpy as np
import numpy.testing as npt
import pytest

from beliefret import tensor as T
from beliefret.blocks import named_tensors
from beliefret.checkpoint import load_checkpoint, save_checkpoint
from beliefret.config import TrainConfig, apply_overrides, config_from_dict, config_to_dict
from beliefret.data import CorpusSpec, Dataset, generate_corpus, write_dataset
from beliefret.errors import ConfigError, InputError, ParseError
from beliefret.pipeline import (
    Trainer,
    effective_config,
    embed_records,
    evaluate_model,
    history_to_csv,
    run_stage,
    stratified_split,
    sweep,
    write_outputs,
)


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


def test_effective_config_normalises_stages():
    stage1 = effective_config(make_config(stage="stage1-pretrain"))
    assert not stage1.use_spatial_pae and not stage1.use_temporal_pae
    assert stage1.loss.lambda_cs == 0.0
    with pytest.warns(UserWarning, match="soft belief"):
        stage2 = effective_config(
            make_config(stage="stage2-finetune", **{"belief.mode": "hard"})
        )
    assert stage2.belief.mode == "soft-sequence"
    assert stage2.use_spatial_pae


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
        use_spatial_pae="false",
        use_temporal_pae="false",
        **{"loss.lambda_cs": "0"},
    )
    trainer = Trainer(cfg, dataset=TINY)
    model = trainer.model
    assert model.spatial is None and model.instruction is None and model.temporal is None
    assert model.cfg.loss.lambda_cs == 0
    out = trainer.train()
    assert all(row["l_a"] == 0.0 for row in out.history)


def test_ablation_grid_reachable_from_flags():
    seen = set()
    for spa in (False, True):
        for tpa in (False, True):
            for lam in (0.0, 1.0):
                cfg = make_config(
                    **{"optim.steps": "2", "optim.batch_size": "16"},
                    use_spatial_pae=str(spa).lower(),
                    use_temporal_pae=str(tpa).lower(),
                    **{"loss.lambda_cs": str(lam)},
                )
                model = Trainer(cfg, dataset=TINY).model
                active = (model.spatial is not None, model.temporal is not None, model.cfg.loss.lambda_cs > 0)
                assert active == (spa, tpa, lam > 0)
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


def test_embed_records_matches_per_record_embeddings():
    # 40 records and 200 captions: chunks of 64 cross record boundaries
    trainer = Trainer(make_config(**{"optim.steps": "1", "optim.batch_size": "16"}), dataset=TINY)
    model, records = trainer.model, TINY.records
    v, t = embed_records(model, records)
    with T.no_grad():
        v_one = [model.embed_images(r.pixels[None].astype(model.dtype)).data for r in records]
        t_one = [model.embed_texts(r.captions).data for r in records]
    npt.assert_array_equal(v, np.concatenate(v_one))
    npt.assert_array_equal(t, np.concatenate(t_one))
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
    # captions of one length form one group already in batch order, so
    # embed_texts returns that group's tensor: no index node follows it
    from beliefret.model import RetrievalModel

    model = RetrievalModel(TrainConfig(), vocab_size=30, num_classes=3)
    groups = []
    embed_group = model._embed_text_group

    def recording_group(ids):
        groups.append(embed_group(ids))
        return groups[-1]

    monkeypatch.setattr(model, "_embed_text_group", recording_group)
    captions = np.random.default_rng(0).integers(0, 30, size=(4, 5)).tolist()
    assert model.embed_texts(captions) is groups[0]
    assert len(groups) == 1


# -- checkpointing -----------------------------------------------------------------------


def test_checkpoint_resume_bit_identical(tmp_path):
    cfg = make_config(**{"optim.steps": "20", "optim.batch_size": "16", "optim.eval_every_epochs": "5"})
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


def test_tied_best_report_keeps_the_earlier_row(tmp_path):
    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)

    def row(step, r1, mr):
        return {"step": step, "loss": 1.0, "l_c": 1.0, "l_a": 0.0, "i2t_r1": r1, "i2t_r5": 60.0,
                "i2t_r10": 70.0, "t2i_r1": 40.0, "t2i_r5": 50.0, "t2i_r10": 60.0, "mr": mr}

    trainer.history = [row(1, 30.0, 50.0), row(2, 35.0, 40.0), row(3, 50.0, 50.0), row(4, 10.0, 20.0)]
    trainer.best_params = {name: t.data.copy() for name, t in trainer.model.named_parameters()}
    assert trainer.best_report.i2t_r1 == 30.0
    assert trainer.final_report.i2t_r1 == 10.0
    trainer.save_best(tmp_path / "best.npz")
    header, _ = load_checkpoint(tmp_path / "best.npz")
    assert header["global_step"] == 1
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
    assert header["global_step"] == 3
    assert header["config"]["seed"] == cfg.seed
    names = {name for name, _ in trainer.model.named_parameters()}
    assert set(params) == names


def test_checkpoint_with_non_finite_parameter_rejected(tmp_path):
    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    trainer.model.image.patch.w.data[0, 0] = np.nan
    trainer.save(tmp_path / "ck.npz")
    with pytest.raises(ParseError, match="image.patch.w has non-finite values"):
        load_checkpoint(tmp_path / "ck.npz")


def test_schema_1_checkpoint_rejected(tmp_path, monkeypatch):
    # schema 1 named the temporal stack's guides step_w; a non-strict restore
    # (init_from) would silently skip them instead of failing
    from beliefret import checkpoint

    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "SCHEMA_VERSION", 1)
        trainer.save(tmp_path / "old.npz")
    with pytest.raises(ParseError, match="unsupported checkpoint schema 1"):
        load_checkpoint(tmp_path / "old.npz")
    with pytest.raises(ParseError, match="unsupported checkpoint schema 1"):
        Trainer(make_config(init_from=str(tmp_path / "old.npz")), dataset=TINY)


def test_schema_2_checkpoint_rejected(tmp_path, monkeypatch):
    # schema 2 had no instruction centroids
    from beliefret import checkpoint

    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "SCHEMA_VERSION", 2)
        trainer.save(tmp_path / "old.npz")
    with pytest.raises(ParseError, match="unsupported checkpoint schema 2"):
        load_checkpoint(tmp_path / "old.npz")
    with pytest.raises(ParseError, match="unsupported checkpoint schema 2"):
        Trainer(make_config(init_from=str(tmp_path / "old.npz")), dataset=TINY)


def test_schema_3_checkpoint_rejected(tmp_path, monkeypatch, capsys):
    # a schema 3 header's config still holds dropout_rate, model.ffn_ratio,
    # model.use_position_encoding and loss.epsilon, settings that are gone
    from beliefret import checkpoint
    from beliefret.cli import main

    trainer = Trainer(make_config(**{"optim.batch_size": "16"}), dataset=TINY)
    header = trainer._header(0)
    header["config"]["dropout_rate"] = 0.0
    header["config"]["model"].update(ffn_ratio=2, use_position_encoding=True)
    header["config"]["loss"]["epsilon"] = 1e-12
    old = tmp_path / "old.npz"
    with monkeypatch.context() as patch:
        patch.setattr(checkpoint, "SCHEMA_VERSION", 3)
        save_checkpoint(old, {name: t.data for name, t in trainer.model.named_parameters()}, header)
    with pytest.raises(ParseError, match=f"{old}: unsupported checkpoint schema 3"):
        load_checkpoint(old)
    with pytest.raises(ParseError, match="unsupported checkpoint schema 3"):
        Trainer(make_config(init_from=str(old)), dataset=TINY)
    data = tmp_path / "dataset.jsonl"
    write_dataset(TINY, data)
    for command in ("eval", "dump-embeddings"):
        args = [command, "--checkpoint", str(old), "--dataset", str(data), "--out", str(tmp_path / command)]
        assert main(args) == 3
        assert f"{old}: unsupported checkpoint schema 3" in capsys.readouterr().err


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
        stage="stage2-finetune",
        init_from=init_from,
        use_temporal_pae="false",
        **{"optim.steps": "6", "optim.batch_size": "16"},
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


def test_stage2_requires_checkpoint():
    _, fine = coarse_fine_pair()
    cfg = make_config(stage="stage2-finetune", **{"optim.steps": "2", "optim.batch_size": "16"})
    with pytest.raises(ConfigError, match="init_from"):
        Trainer(cfg, dataset=fine)


def test_stage_granularity_warnings(tmp_path):
    coarse, fine = coarse_fine_pair()
    s1 = make_config(stage="stage1-pretrain", **{"optim.steps": "1", "optim.batch_size": "16"})
    with pytest.warns(UserWarning, match="coarse"):
        Trainer(s1, dataset=fine)
    _, init_from = stage_one(tmp_path, coarse, steps="0")
    s2 = make_config(stage="stage2-finetune", init_from=init_from, **{"optim.steps": "1", "optim.batch_size": "16"})
    with pytest.warns(UserWarning, match="fine"):
        Trainer(s2, dataset=coarse)


def test_stage1_zero_steps_equals_from_scratch(tmp_path):
    coarse, fine = coarse_fine_pair()
    _, init_from = stage_one(tmp_path, coarse, seed="3", steps="0")
    s2 = make_config(
        stage="stage2-finetune", seed="3", init_from=init_from,
        **{"optim.steps": "5", "optim.batch_size": "16"},
    )
    warm = run_stage(s2, dataset=fine)
    # a closed-domain run with stage two's flags: spatial stack, soft belief filter
    scratch_cfg = make_config(
        seed="3", use_spatial_pae="true",
        **{"belief.mode": "soft-sequence", "optim.steps": "5", "optim.batch_size": "16"},
    )
    scratch = run_stage(scratch_cfg, dataset=fine)
    assert history_to_csv(warm.history) == history_to_csv(scratch.history)
    for (name_a, pa), (name_b, pb) in zip(
        warm.model.named_parameters(), scratch.model.named_parameters()
    ):
        assert name_a == name_b
        npt.assert_array_equal(pa.data, pb.data)


# -- sweeps ------------------------------------------------------------------------------------


def test_sweep_tables(tmp_path):
    cfg = make_config(**{"optim.steps": "4", "optim.batch_size": "16", "belief.mode": "hard"})
    rows = sweep(cfg, "belief.filter_k", [3, 17], out_dir=tmp_path, dataset=TINY)
    assert [row["belief.filter_k"] for row in rows] == [3, 17]
    assert all("mr" in row for row in rows)
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "belief.filter_k,i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"
    assert len(text) == 3

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
    with pytest.raises(ConfigError, match="cannot parse override belief.filter_k='x' as int"):
        sweep(cfg, "belief.filter_k", [3, "x"], dataset=TINY)


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


def test_divergence_aborts_with_step_diagnostic():
    from beliefret.errors import NumericError

    cfg = make_config(**{"optim.steps": "4", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    # poison one weight so the next forward overflows
    trainer.model.image.patch.w.data[...] = 1e200
    with pytest.raises(NumericError, match="diverged at step 0"):
        trainer.train()


def test_float32_precision_mode():
    cfg = make_config(precision="float32", **{"optim.steps": "3", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    assert all(t.data.dtype == np.float32 for _, t in trainer.model.named_parameters())
    out = trainer.train()
    assert all(np.isfinite(row["loss"]) for row in out.history)


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
    # ops counts graph nodes, and a pre-norm sublayer is one node: about 240 here
    assert len(dtypes) >= ops > 200
    assert set(dtypes) == {np.dtype(np.float32)}
    grads = [p.grad for _, p in trainer.model.named_parameters() if p.grad is not None]
    assert grads and all(g.dtype == np.float32 for g in grads)


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
