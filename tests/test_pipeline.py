import warnings

import numpy as np
import numpy.testing as npt
import pytest

from beliefret import tensor as T
from beliefret.blocks import named_tensors
from beliefret.checkpoint import load_checkpoint
from beliefret.config import TrainConfig, apply_overrides, config_from_dict, config_to_dict
from beliefret.data import CorpusSpec, Dataset, generate_corpus, write_dataset
from beliefret.errors import ConfigError, InputError, ParseError
from beliefret.pipeline import (
    Trainer,
    effective_config,
    embed_records,
    evaluate_model,
    history_to_csv,
    stratified_split,
    sweep,
    train_closed_domain,
    train_open_domain,
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
    out = train_closed_domain(cfg, dataset=TINY)
    assert len(out.history) == 12
    steps = [row["step"] for row in out.history]
    assert steps == list(range(1, 13))
    assert all(np.isfinite(row["loss"]) for row in out.history)
    assert out.best_report is not None
    eval_rows = [row for row in out.history if row.get("mr") is not None]
    assert eval_rows, "validation rows recorded"


def test_training_deterministic_across_runs():
    cfg = make_config(**FAST)
    a = train_closed_domain(cfg, dataset=tiny_dataset())
    b = train_closed_domain(cfg, dataset=tiny_dataset())
    assert history_to_csv(a.history) == history_to_csv(b.history)
    for (name_a, pa), (name_b, pb) in zip(
        a.model.named_parameters(), b.model.named_parameters()
    ):
        assert name_a == name_b
        npt.assert_array_equal(pa.data, pb.data)


def test_training_seed_changes_trajectory():
    a = train_closed_domain(make_config(**FAST, seed="0"), dataset=TINY)
    b = train_closed_domain(make_config(**FAST, seed="1"), dataset=TINY)
    assert history_to_csv(a.history) != history_to_csv(b.history)


def test_baseline_flag_reduction():
    cfg = make_config(
        **FAST,
        use_spatial_pae="false",
        use_temporal_pae="false",
        **{"loss.lambda_cs": "0"},
    )
    trainer = Trainer(cfg, dataset=TINY)
    active = trainer.model.active_components()
    assert "spatial_pae" not in active
    assert "temporal_pae" not in active
    assert "affiliation_loss" not in active
    assert "image_encoder" in active and "contrastive_loss" in active
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
                trainer = Trainer(cfg, dataset=TINY)
                active = trainer.model.active_components()
                assert ("spatial_pae" in active) == spa
                assert ("temporal_pae" in active) == tpa
                assert ("affiliation_loss" in active) == (lam > 0)
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


def test_checkpoint_header_contents(tmp_path):
    cfg = make_config(**{"optim.steps": "3", "optim.batch_size": "16"})
    trainer = Trainer(cfg, dataset=TINY)
    trainer.train()
    path = tmp_path / "ck.npz"
    trainer.save(path)
    header, params = load_checkpoint(path)
    assert header["global_step"] == 3
    assert header["rng"]["algorithm"] == "pcg64"
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


# -- output files ------------------------------------------------------------------------


def test_output_files_written_and_deterministic(tmp_path):
    cfg = make_config(**FAST)
    for sub in ("a", "b"):
        train_closed_domain(cfg, out_dir=tmp_path / sub, dataset=tiny_dataset())
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
    outcome = trainer.train()
    write_outputs(tmp_path, trainer, outcome)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"checkpoint.npz", "best.npz", "history.csv", "metrics.json"}

    def failing_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return HalfWrittenFile(fh) if os.path.basename(path).startswith(target) else fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_outputs(tmp_path, trainer, outcome)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    trainer = Trainer(make_config(**FAST), dataset=TINY)
    write_outputs(run_dir, trainer, trainer.train())
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
    from beliefret.config import save_config

    cfg, run_dir = trained_checkpoint
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_classes": 3, "images_per_class": 2, "vocab_size": 40, "seed": 5}))
    out = tmp_path / "out"
    model_args = ["--checkpoint", str(run_dir / "best.npz"), "--dataset", str(run_dir / "dataset.jsonl")]

    def write_all():
        assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0  # dataset + manifest
        assert main(["eval", *model_args, "--out", str(out)]) == 0
        assert main(["dump-embeddings", *model_args, "--out", str(out)]) == 0
        save_config(cfg, out / "config.json")

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


def test_open_domain_two_stage(tmp_path):
    coarse, fine = coarse_fine_pair()
    s1 = make_config(stage="stage1-pretrain", **{"optim.steps": "8", "optim.batch_size": "16"})
    s2 = make_config(
        stage="stage2-finetune",
        init_from="placeholder",
        use_temporal_pae="false",
        **{"optim.steps": "6", "optim.batch_size": "16"},
    )
    out1, out2 = train_open_domain(
        s1, s2, out_dir=tmp_path, stage1_dataset=coarse, stage2_dataset=fine
    )
    assert "spatial_pae" not in out1.model.active_components()
    assert "spatial_pae" in out2.model.active_components()
    assert not any(t.requires_grad for _, t in named_tensors(out2.model.instruction))
    assert (tmp_path / "stage1" / "checkpoint.npz").exists()
    assert (tmp_path / "stage2" / "metrics.json").exists()


def test_stage2_requires_checkpoint():
    _, fine = coarse_fine_pair()
    cfg = make_config(stage="stage2-finetune", **{"optim.steps": "2", "optim.batch_size": "16"})
    with pytest.raises(ConfigError, match="init_from"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Trainer(cfg, dataset=fine)


def test_stage_granularity_warnings():
    coarse, fine = coarse_fine_pair()
    s1 = make_config(stage="stage1-pretrain", **{"optim.steps": "1", "optim.batch_size": "16"})
    with pytest.warns(UserWarning, match="coarse"):
        Trainer(s1, dataset=fine)
    s2 = make_config(stage="stage2-finetune", **{"optim.steps": "1", "optim.batch_size": "16"})
    with pytest.warns(UserWarning, match="fine"):
        Trainer(s2, dataset=coarse, init_params={})


def test_stage1_zero_steps_equals_from_scratch():
    coarse, fine = coarse_fine_pair()
    s1 = make_config(stage="stage1-pretrain", seed="3", **{"optim.steps": "0", "optim.batch_size": "16"})
    s2 = make_config(
        stage="stage2-finetune", seed="3", init_from="placeholder",
        **{"optim.steps": "5", "optim.batch_size": "16"},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, warm = train_open_domain(s1, s2, stage1_dataset=coarse, stage2_dataset=fine)
        scratch_cfg = make_config(
            stage="stage2-finetune", seed="3",
            **{"optim.steps": "5", "optim.batch_size": "16"},
        )
        scratch = Trainer(scratch_cfg, dataset=fine, init_params={}).train()
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

    monkeypatch.setattr("beliefret.pipeline.train_closed_domain", no_run)
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
    plain = train_closed_domain(cfg, dataset=TINY)
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
    assert len(dtypes) >= ops > 400
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
