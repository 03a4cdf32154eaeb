import dataclasses
import json
import shutil

import pytest

from beliefret.checkpoint import load_checkpoint, restore_parameters
from beliefret.cli import main
from beliefret.config import TrainConfig, apply_overrides, config_from_dict, config_to_dict, load_config
from beliefret.data import CorpusSpec, Dataset, generate_corpus, load_dataset, write_dataset
from beliefret.model import RetrievalModel
from beliefret.pipeline import Trainer, evaluate_model, run_stage
from beliefret.retrieval import REPORT_KEYS


CORPUS_SPEC = {
    "num_classes": 5,
    "images_per_class": 6,
    "vocab_size": 48,
    "seed": 77,
    "granularity": "fine",
}


@pytest.fixture()
def dataset_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CORPUS_SPEC))
    out = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def fast_config(tmp_path, dataset_dir, **extra):
    cfg = TrainConfig()
    overrides = {
        "data.train_path": str(dataset_dir / "dataset.jsonl"),
        "optim.steps": "6",
        "optim.batch_size": "16",
        "optim.eval_every_epochs": "2",
    }
    overrides.update(extra)
    cfg = apply_overrides(cfg, [f"{k}={v}" for k, v in overrides.items()])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_gen_data_manifest_and_determinism(tmp_path, dataset_dir):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["records"] == 30
    assert manifest["class_histogram"] == {str(c): 6 for c in range(5)}
    assert manifest["captions"] == 150

    spec_path = tmp_path / "spec2.json"
    spec_path.write_text(json.dumps(CORPUS_SPEC))
    out2 = tmp_path / "data2"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["sha256"] == manifest["sha256"]

    out3 = tmp_path / "data3"
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(out3), "--seed", "78"]) == 0
    manifest3 = json.loads((out3 / "manifest.json").read_text())
    assert manifest3["sha256"] != manifest["sha256"]


def test_train_eval_dump_cycle(tmp_path, dataset_dir, capsys):
    cfg_path = fast_config(tmp_path, dataset_dir)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    for name in ("checkpoint.npz", "best.npz", "history.csv", "metrics.json"):
        assert (run_dir / name).exists(), name

    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert tuple(sorted(metrics)) == tuple(sorted(REPORT_KEYS))

    eval_dir = tmp_path / "eval"
    assert main([
        "eval",
        "--checkpoint", str(run_dir / "best.npz"),
        "--dataset", str(dataset_dir / "dataset.jsonl"),
        "--out", str(eval_dir),
    ]) == 0
    eval_metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert tuple(sorted(eval_metrics)) == tuple(sorted(REPORT_KEYS))

    dump_dir = tmp_path / "dump"
    assert main([
        "dump-embeddings",
        "--checkpoint", str(run_dir / "best.npz"),
        "--dataset", str(dataset_dir / "dataset.jsonl"),
        "--out", str(dump_dir),
    ]) == 0
    lines = (dump_dir / "embeddings.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["id", "modality", "label"]
    assert len(lines) == 1 + 30 * (1 + 5)  # images plus five captions each
    first = lines[1].split(",")
    assert first[1] == "image"
    assert len(first) == 3 + 32


@pytest.mark.parametrize("steps", [0, 12])
def test_train_reports_the_step_it_finished_at(tmp_path, dataset_dir, capsys, steps):
    cfg_path = fast_config(tmp_path, dataset_dir, **{"optim.steps": str(steps)})
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert f"finished closed-domain at step {steps}: best mR" in capsys.readouterr().out


def test_train_determinism_via_cli(tmp_path, dataset_dir):
    cfg_path = fast_config(tmp_path, dataset_dir)
    for sub in ("r1", "r2"):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "r1" / "metrics.json").read_bytes() == (tmp_path / "r2" / "metrics.json").read_bytes()
    assert (tmp_path / "r1" / "history.csv").read_bytes() == (tmp_path / "r2" / "history.csv").read_bytes()


def test_cli_set_overrides(tmp_path, dataset_dir):
    cfg_path = fast_config(tmp_path, dataset_dir)
    out = tmp_path / "short"
    assert main([
        "train", "--config", str(cfg_path), "--out", str(out),
        "--set", "optim.steps=2", "--set", "use_temporal_pae=false",
    ]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 3  # header + 2 steps


def test_sweep_command(tmp_path, dataset_dir):
    cfg_path = fast_config(tmp_path, dataset_dir, **{"optim.steps": "2"})
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(cfg_path), "--axis", "belief.filter_k",
        "--values", "3,9", "--set", "belief.mode=hard", "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "belief.filter_k,i2t_r1,i2t_r5,i2t_r10,t2i_r1,t2i_r5,t2i_r10,mr"
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "9"]


def test_sweep_without_validation_split_refused(tmp_path, dataset_dir, capsys):
    cfg_path = fast_config(tmp_path, dataset_dir, **{"data.val_images_per_class": "0"})
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--config", str(cfg_path), "--axis", "loss.lambda_cs",
        "--values", "0,1", "--out", str(out),
    ]) == 2
    assert "no validation split" in capsys.readouterr().err
    assert not out.exists()


def test_verify_command_fast(capsys):
    assert main(["verify", "--suite", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert main(["verify", "--suite", "gradients", "--grad-seeds", "3"]) == 0


def test_error_exit_codes(tmp_path, dataset_dir):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"schema_version": 1, "stage": "bogus"}))
    assert main(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 2

    missing_data_cfg = fast_config(tmp_path, dataset_dir, **{"data.train_path": str(tmp_path / "nope.jsonl")})
    assert main(["train", "--config", str(missing_data_cfg), "--out", str(tmp_path / "y")]) == 3

    truncated = tmp_path / "trunc.jsonl"
    lines = (dataset_dir / "dataset.jsonl").read_text().splitlines()
    truncated.write_text("\n".join(lines[:1] + [lines[1][:30]]) + "\n")
    bad_data_cfg = fast_config(tmp_path, dataset_dir, **{"data.train_path": str(truncated)})
    assert main(["train", "--config", str(bad_data_cfg), "--out", str(tmp_path / "z")]) == 3


@pytest.mark.parametrize("command, size", [("eval", 3000), ("eval", 0), ("train", 3000)],
                         ids=["truncated-eval", "empty-eval", "truncated-init_from"])
def test_corrupt_checkpoint_exit_code(tmp_path, dataset_dir, capsys, command, size):
    # a cut file has lost the zip directory at its end; an empty one holds not even numpy's magic
    cfg = fast_config(tmp_path, dataset_dir)
    ck = tmp_path / "ck.npz"
    Trainer(load_config(cfg)).save(ck)
    ck.write_bytes(ck.read_bytes()[:size])
    if command == "eval":
        args = ["eval", "--checkpoint", str(ck), "--dataset", str(dataset_dir / "dataset.jsonl")]
    else:
        args = ["train", "--config", str(cfg), "--set", f"init_from={ck}"]
    assert main([*args, "--out", str(tmp_path / "run")]) == 3
    assert f"{ck}: corrupt checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, code, where", [("train", 2, "config"), ("gen-data", 2, "spec"),
                                                  ("eval", 3, "dataset:3")])
def test_non_utf8_input_exit_code(tmp_path, dataset_dir, capsys, command, code, where):
    # a UTF-16 byte-order mark is not UTF-8; the dataset names the line it is on
    bad = tmp_path / where.split(":")[0]
    if command == "eval":
        lines = (dataset_dir / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + b"\xff\xfe" + b"".join(lines[2:]))
        args = ["eval", "--checkpoint", str(tmp_path / "unread.npz"), "--dataset", str(bad)]
    else:
        bad.write_bytes(b"\xff\xfe{}")
        args = [command, "--config" if command == "train" else "--spec", str(bad)]
    assert main([*args, "--out", str(tmp_path / "run")]) == code
    assert f"{tmp_path / where}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_instruction_source_config_exit_code(tmp_path, dataset_dir, capsys):
    # a config file holding the key of a deleted setting exits 2 and names it
    removed = {
        "instruction_source": "frozen-scene-table",
        "dropout_rate": 0.0,
        "model.use_position_encoding": True,
        "model.ffn_ratio": 2,
        "loss.epsilon": 1e-12,
    }
    for dotted, value in removed.items():
        cfg_path = fast_config(tmp_path, dataset_dir)
        data = json.loads(cfg_path.read_text())
        *sections, leaf = dotted.split(".")
        node = data
        for part in sections:
            node = node[part]
        node[leaf] = value
        cfg_path.write_text(json.dumps(data))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert f"'{dotted}'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_evaluation_ignores_scene_labels(tmp_path, dataset_dir):
    # the instruction prior reads pixels only, so relabelling the evaluated
    # records leaves every embedding and every recall unchanged
    train_path = dataset_dir / "dataset.jsonl"
    dataset = load_dataset(train_path)
    val_path, relabelled_path = tmp_path / "val.jsonl", tmp_path / "relabelled.jsonl"
    write_dataset(Dataset(dataset.meta, dataset.records[::3]), val_path)
    relabelled = [dataclasses.replace(r, scene_label=(r.scene_label + 1) % dataset.meta.num_classes)
                  for r in dataset.records[::3]]
    write_dataset(Dataset(dataset.meta, relabelled), relabelled_path)

    cfg_path = fast_config(tmp_path, dataset_dir, **{"data.val_path": str(val_path)})
    trainer = Trainer(load_config(cfg_path))
    trainer.train()
    assert trainer.model.spatial is not None
    report = evaluate_model(trainer.model, trainer.val_records)
    assert evaluate_model(trainer.model, relabelled) == report

    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    outputs = []
    for path in (val_path, relabelled_path):
        out = tmp_path / f"eval-{path.stem}"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"), "--dataset", str(path),
                     "--out", str(out)]) == 0
        outputs.append((out / "metrics.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == report.to_dict()


def test_malformed_record_exit_code(tmp_path, dataset_dir, capsys):
    lines = (dataset_dir / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[5])
    record["pixels"][0] = 5.0
    lines[5] = json.dumps(record)
    bad = tmp_path / "bad_pixel.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    cfg = fast_config(tmp_path, dataset_dir, **{"data.train_path": str(bad)})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    assert "bad_pixel.jsonl:6: bad dataset record: pixel value 5.0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_repeated_record_id_exit_code(tmp_path, dataset_dir, capsys):
    # caption picks are keyed by record id, so a repeated id used to crash
    # training with an IndexError when the earlier record had fewer captions
    lines = (dataset_dir / "dataset.jsonl").read_text().splitlines()
    first, second = json.loads(lines[1]), json.loads(lines[2])
    first["captions"] = first["captions"][:1]
    second["id"] = first["id"]
    lines[1], lines[2] = json.dumps(first), json.dumps(second)
    bad = tmp_path / "repeated_id.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    cfg = fast_config(tmp_path, dataset_dir, **{"data.train_path": str(bad)})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert f"repeated_id.jsonl:3: bad dataset record: id {first['id']} repeats the record on line 2" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override", ["optim.learning_rate=nan", "loss.tau=nan", "loss.tau=inf"])
def test_non_finite_override_exit_code(tmp_path, dataset_dir, capsys, override):
    cfg = fast_config(tmp_path, dataset_dir)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"), "--set", override]) == 2
    assert f"config key {override.split('=')[0]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _with_long_caption(tmp_path, dataset_dir):
    """A copy of the dataset whose record 5 has one caption tripled past max_text_len."""
    lines = (dataset_dir / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[5])
    record["captions"][1] = record["captions"][1] * 3  # 18 to 30 tokens, max_text_len is 16
    lines[5] = json.dumps(record)
    long_path = tmp_path / "long_caption.jsonl"
    long_path.write_text("\n".join(lines) + "\n")
    return long_path, record


def test_over_long_caption_refused_before_training(tmp_path, dataset_dir, capsys, monkeypatch):
    long_path, record = _with_long_caption(tmp_path, dataset_dir)
    cfg = fast_config(tmp_path, dataset_dir, **{"data.train_path": str(long_path)})

    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr("beliefret.pipeline.Trainer._train_step", no_step)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    length = len(record["captions"][1])
    err = capsys.readouterr().err
    assert f"record {record['id']} caption 1 has {length} tokens, more than model.max_text_len=16" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
def test_over_long_caption_refused_before_embedding(tmp_path, dataset_dir, capsys, monkeypatch, command):
    run_dir = tmp_path / "run"
    cfg_path = fast_config(tmp_path, dataset_dir, **{"optim.steps": "2"})
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    long_path, record = _with_long_caption(tmp_path, dataset_dir)

    def no_embedding(*args, **kwargs):
        raise AssertionError("an embedding ran")

    monkeypatch.setattr("beliefret.model.RetrievalModel.embed_images", no_embedding)
    monkeypatch.setattr("beliefret.model.RetrievalModel.embed_texts", no_embedding)
    out = tmp_path / "out"
    assert main([
        command, "--checkpoint", str(run_dir / "checkpoint.npz"), "--dataset", str(long_path), "--out", str(out),
    ]) == 3
    length = len(record["captions"][1])
    err = capsys.readouterr().err
    assert f"record {record['id']} caption 1 has {length} tokens, more than model.max_text_len=16" in err
    assert not out.exists()


def _with_large_vocab(tmp_path, dataset_dir):
    """A copy of the dataset whose header allows 60 token ids and whose record 5
    uses id 50 in caption 1; models trained on the original know 48."""
    lines = (dataset_dir / "dataset.jsonl").read_text().splitlines()
    header, record = json.loads(lines[0]), json.loads(lines[6])
    header["vocab_size"] = 60
    record["captions"][1][2] = 50
    lines[0], lines[6] = json.dumps(header), json.dumps(record)
    path = tmp_path / "large_vocab.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, f"record {record['id']} caption 1 has token id 50 outside the model's vocabulary of size 48"


def _forbid(monkeypatch, *targets):
    def ran(*args, **kwargs):
        raise AssertionError("work ran before the input was checked")

    for target in targets:
        monkeypatch.setattr(target, ran)


@pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
def test_out_of_vocabulary_id_refused_before_embedding(tmp_path, dataset_dir, capsys, monkeypatch, command):
    run_dir = tmp_path / "run"
    cfg_path = fast_config(tmp_path, dataset_dir, **{"optim.steps": "2"})
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    path, message = _with_large_vocab(tmp_path, dataset_dir)
    _forbid(monkeypatch, "beliefret.model.RetrievalModel.embed_images", "beliefret.model.RetrievalModel.embed_texts")
    out = tmp_path / "out"
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.npz"), "--dataset", str(path),
                 "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_out_of_vocabulary_validation_id_refused_before_training(tmp_path, dataset_dir, capsys, monkeypatch):
    path, message = _with_large_vocab(tmp_path, dataset_dir)
    cfg_path = fast_config(tmp_path, dataset_dir, **{"data.val_path": str(path)})
    _forbid(monkeypatch, "beliefret.pipeline.Trainer._train_step")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_validation_split_too_small_for_recall_refused(tmp_path, dataset_dir, capsys, monkeypatch):
    cfg_path = fast_config(tmp_path, dataset_dir, **{"data.val_images_per_class": "1"})
    _forbid(monkeypatch, "beliefret.pipeline.Trainer._train_step")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert "validation split has 5 images; R@10 needs at least 10" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_class_count_read_from_checkpoint(tmp_path):
    # a 4-class spatial-stack checkpoint evaluates a 3-class file: no label is read
    paths = {}
    for classes in (4, 3):
        paths[classes] = tmp_path / f"classes{classes}.jsonl"
        write_dataset(generate_corpus(CorpusSpec(**dict(CORPUS_SPEC, num_classes=classes))), paths[classes])
    cfg_path = fast_config(tmp_path, tmp_path, **{
        "data.train_path": str(paths[4]), "data.val_images_per_class": "0", "optim.steps": "2",
    })
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    checkpoint = run_dir / "checkpoint.npz"
    for command in ("eval", "dump-embeddings"):
        assert main([command, "--checkpoint", str(checkpoint), "--dataset", str(paths[3]),
                     "--out", str(tmp_path / command)]) == 0

    header, params = load_checkpoint(checkpoint)
    cfg = config_from_dict(header["config"])
    model = RetrievalModel(cfg, cfg.model.vocab_size, num_classes=4)
    restore_parameters(model, params, strict=True)
    assert model.spatial is not None
    report = evaluate_model(model, load_dataset(paths[3]).records)
    assert json.loads((tmp_path / "eval" / "metrics.json").read_text()) == report.to_dict()
    assert len((tmp_path / "dump-embeddings" / "embeddings.csv").read_text().splitlines()) == 1 + 18 * 6


def two_stage_configs(tmp_path):
    """Coarse and fine corpora from gen-data with one motif_seed, and a config
    file per stage; stage two's init_from is left to --set."""
    paths = []
    for granularity, seed in (("coarse", 81), ("fine", 82)):
        spec = tmp_path / f"{granularity}.json"
        spec.write_text(json.dumps(dict(CORPUS_SPEC, seed=seed, motif_seed=5, granularity=granularity)))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / granularity)]) == 0
        cfg = apply_overrides(TrainConfig(), [
            f"stage={'stage1-pretrain' if granularity == 'coarse' else 'stage2-finetune'}",
            f"data.train_path={tmp_path / granularity / 'dataset.jsonl'}",
            "optim.steps=6", "optim.batch_size=16", "optim.eval_every_epochs=2",
        ])
        paths.append(tmp_path / f"{granularity}-config.json")
        paths[-1].write_text(json.dumps(config_to_dict(cfg)))
    return paths


def test_two_stage_training(tmp_path):
    s1_path, s2_path = two_stage_configs(tmp_path)
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["train", "--config", str(s1_path), "--out", str(run1)]) == 0
    assert main(["train", "--config", str(s2_path), "--out", str(run2),
                 "--set", f"init_from={run1 / 'checkpoint.npz'}"]) == 0

    # the same two stages through run_stage give the same files
    api1, api2 = tmp_path / "api1", tmp_path / "api2"
    run_stage(load_config(s1_path), out_dir=api1)
    run_stage(apply_overrides(load_config(s2_path), [f"init_from={api1 / 'checkpoint.npz'}"]), out_dir=api2)
    for name in ("metrics.json", "history.csv"):
        assert (run2 / name).read_bytes() == (api2 / name).read_bytes(), name


def test_stage_two_resumes_without_the_stage_one_file(tmp_path):
    s1_path, s2_path = two_stage_configs(tmp_path)
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    init_from = str(run1 / "checkpoint.npz")
    assert main(["train", "--config", str(s1_path), "--out", str(run1)]) == 0
    assert main(["train", "--config", str(s2_path), "--out", str(run2), "--set", f"init_from={init_from}"]) == 0
    shutil.rmtree(run1)

    trainer = Trainer.from_checkpoint(run2 / "checkpoint.npz")
    assert trainer.cfg.init_from == init_from
    trainer.cfg.optim.steps += 2
    trainer.train()
    assert trainer.global_step == 8
    trainer.save(tmp_path / "more.npz")
    assert load_checkpoint(tmp_path / "more.npz")[0]["config"]["init_from"] == init_from


def test_stage_two_refuses_a_checkpoint_of_another_shape(tmp_path, capsys):
    s1_path, s2_path = two_stage_configs(tmp_path)
    run1 = tmp_path / "run1"
    assert main(["train", "--config", str(s1_path), "--out", str(run1), "--set", "optim.steps=1"]) == 0
    _, params = load_checkpoint(run1 / "checkpoint.npz")
    capsys.readouterr()
    assert main(["train", "--config", str(s2_path), "--out", str(tmp_path / "run2"),
                 "--set", f"init_from={run1 / 'checkpoint.npz'}", "--set", "model.encoder_dim=64"]) == 2
    # the first parameter in model order: the patch embedding, 48 wide in stage one
    shape = params["image.patch.w"].shape
    assert f"checkpoint parameter image.patch.w has shape {shape}, model expects {(64, *shape[1:])}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "run2").exists()


def test_out_env_var(tmp_path, dataset_dir, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CORPUS_SPEC))
    monkeypatch.setenv("BELIEFRET_OUT", str(tmp_path / "root"))
    assert main(["gen-data", "--spec", str(spec_path)]) == 0
    assert (tmp_path / "root" / "gen-data" / "dataset.jsonl").exists()
    monkeypatch.delenv("BELIEFRET_OUT")
    assert main(["gen-data", "--spec", str(spec_path)]) == 2
