"""Command-line surface.

Subcommands: gen-data, train, eval, sweep, dump-embeddings, verify. Every
command writes files under --out (or $BELIEFRET_OUT/<command>) and exits 0 on
success; failures exit with a categorised code: 2 config, 3 input, 4 numeric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter

from .checkpoint import atomic_open, load_checkpoint, restore_parameters
from .config import TrainConfig, apply_overrides, config_from_dict, load_config
from .data import CorpusSpec, generate_corpus, load_dataset, write_dataset
from .errors import (
    BeliefretError,
    ConfigError,
    InputError,
    NumericError,
)
from .model import RetrievalModel
from .pipeline import (
    Trainer,
    _check_captions,
    embed_records,
    evaluate_model,
    sweep,
    write_outputs,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

OUT_ROOT_ENV = "BELIEFRET_OUT"


def _resolve_out(arg_out: str | None, command: str) -> str:
    if arg_out:
        return arg_out
    root = os.environ.get(OUT_ROOT_ENV)
    if not root:
        raise ConfigError(f"--out not given and ${OUT_ROOT_ENV} is not set")
    return os.path.join(root, command)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_train_config(args) -> TrainConfig:
    cfg = load_config(args.config)
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def cmd_gen_data(args) -> int:
    out_dir = _resolve_out(args.out, "gen-data")
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.spec}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("corpus spec must be a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = CorpusSpec(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad corpus spec: {exc}") from exc
    dataset = generate_corpus(spec)
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, "dataset.jsonl")
    write_dataset(dataset, data_path)
    histogram = Counter(rec.scene_label for rec in dataset.records)
    manifest = {
        "records": len(dataset.records),
        "captions": sum(len(rec.captions) for rec in dataset.records),
        "class_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "granularity": dataset.meta.granularity,
        "seed": dataset.meta.seed,
        "sha256": _sha256(data_path),
    }
    with atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {data_path} ({manifest['records']} records, sha256 {manifest['sha256'][:12]}…)")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = _resolve_out(args.out, "train")
    cfg = _load_train_config(args)
    trainer = Trainer(cfg)
    outcome = trainer.train()
    write_outputs(out_dir, trainer, outcome)
    report = outcome.best_report or outcome.final_report
    if report is not None:
        print(f"finished {outcome.config.stage} at step {len(outcome.history)}: best mR {report.mr:.2f}")
    else:
        print(f"finished {outcome.config.stage} (no validation split)")
    return EXIT_OK


def _model_from_checkpoint(path, dataset):
    header, params = load_checkpoint(path)
    cfg = config_from_dict(header["config"])
    vocab = cfg.model.vocab_size or dataset.meta.vocab_size
    _check_captions(dataset.records, cfg.model.max_text_len, vocab)
    # the class count is the checkpoint's own; evaluation reads no label
    table = params.get("instruction.table")
    model = RetrievalModel(cfg, vocab, dataset.meta.num_classes if table is None else table.shape[1])
    restore_parameters(model, params, strict=True)
    return model, header


def cmd_eval(args) -> int:
    out_dir = _resolve_out(args.out, "eval")
    dataset = load_dataset(args.dataset)
    model, _ = _model_from_checkpoint(args.checkpoint, dataset)
    report = evaluate_model(model, dataset.records)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.json")
    with atomic_open(path) as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: mR {report.mr:.2f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    out_dir = _resolve_out(args.out, "sweep")
    cfg = _load_train_config(args)
    values = [v for v in args.values.split(",") if v]
    rows = sweep(cfg, args.axis, values, out_dir=out_dir)
    print(f"wrote {os.path.join(out_dir, 'sweep.csv')} ({len(rows)} rows)")
    return EXIT_OK


def cmd_dump_embeddings(args) -> int:
    out_dir = _resolve_out(args.out, "dump-embeddings")
    dataset = load_dataset(args.dataset)
    model, _ = _model_from_checkpoint(args.checkpoint, dataset)
    v, t = embed_records(model, dataset.records)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "embeddings.csv")
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        d = model.cfg.model.embed_dim
        writer.writerow(["id", "modality", "label", *[f"e{i}" for i in range(d)]])
        cursor = 0
        for rec, v_row in zip(dataset.records, v):
            writer.writerow([rec.id, "image", rec.scene_label, *[repr(float(x)) for x in v_row]])
            for j, t_row in enumerate(t[cursor : cursor + len(rec.captions)]):
                writer.writerow([f"{rec.id}:{j}", "text", rec.scene_label, *[repr(float(x)) for x in t_row]])
            cursor += len(rec.captions)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, grad_seeds=args.grad_seeds)
    failures = 0
    for r in results:
        print(f"[{'PASS' if r.ok else 'FAIL'}] {r.suite}/{r.name}: {r.detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beliefret", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a synthetic corpus from a spec file")
    gen.add_argument("--spec", required=True, help="corpus spec JSON")
    gen.add_argument("--out", help="output directory")
    gen.add_argument("--seed", type=int, help="override the spec seed")
    gen.set_defaults(fn=cmd_gen_data)

    train = sub.add_parser("train", help="train from a config file")
    train.add_argument("--config", required=True)
    train.add_argument("--out", help="output directory")
    train.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted config override")
    train.add_argument("--seed", type=int, help="override config seed")
    train.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", help="output directory")
    ev.set_defaults(fn=cmd_eval)

    sw = sub.add_parser("sweep", help="train once per parameter value")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True, help="dotted config key, as for --set")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--set", action="append", metavar="KEY=VALUE")
    sw.add_argument("--seed", type=int)
    sw.set_defaults(fn=cmd_sweep)

    dump = sub.add_parser("dump-embeddings", help="write per-record embeddings to CSV")
    dump.add_argument("--checkpoint", required=True)
    dump.add_argument("--dataset", required=True)
    dump.add_argument("--out", help="output directory")
    dump.set_defaults(fn=cmd_dump_embeddings)

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    ver.add_argument("--grad-seeds", type=int, default=100)
    ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BeliefretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
