"""Training loops and evaluation protocol.

One Trainer runs a single stage, and ``run_stage`` trains any stage and writes
its outputs. A run's state is its step count and its history: batch order and
caption picks derive from (seed, epoch) child streams, so a checkpoint holding
both resumes bit-identically. The open-domain recipe is two runs:
contrastive-only pretraining on a coarse corpus, then belief- and
attention-guided fine-tuning on a fine corpus that starts from stage one's
checkpoint file through ``init_from``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import warnings

import numpy as np

from . import tensor as T
from .checkpoint import atomic_open, load_checkpoint, restore_parameters, save_checkpoint
from .config import TrainConfig, apply_overrides, config_from_dict, config_to_dict
from .data import Dataset, epoch_batches, load_dataset
from .encoders import fit_instruction
from .errors import ConfigError, InputError, NumericError, ParseError
from .model import RetrievalModel
from .retrieval import REPORT_KEYS, REPORT_KS, RecallReport, RetrievalTable, similarity_matrix
from .tensor import sgd_step

HISTORY_COLUMNS = ("step", "loss", "l_c", "l_a", *REPORT_KEYS)


def effective_config(cfg: TrainConfig) -> TrainConfig:
    """Normalise stage-dependent flags.

    Stage-1 pretraining is a plain dual encoder under the pairwise loss alone;
    stage-2 fine-tuning enables the soft belief filter and the spatial stack.
    """
    data = config_to_dict(cfg)
    if cfg.stage == "stage1-pretrain":
        data["use_spatial_pae"] = False
        data["use_temporal_pae"] = False
        data["loss"]["lambda_cs"] = 0.0
    elif cfg.stage == "stage2-finetune":
        data["use_spatial_pae"] = True
        if data["belief"]["mode"] == "hard":
            warnings.warn("stage-2 fine-tuning uses the soft belief strategy; switching mode")
            data["belief"]["mode"] = "soft-sequence"
    return config_from_dict(data)


def stratified_split(records, val_images_per_class: int):
    """Deterministic split: the last N records of each class go to validation."""
    if val_images_per_class == 0:
        return list(records), []
    by_class: dict[int, list] = {}
    for rec in records:
        by_class.setdefault(rec.scene_label, []).append(rec)
    train, val = [], []
    for label in sorted(by_class):
        members = by_class[label]
        if len(members) <= val_images_per_class:
            raise ConfigError(
                f"class {label} has only {len(members)} images, cannot hold out {val_images_per_class}"
            )
        train.extend(members[:-val_images_per_class])
        val.extend(members[-val_images_per_class:])
    train.sort(key=lambda r: r.id)
    val.sort(key=lambda r: r.id)
    return train, val


# Records or captions per embedding call of embed_records.
_EMBED_CHUNK = 64


def embed_records(model: RetrievalModel, records):
    """Image rows in record order, then caption rows in record and caption order.

    Captions are embedded in length order, _EMBED_CHUNK at a time, so a chunk
    holds one caption length, or two where it crosses a length boundary, and
    the text tower runs once per length in it; rows are put back afterwards.
    """
    if not records:
        raise InputError("cannot embed an empty record list")
    with T.no_grad(), T.trap_nonfinite():
        v_chunks = []
        for start in range(0, len(records), _EMBED_CHUNK):
            chunk = records[start : start + _EMBED_CHUNK]
            pixels = np.stack([r.pixels for r in chunk]).astype(model.dtype)
            v_chunks.append(model.embed_images(pixels).data)

        captions = [cap for r in records for cap in r.captions]
        order = np.argsort([len(cap) for cap in captions], kind="stable")
        t_chunks = []
        for start in range(0, len(captions), _EMBED_CHUNK):
            t_chunks.append(model.embed_texts([captions[i] for i in order[start : start + _EMBED_CHUNK]]).data)
    t_sorted = np.concatenate(t_chunks, axis=0)
    t = np.empty_like(t_sorted)
    t[order] = t_sorted
    return np.concatenate(v_chunks, axis=0), t


def evaluate_model(model: RetrievalModel, records) -> RecallReport:
    """Recall report over a record list: images against every caption."""
    v, t = embed_records(model, records)
    owner = np.repeat(np.arange(len(records)), [len(r.captions) for r in records])
    table = RetrievalTable(similarity_matrix(v, t), owner)
    return RecallReport.from_table(table)


def _format_value(value) -> str:
    return repr(float(value))


def history_to_csv(history) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HISTORY_COLUMNS)
    for row in history:
        writer.writerow(
            [row["step"]] + [
                _format_value(row[col]) if row.get(col) is not None else ""
                for col in HISTORY_COLUMNS[1:]
            ]
        )
    return buf.getvalue()


def _check_captions(records, max_len: int, vocab_size: int) -> None:
    """Refuse, before any step or embedding, a caption the text encoder cannot take."""
    for rec in records:
        for i, cap in enumerate(rec.captions):
            if len(cap) > max_len:
                raise InputError(
                    f"record {rec.id} caption {i} has {len(cap)} tokens, "
                    f"more than model.max_text_len={max_len}"
                )
            # ids below 0 and empty captions are refused when a file is loaded
            if cap and max(cap) >= vocab_size:
                raise InputError(
                    f"record {rec.id} caption {i} has token id {max(cap)} "
                    f"outside the model's vocabulary of size {vocab_size}"
                )


class Trainer:
    """Single-stage training with per-epoch validation and best-checkpoint tracking."""

    def __init__(self, cfg: TrainConfig, dataset: Dataset | None = None):
        self.cfg = effective_config(cfg)
        if dataset is None:
            if not self.cfg.data.train_path:
                raise ConfigError("config has no data.train_path and no dataset was supplied")
            dataset = load_dataset(self.cfg.data.train_path)
        self.dataset = dataset
        self._check_granularity(dataset)

        if self.cfg.data.val_path:
            val_ds = load_dataset(self.cfg.data.val_path)
            if not val_ds.records:
                raise InputError(f"{self.cfg.data.val_path}: validation set has no records")
            self.train_records = list(dataset.records)
            self.val_records = list(val_ds.records)
        else:
            self.train_records, self.val_records = stratified_split(
                dataset.records, self.cfg.data.val_images_per_class
            )
        if not self.train_records:
            raise ConfigError("training split is empty")
        k = max(REPORT_KS)
        if self.val_records and len(self.val_records) < k:
            raise ConfigError(f"validation split has {len(self.val_records)} images; R@{k} needs at least {k}")

        if self.cfg.model.vocab_size and self.cfg.model.vocab_size != dataset.meta.vocab_size:
            raise ConfigError(
                f"config vocab size {self.cfg.model.vocab_size} differs from dataset "
                f"vocab size {dataset.meta.vocab_size}"
            )
        if not self.cfg.model.vocab_size:
            # pin the resolved vocabulary so checkpoints are self-describing
            data = config_to_dict(self.cfg)
            data["model"]["vocab_size"] = dataset.meta.vocab_size
            self.cfg = config_from_dict(data)
        _check_captions(
            self.train_records + self.val_records, self.cfg.model.max_text_len, self.cfg.model.vocab_size
        )
        self.model = RetrievalModel(self.cfg, self.cfg.model.vocab_size, dataset.meta.num_classes)

        if self.cfg.init_from:
            restore_parameters(self.model, load_checkpoint(self.cfg.init_from)[1], strict=False)
        elif self.cfg.stage == "stage2-finetune":
            raise ConfigError("stage2-finetune needs init_from (a stage-1 checkpoint)")

        if self.model.instruction is not None:
            fit_instruction(
                self.model.instruction,
                np.stack([r.pixels for r in self.train_records]),
                np.array([r.scene_label for r in self.train_records]),
            )

        self.global_step = 0
        self.history: list = []
        self.best_params: dict | None = None

    def _check_granularity(self, dataset: Dataset) -> None:
        if self.cfg.stage == "stage1-pretrain" and dataset.meta.granularity != "coarse":
            warnings.warn("stage-1 pretraining expects a coarse-granularity corpus")
        if self.cfg.stage == "stage2-finetune" and dataset.meta.granularity != "fine":
            warnings.warn("stage-2 fine-tuning expects a fine-granularity corpus")

    # -- steps ------------------------------------------------------------------

    def _train_step(self, batch) -> dict:
        try:
            with T.trap_nonfinite():
                loss, l_c, l_a = self.model.batch_losses(batch)
                loss.backward()
                sgd_step(self.model.named_parameters(), self.cfg.optim.learning_rate)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {self.global_step}: {exc}") from exc
        self.global_step += 1
        return {
            "step": self.global_step,
            "loss": loss.item(),
            "l_c": l_c.item(),
            "l_a": l_a.item(),
        }

    def _evaluate(self, row: dict) -> None:
        """Add a validation report to ``row``, a history row; keep the
        parameters if that row is now the best."""
        row.update(evaluate_model(self.model, self.val_records).to_dict())
        if self._best_row() is row:
            self.best_params = {name: t.data.copy() for name, t in self.model.named_parameters()}

    def train(self) -> Trainer:
        per_epoch = math.ceil(len(self.train_records) / self.cfg.optim.batch_size)
        batches = None
        while self.global_step < self.cfg.optim.steps:
            epoch, pos = divmod(self.global_step, per_epoch)
            if pos == 0 or batches is None:
                batches = list(epoch_batches(self.train_records, self.cfg.optim.batch_size, self.cfg.seed, epoch))
            row = self._train_step(batches[pos])
            self.history.append(row)
            epoch_done = pos + 1 == per_epoch
            if self.val_records and epoch_done and (epoch + 1) % self.cfg.optim.eval_every_epochs == 0:
                self._evaluate(row)
        if self.val_records and self.final_report is None:
            if not self.history:
                self.history.append({"step": self.global_step, "loss": None, "l_c": None, "l_a": None})
            self._evaluate(self.history[-1])
        return self

    # -- reports, read off the history ---------------------------------------------

    def _best_row(self) -> dict | None:
        """The first row with the highest mR: a tie keeps the earlier row."""
        rows = [row for row in self.history if row.get("mr") is not None]
        return max(rows, key=lambda row: row["mr"], default=None)

    @property
    def best_report(self) -> RecallReport | None:
        return _report(self._best_row())

    @property
    def final_report(self) -> RecallReport | None:
        return _report(self.history[-1] if self.history else None)

    # -- persistence ----------------------------------------------------------------

    def _header(self, step: int) -> dict:
        return {
            "config": config_to_dict(self.cfg),
            "global_step": step,
            "history": [row for row in self.history if row["step"] <= step],
        }

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.model.named_parameters()}
        save_checkpoint(path, arrays, self._header(self.global_step))

    def save_best(self, path) -> None:
        if self.best_params is not None:
            save_checkpoint(path, self.best_params, self._header(self._best_row()["step"]))

    @classmethod
    def from_checkpoint(cls, path, dataset: Dataset | None = None) -> "Trainer":
        header, params = load_checkpoint(path)
        if "history" not in header:
            raise ParseError(f"{path}: checkpoint holds no training history, so it cannot be resumed")
        cfg = config_from_dict(header["config"])
        # the file itself, not the init_from it names, which may be gone by now
        trainer = cls(dataclasses.replace(cfg, init_from=os.fspath(path)), dataset=dataset)
        trainer.cfg = cfg
        restore_parameters(trainer.model, params, strict=True)
        trainer.global_step = int(header["global_step"])
        trainer.history = header["history"]
        return trainer


def _report(row: dict | None) -> RecallReport | None:
    """The validation report a history row carries, if any."""
    if row is None or row.get("mr") is None:
        return None
    return RecallReport(**{key: row[key] for key in REPORT_KEYS})


def write_outputs(out_dir, trainer: Trainer) -> None:
    os.makedirs(out_dir, exist_ok=True)
    trainer.save(os.path.join(out_dir, "checkpoint.npz"))
    trainer.save_best(os.path.join(out_dir, "best.npz"))
    with atomic_open(os.path.join(out_dir, "history.csv")) as fh:
        fh.write(history_to_csv(trainer.history))
    report = trainer.best_report
    if report is not None:
        with atomic_open(os.path.join(out_dir, "metrics.json")) as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_stage(cfg: TrainConfig, out_dir=None, dataset: Dataset | None = None) -> Trainer:
    """Train one stage of any kind; with ``out_dir``, write its checkpoints,
    history and metrics there, as ``beliefret train`` does."""
    trainer = Trainer(cfg, dataset=dataset).train()
    if out_dir is not None:
        write_outputs(out_dir, trainer)
    return trainer


def sweep(cfg: TrainConfig, axis: str, values, out_dir=None, dataset: Dataset | None = None):
    """One full train+eval per value of the dotted config key ``axis``; returns table rows.

    Every derived config is built, and so validated, before the first run.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    derived = [apply_overrides(cfg, [f"{axis}={value}"]) for value in values]
    for value, run_cfg in zip(values, derived):
        if not run_cfg.data.val_path and run_cfg.data.val_images_per_class == 0:
            raise ConfigError(
                f"sweep at {axis}={value} has no validation split to report "
                "(set data.val_path or data.val_images_per_class)"
            )
    rows = []
    for value, run_cfg in zip(values, derived):
        report = run_stage(run_cfg, dataset=dataset).best_report
        rows.append({axis: value, **report.to_dict()})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "sweep.csv")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([axis, *REPORT_KEYS])
            for row in rows:
                writer.writerow([row[axis]] + [_format_value(row[k]) for k in REPORT_KEYS])
    return rows
