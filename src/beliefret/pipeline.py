"""Training loops and evaluation protocol.

One Trainer runs a single stage. Batch order, caption picks, and dropout masks
all derive from (seed, epoch) or (seed, step) child streams, so a checkpoint
only needs counters to resume bit-identically. The open-domain recipe chains
two trainers: contrastive-only pretraining on a coarse corpus, then belief- and
attention-guided fine-tuning on a fine corpus initialised from stage one.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import warnings

import numpy as np

from . import tensor as T
from .blocks import Dropout
from .checkpoint import atomic_open, load_checkpoint, restore_parameters, save_checkpoint
from .config import TrainConfig, apply_overrides, config_from_dict, config_to_dict
from .data import Dataset, epoch_batches, load_dataset
from .encoders import fit_instruction
from .errors import ConfigError, InputError, NumericError
from .model import RetrievalModel
from .retrieval import REPORT_KEYS, REPORT_KS, RecallReport, RetrievalTable, similarity_matrix
from .rng import ALGORITHM, child
from .tensor import sgd_step

HISTORY_COLUMNS = ("step", "loss", "l_c", "l_a", *REPORT_KEYS)


@dataclasses.dataclass
class TrainOutcome:
    model: RetrievalModel
    config: TrainConfig
    history: list
    best_report: RecallReport | None
    best_step: int
    final_report: RecallReport | None


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


def embed_records(model: RetrievalModel, records, chunk_size: int = 64):
    """Image rows in record order, then caption rows in record and caption order."""
    if not records:
        raise InputError("cannot embed an empty record list")
    with T.no_grad(), T.trap_nonfinite():
        v_chunks = []
        for start in range(0, len(records), chunk_size):
            chunk = records[start : start + chunk_size]
            pixels = np.stack([r.pixels for r in chunk]).astype(model.dtype)
            v_chunks.append(model.embed_images(pixels).data)

        captions = [cap for r in records for cap in r.captions]
        t_chunks = []
        for start in range(0, len(captions), chunk_size):
            t_chunks.append(model.embed_texts(captions[start : start + chunk_size]).data)
    return np.concatenate(v_chunks, axis=0), np.concatenate(t_chunks, axis=0)


def evaluate_model(model: RetrievalModel, records, chunk_size: int = 64) -> RecallReport:
    """Recall report over a record list: images against every caption."""
    v, t = embed_records(model, records, chunk_size)
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

    def __init__(self, cfg: TrainConfig, dataset: Dataset | None = None, init_params: dict | None = None):
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

        if self.cfg.stage == "stage2-finetune" and init_params is None and not self.cfg.init_from:
            raise ConfigError("stage2-finetune needs init_from (a stage-1 checkpoint)")
        if init_params is None and self.cfg.init_from:
            _, init_params = load_checkpoint(self.cfg.init_from)
        if init_params is not None:
            restore_parameters(self.model, init_params, strict=False)

        if self.model.instruction is not None:
            fit_instruction(
                self.model.instruction,
                np.stack([r.pixels for r in self.train_records]),
                np.array([r.scene_label for r in self.train_records]),
            )

        self.global_step = 0
        self.epoch = 0
        self.pos_in_epoch = 0
        self.best_mr = float("-inf")
        self.best_step = -1
        self.best_report: RecallReport | None = None
        self.best_params: dict | None = None
        self.history: list = []

    def _check_granularity(self, dataset: Dataset) -> None:
        if self.cfg.stage == "stage1-pretrain" and dataset.meta.granularity != "coarse":
            warnings.warn("stage-1 pretraining expects a coarse-granularity corpus")
        if self.cfg.stage == "stage2-finetune" and dataset.meta.granularity != "fine":
            warnings.warn("stage-2 fine-tuning expects a fine-granularity corpus")

    # -- steps ------------------------------------------------------------------

    def _dropout_for_step(self) -> Dropout | None:
        if self.cfg.dropout_rate == 0.0:
            return None
        return Dropout(self.cfg.dropout_rate, child(self.cfg.seed, "dropout", self.global_step))

    def _train_step(self, batch) -> dict:
        try:
            with T.trap_nonfinite():
                loss, l_c, l_a = self.model.batch_losses(batch, self._dropout_for_step())
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

    def _maybe_eval(self, row: dict | None) -> RecallReport | None:
        if not self.val_records:
            return None
        report = evaluate_model(self.model, self.val_records)
        target = row if row is not None else {"step": self.global_step, "loss": None, "l_c": None, "l_a": None}
        target.update(report.to_dict())
        if row is None:
            self.history.append(target)
        if report.mr > self.best_mr:
            self.best_mr = report.mr
            self.best_step = self.global_step
            self.best_report = report
            self.best_params = {
                name: t.data.copy() for name, t in self.model.named_parameters()
            }
        return report

    def train(self) -> TrainOutcome:
        steps_left = self.cfg.optim.steps - self.global_step
        final_report = None
        last_eval_step = -1
        while steps_left > 0:
            batches = list(epoch_batches(
                self.train_records, self.cfg.optim.batch_size, self.cfg.seed, self.epoch
            ))
            while self.pos_in_epoch < len(batches) and steps_left > 0:
                row = self._train_step(batches[self.pos_in_epoch])
                self.pos_in_epoch += 1
                steps_left -= 1
                epoch_done = self.pos_in_epoch == len(batches)
                if epoch_done and (self.epoch + 1) % self.cfg.optim.eval_every_epochs == 0:
                    final_report = self._maybe_eval(row)
                    last_eval_step = self.global_step
                self.history.append(row)
            if self.pos_in_epoch == len(batches):
                self.epoch += 1
                self.pos_in_epoch = 0
        if self.val_records and last_eval_step != self.global_step:
            final_report = self._maybe_eval(self.history[-1] if self.history else None)
        return TrainOutcome(
            model=self.model,
            config=self.cfg,
            history=self.history,
            best_report=self.best_report,
            best_step=self.best_step,
            final_report=final_report,
        )

    # -- persistence ----------------------------------------------------------------

    def _header(self) -> dict:
        return {
            "config": config_to_dict(self.cfg),
            "global_step": self.global_step,
            "epoch": self.epoch,
            "pos_in_epoch": self.pos_in_epoch,
            "best_mr": self.best_mr if self.best_mr != float("-inf") else None,
            "best_step": self.best_step,
            "rng": {
                "seed": self.cfg.seed,
                "algorithm": ALGORITHM,
                "streams": {
                    "epoch": self.epoch,
                    "pos_in_epoch": self.pos_in_epoch,
                    "dropout_step": self.global_step,
                },
            },
        }

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.model.named_parameters()}
        save_checkpoint(path, arrays, self._header())

    def save_best(self, path) -> bool:
        if self.best_params is None:
            return False
        header = self._header()
        header["global_step"] = self.best_step
        save_checkpoint(path, self.best_params, header)
        return True

    @classmethod
    def from_checkpoint(cls, path, dataset: Dataset | None = None) -> "Trainer":
        header, params = load_checkpoint(path)
        cfg = config_from_dict(header["config"])
        trainer = cls(cfg, dataset=dataset)
        restore_parameters(trainer.model, params, strict=True)
        trainer.global_step = int(header["global_step"])
        trainer.epoch = int(header["epoch"])
        trainer.pos_in_epoch = int(header["pos_in_epoch"])
        if header.get("best_mr") is not None:
            trainer.best_mr = float(header["best_mr"])
            trainer.best_step = int(header["best_step"])
        return trainer


def write_outputs(out_dir, trainer: Trainer, outcome: TrainOutcome) -> None:
    os.makedirs(out_dir, exist_ok=True)
    trainer.save(os.path.join(out_dir, "checkpoint.npz"))
    trainer.save_best(os.path.join(out_dir, "best.npz"))
    with atomic_open(os.path.join(out_dir, "history.csv")) as fh:
        fh.write(history_to_csv(outcome.history))
    report = outcome.best_report or outcome.final_report
    if report is not None:
        with atomic_open(os.path.join(out_dir, "metrics.json")) as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def train_closed_domain(cfg: TrainConfig, out_dir=None, dataset: Dataset | None = None) -> TrainOutcome:
    if cfg.stage != "closed-domain":
        raise ConfigError(f"train_closed_domain got stage {cfg.stage!r}")
    trainer = Trainer(cfg, dataset=dataset)
    outcome = trainer.train()
    if out_dir is not None:
        write_outputs(out_dir, trainer, outcome)
    return outcome


def train_open_domain(
    stage1_cfg: TrainConfig,
    stage2_cfg: TrainConfig,
    out_dir=None,
    stage1_dataset: Dataset | None = None,
    stage2_dataset: Dataset | None = None,
):
    """Two-stage procedure: contrastive pretrain, then guided fine-tune."""
    if stage1_cfg.stage != "stage1-pretrain":
        raise ConfigError(f"stage one config has stage {stage1_cfg.stage!r}")
    if stage2_cfg.stage != "stage2-finetune":
        raise ConfigError(f"stage two config has stage {stage2_cfg.stage!r}")
    stage1 = Trainer(stage1_cfg, dataset=stage1_dataset)
    outcome1 = stage1.train()
    init_params = {name: t.data.copy() for name, t in stage1.model.named_parameters()}
    if out_dir is not None:
        write_outputs(os.path.join(out_dir, "stage1"), stage1, outcome1)
    stage2 = Trainer(stage2_cfg, dataset=stage2_dataset, init_params=init_params)
    outcome2 = stage2.train()
    if out_dir is not None:
        write_outputs(os.path.join(out_dir, "stage2"), stage2, outcome2)
    return outcome1, outcome2


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
        report = train_closed_domain(run_cfg, dataset=dataset).best_report
        rows.append({axis: value, **report.to_dict()})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "sweep.csv")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([axis, *REPORT_KEYS])
            for row in rows:
                writer.writerow([row[axis]] + [_format_value(row[k]) for k in REPORT_KEYS])
    return rows
