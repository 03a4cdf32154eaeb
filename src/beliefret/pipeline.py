"""Training loops and evaluation protocol.

One Trainer runs a single stage, and ``run_stage`` trains any stage and writes
its outputs. A run's state is its config and its history: the step is the last
row's, each report's mean is read off its six recalls, and batch order and
caption picks derive from (seed, epoch) child streams, so a checkpoint holding
the two resumes bit-identically. The open-domain recipe is two runs:
contrastive-only pretraining on a coarse corpus, then a closed-domain run on
a fine corpus that starts from stage one's checkpoint file through
``init_from``.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import io
import math
import os
import warnings

import numpy as np

from . import tensor as T
from .checkpoint import _write_json, atomic_open, load_checkpoint, load_run, restore_parameters, save_checkpoint
from .config import TrainConfig, apply_overrides, build_checked, config_to_dict
from .data import Dataset, epoch_batches, load_dataset
from .encoders import fit_instruction
from .errors import ConfigError, InputError, NumericError, ParseError
from .model import RetrievalModel
from .retrieval import _RECALL_KEYS, REPORT_KEYS, REPORT_KS, RecallReport, RetrievalTable, similarity_matrix
from .tensor import sgd_step

HISTORY_COLUMNS = ("step", "loss", "l_c", "l_a", *REPORT_KEYS)
# a stored history row, built only to check it: an int step, other columns numbers or null
_HistoryRow = dataclasses.make_dataclass(
    "_HistoryRow",
    [("step", int), *((col, float | None, dataclasses.field(default=None)) for col in HISTORY_COLUMNS[1:])],
)


@functools.cache
def _pin_heap() -> None:
    """Pin glibc's mmap and trim thresholds for the process, once.

    With the dynamic thresholds, the heap top that a backward pass frees is
    given back to the OS and the next forward pass faults it in again:
    thousands of minor faults per step at batch 128. Setting either value
    turns the dynamic adjustment off, so both are set, and the trim threshold
    only if the mmap one is taken: alone, it leaves every array over 128 KiB
    to a fresh mmap. An array under 64 MiB comes from the heap (a 1000 x 5000
    float64 similarity table is 40 MB), and a free heap top under 128 MiB is
    kept for the next step. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    # a glibc that caps M_MMAP_THRESHOLD below 64 MiB refuses it and returns 0
    if mallopt(-3, 64 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


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


# The file write_outputs keeps the best row's parameters in, beside the run's checkpoint.
_BEST_FILE = "best.npz"

# Records or captions per embedding call of embed_records.
_EMBED_CHUNK = 64


def embed_records(model: RetrievalModel, records):
    """Image rows in record order, then caption rows in record and caption order.

    Captions are embedded in length order, _EMBED_CHUNK at a time, so a chunk
    holds a run of consecutive caption lengths, and the text tower runs once
    per length in it; rows are put back afterwards. A chunk holds one length,
    or two where it crosses a boundary, only once every length has at least
    _EMBED_CHUNK captions, as at 1000 images x 5000 captions; the first chunk
    of a desk validation split's 80 captions holds four lengths.
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


def _check_image_size(dataset: Dataset, name: str, image_size: int) -> None:
    """Refuse, before the prior is fitted or a step runs, images the image encoder cannot take."""
    if dataset.meta.image_size != image_size:
        raise ConfigError(
            f"{name}: images are {dataset.meta.image_size} px, but model.image_size is {image_size}"
        )


class Trainer:
    """Single-stage training with per-epoch validation and best-checkpoint tracking."""

    def __init__(self, cfg: TrainConfig, dataset: Dataset | None = None):
        self._build(cfg, dataset)
        if self.cfg.init_from:
            restore_parameters(self.model, load_run(self.cfg.init_from)[2], strict=False)

        if self.model.instruction is not None:
            fit_instruction(
                self.model.instruction,
                np.stack([r.pixels for r in self.train_records]),
                np.array([r.scene_label for r in self.train_records]),
            )

    def _build(self, cfg: TrainConfig, dataset: Dataset | None) -> None:
        """Load and check the data, and build the model at its initial parameters, with no history."""
        self.cfg = cfg
        if dataset is None:
            if not self.cfg.data.train_path:
                raise ConfigError("config has no data.train_path and no dataset was supplied")
            dataset = load_dataset(self.cfg.data.train_path)
        if self.cfg.stage == "stage1-pretrain" and dataset.meta.granularity != "coarse":
            warnings.warn("stage-1 pretraining expects a coarse-granularity corpus")

        _check_image_size(dataset, self.cfg.data.train_path or "training dataset", self.cfg.model.image_size)
        if self.cfg.data.val_path:
            val_ds = load_dataset(self.cfg.data.val_path)
            if not val_ds.records:
                raise InputError(f"{self.cfg.data.val_path}: validation set has no records")
            _check_image_size(val_ds, self.cfg.data.val_path, self.cfg.model.image_size)
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

        vocab = dataset.meta.vocab_size
        _check_captions(self.train_records + self.val_records, self.cfg.model.max_text_len, vocab)
        self.model = RetrievalModel(self.cfg, vocab, dataset.meta.num_classes)
        self.history: list = []
        self.best_params: dict | None = None

    @property
    def global_step(self) -> int:
        """The step of the last history row; 0 before the first."""
        return self.history[-1]["step"] if self.history else 0

    # -- steps ------------------------------------------------------------------

    def _train_step(self, batch) -> dict:
        try:
            with T.trap_nonfinite():
                loss, l_c, l_a = self.model.batch_losses(batch)
                loss.backward()
                sgd_step(self.model.named_parameters(), self.cfg.optim.learning_rate)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {self.global_step}: {exc}") from exc
        return {
            "step": self.global_step + 1,
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
        _pin_heap()
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
        return {"config": config_to_dict(self.cfg), "history": [row for row in self.history if row["step"] <= step]}

    def save(self, path) -> None:
        arrays = {name: t.data for name, t in self.model.named_parameters()}
        save_checkpoint(path, arrays, self._header(self.global_step))

    def save_best(self, path) -> None:
        if self.best_params is not None:
            save_checkpoint(path, self.best_params, self._header(self._best_row()["step"]))

    @classmethod
    def from_checkpoint(cls, path, dataset: Dataset | None = None) -> "Trainer":
        cfg, header, params = load_run(path)
        if "history" not in header:
            raise ParseError(f"{path}: checkpoint holds no training history, so it cannot be resumed")
        history = header["history"]
        if not isinstance(history, list):
            raise ParseError(f"{path}: checkpoint history must be a list of rows, got {history!r}")
        step = 0
        for i, row in enumerate(history):
            try:
                row = build_checked(_HistoryRow, row, f"history[{i}]")
            except ConfigError as exc:
                raise ParseError(f"{path}: checkpoint history: {exc}") from exc
            # steps start at 0 and never go down, so the last row's step is the run's
            if row.step < step:
                raise ParseError(f"{path}: checkpoint history[{i}] has step {row.step}, below the previous step {step}")
            step = row.step
            try:
                _report(dataclasses.asdict(row))
            except InputError as exc:
                raise ParseError(f"{path}: checkpoint history[{i}]: {exc}") from exc
        # every parameter comes from the file itself, not from the init_from it
        # names, which may be gone by now, nor from a fit the restore overwrites
        trainer = cls.__new__(cls)
        trainer._build(cfg, dataset)
        restore_parameters(trainer.model, params, strict=True)
        trainer.history = history  # the rows as stored
        trainer._load_best(os.path.join(os.path.dirname(os.fspath(path)), _BEST_FILE))
        return trainer

    def _load_best(self, path) -> None:
        """Keep the parameters of the best row across a resume: take them from
        the best checkpoint ``write_outputs`` put beside the resumed one, if its
        header is the one ``save_best`` writes for this run's best row."""
        row = self._best_row()
        if row is None or not os.path.exists(path):
            return
        header, params = load_checkpoint(path)
        expected = self._header(row["step"])
        if {key: header.get(key) for key in expected} != expected:
            return
        if {name: (arr.shape, arr.dtype) for name, arr in params.items()} != {
            name: (t.data.shape, t.data.dtype) for name, t in self.model.named_parameters()
        }:
            raise ParseError(f"{path}: best checkpoint does not hold this model's parameters")
        self.best_params = params


def _report(row: dict | None) -> RecallReport | None:
    """The validation report a history row carries, if any: its seven columns
    are all set or all unset, and its mr is the mean of its six recalls."""
    missing = [key for key in REPORT_KEYS if row is None or row.get(key) is None]
    if len(missing) == len(REPORT_KEYS):
        return None
    if missing:
        raise InputError(f"incomplete report, no {', '.join(missing)}")
    report = RecallReport(*(row[key] for key in _RECALL_KEYS))
    if row["mr"] != report.mr:
        raise InputError(f"mr={row['mr']} is not {report.mr}, the mean of the six recalls")
    return report


def write_outputs(out_dir, trainer: Trainer) -> None:
    """Write the run's checkpoints, history and metrics; a best checkpoint or
    metrics file the run has none of is removed, not left from another run."""
    os.makedirs(out_dir, exist_ok=True)
    best_path, metrics_path = os.path.join(out_dir, _BEST_FILE), os.path.join(out_dir, "metrics.json")
    trainer.save(os.path.join(out_dir, "checkpoint.npz"))
    trainer.save_best(best_path)
    with atomic_open(os.path.join(out_dir, "history.csv")) as fh:
        fh.write(history_to_csv(trainer.history))
    report = trainer.best_report
    if report is not None:
        _write_json(metrics_path, report.to_dict())
    for path, written in ((best_path, trainer.best_params is not None), (metrics_path, report is not None)):
        if not written and os.path.exists(path):
            os.remove(path)


def run_stage(cfg: TrainConfig, out_dir=None, dataset: Dataset | None = None) -> Trainer:
    """Train one stage of any kind; with ``out_dir``, write its checkpoints,
    history and metrics there, as ``beliefret train`` does."""
    trainer = Trainer(cfg, dataset=dataset).train()
    if out_dir is not None:
        write_outputs(out_dir, trainer)
    return trainer


def sweep(cfg: TrainConfig, axis: str, values, out_dir=None, dataset: Dataset | None = None):
    """One full train+eval per value of the dotted config key ``axis``; returns table rows.

    Every derived config, and a trainer on it, which checks the data, is built before the first run.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    derived = [apply_overrides(cfg, [f"{axis}={value}"]) for value in values]
    for value, run_cfg in zip(values, derived):
        if not Trainer(run_cfg, dataset=dataset).val_records:
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
