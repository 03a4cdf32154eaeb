"""The benchmark's workloads: corpus shapes, run configs and one timed session.

Every workload is a closed loop with a single caller: one process runs the
session again and again, each repetition starting only after the last one has
finished. The seed given on the command line picks the corpus and, for the train
workloads, the model initialisation; the program only sees the generated
JSONL file and the config built here.

The program is called through module attributes (``pipeline.evaluate_model``,
``bdata.load_dataset``) so that the traced run's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from beliefret import data as bdata
from beliefret import pipeline
from beliefret import tensor as T
from beliefret.config import TrainConfig, apply_overrides
from beliefret.model import RetrievalModel
from beliefret.retrieval import REPORT_KEYS

# Work of one yardstick run; see reference_seconds.
REFERENCE_LOOPS = 300
# Set-ups timed per run for setup_s (2 at smoke-test sizes).
SETUP_SAMPLES = 15
# eval-1k's final_loss: mean no-graph loss over this many seeded batches.
PROBE_BATCH = 32
PROBE_BATCHES = 16


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    corpus: dict  # CorpusSpec fields other than the seed
    overrides: tuple = ()  # apply_overrides strings on top of TrainConfig()
    epochs: int = 0  # training epochs per repetition
    model_seed: int | None = None  # fixed initialisation; None: the workload seed
    tiny_corpus: dict = field(default_factory=dict)  # smoke-test sizes

    def spec(self, seed: int, tiny: bool) -> bdata.CorpusSpec:
        return bdata.CorpusSpec(seed=seed, **dict(self.corpus, **(self.tiny_corpus if tiny else {})))

    def config(self, seed: int, data_path: str) -> TrainConfig:
        model_seed = seed if self.model_seed is None else self.model_seed
        base = [f"seed={model_seed}", f"data.train_path={data_path}", "optim.steps=0"]
        return apply_overrides(TrainConfig(), base + list(self.overrides))


WORKLOADS = {
    # Default desk config: every module on the training path does work, and
    # captions of 6-10 tokens split each embed_texts into about 5 groups.
    "train-desk": Workload(
        kind="train",
        corpus=dict(num_classes=8, images_per_class=12, vocab_size=64, granularity="fine"),
        epochs=8,
        tiny_corpus=dict(num_classes=5, images_per_class=4),
    ),
    # Stage-1 recipe: belief, both attention stacks and the affiliation loss
    # are off, and every caption has 8 tokens, so embed_texts encodes once.
    "train-pretrain": Workload(
        kind="train",
        corpus=dict(
            num_classes=8, images_per_class=40, vocab_size=64, granularity="coarse",
            caption_len_min=8, caption_len_max=8,
        ),
        overrides=("stage=stage1-pretrain", "optim.batch_size=128", "data.val_images_per_class=4"),
        epochs=8,
        tiny_corpus=dict(num_classes=4, images_per_class=6),
    ),
    # Forward-only read path: an untrained desk-config model with a fixed
    # initialisation ranks 5000 captions against 1000 images; no graph is
    # built, no backward runs. The fixed model keeps final_loss, the mean of
    # a few batch losses, from following the initialisation.
    "eval-1k": Workload(
        kind="eval",
        corpus=dict(num_classes=8, images_per_class=125, vocab_size=64, granularity="fine"),
        model_seed=0,
        tiny_corpus=dict(num_classes=4, images_per_class=6),
    ),
}


def write_corpus(workload: Workload, seed: int, path: str, tiny: bool) -> None:
    bdata.write_dataset(bdata.generate_corpus(workload.spec(seed, tiny)), path)


def report_problems(report: dict) -> list:
    """Invariants of a recall report that its construction leaves unchecked.

    RecallReport itself refuses values outside [0, 100] or not nondecreasing
    in K, so only ``mr`` is left to check here.
    """
    values = [report[key] for key in REPORT_KEYS]
    if values[6] != sum(values[:6]) / 6.0:
        return [f"mr {values[6]} is not the mean of the six recalls"]
    return []


def oracle_report(sim: np.ndarray, captions_per_image) -> dict:
    """Recall report from vectorised ground-truth ranks on a similarity table.

    A candidate's rank is #(s > s_gt) + #(s == s_gt, index < gt); an image
    takes the best rank over its own captions, and R@K counts ranks below K.
    """
    counts = np.asarray(captions_per_image)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    n_img, n_txt = sim.shape
    rows = np.arange(n_img)
    txt_index = np.arange(n_txt)
    i2t_rank = np.full(n_img, n_txt)
    for offset in range(int(counts.max())):
        has = offset < counts
        gt = np.where(has, starts + offset, 0)
        s_gt = sim[rows, gt][:, None]
        rank = (sim > s_gt).sum(axis=1) + ((sim == s_gt) & (txt_index < gt[:, None])).sum(axis=1)
        i2t_rank = np.where(has, np.minimum(i2t_rank, rank), i2t_rank)
    owner = np.repeat(rows, counts)
    s_gt = sim[owner, txt_index][None, :]
    t2i_rank = (sim > s_gt).sum(axis=0) + ((sim == s_gt) & (rows[:, None] < owner[None, :])).sum(axis=0)
    values = [100.0 * int((i2t_rank < k).sum()) / n_img for k in (1, 5, 10)]
    values += [100.0 * int((t2i_rank < k).sum()) / n_txt for k in (1, 5, 10)]
    return dict(zip(REPORT_KEYS, values + [sum(values) / 6.0]))


class Checks:
    """Counts every output check as one operation, failed or not."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def report(self, report: dict, where: str) -> None:
        problems = report_problems(report)
        self.expect(not problems, f"{where}: {'; '.join(problems)}")


@dataclass
class Rep:
    samples: list  # [pairs, seconds, reference seconds] per timed Trainer.train or evaluate_model call
    final_loss: float | None  # train: mean loss of the last epoch
    report: dict


def no_trace(name):
    return contextlib.nullcontext()


def reference_seconds() -> float:
    """Wall time of fixed work that never touches beliefret: small matmuls and
    Python arithmetic, like the program's own mix. Timed next to every call,
    it tells how fast the host runs at that moment."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(48, 48)), rng.normal(size=(48, 20))
    started = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_LOOPS):
        total += float(np.exp(-np.abs(a @ b)).sum()) + i % 7
    return time.perf_counter() - started


def _timed_call(root, name, fn, *args):
    """Time one call under root span ``name``; also return the mean yardstick
    time from just before and just after it."""
    before = reference_seconds() + reference_seconds()
    started = time.perf_counter()
    with root(name):
        out = fn(*args)
    seconds = time.perf_counter() - started
    return out, seconds, (before + reference_seconds() + reference_seconds()) / 4


def _setup(workload: Workload, seed: int, data_path: str):
    """What a user pays before step 1: load_dataset plus Trainer, or
    load_dataset plus RetrievalModel on eval-1k."""
    if workload.kind == "train":
        return pipeline.Trainer(workload.config(seed, data_path))
    return _eval_setup(workload, seed, data_path)


def setup_samples(workload: Workload, seed: int, data_path: str, tiny: bool, root=no_trace) -> list:
    """[seconds, yardstick seconds] of each of several set-ups."""
    samples = []
    for _ in range(2 if tiny else SETUP_SAMPLES):
        _, seconds, reference = _timed_call(root, "bench.setup", _setup, workload, seed, data_path)
        samples.append([seconds, reference])
    return samples


def _next_epoch(trainer):
    """Continue training by one epoch: Trainer.train resumes from its own counters."""
    trainer.cfg.optim.steps += math.ceil(len(trainer.train_records) / trainer.cfg.optim.batch_size)
    return trainer.train()


def train_rep(workload: Workload, seed: int, data_path: str, tiny: bool, checks: Checks, root) -> Rep:
    with root("bench.setup"):
        trainer = _setup(workload, seed, data_path)
    samples = []
    for _ in range(1 if tiny else workload.epochs):
        outcome, seconds, reference = _timed_call(root, "bench.main", _next_epoch, trainer)
        samples.append([len(trainer.train_records), seconds, reference])
    losses = [row["loss"] for row in outcome.history if row.get("loss") is not None]
    steps = trainer.cfg.optim.steps
    checks.expect(len(losses) == steps, f"{len(losses)} of {steps} steps logged a loss")
    for step, loss in enumerate(losses, start=1):
        checks.expect(math.isfinite(loss), f"step {step}: loss {loss} is not finite")
    for row in outcome.history:
        if row.get("mr") is not None:
            checks.report(row, f"validation at step {row['step']}")
    checks.expect(
        pipeline.evaluate_model(trainer.model, trainer.val_records).to_dict() == outcome.final_report.to_dict(),
        "re-evaluating the trained model differs from the trainer's final report",
    )
    last_epoch = losses[-(steps // len(samples)):]
    return Rep(samples, sum(last_epoch) / len(last_epoch), outcome.final_report.to_dict())


def _eval_setup(workload: Workload, seed: int, data_path: str):
    dataset = bdata.load_dataset(data_path)
    model = RetrievalModel(workload.config(seed, data_path), dataset.meta.vocab_size, dataset.meta.num_classes)
    return dataset, model


def eval_rep(workload: Workload, seed: int, data_path: str, tiny: bool, checks: Checks, root) -> Rep:
    with root("bench.setup"):
        dataset, model = _setup(workload, seed, data_path)
    report, seconds, reference = _timed_call(root, "bench.main", pipeline.evaluate_model, model, dataset.records)
    checks.report(report.to_dict(), "evaluate_model report")
    pairs = sum(len(rec.captions) for rec in dataset.records)
    return Rep([[pairs, seconds, reference]], None, report.to_dict())


def final_loss(workload: Workload, seed: int, data_path: str, reps: list) -> float:
    """Train: mean loss of the last epoch. Eval: mean total loss of the model
    over the first seeded batches of the corpus, built without a graph."""
    if workload.kind == "train":
        return reps[0].final_loss
    dataset, model = _eval_setup(workload, seed, data_path)
    losses = []
    with T.no_grad():
        for batch in bdata.epoch_batches(dataset.records, PROBE_BATCH, seed, 0):
            losses.append(model.batch_losses(batch)[0].item())
            if len(losses) == PROBE_BATCHES:
                break
    return sum(losses) / len(losses)


def warm_up(workload: Workload, seed: int, data_path: str) -> None:
    """One short untimed pass, so first-call costs stay out of the timings."""
    if workload.kind == "train":
        _next_epoch(pipeline.Trainer(workload.config(seed, data_path)))
    else:
        dataset, model = _eval_setup(workload, seed, data_path)
        pipeline.evaluate_model(model, dataset.records[:PROBE_BATCH])


def run_reps(workload: Workload, seed: int, data_path: str, tiny: bool, seconds: float, checks: Checks,
             root=no_trace) -> list:
    """Repeat the session while the next repetition should end within half a
    repetition of ``seconds``.

    ``root(name)`` opens a root trace span around each timed part.
    """
    rep_fn = train_rep if workload.kind == "train" else eval_rep
    reps: list = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        reps.append(rep_fn(workload, seed, data_path, tiny, checks, root))
        now = time.perf_counter()
        if now - started + (now - rep_started) / 2 > seconds:
            break
    for rep in reps[1:]:
        checks.expect(
            rep.final_loss == reps[0].final_loss and rep.report == reps[0].report,
            "a repeated session gave a different final loss or report",
        )
    return reps
