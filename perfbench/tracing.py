"""Outside-in tracing of beliefret for the benchmark's traced run.

``install`` replaces public functions with timing wrappers at the names
``beliefret.model`` and ``beliefret.pipeline`` call them through, plus a few
methods on the classes those modules use. It must only be called in the
traced run's own process. Spans (name, start, end, parent) stay in memory
while the workload runs and are written once at the end.

A span's self time is its duration minus the durations of its direct
children, so the self times under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

from beliefret import data as bdata
from beliefret import model as bmodel
from beliefret import pipeline, retrieval
from beliefret.tensor import Tensor

# module attribute -> span name
MODEL_FUNCTIONS = {
    "encode_image_batch": "encoders.image",
    "encode_text_batch": "encoders.text",
    "instruction_batch": "encoders.instruction",
    "refine_batch": "belief.refine",
    "spatial_pae": "pae.spatial",
    "temporal_pae": "pae.temporal",
    "contrastive_loss": "losses.contrastive",
    "affiliation_loss": "losses.affiliation",
}
PIPELINE_FUNCTIONS = {
    "evaluate_model": "pipeline.eval",
    "similarity_matrix": "retrieval.similarity",
    "RetrievalTable": "retrieval.table",
    "sgd_step": "tensor.sgd",
    "load_dataset": "data.load",
}
METHODS = {
    (bmodel.RetrievalModel, "__init__"): "model.init",
    (bmodel.RetrievalModel, "embed_images"): "model.embed_images",
    (bmodel.RetrievalModel, "embed_texts"): "model.embed_texts",
    (bmodel.RetrievalModel, "batch_losses"): "model.batch_losses",
    (pipeline.Trainer, "__init__"): "pipeline.setup",
    (pipeline.Trainer, "train"): "pipeline.train",
    (pipeline.Trainer, "_train_step"): "pipeline.step",
}

# Per-layer metric (ms per unit of work) -> span names whose self time it sums.
# Together with the root spans these cover every span recorded under a
# "bench.main" root, which the smoke test relies on.
SELF_TIME_METRICS = {
    "tensor.backward_ms": ("tensor.backward",),
    "tensor.sgd_ms": ("tensor.sgd",),
    "encoders.image_ms": ("encoders.image",),
    "encoders.text_ms": ("encoders.text",),
    "encoders.instruction_ms": ("encoders.instruction",),
    "belief.refine_ms": ("belief.refine",),
    "pae.spatial_ms": ("pae.spatial",),
    "pae.temporal_ms": ("pae.temporal",),
    "losses.contrastive_ms": ("losses.contrastive",),
    "losses.affiliation_ms": ("losses.affiliation",),
    "retrieval.similarity_ms": ("retrieval.similarity",),
    "retrieval.table_ms": ("retrieval.table",),
    "retrieval.report_ms": ("retrieval.report",),
    "model.self_ms": ("model.embed_images", "model.embed_texts", "model.batch_losses"),
    "pipeline.eval_ms": ("pipeline.eval",),
    "pipeline.loop_ms": ("pipeline.train", "pipeline.step", "bench.main"),
    "data.batches_ms": ("data.batches",),
    "trace.walk_ms": ("trace.walk",),
}
STEP_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


class Recorder:
    """In-memory span list; records only inside a root span."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self.active = False
        self.graph_nodes = 0
        self.last_similarity = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def root(self, name: str):
        self.active = True
        try:
            with self.span(name):
                yield
        finally:
            self.active = False

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_generator(self, fn, name: str):
        """Time each step of the returned generator, not the call that makes it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return traced

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)
            fh.write("\n")


def count_graph_nodes(loss: Tensor) -> int:
    """Tensors reachable from ``loss`` through recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(rec: Recorder) -> None:
    for attr, name in MODEL_FUNCTIONS.items():
        setattr(bmodel, attr, rec.wrap(getattr(bmodel, attr), name))
    for attr, name in PIPELINE_FUNCTIONS.items():
        setattr(pipeline, attr, rec.wrap(getattr(pipeline, attr), name))
    bdata.load_dataset = pipeline.load_dataset
    pipeline.epoch_batches = rec.wrap_generator(pipeline.epoch_batches, "data.batches")
    for (cls, attr), name in METHODS.items():
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name))
    retrieval.RecallReport.from_table = staticmethod(rec.wrap(retrieval.RecallReport.from_table, "retrieval.report"))

    similarity = pipeline.similarity_matrix

    def capture_similarity(v_rows, t_rows):
        rec.last_similarity = similarity(v_rows, t_rows)
        return rec.last_similarity

    pipeline.similarity_matrix = capture_similarity

    backward = rec.wrap(Tensor.backward, "tensor.backward")

    def counted_backward(loss):
        with rec.span("trace.walk"):
            if rec.active:
                rec.graph_nodes += count_graph_nodes(loss)
        return backward(loss)

    Tensor.backward = counted_backward


def self_times(spans) -> dict:
    """name -> (total self seconds, calls)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _), children in zip(spans, child_time):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - children, calls + 1)
    return out


def _percentile(sorted_ms, pct: float) -> float:
    rank = max(1, int(np.ceil(pct / 100.0 * len(sorted_ms))))
    return float(sorted_ms[rank - 1])


def summarise(rec: Recorder) -> tuple:
    """Per-layer metrics {name: (value, unit)}, a per-span table and its unit of work."""
    spans = rec.spans
    selfs = self_times(spans)
    calls = {name: c for name, (_, c) in selfs.items()}
    steps = calls.get("pipeline.step", 0)
    # one unit of work: a training step, or an evaluate_model call on eval-1k
    units = steps or calls.get("pipeline.eval", 0)
    per_unit = 1000.0 / units

    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = (sum(selfs.get(n, (0.0, 0))[0] for n in names) * per_unit, "ms")
    main_s = sum(end - start for name, start, end, _ in spans if name == "bench.main")
    metrics["traced_wall_ms"] = (main_s * per_unit, "ms")
    eval_incl = sum(end - start for name, start, end, _ in spans if name == "pipeline.eval")
    metrics["pipeline.eval_incl_ms"] = (eval_incl * per_unit, "ms")
    backwards = calls.get("tensor.backward", 0)
    metrics["tensor.graph_nodes"] = (rec.graph_nodes / backwards if backwards else 0.0, "count")
    embeds = calls.get("model.embed_texts", 0)
    metrics["encoders.text_calls_per_embed"] = (
        calls.get("encoders.text", 0) / embeds if embeds else 0.0, "count",
    )
    setups = calls.get("bench.setup", 0)
    metrics["data.load_s"] = (selfs.get("data.load", (0.0, 0))[0] / setups, "s")

    step_ms = sorted(1000.0 * (end - start) for name, start, end, _ in spans if name == "pipeline.step")
    tail_pct = 50.0
    for pct in STEP_TAIL_PERCENTILES:
        if len(step_ms) * (1.0 - pct / 100.0) >= MIN_BEYOND:
            tail_pct = pct
            break
    metrics["pipeline.step_ms.p50"] = (_percentile(step_ms, 50.0) if step_ms else 0.0, "ms")
    metrics["pipeline.step_ms.tail"] = (_percentile(step_ms, tail_pct) if step_ms else 0.0, "ms")
    metrics["pipeline.step_ms.tail_pct"] = (tail_pct, "%")
    metrics["pipeline.step_ms.samples"] = (float(len(step_ms)), "count")

    table = {
        name: {"self_ms_per_unit": total * per_unit, "calls_per_unit": c / units}
        for name, (total, c) in sorted(selfs.items())
    }
    return metrics, table, {"kind": "training step" if steps else "evaluate_model call", "count": units}
