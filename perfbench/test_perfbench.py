"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced, with tiny corpora, and
checks the output format and the trace accounting, not the timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracing import SELF_TIME_METRICS  # noqa: E402

# Per-layer metrics of layers that do no work on a workload; they read 0 there.
IDLE = {
    "train-desk": set(),
    "train-pretrain": {
        "encoders.instruction_ms", "belief.refine_ms", "pae.spatial_ms", "pae.temporal_ms",
        "losses.affiliation_ms",
    },
    "eval-1k": {
        "tensor.backward_ms", "tensor.graph_nodes", "tensor.sgd_ms", "losses.contrastive_ms",
        "losses.affiliation_ms", "data.batches_ms", "trace.walk_ms", "pipeline.step_ms.p50",
        "pipeline.step_ms.tail", "pipeline.step_ms.samples",
    },
}
# Not self times of a layer, so they take part in neither check below.
ALWAYS_SET = {"pipeline.step_ms.tail_pct", "trace_overhead_s"}


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_units(metrics: dict, spec_metrics: list) -> None:
    assert set(metrics) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = run_bench(workload, 0)
    assert_units(metrics, SPEC["end_to_end"])
    assert all(metrics[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    metrics = run_bench(workload, 1)
    assert_units(metrics, SPEC["per_layer"])
    value = {name: m["value"] for name, m in metrics.items()}
    for name in value.keys() - ALWAYS_SET:
        if name in IDLE[workload]:
            assert value[name] == 0.0, name
        else:
            assert value[name] > 0.0, name

    calls = value["encoders.text_calls_per_embed"]
    assert calls == 1.0 if workload == "train-pretrain" else calls > 1.0

    # Every span under the timed call belongs to exactly one self-time metric,
    # so the per-layer self times add up to the traced wall time.
    accounted = sum(value[name] for name in SELF_TIME_METRICS)
    assert accounted == pytest.approx(value["traced_wall_ms"], rel=1e-9)
