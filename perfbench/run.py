"""beliefret benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It generates the workload's corpus from
the seed into ``.perfbench/``, runs the workload in a child process with one
BLAS thread, checks the outputs and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the workload untraced and then traced, each for half the
time, and reports the per-layer metrics. Earlier lines record the machine and
a readable summary. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every worker must have ended by then
# Median time of one yardstick run (workloads.reference_seconds) on the
# baseline host; setup_s is given in seconds of a host running at that speed.
REFERENCE_NOMINAL_S = 0.004


def machine_info() -> dict:
    import numpy as np

    info = {
        "load_avg_at_start": list(os.getloadavg()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        info["blas"] = "unknown"
    return info


def run_worker(args, data: Path, seconds: float, out: Path, trace_out: Path | None) -> dict:
    """Start worker.py for one measurement and wait for it; raises if it fails."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--data", str(data),
        "--seed", str(args.seed), "--seconds", repr(seconds), "--out", str(out),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    # the worker's own output goes to stderr: the last stdout line is the result
    timeout = max(1.0, args.deadline - time.perf_counter())
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=timeout)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def call_seconds(res: dict) -> list:
    return [seconds for rep in res["reps"] for _, seconds, _ in rep["samples"]]


def cost_per_kpair(res: dict) -> float:
    """Median over timed calls of seconds per 1000 pairs divided by the
    yardstick time taken beside each call: the host's speed drifts by up to
    half within minutes, and the ratio cancels most of it."""
    return statistics.median(
        1000.0 * seconds / pairs / reference for rep in res["reps"] for pairs, seconds, reference in rep["samples"]
    )


def setup_seconds(res: dict) -> float:
    """Median set-up time in yardsticks, given in seconds at REFERENCE_NOMINAL_S
    per yardstick: a set-up lasts 30-200 ms, and the host's speed drifts too
    much for plain seconds to compare across runs."""
    return statistics.median(seconds / reference for seconds, reference in res["setups"]) * REFERENCE_NOMINAL_S


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": (setup_seconds(res), "s"),
        "cost_per_kpair": (cost_per_kpair(res), "ref"),
        "final_loss": (res["final_loss"], "nats"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def end_to_end_run(args, data: Path, tmp: Path):
    res = run_worker(args, data, args.seconds, tmp / "plain.json", None)
    summary = {
        "repetitions": len(res["reps"]),
        "val_mr": res["reps"][0]["report"]["mr"],
        "timed_calls": len(call_seconds(res)),
        "call_s_fastest": min(call_seconds(res)),
        "call_s_median": statistics.median(call_seconds(res)),
        "setup_s_plain_median": statistics.median(seconds for seconds, _ in res["setups"]),
        "pairs_per_s_fastest": max(p / s for rep in res["reps"] for p, s, _ in rep["samples"]),
    }
    return end_to_end(res), res["attempted"], list(res["failures"]), summary, res["blas_threads"], {}


def traced_run(args, data: Path, tmp: Path):
    """Untraced, then traced, each for half the time, in separate processes."""
    plain = run_worker(args, data, args.seconds / 2, tmp / "plain.json", None)
    trace_out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    traced = run_worker(args, data, args.seconds / 2, tmp / "traced.json", trace_out)
    failures = plain["failures"] + traced["failures"]
    same = [(res["final_loss"], res["reps"][0]["report"]["mr"]) for res in (plain, traced)]
    if same[0] != same[1]:
        failures.append(f"traced (final_loss, val_mr) {same[1]} != untraced {same[0]}")
    metrics = {name: tuple(value) for name, value in traced["per_layer"].items()}
    # Extra cost of one timed call, taken in yardsticks so that the host's
    # drift between the two processes cancels, then given in seconds at the
    # mean yardstick time of both runs.
    pairs = traced["reps"][0]["samples"][0][0]
    references = [reference for res in (plain, traced) for rep in res["reps"] for _, _, reference in rep["samples"]]
    extra = (cost_per_kpair(traced) - cost_per_kpair(plain)) * pairs / 1000.0
    metrics["trace_overhead_s"] = (extra * statistics.fmean(references), "s")
    summary = {"trace_file": str(trace_out.relative_to(ROOT)), "per": traced["units"]}
    attempted = plain["attempted"] + traced["attempted"] + 1
    return metrics, attempted, failures, summary, traced["blas_threads"], traced["table"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "beliefret" / "__init__.py").is_file():
        print(f"error: no beliefret sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    machine = machine_info()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    started = time.perf_counter()
    try:
        data = tmp / "dataset.jsonl"
        workloads.write_corpus(workloads.WORKLOADS[args.workload], args.seed, str(data), args.tiny)
        run = traced_run if args.trace else end_to_end_run
        metrics, attempted, failures, summary, machine["blas_threads"], table = run(args, data, tmp)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: the workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary["wall_s"] = time.perf_counter() - started
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"summary {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(summary, sort_keys=True))
    for name, row in table.items():
        print(f"  span {name:24s} {row['self_ms_per_unit']:12.4f} ms self {row['calls_per_unit']:10.3f} calls")
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
