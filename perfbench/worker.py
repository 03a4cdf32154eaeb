"""Runs one workload in its own process and writes the measurements as JSON.

run.py starts this file; the process it measures is this one. With
``--trace-out`` the tracing wrappers are installed first, in this process only.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    root = recorder.root if recorder is not None else workloads.no_trace
    workloads.warm_up(workload, args.seed, args.data)
    started = time.perf_counter()
    setups = workloads.setup_samples(workload, args.seed, args.data, args.tiny, root)
    checks = workloads.Checks()
    reps = workloads.run_reps(
        workload, args.seed, args.data, args.tiny, args.seconds - (time.perf_counter() - started), checks, root,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setups": setups,
        "reps": [rep.__dict__ for rep in reps],
        "final_loss": workloads.final_loss(workload, args.seed, args.data, reps),
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
    }
    if recorder is not None:
        if workload.kind == "eval":
            counts = [len(rec.captions) for rec in workloads.bdata.load_dataset(args.data).records]
            oracle = workloads.oracle_report(recorder.last_similarity, counts)
            checks.expect(oracle == reps[-1].report, f"rank oracle {oracle} != report {reps[-1].report}")
        metrics, table, units = tracing.summarise(recorder)
        result.update(per_layer=metrics, table=table, units=units)
        recorder.write(args.trace_out, {"workload": args.workload, "seed": args.seed, "units": units, "table": table})
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
