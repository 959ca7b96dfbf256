"""Run one workload of the unimodal-chains benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep|large|queries|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), serially, so the library's caches start cold as
they do for each CLI invocation.  With ``--trace 0`` the run first starts
a few interpreters that only set up, then starts passes for ``--seconds``
(at least three), and reports the end-to-end metrics of BENCHMARK.json
from each operation's median time over the passes.  Operation and set-up
times are scaled to a reference machine speed (see speed.py).  With
``--trace 1`` it times one untraced and one traced pass and reports the
per-layer metrics, including the tracing overhead (traced wall minus
untraced wall).  The last line of stdout is one JSON object: correct,
attempted, failed and metrics (with ``all``, one such object per
workload, keyed by workload).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("sweep", "large", "queries")
SETUP_PROBES = 3  # set-up-only interpreters per untraced run, after one warm-up
MIN_PASSES = 3  # passes start until --seconds have passed, at least this many
RUN_LIMIT_S = 170  # every worker must end within this much of the run's start
# The workloads make no BLAS calls, but numpy's import starts one BLAS thread
# per core; on a 2-core VM those threads made set-up time spread 27% between
# interpreters, against 7% with one thread.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str, deadline: float, *flags: str) -> dict:
    """Start one worker, wait for it, and return its result with its set-up time."""
    start = clock()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **WORKER_ENV},
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} did not end in time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = result["ready"] - start - result["setup_probe_s"]
    result["setup_s"] = raw * result["setup_scale"]
    return result


def run_passes(workload: str, seed: int, modes, deadline: float) -> list[dict]:
    """One worker per mode, until ``modes`` ends.  The first checks every
    output in full; each later pass must reproduce its outputs exactly, or
    all its operations fail."""
    passes = []
    for mode in modes:
        flags = () if passes else ("--full-check",)
        passes.append(spawn(workload, seed, mode, deadline, *flags))
    for i, p in enumerate(passes[1:], 2):
        if p["digest"] != passes[0]["digest"]:
            print(f"{workload}: pass {i} gave other outputs than pass 1", file=sys.stderr)
            p["failed"] = p["attempted"]
    return passes


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    spawn(workload, seed, "setup", deadline)  # warm-up: byte-compile, file cache
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    end = clock() + seconds

    def timed_modes():
        count = 0
        while count < MIN_PASSES or clock() < end:
            count += 1
            yield "run"

    passes = run_passes(workload, seed, timed_modes(), deadline)
    count = len(passes)
    setups += [p["setup_s"] for p in passes]
    # Each operation's time is the sum of its pieces' median (scaled) times
    # over the passes.
    op_times = [
        sum(statistics.median(piece) for piece in zip(*per_pass))
        for per_pass in zip(*(p["latencies"] for p in passes))
    ]
    items = passes[0]["items"]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(op_times),
        "op_p50_us": percentile(op_times, 50) * 1e6,
        "op_p99_us": percentile(op_times, 99) * 1e6,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    counts = {
        "setup_s": f"median of {len(setups)} interpreters",
        "items_per_s": f"{items} items, median of {count} passes per operation",
        "op_p50_us": f"{len(op_times)} operations, median of {count} passes",
        "op_p99_us": f"{len(op_times)} operations, median of {count} passes",
        "peak_rss_mb": f"max of {count} passes",
    }
    return metrics, counts, passes


def per_layer(workload: str, seed: int, deadline: float):
    plain, traced = run_passes(workload, seed, ["run", "trace"], deadline)
    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead_s"] = traced["wall"] - plain["wall"]
    return metrics, {}, [plain, traced]


def measure(workload: str, args, declared: list[dict]) -> dict:
    """Run one workload, print its metrics by name, and return its result."""
    deadline = clock() + RUN_LIMIT_S
    if args.trace:
        values, counts, passes = per_layer(workload, args.seed, deadline)
    else:
        values, counts, passes = end_to_end(workload, args.seed, args.seconds, deadline)
    names = {m["name"] for m in declared}
    if set(values) - names or (not args.trace and set(values) != names):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(values)}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)  # a layer this workload does not run
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({counts[m['name']]})" if m["name"] in counts else ""
        print(f"{workload} {m['name']} = {value:.6g} {m['unit']}{note}")
    print(f"{workload} ops_failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "unimodal_chains" / "__init__.py").is_file():
        print(f"no unimodal_chains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args, declared) for w in workloads}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
