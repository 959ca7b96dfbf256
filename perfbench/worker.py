"""One pass of one workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py --workload W --seed S --mode setup|run|trace \
        [--full-check]

``setup`` stops after the set-up (imports, input generation, reference
load); ``run`` then times one pass; ``trace`` does the same with every
call wrapped in a span, and writes the spans to ``.perfbench_out/`` at
exit.  Every pass reports a digest of its outputs; with ``--full-check``
it also checks each output against the reference or an independent
recomputation.  The result is one JSON line on stdout.

Its ``ready`` field is the CLOCK_MONOTONIC reading at the end of the
set-up, which run.py compares with the moment it started this process.
A speed probe (speed.py) samples the set-up: ``setup_probe_s`` is the time
its ticks took, which run.py leaves out of the set-up time, and
``setup_scale`` the factor that brings that time to reference speed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench_out"


def main() -> int:
    with speed.SpeedProbe() as probe:
        parser = argparse.ArgumentParser()
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
        parser.add_argument("--full-check", action="store_true")
        args = parser.parse_args()

        sys.path.insert(0, str(ROOT / "src"))
        import benchlib

        inputs = benchlib.make_inputs(args.workload, args.seed)
        reference = json.loads(REFERENCE.read_text())
        tracer = benchlib.Tracer() if args.mode == "trace" else benchlib.NullTracer()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe_s = probe.inside(-math.inf, speed.clock())
    setup = {
        "ready": ready,
        "setup_probe_s": probe_s,
        "setup_scale": speed.REFERENCE_S / statistics.median(probe.times),
    }
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    result = benchlib.run_pass(args.workload, inputs, tracer)
    failures = []
    if args.full_check:
        failures = benchlib.check_outputs(args.workload, inputs, result.outputs, reference)
    for line in failures[:20]:
        print(f"FAILED {args.workload} {line}", file=sys.stderr)
    digests = benchlib.output_digests(args.workload, inputs, result.outputs)
    out = {
        **setup,
        "wall": result.wall,
        "items": result.items,
        "latencies": result.latencies,
        "attempted": len(result.outputs),
        "failed": len(failures),
        "digest": benchlib.digest(json.dumps(digests, sort_keys=True)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.mode == "trace":
        out["layers"] = benchlib.layer_metrics(
            args.workload, inputs, result.outputs, tracer, result
        )
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"wall": result.wall, **tracer.to_json()}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
