"""Regenerate reference.json: digests of every sweep and large output.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right.  The stored
digests include the documented census failures (degree formula and the
projection-order checks), so a dropped or altered check reads as a
mismatch in later runs.
"""

from __future__ import annotations

import json
import sys

from worker import REFERENCE, ROOT

sys.path.insert(0, str(ROOT / "src"))
import benchlib  # noqa: E402


def main() -> int:
    reference = {}
    for workload in ("sweep", "large"):
        inputs = benchlib.make_inputs(workload, 0)
        result = benchlib.run_pass(workload, inputs, benchlib.NullTracer())
        reference[workload] = benchlib.output_digests(workload, inputs, result.outputs)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
