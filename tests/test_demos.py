"""Every demo runs against the public API and prints what it printed before.

The sha256 of each demo's stdout is pinned in
tests/data/demo_stdout_sha256.json; ``PYTHONPATH=src python
tests/test_golden.py`` regenerates it with the other golden files.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_DIGEST_PATH = Path(__file__).parent / "data" / "demo_stdout_sha256.json"


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        timeout=120,
    )


def stdout_digest(proc):
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    digests = json.loads(DEMO_DIGEST_PATH.read_text())
    assert stdout_digest(proc) == digests[demo.name]
