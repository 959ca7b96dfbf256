"""Golden CLI output: the reports must not change byte for byte.

The files under tests/data/verify_*.{json,txt} are the stdout of
``unimodal-chains verify --n N --m M --format json|text``.  The larger
outputs of the commands in DIGESTED are pinned by the sha256 of their
stdout, in tests/data/cli_stdout_sha256.json.  The oracle's reports
over sweep_pairs(1000, 12) are pinned by the sha256 of their sorted-key
JSON, in tests/data/sweep_reports_sha256.json.  After a deliberate
change to an output, regenerate them, and the demo digests that
test_demos.py checks, with ``PYTHONPATH=src python tests/test_golden.py``
and review their diff.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from unimodal_chains import oracle
from unimodal_chains.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PAIRS = [(2, 2), (3, 3), (4, 6), (5, 5)]
FORMATS = {"json": "json", "text": "txt"}
DIGESTED = [
    "classes --n 12 --m 7",
    "classes --n 12 --m 7 --format json",
    "decompose --n 9 --m 9 --format json",
    "decompose --n 12 --m 7 --format json",
]
DIGEST_PATH = DATA_DIR / "cli_stdout_sha256.json"
SWEEP_BOUNDS = (1000, 12)  # max_size, max_dim of the pinned sweep
SWEEP_DIGEST_PATH = DATA_DIR / "sweep_reports_sha256.json"


def _golden_path(n, m, fmt):
    return DATA_DIR / f"verify_n{n}_m{m}.{FORMATS[fmt]}"


def _argv(n, m, fmt):
    return ["verify", "--n", str(n), "--m", str(m), "--format", fmt]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("n,m", GOLDEN_PAIRS)
def test_verify_output_matches_golden(capsys, n, m, fmt):
    assert main(_argv(n, m, fmt)) == 0
    assert capsys.readouterr().out == _golden_path(n, m, fmt).read_text()


def _stdout_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", DIGESTED)
def test_large_output_matches_golden_digest(command):
    assert _stdout_digest(command) == json.loads(DIGEST_PATH.read_text())[command]


def _sweep_digest():
    reports = oracle.run_sweep(*SWEEP_BOUNDS)
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_reports_match_golden_digest():
    pinned = json.loads(SWEEP_DIGEST_PATH.read_text())
    assert pinned["bounds"] == list(SWEEP_BOUNDS)
    assert _sweep_digest() == pinned["sha256"]


def test_sweep_reports_do_not_depend_on_worker_count():
    serial = oracle.run_sweep(max_size=60, max_dim=4, jobs=1)
    pooled = oracle.run_sweep(max_size=60, max_dim=4, jobs=2)
    assert len(serial) == 3 * len(oracle.sweep_pairs(60, 4))
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


if __name__ == "__main__":
    for n, m in GOLDEN_PAIRS:
        for fmt in FORMATS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(_argv(n, m, fmt))
            _golden_path(n, m, fmt).write_text(out.getvalue())
    digests = {command: _stdout_digest(command) for command in DIGESTED}
    DIGEST_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    sweep = {"bounds": list(SWEEP_BOUNDS), "sha256": _sweep_digest()}
    SWEEP_DIGEST_PATH.write_text(json.dumps(sweep, indent=1) + "\n")

    from test_demos import DEMO_DIGEST_PATH, DEMOS, run_demo, stdout_digest

    demo_digests = {demo.name: stdout_digest(run_demo(demo)) for demo in DEMOS}
    DEMO_DIGEST_PATH.write_text(json.dumps(demo_digests, indent=1) + "\n")
