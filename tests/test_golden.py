"""Golden `verify` output: the CLI's reports must not change byte for byte.

The files under tests/data/verify_*.{json,txt} are the stdout of
``unimodal-chains verify --n N --m M --format json|text``.  After a
deliberate change to a report, regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` and review their diff.
"""

from pathlib import Path

import pytest

from unimodal_chains import oracle
from unimodal_chains.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PAIRS = [(2, 2), (3, 3), (4, 6), (5, 5)]
FORMATS = {"json": "json", "text": "txt"}


def _golden_path(n, m, fmt):
    return DATA_DIR / f"verify_n{n}_m{m}.{FORMATS[fmt]}"


def _argv(n, m, fmt):
    return ["verify", "--n", str(n), "--m", str(m), "--format", fmt]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("n,m", GOLDEN_PAIRS)
def test_verify_output_matches_golden(capsys, n, m, fmt):
    assert main(_argv(n, m, fmt)) == 0
    assert capsys.readouterr().out == _golden_path(n, m, fmt).read_text()


def test_sweep_reports_do_not_depend_on_worker_count():
    serial = oracle.run_sweep(max_size=60, max_dim=4, jobs=1)
    pooled = oracle.run_sweep(max_size=60, max_dim=4, jobs=2)
    assert len(serial) == 3 * len(oracle.sweep_pairs(60, 4))
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


if __name__ == "__main__":
    import contextlib
    import io

    for n, m in GOLDEN_PAIRS:
        for fmt in FORMATS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(_argv(n, m, fmt))
            _golden_path(n, m, fmt).write_text(out.getvalue())
