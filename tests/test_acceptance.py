"""Acceptance gate: every criterion checked exactly, one line per criterion.

All tolerances are zero; every comparison is exact integer equality.
The sweep covers the (n, m) grid up to 12 per axis with poset size at
most 200,000, and every criterion, the full decomposition and its
certificate included, covers every poset of it.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
The sweep is one ``oracle.run_sweep`` call, regrouped by (n, m) here; it
runs on two worker processes where two CPUs are available (it is most of
the suite's wall time); set UNIMODAL_CHAINS_JOBS to choose the count, 1
running it in the test process.

Criterion 5's last clause (cover-level order preservation of the class
projection) has genuine counterexamples: no projection whose fibers are
copies of L(r, ell) can preserve order on some classes (see
test_no_order_preserving_projection_exists in test_structure.py).  The
criterion pins them exactly against tests/data/projection_order_census.json
and recounts them by an independent route; any new or vanished defect
fails it.
"""

import json
import os
from math import comb
from pathlib import Path

import pytest

from unimodal_chains import oracle
from unimodal_chains.posets import (
    count_compositions,
    enumerate_compositions,
    from_gaps,
    to_gaps,
)
from unimodal_chains.qpoly import gaussian, rank_generating_function
from unimodal_chains.statistics import signature, signature_classes, spread
from unimodal_chains.structure import fiber_coordinates
from unimodal_chains.transversal import transversal_chain

SWEEP_MAX_SIZE = 200_000
SWEEP_MAX_DIM = 12
DATA_DIR = Path(__file__).parent / "data"

_RESULTS: dict = {}


def _sweep_jobs():
    """UNIMODAL_CHAINS_JOBS, else two workers where two CPUs are available."""
    env_jobs = os.environ.get("UNIMODAL_CHAINS_JOBS")
    if not env_jobs:
        return min(2, len(os.sched_getaffinity(0)))
    try:
        jobs = int(env_jobs)
    except ValueError:
        raise ValueError(f"UNIMODAL_CHAINS_JOBS must be an integer, "
                         f"got {env_jobs!r}") from None
    if jobs < 1:
        raise ValueError(f"UNIMODAL_CHAINS_JOBS must be at least 1, got {jobs}")
    return jobs


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num} ({name}): {status}{suffix}")


def _run_sweep():
    """Every report of the sweep, keyed by (n, m) then scope."""
    out: dict = {}
    for report in oracle.run_sweep(
        max_size=SWEEP_MAX_SIZE, max_dim=SWEEP_MAX_DIM, jobs=_sweep_jobs()
    ):
        out.setdefault((report.n, report.m), {})[report.scope] = report
    return out


@pytest.fixture(scope="session")
def sweep():
    if not _RESULTS:
        _RESULTS.update(_run_sweep())
    return _RESULTS


def _collect(sweep_results, scope, names):
    """All failing (n, m, check) triples among the given check names."""
    bad = []
    for (n, m), reports in sorted(sweep_results.items()):
        for c in reports[scope].checks:
            if c.name in names and not c.passed:
                bad.append((n, m, c.name, c.info.get("failing_pairs")))
    return bad


def test_criterion_1_generating_function_identity(sweep):
    bad = []
    for (n, m) in sweep:
        if rank_generating_function(enumerate_compositions(n, m)) != gaussian(m, n):
            bad.append((n, m))
    _line(1, "generating-function identity", not bad, f"{len(sweep)} posets")
    assert not bad, bad


def test_criterion_2_level_set_partition(sweep):
    names = {
        "classes_partition_poset",
        "classes_flip_stable",
        "unique_highest_weight",
        "class_degree_consistent",
    }
    bad = _collect(sweep, "statistics", names)
    _line(2, "level-set partition and unique tops", not bad)
    assert not bad, bad


def test_criterion_3_invariance_suite(sweep):
    bad = _collect(sweep, "chains", {"statistic_invariance_on_chains"})
    _line(3, "signature invariance along chains", not bad)
    assert not bad, bad


def test_criterion_4_transversal_chain_suite(sweep):
    names = {
        "chains_per_component",
        "chain_saturation",
        "uniform_chain_length",
        "initial_terminal_endpoints",
        "closed_form_color_sequence",
        "endpoint_duality",
        "flip_duality",
    }
    bad = _collect(sweep, "chains", names)
    _line(4, "transversal chain suite", not bad)
    assert not bad, bad


def _projection_census(sweep_results):
    """Failing split-extension defect checks per poset, shaped as in JSON."""
    pairs = []
    for (n, m), reports in sorted(sweep_results.items()):
        for c in reports["structure"].checks:
            if c.name in oracle.SPLIT_DEFECT_CHECKS and not c.passed:
                pairs.append({
                    "n": n,
                    "m": m,
                    "check": c.name,
                    "failing_classes": c.info["failing_classes"],
                    "failing_pairs": c.info["failing_pairs"],
                    "counterexamples": c.counterexamples,
                })
    return json.loads(json.dumps(pairs))


def _census_totals(pairs):
    return {
        check: {
            "posets": sum(1 for p in pairs if p["check"] == check),
            "classes": sum(p["failing_classes"] for p in pairs if p["check"] == check),
            "pairs": sum(p["failing_pairs"] for p in pairs if p["check"] == check),
        }
        for check in oracle.SPLIT_DEFECT_CHECKS
    }


def _census_document(sweep_results):
    """The golden file's content for the given sweep results."""
    census = _projection_census(sweep_results)
    return {
        "description": (
            "covers inside a signature class whose maximal-pair-removal "
            "projection goes down the base (projection_order_preserving), and "
            "cross-chain covers whose raised and stripped images are not a "
            "cover (stripped_cover_preserved)"
        ),
        "max_dim": SWEEP_MAX_DIM,
        "max_size": SWEEP_MAX_SIZE,
        "pairs": census,
        "total": _census_totals(census),
    }


def _census_text(document):
    """The golden file's JSON text, one census pair per line."""
    rows = []
    for key, value in sorted(document.items()):
        if key == "pairs":
            text = ",\n  ".join(json.dumps(p, sort_keys=True) for p in value)
            rows.append(f' "pairs": [\n  {text}\n ]')
        else:
            rows.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(rows) + "\n}\n"


def _degree_census_overlap(pairs):
    """Recorded counterexample elements that the degree-formula census holds."""
    golden = json.loads((DATA_DIR / "degree_formula_census.json").read_text())
    censused = {
        (e["n"], e["m"], tuple(c)) for e in golden["pairs"] for c in e["census"]
    }
    return [
        (p["n"], p["m"], ex[key])
        for p in pairs
        for ce in p["counterexamples"]
        for ex in ce["examples"]
        for key in ("lower", "upper")
        if (p["n"], p["m"], tuple(ex[key])) in censused
    ]


def _partition_upper_covers(comp):
    """Upper covers of comp, by adding one cell to the partition it encodes."""
    n, m = len(comp) - 1, sum(comp)
    lam = from_gaps(comp)
    for j in range(n):
        if lam[j] < (lam[j + 1] if j + 1 < n else m):
            yield to_gaps(lam[:j] + (lam[j] + 1,) + lam[j + 1 :], m)


def _recount_projection_defects(n, m):
    """(failing classes, failing covers) of cover-level projection order.

    Independent of verify_split_extension: covers come from the partition
    side, projections from exhaustive removal orders, and the base order
    from partition containment.
    """
    memos: dict = {}

    def removal_image(a):
        s = spread(a)
        _, (image,) = oracle._max_removals(a, s, memos.setdefault(s, {}))
        return image

    classes = covers = 0
    for cls in signature_classes(n, m).values():
        members = set(cls)
        bad = 0
        for a in cls:
            pa = from_gaps(removal_image(a))
            for up in _partition_upper_covers(a):
                if up in members:
                    pu = from_gaps(removal_image(up))
                    bad += any(x > y for x, y in zip(pa, pu))
        classes += bad > 0
        covers += bad
    return classes, covers


def _recount_mismatches(sweep_results, pairs):
    """Posets whose independent recount differs from the census entry."""
    census = {
        (p["n"], p["m"]): (p["failing_classes"], p["failing_pairs"])
        for p in pairs
        if p["check"] == "projection_order_preserving"
    }
    out = []
    for n, m in sorted(sweep_results):
        # exhaustive removal orders are affordable up to the oracle's own cap
        if count_compositions(n, m) <= oracle.ORDER_INDEPENDENCE_CAP:
            recount = _recount_projection_defects(n, m)
            if recount != census.get((n, m), (0, 0)):
                out.append((n, m, census.get((n, m)), recount))
    return out


def test_criterion_5_split_extension_suite(sweep):
    """Sound split-extension checks pass; the defect checks match the census.

    Regenerate tests/data/projection_order_census.json after a deliberate
    change with ``PYTHONPATH=src python tests/test_acceptance.py`` (runs the
    full sweep on the same worker count as the fixture), and review its diff.
    """
    sound = _collect(sweep, "structure", set(oracle.SPLIT_SOUND_CHECKS))
    golden = json.loads((DATA_DIR / "projection_order_census.json").read_text())
    regenerated = _census_document(sweep)
    pairs = regenerated["pairs"]
    witness = {"lower": [1, 1, 0, 1, 0, 2], "upper": [1, 0, 1, 1, 0, 2]}
    has_witness = any(
        (p["n"], p["m"], p["check"]) == (5, 5, "projection_order_preserving")
        and any(witness in ce["examples"] for ce in p["counterexamples"])
        for p in pairs
    )
    # the recorded counterexamples involve uncensused elements only
    overlap = _degree_census_overlap(pairs)
    recount_mismatch = _recount_mismatches(sweep, pairs)
    ok = (
        not sound and regenerated == golden and has_witness
        and not overlap and not recount_mismatch
    )
    detail = "; ".join(
        f"{check}: {t['pairs']} covers in {t['classes']} classes of {t['posets']} posets"
        for check, t in regenerated["total"].items()
    )
    _line(5, "split extension suite", ok, f"census {detail}")
    assert not sound, sound
    assert has_witness, "witness (1,1,0,1,0,2) < (1,0,1,1,0,2) missing from census"
    assert not overlap, overlap
    assert not recount_mismatch, recount_mismatch
    assert regenerated == golden, "census does not match the golden file"


def test_criterion_6_decomposition_certificate(sweep):
    names = {
        "decomposition_partitions",
        "decomposition_flip_stable",
        "unimodality_certificate",
    }
    bad = []
    counted = 0
    for (n, m), reports in sorted(sweep.items()):
        checks = [c for c in reports["structure"].checks if c.name in names]
        # every sweep poset carries all three decomposition checks
        counted += {c.name for c in checks} == names
        bad += [(n, m, c.name) for c in checks if not c.passed]
    _line(6, "decomposition certificate", not bad and counted == len(sweep),
          f"{counted} posets")
    assert counted == len(sweep)
    assert not bad, bad


def test_criterion_7_degree_formula_census(sweep):
    golden = json.loads((DATA_DIR / "degree_formula_census.json").read_text())
    regenerated = []
    for (n, m), reports in sorted(sweep.items()):
        c = next(
            ch for ch in reports["statistics"].checks if ch.name == "degree_formula"
        )
        if c.info["census_size"]:
            regenerated.append({"n": n, "m": m, "census": sorted(c.info["census"])})
    ok = regenerated == golden["pairs"]
    boundary = any(
        e["n"] == 2 and e["m"] == 2 and [1, 0, 1] in e["census"] for e in regenerated
    )
    # every censused element sits in a sweep poset whose other criteria
    # the remaining tests assert; here we pin the census itself
    _line(7, "degree-formula boundary census", ok and boundary,
          f"{sum(len(e['census']) for e in regenerated)} elements")
    assert boundary
    assert ok, "census does not match the golden file"


def test_criterion_8_spot_values():
    ok = True
    ok &= signature((2, 0, 2, 0, 1, 0)) == (0, 1, 1)
    ch = transversal_chain((2, 0, 0), 0)
    ok &= ch.colors == (1, 1, 2, 2) and ch.bottom() == (0, 0, 2)
    ok &= gaussian(2, 2) == (1, 1, 2, 1, 1)
    ok &= fiber_coordinates((0, 1, 1), (0,)) == (3,)
    _line(8, "spot values", ok)
    assert signature((2, 0, 2, 0, 1, 0)) == (0, 1, 1)
    assert ch.colors == (1, 1, 2, 2)
    assert ch.bottom() == (0, 0, 2)
    assert gaussian(2, 2) == (1, 1, 2, 1, 1)
    assert fiber_coordinates((0, 1, 1), (0,)) == (3,)


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_sweep_jobs_rejects_a_bad_worker_count(monkeypatch, value):
    monkeypatch.setenv("UNIMODAL_CHAINS_JOBS", value)
    with pytest.raises(ValueError, match=f"UNIMODAL_CHAINS_JOBS .*{value}"):
        _sweep_jobs()


def test_sweep_jobs_reads_a_worker_count(monkeypatch):
    monkeypatch.setenv("UNIMODAL_CHAINS_JOBS", "3")
    assert _sweep_jobs() == 3
    monkeypatch.delenv("UNIMODAL_CHAINS_JOBS")
    assert _sweep_jobs() == min(2, len(os.sched_getaffinity(0)))


if __name__ == "__main__":
    document = _census_document(_run_sweep())
    (DATA_DIR / "projection_order_census.json").write_text(_census_text(document))
