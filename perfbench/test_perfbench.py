"""Tests of the benchmark's own machinery, on inputs small enough to run in seconds."""

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import speed  # noqa: E402

SMALL = {
    "sweep": [(2, 2), (3, 2), (4, 3)],
    "large": [(3, 3), (4, 3)],
    "queries": benchlib.make_queries(7, count=400),
}


def _reference():
    return json.loads((HERE / "reference.json").read_text())


def test_same_seed_gives_the_same_query_stream():
    assert benchlib.make_queries(11, count=500) == benchlib.make_queries(11, count=500)
    assert benchlib.make_queries(11, count=500) != benchlib.make_queries(12, count=500)


def test_query_mix_has_exact_shares():
    kinds = [kind for kind, _ in benchlib.make_queries(3, count=1000)]
    for kind, share in benchlib.QUERY_MIX:
        assert kinds.count(kind) == 10 * share


def test_traced_and_untraced_passes_give_the_same_outputs():
    for workload, inputs in SMALL.items():
        plain = benchlib.run_pass(workload, inputs, benchlib.NullTracer())
        traced = benchlib.run_pass(workload, inputs, benchlib.Tracer())
        assert benchlib.output_digests(workload, inputs, plain.outputs) == (
            benchlib.output_digests(workload, inputs, traced.outputs)
        )


def test_self_times_sum_to_at_most_the_traced_wall():
    for workload, inputs in SMALL.items():
        tracer = benchlib.Tracer()
        result = benchlib.run_pass(workload, inputs, tracer)
        selfs = tracer.self_times()
        assert tracer.spans and min(selfs) >= 0
        assert sum(selfs) <= result.wall


def test_outputs_pass_their_checks_and_an_altered_output_fails():
    # the large reference covers the benchmark's own grid points only
    reference = _reference()
    for workload, first in (("sweep", None), ("queries", RuntimeError("boom"))):
        inputs = SMALL[workload]
        outputs = benchlib.run_pass(workload, inputs, benchlib.NullTracer()).outputs
        assert benchlib.check_outputs(workload, inputs, outputs, reference) == []
        if first is None:
            first = outputs[0].replace('"passed": true', '"passed": false', 1)
        altered = [first, *outputs[1:]]
        assert len(benchlib.check_outputs(workload, inputs, altered, reference)) == 1


def test_reference_covers_every_operation():
    reference = _reference()
    assert set(reference["sweep"]) == {
        benchlib.poset_label(n, m) for n, m in benchlib.sweep_pairs()
    }
    assert set(reference["large"]) == {
        benchlib.poset_label(n, m) for n, m in benchlib.LARGE_POSETS
    }


def test_layer_metrics_are_declared_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == benchlib.PER_LAYER_METRICS
    for workload in ("sweep", "queries"):
        inputs = SMALL[workload]
        tracer = benchlib.Tracer()
        result = benchlib.run_pass(workload, inputs, tracer)
        names = benchlib.layer_metrics(workload, inputs, result.outputs, tracer, result)
        assert set(names) <= set(declared)


def test_speed_probe_leaves_out_its_ticks_and_scales_by_nearby_kernel_times():
    probe = speed.SpeedProbe()
    probe.starts, probe.ends, probe.times = [0.0, 1.0, 5.0], [0.25, 1.5, 5.25], [0.05, 0.1, 0.06]
    # [0.5, 2.0] holds the second tick; the nearest tick on each side counts too
    assert probe.inside(0.5, 2.0) == 0.5
    assert probe.local(0.5, 2.0) == 0.06
    assert probe.duration(0.5, 2.0) == 1.0 * speed.REFERENCE_S / 0.06


def test_a_pass_samples_its_speed_and_stops_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    result = benchlib.run_pass("large", SMALL["large"], benchlib.NullTracer())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(result.probe.times) >= 2
    assert all(t > 0 for pieces in result.latencies for t in pieces)
