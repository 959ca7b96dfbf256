"""Workloads, tracing and output checks of the unimodal-chains benchmark.

The benchmark's three workloads load the layers of the construction very
differently, so each one guards a different kind of change:

* ``sweep`` runs the brute-force oracle over every poset of at most 1,000
  elements.  Nearly all of its time goes to the oracle's checks and chain
  re-walks, on posets below the 50k-element class/decomposition cache limit.
* ``large`` decomposes and certifies two grid points, (9,9) just below that
  limit and (12,7) just above it, where ``decompose_all`` re-classifies the
  poset once per class.  No oracle code runs.
* ``queries`` is a seeded stream of small independent library and CLI
  calls, where the module-level caches pay off.

Each pass of a workload runs in a fresh interpreter (see ``worker.py``),
so every library cache starts cold.  The library only receives inputs:
the query stream is generated here before timing starts, and every output
is checked after the timed loop, against the stored reference digests or
against the independent recomputations below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics as stats
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add, ne

from unimodal_chains import cli, oracle, posets, qpoly, statistics, structure, transversal
from unimodal_chains.posets import InconsistencyError

from speed import SpeedProbe

SWEEP_MAX_SIZE = 1_000
SWEEP_MAX_DIM = 12
LARGE_POSETS = ((9, 9), (12, 7))
LARGE_STEPS = (
    "posets.enumerate",
    "qpoly.rank_gf",
    "statistics.signature_classes",
    "structure.decompose_all",
    "structure.certificate",
    "structure.flip_stability",
    "structure.to_json",
)

QUERIES_PER_PASS = 12_000
# Exact shares of each query kind per pass.  The CLI share stays near 5%:
# there the 99th percentile falls inside the CLI latency distribution,
# while at ~1% it would sit on the boundary between two distributions.
QUERY_MIX = (
    ("statistics.signature", 30),
    ("transversal.chains_through", 25),
    ("structure.fiber_roundtrip", 20),
    ("statistics.signature_class", 15),
    ("qpoly.gaussian", 5),
    ("cli.main", 5),
)
ELEMENT_DIMS = (2, 16)  # n and m of random elements; no enumeration needed
CLASS_MAX_SIZE = 5_000  # posets whose classes are queried
GAUSSIAN_MAX = 40

SWEEP_SCOPES = ("check_statistics", "check_chains", "check_structure")
SPAN_RUN_PAIR = "oracle.run_pair"
SPAN_RENDER = "oracle.render_json"
SPAN_POSET = "large.poset"


def poset_label(n: int, m: int) -> str:
    return f"n{n}m{m}"


# Every per-layer metric the traced run reports, with its unit.  A workload
# that does not run a layer reports 0 for it.
PER_LAYER_METRICS: dict[str, str] = {
    "bench.trace_overhead_s": "s",
    "statistics.signature_hits": "count",
    "statistics.signature_misses": "count",
    "qpoly.gaussian_hits": "count",
    "qpoly.gaussian_misses": "count",
    **{f"oracle.{scope}_s": "s" for scope in SWEEP_SCOPES},
    "oracle.render_json_s": "s",
    "oracle.checks": "count",
    "oracle.checks_failed": "count",
    **{
        name: unit
        for n, m in LARGE_POSETS
        for name, unit in (
            *((f"{step}_s.{poset_label(n, m)}", "s") for step in LARGE_STEPS),
            (f"structure.chains.{poset_label(n, m)}", "count"),
            *(
                (f"statistics.signature_{kind}.{step}.{poset_label(n, m)}", "count")
                for step in ("statistics.signature_classes", "structure.decompose_all")
                for kind in ("hits", "misses")
            ),
        )
    },
    **{
        name: unit
        for kind, _ in QUERY_MIX
        for name, unit in ((f"{kind}_us", "us"), (f"{kind}_calls", "count"))
    },
}

# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    counters: dict[str, int] = field(default_factory=dict)


def _cache_counters() -> dict[str, int]:
    """Hit/miss totals of the library's memoized functions (0 if not memoized)."""
    out = {}
    for key, fn in (("signature", statistics.signature), ("gaussian", qpoly.gaussian)):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{key}_hits"] = info.hits if info else 0
        out[f"{key}_misses"] = info.misses if info else 0
    return out


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


class Tracer:
    """Spans kept in memory, each with the cache-counter deltas it saw."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, op))
        self._stack.append(idx)
        before = _cache_counters()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            sp = self.spans[idx]
            sp.start, sp.end = start, end
            sp.counters = _delta(before, _cache_counters())
            self._stack.pop()

    def self_times(self, duration=lambda start, end: end - start) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        spans = [duration(sp.start, sp.end) for sp in self.spans]
        out = list(spans)
        for sp, own in zip(self.spans, spans):
            if sp.parent is not None:
                out[sp.parent] -= own
        return out

    def to_json(self) -> dict:
        selfs = self.self_times()
        return {
            "fields": ["name", "start", "end", "parent", "op", "self", "counters"],
            "spans": [
                [sp.name, sp.start, sp.end, sp.parent, sp.op, selfs[i], sp.counters]
                for i, sp in enumerate(self.spans)
            ],
        }


class NullTracer:
    """Stand-in for untraced runs: every span is the same no-op context."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str, op=None):
        return self._NULL


@contextlib.contextmanager
def traced_functions(tracer, targets):
    """Temporarily wrap module functions so each call records a span."""
    saved = []
    for module, attr, name in targets:
        fn = getattr(module, attr)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            with tracer.span(_name):
                return _fn(*args, **kwargs)

        setattr(module, attr, wrapper)
        saved.append((module, attr, fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# ------------------------------------------- independent recomputations
#
# Written from the definitions without calling the library, so a checked
# output is never compared with itself and checking leaves the library's
# caches alone.


def ref_spread(c) -> int:
    if len(c) == 0:
        return 0
    if len(c) == 1:
        return c[0]
    return max(map(add, c, c[1:]))


def ref_runs(c) -> list[tuple[int, int]]:
    """Maximal runs (first, last) of left indices of adjacent pairs summing to the spread."""
    if len(c) < 2:
        return []
    s = ref_spread(c)
    hits = [i for i in range(len(c) - 1) if c[i] + c[i + 1] == s]
    runs = []
    for i in hits:
        if runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def ref_degree(c) -> int:
    return sum((last - first) // 2 + 1 for first, last in ref_runs(c))


def ref_remove(c) -> tuple:
    """Delete the most maximal pairs: a block of an odd number of entries keeps its first."""
    out = list(c)
    for first, last in reversed(ref_runs(c)):
        block = c[first : last + 2]
        out[first : last + 2] = block[:1] if len(block) % 2 else []
    return tuple(out)


@lru_cache(maxsize=None)
def ref_signature(c: tuple) -> tuple:
    if len(c) < 3:
        return (sum(c),) if c else ()
    image = ref_remove(c)
    return (0,) * (ref_degree(c) - 1) + (ref_spread(c) - ref_spread(image),) + ref_signature(image)


def ref_rank(c) -> int:
    return sum(i * a for i, a in enumerate(c))


def ref_weight(c) -> int:
    n = len(c) - 1
    return sum(a * (n - 2 * i) for i, a in enumerate(c))


def ref_chain_length(n: int, d) -> int:
    return sum((n - 2 * j) * dj for j, dj in enumerate(d))


def ref_is_initial(c) -> bool:
    return c[1] == 0 and c[0] == ref_spread(c)


def ref_is_terminal(c) -> bool:
    return c[-2] == 0 and c[-1] == ref_spread(c)


def _from_bars(bars, total: int) -> tuple:
    """Stars and bars: the gaps between n bar positions in range(total)."""
    out = []
    prev = -1
    for b in bars:
        out.append(b - prev - 1)
        prev = b
    out.append(total - prev - 1)
    return tuple(out)


def ref_compositions(n: int, m: int):
    """All (a_0..a_n) with sum m."""
    for bars in combinations(range(m + n), n):
        yield _from_bars(bars, m + n)


def ref_gaussian_at(m: int, n: int, q: int) -> int:
    """[m+n choose m] evaluated at integer q > 1 from the product formula."""
    num = den = 1
    for i in range(1, m + 1):
        num *= q ** (n + i) - 1
        den *= q**i - 1
    return num // den


def _fmt(c) -> str:
    return "[" + ",".join(str(e) for e in c) + "]"


def ref_cli_signature(c) -> dict:
    runs = ref_runs(c)
    return {
        "element": _fmt(c),
        "spread": ref_spread(c),
        "degree": ref_degree(c),
        "maximal_indices": [i for a, b in runs for i in range(a, b + 1)],
        "active_indices": [i for a, b in runs for i in range(a, b + 2)],
        "removal_image": _fmt(ref_remove(c)),
        "signature": "(" + ",".join(str(x) for x in ref_signature(c)) + ")",
        "rank": ref_rank(c),
        "weight": ref_weight(c),
    }


# ------------------------------------------------------------- workloads


def sweep_pairs() -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(SWEEP_MAX_DIM + 1)
        for m in range(SWEEP_MAX_DIM + 1)
        if comb(m + n, n) <= SWEEP_MAX_SIZE
    ]


def _random_element(rng: random.Random, n: int, m: int) -> tuple:
    """A uniform random element of the (n, m) poset."""
    return _from_bars(sorted(rng.sample(range(m + n), n)), m + n)


def make_queries(seed: int, count: int = QUERIES_PER_PASS) -> list[tuple]:
    """The seeded query stream: (kind, args) tuples in execution order."""
    rng = random.Random(seed)
    lo, hi = ELEMENT_DIMS
    class_posets = [
        (n, m)
        for n in range(lo, hi + 1)
        for m in range(lo, hi + 1)
        if comb(m + n, n) <= CLASS_MAX_SIZE
    ]
    total = sum(w for _, w in QUERY_MIX)
    kinds = []
    for kind, w in QUERY_MIX:
        kinds += [kind] * (count * w // total)
    kinds += [QUERY_MIX[0][0]] * (count - len(kinds))
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "qpoly.gaussian":
            args = (rng.randint(1, GAUSSIAN_MAX), rng.randint(1, GAUSSIAN_MAX))
        elif kind == "statistics.signature_class":
            n, m = rng.choice(class_posets)
            args = (n, ref_signature(_random_element(rng, n, m)))
        else:
            c = _random_element(rng, rng.randint(lo, hi), rng.randint(lo, hi))
            if kind == "structure.fiber_roundtrip":
                args = (c, ref_remove(c), ref_spread(c))
            elif kind == "cli.main":
                args = (_fmt(c),)
            else:
                args = (c,)
        out.append((kind, args))
    return out


def _q_signature(c):
    return statistics.signature(c)


def _q_chains_through(c):
    return [ch.elements() for ch in transversal.chains_through(c)]


def _q_fiber_roundtrip(c, base, s):
    lam = structure.fiber_coordinates(c, base)
    return lam, structure.fiber_element(lam, base, s)


def _q_signature_class(n, d):
    cls = statistics.signature_class(n, d)
    try:
        top = statistics.highest_weight(n, d)
    except InconsistencyError:
        top = None  # documented flag for a boundary class
    return cls, top


def _q_gaussian(m, n):
    return qpoly.gaussian(m, n)


def _q_cli(text):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["signature", text, "--format", "json"])
    return code, buf.getvalue()


QUERY_CALLS = {
    "statistics.signature": _q_signature,
    "transversal.chains_through": _q_chains_through,
    "structure.fiber_roundtrip": _q_fiber_roundtrip,
    "statistics.signature_class": _q_signature_class,
    "qpoly.gaussian": _q_gaussian,
    "cli.main": _q_cli,
}


@dataclass
class PassResult:
    """One timed pass: wall time of the timed region, outputs, and the times of
    each operation's timed pieces (one piece, or one per step for ``large``),
    scaled to the reference speed of ``speed.py``."""

    wall: float
    latencies: list[list[float]]
    outputs: list
    items: int
    counters: dict[str, int]
    probe: SpeedProbe


def make_inputs(workload: str, seed: int):
    """Inputs of one pass.  Only ``queries`` depends on the seed."""
    if workload == "sweep":
        return sweep_pairs()
    if workload == "large":
        return list(LARGE_POSETS)
    if workload == "queries":
        return make_queries(seed)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, inputs, tracer) -> PassResult:
    """Time one pass while a speed probe samples the machine's speed."""
    probe = SpeedProbe()
    before = _cache_counters()
    with probe:
        wall, intervals, outputs, items = {
            "sweep": _run_sweep, "large": _run_large, "queries": _run_queries
        }[workload](inputs, tracer)
    latencies = [[probe.duration(a, b) for a, b in pieces] for pieces in intervals]
    counters = _delta(before, _cache_counters())
    return PassResult(wall, latencies, outputs, items, counters, probe)


def _run_sweep(pairs, tracer):
    intervals, outputs = [], []
    targets = [(oracle, scope, f"oracle.{scope}") for scope in SWEEP_SCOPES]
    scoped = traced_functions(tracer, targets) if tracer.enabled else contextlib.nullcontext()
    with scoped:
        t0 = time.perf_counter()
        for n, m in pairs:
            a = time.perf_counter()
            try:
                with tracer.span(SPAN_RUN_PAIR, poset_label(n, m)):
                    reports = oracle.run_pair(n, m)
                    with tracer.span(SPAN_RENDER):
                        text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
            except Exception as exc:  # a failed operation is counted, not fatal
                text = json.dumps([{"error": repr(exc), "checks": []}])
            intervals.append([(a, time.perf_counter())])
            outputs.append(text)
        wall = time.perf_counter() - t0
    return wall, intervals, outputs, sum(comb(m + n, n) for n, m in pairs)


def _large_poset(n, m, step) -> dict:
    elements = step("posets.enumerate", lambda: list(posets.enumerate_compositions(n, m)))
    histogram, expected = step(
        "qpoly.rank_gf",
        lambda: (qpoly.rank_generating_function(elements), qpoly.gaussian(m, n)),
    )
    classes = step("statistics.signature_classes", statistics.signature_classes, n, m)
    dec = step("structure.decompose_all", structure.decompose_all, n, m)
    cert = step("structure.certificate", structure.unimodality_certificate, dec)
    stable, offenders = step("structure.flip_stability", structure.flip_stability, dec)
    text = step(
        "structure.to_json",
        lambda: json.dumps(structure.decomposition_to_dict(dec), sort_keys=True),
    )
    return {
        "size": len(elements),
        "histogram_matches": histogram == expected,
        "classes": {str(list(d)): len(c) for d, c in classes.items()},
        "chains": len(dec.chains()),
        "certificate": asdict(cert),
        "flip_stable": [stable, len(offenders)],
        "decomposition": text,
    }


def _run_large(grid, tracer):
    intervals, outputs = [], []
    t0 = time.perf_counter()
    for n, m in grid:
        steps: list[tuple[float, float]] = []

        def step(name, fn, *args):
            a = time.perf_counter()
            with tracer.span(name):
                out = fn(*args)
            steps.append((a, time.perf_counter()))
            return out

        try:
            with tracer.span(SPAN_POSET, poset_label(n, m)):
                outputs.append(_large_poset(n, m, step))
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append({"error": repr(exc), "chains": 0})
        intervals.append(steps)
    wall = time.perf_counter() - t0
    return wall, intervals, outputs, sum(comb(m + n, n) for n, m in grid)


def _run_queries(queries, tracer):
    intervals, outputs = [], []
    calls = QUERY_CALLS
    clock = time.perf_counter
    t0 = clock()
    for i, (kind, args) in enumerate(queries):
        a = clock()
        try:
            with tracer.span(kind, i):
                out = calls[kind](*args)
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
        intervals.append([(a, clock())])
        outputs.append(out)
    wall = clock() - t0
    return wall, intervals, outputs, len(queries)


# ----------------------------------------------------------------- checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def large_digests(out: dict) -> dict:
    """What the reference stores for one ``large`` poset."""
    if "error" in out:
        return out
    return {
        "size": out["size"],
        "histogram_matches": out["histogram_matches"],
        "classes": digest(json.dumps(out["classes"], sort_keys=True)),
        "chains": out["chains"],
        "certificate": digest(json.dumps(out["certificate"], sort_keys=True)),
        "flip_stable": out["flip_stable"],
        "decomposition": digest(out["decomposition"]),
    }


def output_digests(workload: str, inputs, outputs) -> dict:
    """Digest of each operation's output, keyed by operation."""
    if workload == "sweep":
        return {poset_label(n, m): digest(t) for (n, m), t in zip(inputs, outputs)}
    if workload == "large":
        return {poset_label(n, m): large_digests(o) for (n, m), o in zip(inputs, outputs)}
    return {str(i): digest(repr(o)) for i, o in enumerate(outputs)}


def check_outputs(workload: str, inputs, outputs, reference: dict) -> list[str]:
    """One line per failed operation; empty when every output is correct."""
    if workload == "queries":
        return _check_queries(inputs, outputs)
    expected = reference[workload]
    got = output_digests(workload, inputs, outputs)
    return [
        f"{key}: output differs from the reference"
        for key in got
        if got[key] != expected.get(key)
    ]


def _check_queries(queries, outputs) -> list[str]:
    failures = []
    classes: dict = {}
    for i, ((kind, args), out) in enumerate(zip(queries, outputs)):
        if isinstance(out, Exception):
            failures.append(f"query {i} {kind}{args}: {type(out).__name__}: {out}")
            continue
        if not _QUERY_CHECKS[kind](args, out, classes):
            failures.append(f"query {i} {kind}{args}: wrong result")
    return failures


def _ok_signature(args, out, _):
    return out == ref_signature(args[0])


def _ok_chains_through(args, chains, _):
    (c,) = args
    runs = ref_runs(c)
    ell = ref_chain_length(len(c) - 1, ref_signature(c))
    s = ref_spread(c)
    if len(chains) != len(runs):
        return False
    for elems in chains:
        if c not in elems or len(elems) != ell + 1:
            return False
        if not (ref_is_initial(elems[0]) and ref_is_terminal(elems[-1])):
            return False
        for low, high in zip(elems, elems[1:]):
            # a cover moves one unit from some entry i to entry i + 1
            moved = list(map(ne, low, high))
            i = moved.index(True) if True in moved else -1
            if (
                i < 0
                or high[i] != low[i] - 1
                or high[i + 1] != low[i + 1] + 1
                or high[i + 2 :] != low[i + 2 :]
                or ref_spread(high) != s
            ):
                return False
    tops = {tuple(elems[0]) for elems in chains}
    return len(tops) == len(chains) and all(
        ref_signature(t) == ref_signature(c) for t in tops
    )


def _ok_fiber_roundtrip(args, out, _):
    c, base, s = args
    lam, rebuilt = out
    r = ref_degree(c)
    ell = ref_chain_length(len(c) - 1, ref_signature(c))
    if rebuilt != c or len(lam) != r:
        return False
    if any(x > y for x, y in zip(lam, lam[1:])) or not all(0 <= x <= ell for x in lam):
        return False
    if ref_rank(c) != ref_rank((s, 0) * r + base) + sum(lam):
        return False
    first = ref_runs(c)[0][0]
    return lam[0] == (first + 1) * s - c[first] - 2 * sum(c[:first])


def _ok_signature_class(args, out, classes):
    n, d = args
    cls, top = out
    m = sum((j + 1) * dj for j, dj in enumerate(d))
    if (n, m) not in classes:
        groups: dict = {}
        for c in ref_compositions(n, m):
            groups.setdefault(ref_signature(c), []).append(c)
        classes[(n, m)] = {k: sorted(v) for k, v in groups.items()}
    if list(cls) != classes[(n, m)].get(tuple(d)):
        return False
    h = [0] * (n + 1)
    acc = 0
    for j in range(n // 2, -1, -1):
        acc += d[j]
        h[2 * j] = acc
    h = tuple(h)
    if ref_signature(h) != tuple(d):
        return top is None
    return top == h


def _ok_gaussian(args, out, _):
    m, n = args
    if len(out) != m * n + 1 or any(x < 0 for x in out) or tuple(out) != tuple(out)[::-1]:
        return False
    if sum(out) != comb(m + n, n):
        return False
    value = 0
    for x in reversed(out):
        value = value * 2 + x
    return value == ref_gaussian_at(m, n, 2)


def _ok_cli(args, out, _):
    code, text = out
    return code == 0 and json.loads(text) == ref_cli_signature(
        tuple(int(x) for x in args[0][1:-1].split(","))
    )


_QUERY_CHECKS = {
    "statistics.signature": _ok_signature,
    "transversal.chains_through": _ok_chains_through,
    "structure.fiber_roundtrip": _ok_fiber_roundtrip,
    "statistics.signature_class": _ok_signature_class,
    "qpoly.gaussian": _ok_gaussian,
    "cli.main": _ok_cli,
}


# ---------------------------------------------------------- layer metrics


def layer_metrics(workload: str, inputs, outputs, tracer: Tracer, result: PassResult) -> dict:
    """Per-layer numbers of one traced pass, times at reference speed; layers
    the workload skips are absent."""
    out: dict[str, float] = {
        "statistics.signature_hits": result.counters["signature_hits"],
        "statistics.signature_misses": result.counters["signature_misses"],
        "qpoly.gaussian_hits": result.counters["gaussian_hits"],
        "qpoly.gaussian_misses": result.counters["gaussian_misses"],
    }
    duration = result.probe.duration
    selfs = tracer.self_times(duration)
    if workload == "sweep":
        for sp, own in zip(tracer.spans, selfs):
            if sp.name.startswith("oracle.check_") or sp.name == SPAN_RENDER:
                key = f"{sp.name}_s"
                out[key] = out.get(key, 0.0) + own
        checks = [c for text in outputs for rep in json.loads(text) for c in rep["checks"]]
        out["oracle.checks"] = len(checks)
        out["oracle.checks_failed"] = sum(not c["passed"] for c in checks)
    elif workload == "large":
        for sp, own in zip(tracer.spans, selfs):
            if sp.name in LARGE_STEPS:
                out[f"{sp.name}_s.{sp.op}"] = own
                if sp.name in ("statistics.signature_classes", "structure.decompose_all"):
                    for kind in ("hits", "misses"):
                        out[f"statistics.signature_{kind}.{sp.name}.{sp.op}"] = sp.counters[
                            f"signature_{kind}"
                        ]
        for (n, m), o in zip(inputs, outputs):
            out[f"structure.chains.{poset_label(n, m)}"] = o["chains"]
    else:
        durations: dict[str, list[float]] = {}
        for sp in tracer.spans:
            durations.setdefault(sp.name, []).append(duration(sp.start, sp.end))
        for kind, values in durations.items():
            out[f"{kind}_us"] = stats.median(values) * 1e6
            out[f"{kind}_calls"] = len(values)
    return out
