"""Independent brute-force verification of every statistic and claim.

Each check recomputes its target through a route the optimized code
never takes: partition-side window maxima for spread and degree,
exhaustive removal orders for the removal map, set algebra for class
partitions, one re-walk of each distinct chain per class with every
element checked for membership in its chains, and exact order matrices,
one int bitset per row, built one column at a time and at most
MAX_ORDER_MATRIX_ROWS rows, for the split extensions that structure
builds.  verify_split_extension classifies each class's base poset
itself, takes r from a class element rather than from the library's
closed form, statistics.split_shape, writes the section images by its
own formula and rebuilds each fiber from its image with its own
coordinate map, _fiber_images, one transversal chain per coordinate
tail, over the lattice L(r, ell) it lists itself.  The split-extension
checks locate chain steps and stripped initial elements with the
library's own raising and lowering walks (posets._raise_path and
_lower_path);
check_chains verifies the chains those walks build.  Within a scope the
library is asked for each element's value once, and every check of that
element reads the answer: check_statistics records each element's
spread, degree, removal image and signature, checks that signature
against the element's class (signature_classes builds each class from
its base class's fibers and computes no signature, so this check takes
a route the classification does not share), compares the
flip's recorded image with the flipped one and its recorded signature
with the element's, and lists in empty_class_census each signature of its own
enumerate_signatures call that the classification has no class for;
verify_split_extension lists each class element's in-class upper covers
once.  Each check is one CheckResult; failures are recorded with
reproducible inputs, never raised.  _order_matrix_rows is a resource
guard, not a check, and reads the library's split_shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, combinations_with_replacement
from math import comb

from .posets import (
    Composition,
    InconsistencyError,
    ResourceGuardError,
    _lower_path,
    _raise_path,
    apply_color_down,
    count_compositions,
    enumerate_compositions,
    flip,
    format_composition,
    from_gaps,
    cover_color,
    leq,
    rank,
    upper_covers,
    weight,
)
from .qpoly import gaussian, rank_generating_function
from .statistics import (
    Signature,
    _components,
    chain_length,
    clear_caches,
    degree,
    enumerate_signatures,
    highest_weight,
    remove_maximal_pairs,
    signature,
    signature_class,
    signature_classes,
    signature_mass,
    split_shape,
    spread,
)
from .structure import (
    decompose_all,
    fiber_coordinates,
    first_coordinate_closed_form,
    flip_stability,
    unimodality_certificate,
)
from .transversal import (
    chains_through,
    closed_form_colors,
    closed_form_terminal,
    flip_chain,
    is_initial,
    is_terminal,
    raise_run,
    transversal_chain,
)

ORDER_INDEPENDENCE_CAP = 3000  # poset size up to which removal orders are explored
MAX_ORDER_MATRIX_ROWS = 16_384  # a k-row order matrix takes about k*k/8 bytes: 32 MiB
COUNTEREXAMPLE_CAP = 10

# split-extension checks expected to hold with zero exceptions
SPLIT_SOUND_CHECKS = (
    "projection_into_base",
    "projection_surjective",
    "section_property",
    "section_order_preserving",
    "fiber_sizes",
    "coordinates_bijective",
    "coordinates_mutually_inverse",
    "first_coordinate_closed_form",
    "fiber_rank_shift",
    "fiber_cover_correspondence",
    "fiber_order_isomorphism",
)

# checks of the claimed stronger projection property, kept as censuses:
# exhaustive verification finds genuine counterexamples (see the shipped
# projection_order_census golden file)
SPLIT_DEFECT_CHECKS = ("projection_order_preserving", "stripped_cover_preserved")

# checks whose failures are documented facts of the theory, not defects
# of the program: they stay in every report, marked WAIVED in text, and
# never fail a report (see the shipped census golden files)
WAIVED = frozenset(["degree_formula", *SPLIT_DEFECT_CHECKS])


@dataclass
class CheckResult:
    """Outcome of one named check: every failure is counted, the first
    COUNTEREXAMPLE_CAP are kept as counterexamples."""

    name: str
    passed: bool = True
    counterexamples: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    failures: int = 0

    def add(self, detail) -> None:
        self.passed = False
        self.failures += 1
        if len(self.counterexamples) < COUNTEREXAMPLE_CAP:
            self.counterexamples.append(detail)


def _repro(comp) -> str:
    return f"unimodal-chains signature '{format_composition(comp)}'"


@dataclass
class VerificationReport:
    scope: str
    n: int
    m: int
    checks: list[CheckResult]
    elapsed: float = 0.0

    def passed(self) -> bool:
        return all(c.passed or c.name in WAIVED for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed and c.name not in WAIVED]

    def to_dict(self, with_timing: bool = False) -> dict:
        # timing is excluded by default so identical invocations render
        # byte-identical output
        out = {
            "scope": self.scope,
            "n": self.n,
            "m": self.m,
        }
        if with_timing:
            out["elapsed_seconds"] = round(self.elapsed, 3)
        out["checks"] = [
            {
                "name": c.name,
                "passed": c.passed,
                "counterexamples": c.counterexamples,
                "info": c.info,
            }
            for c in self.checks
        ]
        return out

    def to_text(self) -> str:
        lines = [f"[{self.scope}] n={self.n} m={self.m}"]
        for c in self.checks:
            mark = "ok" if c.passed else ("WAIVED" if c.name in WAIVED else "FAIL")
            extra = ""
            if c.info:
                keys = ", ".join(f"{k}={v}" for k, v in sorted(c.info.items())
                                 if not isinstance(v, list))
                if keys:
                    extra = f"  [{keys}]"
            lines.append(f"  {mark:6} {c.name}{extra}")
            for ce in c.counterexamples[:3]:
                lines.append(f"         e.g. {ce}")
        return "\n".join(lines)


def spread_degree_via_partition(comp) -> tuple[int, int]:
    """Spread and degree straight from the partition-side definitions.

    Expands to the partition given by suffix sums, pads with 0 below and
    the mass above, takes the maximum two-apart window difference and
    the edge-cover count of the indices attaining it.
    """
    n = len(comp) - 1
    if n < 1:
        raise ValueError("need n >= 1")
    lam = from_gaps(comp)
    m = sum(comp)
    ext = (0,) + lam + (m,)
    wins = [ext[i + 1] - ext[i - 1] for i in range(1, n + 1)]
    s = max(wins)
    deg = 0
    run = 0
    for v in wins:
        if v == s:
            run += 1
        elif run:
            deg += (run + 1) // 2
            run = 0
    if run:
        deg += (run + 1) // 2
    return s, deg


def _max_removals(comp, s, memo):
    """Outcomes of removing the most adjacent pairs that sum to s."""
    got = memo.get(comp)
    if got is not None:
        return got
    pairs = [i for i in range(len(comp) - 1) if comp[i] + comp[i + 1] == s]
    if not pairs:
        res = (0, frozenset([comp]))
    else:
        best = -1
        outs: set = set()
        for i in pairs:
            k, sub = _max_removals(comp[:i] + comp[i + 2 :], s, memo)
            if k + 1 > best:
                best, outs = k + 1, set(sub)
            elif k + 1 == best:
                outs |= sub
        res = (best, frozenset(outs))
    memo[comp] = res
    return res


def check_statistics(n: int, m: int) -> VerificationReport:
    """Exhaustive statistics checks over one composition poset."""
    t0 = time.time()
    counting = CheckResult("element_count")
    partition_side = CheckResult("partition_side_agreement")
    flip_removal = CheckResult("flip_removal_commute")
    flip_sig = CheckResult("flip_signature_invariant")
    sums = CheckResult("signature_sum_identities")
    containment = CheckResult("removal_containment")
    strict = CheckResult("spread_strict_decrease")
    deg_formula = CheckResult("degree_formula")
    partition_prop = CheckResult("classes_partition_poset")
    class_flip = CheckResult("classes_flip_stable")
    class_deg = CheckResult("class_degree_consistent")
    unique_top = CheckResult("unique_highest_weight")
    empties = CheckResult("empty_class_census")
    order_ind = CheckResult("removal_order_independence")

    classes = signature_classes(n, m)
    # (spread, degree, removal image, signature) of each element, in order;
    # equal removal images share one tuple
    stats: dict = {}
    images: dict = {}
    total = 0
    census = []
    spread_boundary = []
    k = n // 2 if n >= 0 else -1
    for comp in enumerate_compositions(n, m):
        total += 1
        d = signature(comp)
        s = spread(comp)
        r = degree(comp)
        image = remove_maximal_pairs(comp)
        image = images.setdefault(image, image)
        stats[comp] = (s, r, image, d)
        if n >= 1:
            ps, pd = spread_degree_via_partition(comp)
            if (ps, pd) != (s, r):
                partition_side.add(
                    {"element": comp, "a_side": (s, r), "partition_side": (ps, pd),
                     "repro": _repro(comp)}
                )
        if (
            len(d) != k + 1
            or signature_mass(d) != m
            or (m > 0 and sum(d) != s)
        ):
            sums.add({"element": comp, "signature": d, "repro": _repro(comp)})
        if len(image) != len(comp) - 2 * r or sum(image) != m - r * s:
            containment.add({"element": comp, "image": image, "repro": _repro(comp)})
        if len(image) >= 3 and spread(image) >= s and m > 0:
            strict.add({"element": comp, "image": image, "repro": _repro(comp)})
        elif m > 0 and len(image) < 3 and spread(image) >= s:
            spread_boundary.append(comp)
        if m > 0:
            formula_r = 1 + min(j for j, dj in enumerate(d) if dj > 0)
            if formula_r != r:
                census.append(comp)
    for comp, (_, _, image, d) in stats.items():
        # the flip's record holds remove_maximal_pairs(flip(comp)) and
        # signature(flip(comp))
        flipped = stats.get(flip(comp))
        if flipped is None or flipped[3] != d:
            flip_sig.add({"element": comp, "repro": _repro(comp)})
        if flipped is None or flipped[2] != flip(image):
            flip_removal.add({"element": comp, "repro": _repro(comp)})

    if total != count_compositions(n, m):
        counting.add({"expected": count_compositions(n, m)})
    counting.info["count"] = total

    deg_formula.info["census_size"] = len(census)
    deg_formula.info["census"] = [list(c) for c in census]
    for c in census:
        deg_formula.add({"element": c, "repro": _repro(c)})
    strict.info["boundary_census_size"] = len(spread_boundary)
    strict.info["boundary_census"] = [list(c) for c in spread_boundary]

    if sum(len(cls) for cls in classes.values()) != total:
        partition_prop.add({"detail": "class sizes do not sum to poset size"})
    empty = [d for d in enumerate_signatures(n, m) if d not in classes]
    empties.info["empty_signatures"] = [list(d) for d in empty]
    empties.info["empty_count"] = len(empty)
    for d in empty:
        empties.add({"signature": d})

    flagged_tops = []
    for d, cls in classes.items():
        cset = set(cls)
        if any(flip(a) not in cset for a in cls):
            class_flip.add({"signature": d})
        if not cset <= stats.keys():
            partition_prop.add(
                {"signature": d, "detail": "class element outside the poset"}
            )
        for a in cls:
            if a in stats and stats[a][3] != d:
                partition_prop.add({"element": a, "signature": stats[a][3],
                                    "class": d, "repro": _repro(a)})
        degs = {stats[a][1] for a in cls if a in stats}
        if len(degs) != 1:
            class_deg.add({"signature": d, "degrees": sorted(degs)})
        weights = [weight(a) for a in cls]
        best_w = max(weights)
        tops = [a for a, w in zip(cls, weights) if w == best_w]
        try:
            h = highest_weight(n, d)
            formula_ok = True
        except InconsistencyError:
            h = None
            formula_ok = False
            flagged_tops.append(list(d))
        if formula_ok:
            if len(tops) != 1 or tops[0] != h:
                unique_top.add({"signature": d, "tops": tops, "formula": h})
        # a failing formula must be a flagged boundary case, which the
        # except branch above just recorded; nothing more to assert here
    unique_top.info["flagged_signatures"] = flagged_tops

    if count_compositions(n, m) <= ORDER_INDEPENDENCE_CAP:
        memos: dict = {}
        for comp, (s, r, image, _) in stats.items():
            if n < 1 or m == 0:
                continue
            best, outs = _max_removals(comp, s, memos.setdefault(s, {}))
            if best != r or set(outs) != {image}:
                order_ind.add(
                    {"element": comp, "outcomes": sorted(outs), "repro": _repro(comp)}
                )
        order_ind.info["explored"] = True
    else:
        order_ind.info["explored"] = False
        order_ind.info["skipped_reason"] = (
            f"poset larger than {ORDER_INDEPENDENCE_CAP}; see ORDER_INDEPENDENCE_CAP"
        )

    checks = [
        counting, partition_side, flip_removal, flip_sig, sums, containment,
        strict, deg_formula, partition_prop, class_flip, class_deg, unique_top,
        empties, order_ind,
    ]
    return VerificationReport("statistics", n, m, checks, time.time() - t0)


def check_chains(n: int, m: int) -> VerificationReport:
    """Exhaustive checks of both algorithms and every transversal chain.

    Within a class, each distinct chain (top and colors) from
    chains_through is re-walked once from its top, and its length,
    saturation, class invariance and endpoints are checked on that walk;
    a failing chain is recorded once.  Every element is still checked for
    membership in each of its chains against the walked element set.
    """
    t0 = time.time()
    bijection = CheckResult("chains_per_component")
    invariance = CheckResult("statistic_invariance_on_chains")
    saturation = CheckResult("chain_saturation")
    uniform = CheckResult("uniform_chain_length")
    endpoints = CheckResult("initial_terminal_endpoints")
    closed = CheckResult("closed_form_color_sequence")
    duality = CheckResult("endpoint_duality")
    flip_dual = CheckResult("flip_duality")

    for d, cls in signature_classes(n, m).items():
        cset = set(cls)
        ell = chain_length(n, d)
        # element set of each chain of the class seen so far; None for a
        # chain whose colors cannot be applied
        walked: dict = {}
        for a in cls:
            if n < 1:
                continue
            chains = chains_through(a)
            if len(chains) != len(_components(a)[1]) or len(
                {(c.top, c.colors) for c in chains}
            ) != len(chains):
                bijection.add({"element": a, "repro": _repro(a)})
            for ch in chains:
                key = (ch.top, ch.colors)
                if key not in walked:
                    # first sight of this chain: walk and check it once
                    if ch.length != ell:
                        uniform.add(
                            {"element": a, "length": ch.length, "expected": ell,
                             "repro": _repro(a)}
                        )
                    try:
                        elems = ch.elements()
                    except ValueError as exc:
                        # a color that cannot be applied: no walk to check
                        saturation.add({"chain": ch.to_dict(), "error": str(exc)})
                        walked[key] = None
                        continue
                    walked[key] = set(elems)
                    if any(e not in cset for e in elems):
                        invariance.add({"element": a, "chain": ch.to_dict()})
                    # a verified cover forces the rank +1 / weight -2 step
                    for low, high in zip(elems, elems[1:]):
                        if cover_color(low, high) is None:
                            saturation.add({"lower": low, "upper": high})
                    if m > 0 and not (
                        is_initial(elems[0]) and is_terminal(elems[-1])
                    ):
                        endpoints.add({"chain": ch.to_dict()})
                if walked[key] is not None and a not in walked[key]:
                    bijection.add({"element": a, "chain": ch.to_dict()})
            if m > 0 and is_initial(a):
                ch0 = transversal_chain(a, 0)
                elems0 = ch0.elements()
                bottom = elems0[-1]
                if (ch0.colors != closed_form_colors(a)
                        or bottom != closed_form_terminal(a)):
                    closed.add({"element": a, "repro": _repro(a)})
                rightmost = _components(bottom)[1][-1][1]
                up = raise_run(bottom, rightmost)
                if up[::-1] != elems0:
                    duality.add({"element": a, "repro": _repro(a)})
                mirrored = transversal_chain(flip(bottom), 0)
                if flip_chain(ch0) != mirrored:
                    flip_dual.add({"element": a, "repro": _repro(a)})

    checks = [bijection, invariance, saturation, uniform, endpoints, closed,
              duality, flip_dual]
    return VerificationReport("chains", n, m, checks, time.time() - t0)


def _partition_suffix_matrix(elements):
    """Rows of suffix sums (number of parts >= j for j = 1..n)."""
    return [list(accumulate(reversed(comp[1:])))[::-1] for comp in elements]


def _refuse_order_matrix(k):
    if k > MAX_ORDER_MATRIX_ROWS:
        raise ResourceGuardError(f"order matrix of {k} rows exceeds "
                                 f"MAX_ORDER_MATRIX_ROWS={MAX_ORDER_MATRIX_ROWS}")


def _leq_matrix(rows):
    """Order of rows[i] <= rows[j] entrywise, one int bitset per row i.

    Bit j of row i is set when rows[i] <= rows[j].  Built one column at
    a time: OR-ing the rows that hold each value, from the largest value
    down, gives the rows holding at least that value, which each row's
    bitset is AND-ed with.
    """
    k = len(rows)
    _refuse_order_matrix(k)  # before any row is read
    out = [(1 << k) - 1] * k
    for col in zip(*rows):
        holders = {}
        for j, v in enumerate(col):
            holders[v] = holders.get(v, 0) | 1 << j
        at_least = {}
        acc = 0
        for v in sorted(holders, reverse=True):
            acc |= holders[v]
            at_least[v] = acc
        out = [bits & at_least[v] for bits, v in zip(out, col)]
    return out


def _pairs(rows):
    """(i, j) for each set bit j of rows[i], in row-major order."""
    for i, bits in enumerate(rows):
        while bits:
            low = bits & -bits
            yield i, low.bit_length() - 1
            bits ^= low


@dataclass
class SplitExtensionReport:
    n: int
    d: Signature
    r: int
    ell: int
    fiber_count: int
    degenerate: bool
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def verify_split_extension(n: int, d: Signature) -> SplitExtensionReport:
    """Exhaustively check the fibration picture for one signature class.

    Verifies surjectivity of the projection onto the base class, the
    section property and its order-preservation, that the coordinate
    maps are mutually inverse rank-shifted order isomorphisms from each
    fiber to the coordinate lattice, and cover-level order preservation
    of the projection.  Failures are recorded, never raised.
    """
    d = tuple(d)
    cls = signature_class(n, d)
    s = sum(d)
    r = degree(cls[0])
    ell = chain_length(n, d)
    base_d = d[r:]
    report = SplitExtensionReport(
        n=n, d=d, r=r, ell=ell, fiber_count=0, degenerate=False
    )
    if r == 0:
        report.checks["base_case"] = CheckResult("base_case")
        return report
    checks = report.checks = {
        name: CheckResult(name) for name in SPLIT_SOUND_CHECKS + SPLIT_DEFECT_CHECKS
    }

    base = signature_class(n - 2 * r, base_d)
    base_set = set(base)
    cls_set = set(cls)
    # each element's upper covers inside the class, for the fiber and
    # projection-order checks
    ups = {a: [up for _, up in upper_covers(a) if up in cls_set] for a in cls}
    report.fiber_count = len(base)
    report.degenerate = any(s <= spread(b) for b in base)

    fibers: dict = {}
    proj = {a: remove_maximal_pairs(a) for a in cls}
    for a, image in proj.items():
        if image not in base_set:
            checks["projection_into_base"].add({"element": a, "image": image})
        fibers.setdefault(image, []).append(a)
    for b in sorted(base_set - set(fibers)):
        checks["projection_surjective"].add({"missing": b})

    sections = {b: (s, 0) * r + b for b in base}
    for b, image in sections.items():
        if image not in cls_set or remove_maximal_pairs(image) != b:
            checks["section_property"].add({"base": b, "section": image})

    # order-preservation of the section, all comparable base pairs at once
    if len(base) > 1:
        base_leq = _leq_matrix(_partition_suffix_matrix(base))
        img_leq = _leq_matrix(_partition_suffix_matrix(list(sections.values())))
        for i, j in _pairs(lo & ~hi for lo, hi in zip(base_leq, img_leq)):
            checks["section_order_preserving"].add({"base_pair": (base[i], base[j])})

    expected_fiber = comb(r + ell, r)
    for b in base:
        fiber = fibers.get(b, [])
        if len(fiber) != expected_fiber:
            checks["fiber_sizes"].add({"base": b, "size": len(fiber)})
            continue
        try:
            coords = {a: fiber_coordinates(a, b) for a in fiber}
            rebuilt = _fiber_images(sections[b], r, ell)
        except (InconsistencyError, ValueError) as exc:
            checks["coordinates_bijective"].add({"base": b, "error": str(exc)})
            continue
        if sorted(coords.values()) != sorted(rebuilt):
            checks["coordinates_bijective"].add({"base": b})
            continue
        sec_rank = rank(sections[b])
        fiber_set = set(fiber)
        for a, lam in coords.items():
            if rebuilt[lam] != a:
                checks["coordinates_mutually_inverse"].add({"element": a, "lam": lam})
            if rank(a) != sec_rank + sum(lam):
                checks["fiber_rank_shift"].add({"element": a, "lam": lam})
            if lam and first_coordinate_closed_form(a) != lam[0]:
                checks["first_coordinate_closed_form"].add({"element": a, "lam": lam})
        # covers inside the fiber must match covers of coordinate vectors
        for a, lam in coords.items():
            for up in ups[a]:
                if up not in fiber_set:
                    continue
                lam_up = coords[up]
                diffs = [i for i in range(r) if lam[i] != lam_up[i]]
                if len(diffs) != 1 or lam_up[diffs[0]] != lam[diffs[0]] + 1:
                    checks["fiber_cover_correspondence"].add(
                        {"lower": a, "upper": up, "coords": (lam, lam_up)}
                    )
            for i in range(r):
                bumped = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
                if (i + 1 < r and bumped[i] > bumped[i + 1]) or bumped[i] > ell:
                    continue
                other = rebuilt[bumped]
                if cover_color(a, other) is None:
                    checks["fiber_cover_correspondence"].add(
                        {"lower": a, "upper": other, "coords": (lam, bumped)}
                    )
        if r >= 2:
            # full pairwise order check against the coordinate lattice
            elems = list(fiber)
            fib_leq = _leq_matrix(_partition_suffix_matrix(elems))
            lam_leq = _leq_matrix([coords[a] for a in elems])
            for i, j in _pairs(x ^ y for x, y in zip(fib_leq, lam_leq)):
                checks["fiber_order_isomorphism"].add({"pair": (elems[i], elems[j])})
        # r == 1: the fiber is one saturated chain, whose induced order is
        # total; bijection + cover correspondence already pin the isomorphism.

    if n >= 2:
        stripped: dict = {}

        def strip(x):
            got = stripped.get(x)
            if got is None:
                got = stripped[x] = _raise_path(x, _components(x)[1][0][0])[0][2:]
            return got

        for a in cls:
            pa = proj[a]
            successors = _chain_successors(a)
            for up in ups[a]:
                pu = proj[up]
                if pa != pu and not leq(pa, pu):
                    checks["projection_order_preserving"].add({"lower": a, "upper": up})
                if up not in successors:
                    qq = strip(a)
                    pp = strip(up)
                    if cover_color(qq, pp) is None:
                        checks["stripped_cover_preserved"].add(
                            {"lower": a, "upper": up, "stripped": (qq, pp)}
                        )
    return report


def _fiber_images(top: Composition, r: int, ell: int) -> dict:
    """The point below the section image top at each lam of L(r, ell),
    listed by combinations_with_replacement.  Level by level from lam[-1],
    the point at lam[k:] is element lam[k] of the transversal chain at the
    leading pair of the point at lam[k + 1:]; a chain whose length is not
    ell raises InconsistencyError."""
    lattice = list(combinations_with_replacement(range(ell + 1), r))
    images = {(): top}
    for k in reversed(range(r)):
        chains = {}
        for lam in lattice:
            tail = lam[k + 1 :]
            if tail not in chains:
                ch = transversal_chain(images[tail], 0)
                if ch.length != ell:
                    raise InconsistencyError(
                        f"chain of length {ch.length} != {ell} inside fiber from {top}")
                chains[tail] = ch.elements()
            images[lam[k:]] = chains[tail][lam[k]]
    return {lam: images[lam] for lam in lattice}


def _chain_successors(a: Composition) -> set[Composition]:
    """The element after a on each of its transversal chains, if any.

    A cover a -> up is a step of some transversal chain of a exactly
    when up is in this set; each chain continues below a along the
    lowering walk of its component, so its first color (none at a
    terminal element) gives the successor.
    """
    out = set()
    for start, _ in _components(a)[1]:
        colors = _lower_path(a, start)
        if colors:
            out.add(apply_color_down(a, colors[0]))
    return out


def check_structure(n: int, m: int) -> VerificationReport:
    """Split extensions, the full decomposition, and the certificate."""
    t0 = time.time()
    gen_fun = CheckResult("rank_generating_function")
    split_checks: dict[str, CheckResult] = {}
    partition = CheckResult("decomposition_partitions")
    tau_stable = CheckResult("decomposition_flip_stable")
    certificate = CheckResult("unimodality_certificate")

    if rank_generating_function(enumerate_compositions(n, m)) != gaussian(m, n):
        gen_fun.add({"detail": f"rank histogram differs from gaussian({m},{n})"})

    degenerate = []
    for d in signature_classes(n, m):
        rep = verify_split_extension(n, d)
        if rep.degenerate:
            degenerate.append(list(d))
        for name, c in rep.checks.items():
            agg = split_checks.setdefault(name, CheckResult(name))
            if not c.passed:
                agg.add({"signature": d, "examples": c.counterexamples[:3]})
                pairs = agg.info.get("failing_pairs", 0)
                agg.info["failing_pairs"] = pairs + c.failures
    for agg in split_checks.values():
        agg.info["failing_classes"] = agg.failures
    if degenerate:  # degree >= 1 classes, so section_property was recorded
        split_checks["section_property"].info["degenerate_classes"] = degenerate

    try:
        dec = decompose_all(n, m)
        _, offenders = flip_stability(dec)
        for ch in offenders:
            tau_stable.add({"chain": ch.to_dict()})
        cert = unimodality_certificate(dec)
        if not cert.passed():
            certificate.add(
                {
                    "symmetric": cert.symmetric_lengths,
                    "unimodal": cert.unimodal_lengths,
                    "matches_gaussian": cert.matches_gaussian,
                }
            )
        certificate.info["chains"] = sum(len(c.chains) for c in dec.classes)
    except InconsistencyError as exc:
        partition.add({"error": str(exc)})
    checks = [gen_fun, *split_checks.values(), partition, tau_stable, certificate]
    return VerificationReport("structure", n, m, checks, time.time() - t0)


def sweep_pairs(max_size: int, max_dim: int = 12) -> list[tuple[int, int]]:
    """(n, m) grid, capped per axis and by poset size."""
    return [
        (n, m)
        for n in range(max_dim + 1)
        for m in range(max_dim + 1)
        if count_compositions(n, m) <= max_size
    ]


def _order_matrix_rows(n, m):
    """Row counts of the order matrices check_structure builds for (n, m):
    the fiber size comb(r + ell, r) for each class of degree r >= 2, and
    the base class's size, the class's size over its fiber size, for each
    section check.  A resource guard, not a check, so it reads r and ell
    from the library's split_shape and builds no section image."""
    for d, cls in signature_classes(n, m).items():
        r, ell = split_shape(n, d)
        fiber = comb(r + ell, r)
        if r >= 2:
            yield fiber
        if r >= 1:
            yield len(cls) // fiber


def run_pair(n: int, m: int):
    """Statistics, chain and structure reports of one poset.

    Every poset gets every check, the full decomposition and its
    certificate included.  The poset is classified once for all three,
    and every cache is cleared after it, so the caches hold one poset at
    a time.  A poset whose order matrices would exceed
    MAX_ORDER_MATRIX_ROWS is refused after classifying, before any scope.
    """
    try:
        _refuse_order_matrix(max(_order_matrix_rows(n, m), default=0))
        return [check_statistics(n, m), check_chains(n, m), check_structure(n, m)]
    finally:
        clear_caches()


def run_sweep(
    max_size: int = 200_000, max_dim: int = 12, jobs: int = 1
) -> list[VerificationReport]:
    """run_pair over every (n, m) within the bounds, reports sorted."""
    pairs = sweep_pairs(max_size, max_dim)
    args = ([n for n, _ in pairs], [m for _, m in pairs])
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_pair = list(pool.map(run_pair, *args))
    else:
        per_pair = list(map(run_pair, *args))
    out = [report for reports in per_pair for report in reports]
    out.sort(key=lambda r: (r.n, r.m, r.scope))
    return out

