import ast
import re

import pytest
from hypothesis import given, strategies as st

from unimodal_chains import posets, statistics
from unimodal_chains.oracle import sweep_pairs, verify_split_extension
from unimodal_chains.posets import InconsistencyError, enumerate_compositions, flip
from unimodal_chains.statistics import (
    chain_length,
    degree,
    enumerate_signatures,
    highest_weight,
    maximal_structure,
    remove_maximal_pairs,
    signature,
    signature_class,
    signature_classes,
    signature_mass,
    split_shape,
    split_step,
    spread,
)
from unimodal_chains.structure import decompose_all, decompose_class, section


def small_compositions():
    return st.integers(0, 5).flatmap(
        lambda n: st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1)
    ).map(tuple)


def test_spread_examples():
    assert spread((2, 0, 1, 0, 0, 2)) == 2
    assert spread((7,)) == 7
    assert spread((1, 0, 1)) == 1
    assert spread(()) == 0
    assert spread((3, 4)) == 7


def test_maximal_structure_examples():
    ms = maximal_structure((2, 0, 1, 0, 0, 2))
    assert ms.spread == 2
    assert ms.mset == (0, 4)
    assert ms.components == ((0, 0), (4, 4))
    assert ms.active == (0, 1, 4, 5)

    ms = maximal_structure((2, 0, 2, 0, 1, 0))
    assert ms.mset == (0, 1, 2)
    assert ms.components == ((0, 2),)
    assert ms.active == (0, 1, 2, 3)

    ms = maximal_structure((1, 0, 1))
    assert ms.mset == (0, 1)
    assert ms.components == ((0, 1),)
    assert ms.active == (0, 1, 2)

    assert maximal_structure((4,)).mset == ()


def test_degree_examples():
    assert degree((2, 0, 1, 0, 0, 2)) == 2
    assert degree((2, 0, 2, 0, 1, 0)) == 2
    assert degree((1, 0, 1)) == 1
    assert degree((4,)) == 0


def test_removal_examples():
    assert remove_maximal_pairs((2, 0, 1, 0, 0, 2)) == (1, 0)
    assert remove_maximal_pairs((2, 0, 2, 0, 1, 0)) == (1, 0)
    assert remove_maximal_pairs((1, 0, 0, 1)) == ()
    assert remove_maximal_pairs((1, 0, 1)) == (1,)


def test_removal_containment_exhaustive():
    for comp in enumerate_compositions(4, 4):
        image = remove_maximal_pairs(comp)
        r, s = degree(comp), spread(comp)
        assert len(image) == len(comp) - 2 * r
        assert sum(image) == sum(comp) - r * s


def test_signature_examples():
    assert signature((1, 0, 1)) == (0, 1)
    assert signature((2, 0, 2, 0, 1, 0)) == (0, 1, 1)
    assert signature((6,)) == (6,)
    assert signature((2, 3)) == (5,)
    assert signature(()) == ()


def test_signature_zero_vector():
    assert signature((0, 0, 0)) == (0, 0)
    assert signature((0, 0, 0, 0, 0)) == (0, 0, 0)


@given(small_compositions())
def test_signature_well_formed(comp):
    d = signature(comp)
    n = len(comp) - 1
    assert len(d) == (n // 2 + 1 if n >= 0 else 0)
    assert signature_mass(d) == sum(comp)
    if sum(comp) > 0:
        assert sum(d) == spread(comp)


@given(small_compositions())
def test_flip_commutes(comp):
    assert remove_maximal_pairs(flip(comp)) == flip(remove_maximal_pairs(comp))
    assert signature(flip(comp)) == signature(comp)


def test_enumerate_signatures_examples():
    assert enumerate_signatures(2, 2) == [(2, 0), (0, 1)]
    assert enumerate_signatures(4, 0) == [(0, 0, 0)]
    assert enumerate_signatures(5, 5) == [
        (5, 0, 0), (3, 1, 0), (1, 2, 0), (2, 0, 1), (0, 1, 1)
    ]
    assert enumerate_signatures(-1, 0) == [()]


def test_enumerate_signatures_order_from_definition():
    # every vector of the right length and mass, ordered by its entries
    # read from the last one; class order and the CLI output rest on it
    from itertools import product

    for n in range(-1, 15):
        for m in range(11):
            k = n // 2
            vectors = product(*(range(m // (j + 1) + 1) for j in range(k + 1)))
            expected = sorted(
                (d for d in vectors if signature_mass(d) == m), key=lambda d: d[::-1]
            )
            assert enumerate_signatures(n, m) == expected, (n, m)


def test_class_examples():
    assert set(signature_class(2, (2, 0))) == {
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    }
    assert signature_class(2, (0, 1)) == ((1, 0, 1),)
    assert signature_class(4, (0, 0, 0)) == ((0, 0, 0, 0, 0),)


@pytest.mark.parametrize(
    "pairs",
    [[(2, 2)], [(3, 3)], [(4, 3)], [(5, 5)], [(6, 2)], sweep_pairs(1000, 12)],
    ids=["2-2", "3-3", "4-3", "5-5", "6-2", "sweep"],
)
def test_classes_partition_poset(pairs):
    for n, m in pairs:
        classes = signature_classes(n, m)
        # every enumerated signature has a class, and no class is empty
        assert list(classes) == enumerate_signatures(n, m)
        total = 0
        seen = set()
        for d, cls in classes.items():
            assert signature_mass(d) == m
            total += len(cls)
            for a in cls:
                assert a not in seen
                seen.add(a)
                assert signature(a) == d
        assert total == posets.count_compositions(n, m)


def test_every_signature_has_a_highest_weight_element():
    # the class of each d holds highest_weight(n, d), so none is empty;
    # this reaches boxes that no other test enumerates
    for n in range(21):
        for m in range(21):
            for d in enumerate_signatures(n, m):
                highest_weight(n, d)


def test_highest_weight_examples():
    assert highest_weight(5, (0, 1, 1)) == (2, 0, 2, 0, 1, 0)
    assert highest_weight(2, (2, 0)) == (2, 0, 0)
    assert highest_weight(2, (0, 1)) == (1, 0, 1)


def test_highest_weight_is_class_maximum():
    for n, m in [(3, 3), (4, 4), (5, 3)]:
        for d, cls in signature_classes(n, m).items():
            h = highest_weight(n, d)
            best = max(weight_of(a) for a in cls)
            tops = [a for a in cls if weight_of(a) == best]
            assert tops == [h]


def weight_of(comp):
    return posets.weight(comp)


def test_chain_length_examples():
    assert chain_length(2, (2, 0)) == 4
    assert chain_length(2, (0, 1)) == 0
    assert chain_length(5, (0, 1, 1)) == 4


def test_chain_length_from_spread_and_mass():
    # sum(d) is the spread and sum((j + 1) d_j) the mass, so
    # ell = sum((n - 2j) d_j) = (n + 2) s - 2m: fiber_coordinates' ell
    for n in range(9):
        for m in range(9):
            for a in enumerate_compositions(n, m):
                assert chain_length(n, signature(a)) == (n + 2) * spread(a) - 2 * m


def test_signature_reads_each_image_spread_from_its_signature(monkeypatch):
    calls = []
    real = statistics.spread

    def spy(comp):
        calls.append(comp)
        return real(comp)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "spread", spy)
    for comp in enumerate_compositions(6, 6):
        signature(comp)
    assert signature.cache_info().currsize > posets.count_compositions(6, 6)
    assert calls == []


def test_degree_formula_boundary_case():
    # the recursion-computed degree of (1,0,1) is 1 while the leading-zero
    # formula gives 2; the recursion is ground truth here
    d = signature((1, 0, 1))
    assert d == (0, 1)
    assert degree((1, 0, 1)) == 1
    assert 1 + min(j for j, dj in enumerate(d) if dj > 0) == 2


def test_signature_class_wrong_length_rejected():
    # decompose_class checks n and d as signature_class does, with its messages
    for call in (signature_class, decompose_class):
        with pytest.raises(ValueError, match=re.escape("(1, 0) has wrong length")):
            call(4, (1, 0))
        # the empty composition's signature is (), so n = -1 takes no entry
        for d in ((0,), (0, 0)):
            with pytest.raises(ValueError, match=re.escape(f"{d} has wrong length")):
                call(-1, d)
        with pytest.raises(ValueError, match=r"^n must be >= -1$"):
            call(-2, ())


def test_signature_with_a_negative_entry_is_refused():
    for call in (signature_class, decompose_class, verify_split_extension):
        with pytest.raises(ValueError, match=re.escape("(3, -1)")):
            call(2, (3, -1))


def test_empty_vector_conventions():
    assert spread(()) == 0
    assert signature(()) == ()
    assert degree(()) == 0
    assert remove_maximal_pairs(()) == ()


def _from_definition(comp, memo):
    """Spread, maximal runs, degree, removal image and signature of comp,
    computed straight from the definitions with no library code.

    The removal takes maximal pairs greedily from the left; inside a run
    every second entry repeats, so the survivor of an odd block equals
    the block's left value.
    """
    got = memo.get(comp)
    if got is not None:
        return got
    n = len(comp) - 1
    if n < 1:
        s = comp[0] if comp else 0
        got = (s, [], 0, comp, (sum(comp),) if comp else ())
        memo[comp] = got
        return got
    sums = [comp[i] + comp[i + 1] for i in range(n)]
    s = max(sums)
    runs = []
    for i in range(n):
        if sums[i] != s:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    out = []
    r = 0
    i = 0
    while i <= n:
        if i < n and sums[i] == s:
            r += 1
            i += 2
        else:
            out.append(comp[i])
            i += 1
    image = tuple(out)
    if n == 1:
        d = (s,)
    else:
        image_spread, _, _, _, image_sig = _from_definition(image, memo)
        d = (0,) * (r - 1) + (s - image_spread,) + image_sig
    got = (s, runs, r, image, d)
    memo[comp] = got
    return got


def test_fast_statistics_match_definition_over_the_sweep():
    from unimodal_chains import oracle

    comps = [(), (0,), (4,), (0, 0), (3, 1), (0, 5)]
    for n, m in oracle.sweep_pairs(1000, 12):
        comps.extend(enumerate_compositions(n, m))
    memo: dict = {}
    for comp in comps:
        s, runs, r, image, d = _from_definition(comp, memo)
        assert statistics._scan(comp) == (s, tuple(runs)), comp
        assert statistics._components(comp) == (s, tuple(runs)), comp
        assert spread(comp) == s, comp
        assert degree(comp) == r, comp
        assert remove_maximal_pairs(comp) == image, comp
        assert signature(comp) == d, comp


def test_signature_scans_each_step_once(monkeypatch):
    from collections import Counter

    n, m = 6, 6
    reached = set()  # every composition the signature recursion visits
    todo = list(enumerate_compositions(n, m))
    while todo:
        comp = todo.pop()
        if comp not in reached:
            reached.add(comp)
            if len(comp) >= 3:
                todo.append(remove_maximal_pairs(comp))
    steps = [comp for comp in reached if len(comp) >= 3]

    real = statistics._scan
    calls = []

    def spy(comp):
        calls.append(comp)
        return real(comp)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "_scan", spy)
    for comp in enumerate_compositions(n, m):
        signature(comp)
    assert signature.cache_info().misses == len(reached)
    assert Counter(calls) == Counter(steps)
    assert len(calls) > posets.count_compositions(n, m)


def test_signature_leaves_the_scan_memo_empty():
    # signature's own memo holds each removal step, so it scans through
    # the raw _scan and stores no image twice
    statistics.clear_caches()
    for n, m in [(0, 3), (1, 4), (5, 5), (6, 6)]:
        for comp in enumerate_compositions(n, m):
            signature(comp)
    assert signature.cache_info().currsize > 0
    assert statistics._scans == {} and statistics._scan_results == {}
    statistics.clear_caches()


def test_run_pair_scans_each_element_once_through_the_memo(monkeypatch):
    # the library's steps and the oracle's scopes read each element's scan
    # from the one memo; signature's steps and chains_through call _scan
    # directly and are not counted
    import sys

    from unimodal_chains import oracle

    real = statistics._scan
    memoized = statistics._components.__code__
    calls = []

    def spy(comp):
        if sys._getframe(1).f_code is memoized:
            calls.append(comp)
        return real(comp)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "_scan", spy)
    oracle.run_pair(6, 6)
    assert len(calls) == len(set(calls)) >= posets.count_compositions(6, 6)
    # run_pair emptied the memo after the poset
    assert statistics._scans == {} and statistics._scan_results == {}


def test_classes_match_each_elements_own_signature():
    # signature_classes builds each class from its base class's fibers;
    # grouping by a fresh signature of every element must give the same
    # classes
    from unimodal_chains import oracle

    for n, m in oracle.sweep_pairs(1000, 12) + [(9, 9), (12, 7)]:
        statistics.clear_caches()
        classes = signature_classes(n, m)
        statistics.clear_caches()
        expected = {d: [] for d in enumerate_signatures(n, m)}
        for comp in enumerate_compositions(n, m):
            expected[signature(comp)].append(comp)
        assert classes == {d: tuple(cs) for d, cs in expected.items()}, (n, m)
    statistics.clear_caches()


def test_signature_classes_computes_signatures_only_of_highest_weight_elements(
    monkeypatch,
):
    # a signature miss removes its element's maximal pairs: no full-length
    # element has its signature computed, as split_shape reads a class's
    # degree from its signature and every element is a fiber point built
    # from its base class
    n, m = 6, 6
    real_remove = statistics._remove_runs
    computed = []

    def remove_spy(comp, runs):
        if len(comp) == n + 1:
            computed.append(comp)
        return real_remove(comp, runs)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "_remove_runs", remove_spy)
    classes = signature_classes(n, m)
    found = list(computed)
    assert found == []
    assert len(classes) == len(enumerate_signatures(n, m)) == 9
    assert sum(map(len, classes.values())) == 924
    statistics.clear_caches()


def test_a_walk_that_leaves_its_class_is_refused(monkeypatch):
    # a lowering walk one step too long gives a chain longer than the
    # class's transversal length: no fiber point is taken from it
    real = statistics._lower_path
    monkeypatch.setattr(statistics, "_lower_path", lambda comp, i: real(comp, i) + [1])
    statistics.clear_caches()
    with pytest.raises(InconsistencyError) as err:
        signature_classes(4, 4)
    statistics.clear_caches()
    found = re.fullmatch(
        r"chain of length (\d+) != (\d+) inside fiber from (\(.*\))", str(err.value)
    )
    length, ell, top = int(found[1]), int(found[2]), ast.literal_eval(found[3])
    assert length == ell + 1
    assert ell == chain_length(len(top) - 1, signature(top))


def test_a_fiber_chain_off_a_maximal_pair_is_refused(monkeypatch):
    # (2, 0, 2, 0, 0) tops the fiber of class (0, 2, 0) of (4, 4): degree
    # 2 and transversal length 4, so 15 points on chains of two levels
    top = (2, 0, 2, 0, 0)
    assert len(set(statistics._fiber_points(top, 2, 4))) == 15
    with pytest.raises(InconsistencyError, match=r"leading pair of \(0, 1, 2\)"):
        statistics._fiber_points((0, 1, 2), 1, 1)
    # a walk whose elements lose their leading maximal pair cannot top
    # the next level
    real = statistics.walk_down
    monkeypatch.setattr(
        statistics, "walk_down",
        lambda start, colors: [(0,) + e[1:-1] + (e[0] + e[-1],)
                               for e in real(start, colors)],
    )
    message = r"leading pair of \(0, .*\) is not maximal inside the fiber from"
    with pytest.raises(InconsistencyError, match=message + re.escape(f" {top}")):
        statistics._fiber_points(top, 2, 4)


@pytest.mark.parametrize("fault", ["dropped", "duplicated", "replaced"])
def test_a_lost_or_repeated_fiber_point_fails_the_coverage_check(monkeypatch, fault):
    # one fiber of (4, 4) loses a point, repeats one, or repeats one in
    # place of another; the last keeps the total at 70 but not the union
    real = statistics._fiber_points
    faulty = []

    def spy(top, r, ell, *chains):
        points = real(top, r, ell, *chains)
        if len(top) == 5 and len(points) >= 2 and not faulty:
            faulty.append(top)
            if fault == "dropped":
                del points[1]
            elif fault == "duplicated":
                points.append(points[0])
            else:
                points[1] = points[0]
        return points

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "_fiber_points", spy)
    message = "classes of n=4, m=4 do not partition its 70 elements"
    with pytest.raises(InconsistencyError, match=message):
        signature_classes(4, 4)
    assert faulty
    monkeypatch.undo()
    statistics.clear_caches()
    assert sum(map(len, signature_classes(4, 4).values())) == 70
    statistics.clear_caches()


def test_a_missing_base_class_is_refused(monkeypatch):
    # (4, 4) reads its base classes from the (2, m) and (0, m) posets; a
    # base poset that lacks a class cannot lift it
    real = statistics.signature_classes

    def without_first(n, m):
        classes = dict(real(n, m))
        if n < 4:
            classes.pop(next(iter(classes)))
        return classes

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "signature_classes", without_first)
    with pytest.raises(InconsistencyError, match=r"base class .* missing"):
        real(4, 4)
    # the decomposition reads the same split step
    with pytest.raises(InconsistencyError, match=r"base class .* missing"):
        decompose_all(4, 4)
    monkeypatch.undo()
    statistics.clear_caches()


def test_split_step_is_the_class_over_its_base_class():
    # r is the degree of every element, ell the class's chain length, and
    # the tops are the section images over the base class, in the class
    # and in its order; r is not leading zeros + 1 on 29 classes, all of
    # transversal length 0
    off_rule = 0
    for n, m in sweep_pairs(1000, 12):
        for d, cls in signature_classes(n, m).items():
            r, ell, tops = split_step(n, d)
            assert {degree(a) for a in cls} == {r}, (n, d)
            assert ell == chain_length(n, d)
            base = signature_class(n - 2 * r, d[r:])
            assert tops == [section(b, r, sum(d)) for b in base], (n, d)
            assert sorted(tops) == tops and set(tops) <= set(cls)
            if r != next((j for j, dj in enumerate(d) if dj), len(d) - 1) + 1:
                off_rule += 1
                assert ell == 0, (n, d)
    assert off_rule == 29


def test_signature_classes_keeps_its_edge_input_errors():
    # only n <= 0 or m == 0 is enumerated; a negative n or m is still
    # refused by enumerate_compositions, with its type and message
    for n, m, message in [(-1, 1, "the empty composition carries mass 0 only"),
                          (1, -1, "m must be >= 0"),
                          (-2, 0, "n must be >= -1")]:
        with pytest.raises(ValueError) as err:
            signature_classes(n, m)
        assert type(err.value) is ValueError and str(err.value) == message
    # an n == 1 class comes from its split step: its walk is the one chain
    # from (m, 0), all color 1, and the class is the whole poset in lex order
    statistics.clear_caches()
    for m in range(41):
        elements = tuple(enumerate_compositions(1, m))
        assert signature_classes(1, m) == {(m,): elements}
        if m:
            assert statistics._walks[1, (m,)] == (1, m, (elements[::-1],),
                                                  ((1,) * m,))
    statistics.clear_caches()


def test_split_shape_is_the_degree_of_the_highest_weight_element():
    # r = min(t + 1, (n + 1) // 2) with t the leading zeros of d; the cap
    # binds on exactly the one-element alternating-palindrome classes of
    # the degree_formula census: m == 0, and d = (0, ..., 0, d_k) for even n
    capped = 0
    for n in range(21):
        for m in range(21):
            for d in enumerate_signatures(n, m):
                r, ell = split_shape(n, d)
                assert r == degree(highest_weight(n, d)), (n, d)
                assert ell == chain_length(n, d)
                t = next((j for j, dj in enumerate(d) if dj), len(d))
                alternating = m == 0 or (n % 2 == 0 and not any(d[:-1]))
                assert (r != t + 1) == alternating, (n, d)
                capped += r != t + 1
            statistics.clear_caches()
    # 21 posets of m == 0, and for even n each m = (k + 1) * d_k in 1..20
    assert capped == 21 + sum(20 // (n // 2 + 1) for n in range(0, 21, 2)) == 78


@pytest.mark.parametrize(
    "call",
    [
        lambda: signature_classes(9, 9),
        lambda: decompose_all(9, 9),
        lambda: decompose_all(12, 7),
        lambda: decompose_class(11, (1, 5, 0, 0, 0, 0)),
    ],
    ids=["classes-9-9", "decompose-9-9", "decompose-12-7", "decompose-class-11"],
)
def test_classification_and_decomposition_compute_no_signature(call):
    # r comes from the signature in closed form, so from cold caches
    # neither the signature memo nor the scan memo gets an entry
    statistics.clear_caches()
    call()
    assert signature.cache_info().misses == 0
    assert statistics._scans == {}
    statistics.clear_caches()
