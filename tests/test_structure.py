from itertools import combinations_with_replacement
from math import comb

import pytest

from unimodal_chains.posets import (
    InconsistencyError,
    count_compositions,
    from_gaps,
    leq,
    rank,
)
from unimodal_chains.qpoly import gaussian
from unimodal_chains.statistics import (
    chain_length,
    degree,
    remove_maximal_pairs,
    signature_class,
    signature_classes,
)
from unimodal_chains.structure import (
    decompose_all,
    decompose_class,
    decomposition_from_dict,
    decomposition_to_dict,
    fiber_coordinates,
    fiber_element,
    first_coordinate_closed_form,
    flip_stability,
    section,
    unimodality_certificate,
)
from unimodal_chains.oracle import _fiber_images, verify_split_extension


def test_section_examples():
    assert section((0,), 1, 2) == (2, 0, 0)
    assert section((1, 0), 2, 2) == (2, 0, 2, 0, 1, 0)
    assert section((3, 1), 0, 99) == (3, 1)
    # a base of at most one entry admits s == spread(b), its mass: the
    # top of the one chain of class (0,1) of L(2,2) is (1, 0, 1)
    assert section((1,), 1, 1) == (1, 0, 1)
    assert section((2,), 2, 2) == (2, 0, 2, 0, 2)
    with pytest.raises(ValueError):
        section((2, 0), 1, 2)  # needs s > spread(b)


def test_project_examples():
    assert remove_maximal_pairs((0, 1, 1)) == (0,)
    assert remove_maximal_pairs((2, 0, 1, 0, 0, 2)) == (1, 0)
    assert remove_maximal_pairs(section((1, 0), 2, 2)) == (1, 0)
    assert remove_maximal_pairs(section((1,), 1, 1)) == (1,)
    assert remove_maximal_pairs(section((2,), 2, 2)) == (2,)


def test_section_lands_in_every_class_of_the_sweep():
    # every base element of every class of degree >= 1, degenerate ones
    # included, has a section image in the class that projects back to it
    from unimodal_chains.oracle import sweep_pairs

    for n, m in sweep_pairs(1000, 12):
        for d, cls in signature_classes(n, m).items():
            r = degree(cls[0])
            if r == 0:
                continue
            cls_set = set(cls)
            for b in signature_class(n - 2 * r, d[r:]):
                image = section(b, r, sum(d))
                assert image in cls_set, (n, d, b)
                assert remove_maximal_pairs(image) == b, (n, d, b)


def test_fiber_coordinates_examples():
    assert fiber_coordinates((0, 1, 1), (0,)) == (3,)
    assert fiber_coordinates((2, 0, 0), (0,)) == (0,)
    assert fiber_coordinates((0, 0, 2), (0,)) == (4,)
    with pytest.raises(ValueError):
        fiber_coordinates((0, 1, 1), (1,))


def test_first_coordinate_closed_form_examples():
    assert first_coordinate_closed_form((0, 1, 1)) == 3
    assert first_coordinate_closed_form((2, 0, 0)) == 0
    assert first_coordinate_closed_form((0, 2, 0)) == 2
    assert first_coordinate_closed_form((0, 0)) == 0


@pytest.mark.parametrize("a", [(3,), (0,), ()])
def test_first_coordinate_closed_form_needs_a_pair(a):
    # one entry has no maximal pair to raise from
    with pytest.raises(ValueError, match="need at least two entries"):
        first_coordinate_closed_form(a)


def test_first_coordinate_matches_steps_exhaustive():
    from unimodal_chains.posets import enumerate_compositions
    from unimodal_chains.statistics import degree

    for comp in enumerate_compositions(5, 4):
        if sum(comp) == 0:
            continue
        lam = fiber_coordinates(comp, remove_maximal_pairs(comp))
        if degree(comp) >= 1:
            assert lam[0] == first_coordinate_closed_form(comp)


def test_fiber_element_examples():
    assert fiber_element((0,), (0,), 2) == (2, 0, 0)
    assert fiber_element((3,), (0,), 2) == (0, 1, 1)
    with pytest.raises(ValueError):
        fiber_element((2, 1), (0,), 2)  # not weakly increasing
    # the chain from the section image (2, 0, 0) has length 4
    with pytest.raises(ValueError, match=r"^coordinate 5 exceeds chain length 4$"):
        fiber_element((5,), (0,), 2)
    # no coordinates: the element is its base, which has degree 0 only
    # when it has no maximal pair
    assert fiber_element((), (5,), 2) == (5,)
    with pytest.raises(ValueError, match=r"^\(1, 1\) has a maximal pair"):
        fiber_element((), (1, 1), 5)


def test_fiber_element_names_the_projection_it_rebuilt(monkeypatch):
    from unimodal_chains import structure

    monkeypatch.setattr(structure, "remove_maximal_pairs", lambda a: a[2:] + (1,))
    message = r"^rebuilt element \(0, 1, 1\) projects to \(1, 1\), not \(0,\)$"
    with pytest.raises(InconsistencyError, match=message):
        fiber_element((3,), (0,), 2)


def test_fiber_map_refuses_a_chain_of_the_wrong_length():
    # the oracle's own coordinate map, which rebuilds each fiber it checks
    with pytest.raises(InconsistencyError, match="chain of length 4 != 3"):
        _fiber_images((2, 0, 0), 1, 3)


def test_fiber_map_hits_each_element_of_every_fiber_of_the_sweep_once():
    # over its coordinate lattice L(r, ell), fiber_element from each base
    # element yields comb(r + ell, r) distinct points: the elements of the
    # class that project to that base element
    from unimodal_chains.oracle import sweep_pairs

    fibers = 0
    for n, m in sweep_pairs(1000, 12):
        for d, cls in signature_classes(n, m).items():
            r = degree(cls[0])
            if r < 2:
                continue
            ell = chain_length(n, d)
            lattice = list(combinations_with_replacement(range(ell + 1), r))
            assert len(lattice) == comb(r + ell, r)
            for b in signature_class(n - 2 * r, d[r:]):
                points = [fiber_element(lam, b, sum(d)) for lam in lattice]
                assert len(set(points)) == len(points), (n, d, b)
                fiber = {a for a in cls if remove_maximal_pairs(a) == b}
                assert set(points) == fiber, (n, d, b)
                fibers += 1
    assert fibers == 68  # in 61 classes


def test_fiber_bijection_small_class():
    # the 15-element coordinate lattice of each fiber over Q_1(1)
    cls = signature_class(5, (0, 1, 1))
    assert len(cls) == 30
    for b in [(1, 0), (0, 1)]:
        fiber = [a for a in cls if remove_maximal_pairs(a) == b]
        assert len(fiber) == comb(2 + 4, 2)
        seen = set()
        for a in fiber:
            lam = fiber_coordinates(a, b)
            assert fiber_element(lam, b, 2) == a
            seen.add(lam)
        assert len(seen) == len(fiber)


def test_verify_split_extension_plain_class():
    rep = verify_split_extension(2, (2, 0))
    assert rep.r == 1 and rep.ell == 4 and rep.fiber_count == 1
    assert not rep.degenerate
    assert rep.passed()


def test_verify_split_extension_degenerate_singleton():
    rep = verify_split_extension(2, (0, 1))
    assert rep.degenerate
    assert rep.fiber_count == 1
    assert rep.passed()


def test_verify_split_extension_two_fibers():
    rep = verify_split_extension(5, (0, 1, 1))
    assert rep.r == 2 and rep.ell == 4 and rep.fiber_count == 2
    # the fibration itself is sound ...
    for name in (
        "projection_into_base", "projection_surjective", "section_property",
        "section_order_preserving", "fiber_sizes", "coordinates_bijective",
        "coordinates_mutually_inverse", "fiber_rank_shift",
        "fiber_cover_correspondence", "fiber_order_isomorphism",
    ):
        assert rep.checks[name].passed, name
    # ... while the projection is not order-preserving on this class: a
    # known defect of the claimed stronger property, kept as a census
    assert not rep.checks["projection_order_preserving"].passed
    assert not rep.checks["stripped_cover_preserved"].passed


def test_projection_order_defect_witness():
    # regression pin for the documented counterexample pair
    low, high = (1, 1, 0, 1, 0, 2), (1, 0, 1, 1, 0, 2)
    from unimodal_chains.posets import cover_color
    from unimodal_chains.statistics import signature

    assert cover_color(low, high) is not None
    assert signature(low) == signature(high) == (0, 1, 1)
    assert remove_maximal_pairs(low) == (0, 1) and remove_maximal_pairs(high) == (1, 0)
    assert leq(remove_maximal_pairs(high), remove_maximal_pairs(low))
    assert not leq(remove_maximal_pairs(low), remove_maximal_pairs(high))


def _contained(x, y):
    """Partition containment of the partitions that x and y encode."""
    return all(p <= q for p, q in zip(from_gaps(x), from_gaps(y)))


def _half_size_down_sets(cls):
    """Every down-set of the class, in its induced order, of half its size."""
    elems = sorted(cls, key=rank)
    below = [
        {j for j in range(i) if _contained(elems[j], elems[i])}
        for i in range(len(elems))
    ]
    half = len(elems) // 2
    out = []

    def grow(i, chosen):
        if len(chosen) == half:
            out.append(frozenset(elems[j] for j in chosen))
        elif len(chosen) + len(elems) - i >= half:
            if below[i] <= chosen:
                grow(i + 1, chosen | {i})
            grow(i + 1, chosen)

    grow(0, frozenset())
    return out


def _rank_profile(part):
    ranks = [rank(a) for a in part]
    profile = [0] * (max(ranks) - min(ranks) + 1)
    for x in ranks:
        profile[x - min(ranks)] += 1
    return tuple(profile)


@pytest.mark.parametrize(
    "n,d,down_sets,low,high",
    [
        (3, (1, 1), 2, (1, 1, 0, 1), (1, 0, 1, 1)),
        (5, (0, 1, 1), 23, (1, 1, 0, 1, 0, 2), (1, 0, 1, 1, 0, 2)),
    ],
    ids=["n3-d11", "n5-d011"],
)
def test_no_order_preserving_projection_exists(n, d, down_sets, low, high):
    # The base of both classes is the two-element chain (1,0) < (0,1), so
    # an order-preserving projection would make the lower fiber a down-set
    # of half the class, and both fibers rank-shifted copies of L(r, ell).
    # No down-set of that size has such a split: the projection-order
    # census of the acceptance gate cannot be empty.
    cls = signature_class(n, d)
    r = degree(cls[0])
    target = gaussian(r, chain_length(n, d))
    assert {remove_maximal_pairs(a) for a in cls} == {(1, 0), (0, 1)}
    assert len(cls) == 2 * sum(target)
    candidates = _half_size_down_sets(cls)
    assert len(candidates) == down_sets
    for lower in candidates:
        upper = set(cls) - lower
        assert not (_rank_profile(lower) == target == _rank_profile(upper))
    # the witness cover adds one cell on the partition side ...
    lam, mu = from_gaps(low), from_gaps(high)
    assert _contained(low, high) and sum(mu) == sum(lam) + 1
    assert low in cls and high in cls
    # ... while its projection goes down the base
    assert (remove_maximal_pairs(low), remove_maximal_pairs(high)) == ((0, 1), (1, 0))
    assert _contained(remove_maximal_pairs(high), remove_maximal_pairs(low))


def test_decompose_class_examples():
    chains = decompose_class(2, (2, 0))
    assert len(chains) == 1 and chains[0].length == 4
    chains = decompose_class(2, (0, 1))
    assert len(chains) == 1 and chains[0].length == 0
    chains = decompose_class(5, (0, 1, 1))
    assert sum(ch.length + 1 for ch in chains) == 30
    covered = {e for ch in chains for e in ch.elements()}
    assert covered == set(signature_class(5, (0, 1, 1)))


def test_decompose_all_examples():
    dec = decompose_all(2, 2)
    assert sorted(ch.length for ch in dec.chains()) == [0, 4]
    dec0 = decompose_all(0, 9)
    assert [ch.length for ch in dec0.chains()] == [0]
    dec1 = decompose_all(1, 6)
    assert [ch.length for ch in dec1.chains()] == [6]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (5, 5), (4, 2), (2, 6)])
def test_decompose_all_partitions_poset(n, m):
    dec = decompose_all(n, m)
    seen = set()
    for ch in dec.chains():
        for e in ch.elements():
            assert e not in seen
            seen.add(e)
    assert len(seen) == count_compositions(n, m)
    assert set(dec.index) == seen


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 3)])
def test_decompose_all_flip_stable(n, m):
    ok, offenders = flip_stability(decompose_all(n, m))
    assert ok, offenders


def test_certificate_2_2():
    cert = unimodality_certificate(decompose_all(2, 2))
    assert cert.top_weights_by_length == {4: {4: 1}, 0: {0: 1}}
    assert cert.passed()
    assert cert.reconstruction == (1, 1, 2, 1, 1)


def test_certificate_reconstructs_gaussian():
    for n, m in [(3, 3), (4, 4), (5, 5), (1, 7), (6, 2)]:
        cert = unimodality_certificate(decompose_all(n, m))
        assert cert.passed()
        assert cert.reconstruction == gaussian(m, n)


def test_certificate_single_chain_poset():
    cert = unimodality_certificate(decompose_all(1, 5))
    assert cert.passed()
    assert cert.top_weights_by_length == {5: {5: 1}}


def test_fiber_rank_shift_formula():
    # ranks inside a fiber are the section rank plus the coordinate mass
    cls = signature_class(5, (0, 1, 1))
    for b in [(1, 0), (0, 1)]:
        base_rank = rank(section(b, 2, 2))
        for a in cls:
            if remove_maximal_pairs(a) == b:
                lam = fiber_coordinates(a, b)
                assert rank(a) == base_rank + sum(lam)


def test_decomposition_json_round_trip():
    dec = decompose_all(3, 3)
    data = decomposition_to_dict(dec)
    back = decomposition_from_dict(data)
    assert back.n == dec.n and back.m == dec.m
    assert back.classes == dec.classes
    assert back.index == dec.index


@pytest.mark.parametrize(
    "chains,error",
    [
        ([{"top": [1, 0, 1], "colors": []}] * 2,
         r"^element \(1, 0, 1\) covered twice$"),
        ([{"top": [0, 2, 0], "colors": [2]}],
         r"^element \(0, 2, 0\) covered twice$"),
        ([{"top": [1, 0, 1], "colors": [1]}],
         r"^element \(0, 1, 1\) covered twice$"),
        ([], "covers 5 of 6 elements"),
        ([{"top": [1, 0, 1, 0], "colors": []}], "not in L"),
        ([{"top": [1, 1, 1], "colors": []}], "not in L"),
        ([{"top": [2, -1, 1], "colors": []}], "not in L"),
    ],
    ids=["duplicated-chain", "overlap-at-the-top", "overlap-below-the-top",
         "dropped-chain", "wrong-length", "wrong-mass", "negative-entry"],
)
def test_decomposition_from_dict_rejects_non_partition(chains, error):
    # (2,2) splits into the 5-chain of class (2,0) and the singleton
    # [1,0,1] of class (0,1); replace the singleton's chain list
    data = decomposition_to_dict(decompose_all(2, 2))
    assert data["classes"][1]["chains"] == [{"top": [1, 0, 1], "colors": []}]
    data["classes"][1]["chains"] = chains
    with pytest.raises(InconsistencyError, match=error):
        decomposition_from_dict(data)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_all(-1, 2)


def test_chain_successors_match_chain_walks():
    # the successor set of verify_split_extension against a walk of every
    # chain through a, over every cover inside a class of the small sweep
    from unimodal_chains.oracle import _chain_successors, sweep_pairs
    from unimodal_chains.posets import upper_covers
    from unimodal_chains.transversal import chains_through

    covers = 0
    for n, m in sweep_pairs(1000, 12):
        if n < 2:
            continue
        for cls in signature_classes(n, m).values():
            cls_set = set(cls)
            for a in cls:
                walked = set()
                for ch in chains_through(a):
                    elems = ch.elements()
                    pos = elems.index(a)
                    walked.update(elems[pos + 1 : pos + 2])
                fast = _chain_successors(a)
                for _, up in upper_covers(a):
                    if up in cls_set:
                        covers += 1
                        assert (up in fast) == (up in walked), (a, up)
    assert covers > 10_000


def test_degree_is_constant_on_every_class_of_the_sweep():
    # split_shape's closed form is the degree of the class's highest-weight
    # element and the oracle takes r from its first element, so both need
    # degree constant on it
    from unimodal_chains.oracle import sweep_pairs

    for n, m in sweep_pairs(1000, 12):
        for cls in signature_classes(n, m).values():
            top = degree(min(cls, key=rank))
            assert {degree(a) for a in cls} == {top}, (n, m, cls[0])


def _from_gaps_calls(n, m):
    """from_gaps calls of decompose_all(n, m), all of them through
    statistics._fiber_position, with the coordinates mapped
    once per distinct (r, ell) and with them mapped again for every class
    and base element.  Each (r, ell) of degree r >= 2 maps the
    comb(r + ell, r) elements of the (r, ell) poset's chains, and
    decompose_all(r, ell) adds its own."""
    once = per_base = 0
    seen = set()
    for d, cls in signature_classes(n, m).items():
        r = degree(cls[0])
        ell = chain_length(n, d)
        if r >= 2 and ell > 0:
            sub_once, sub_per_base = _from_gaps_calls(r, ell)
            bases = len(signature_class(n - 2 * r, d[r:]))
            if (r, ell) not in seen:
                seen.add((r, ell))
                once += comb(r + ell, r) + sub_once
            per_base += comb(r + ell, r) * bases + sub_per_base
    return once, per_base


def test_decompose_all_maps_each_sub_chain_to_coordinates_once(monkeypatch):
    from unimodal_chains import statistics

    calls = []
    real = statistics.from_gaps

    def spy(comp):
        calls.append(comp)
        return real(comp)

    monkeypatch.setattr(statistics, "from_gaps", spy)
    once, per_base = _from_gaps_calls(9, 9)
    decompose_all(9, 9)
    assert len(calls) == once < per_base


def test_decompose_all_decomposes_each_sub_poset_once(monkeypatch):
    # two classes of (9, 9) have degree 2 and chain length 15; they share
    # one decomposition of L(2, 15)
    from unimodal_chains import structure

    pairs = [
        (degree(cls[0]), chain_length(9, d))
        for d, cls in signature_classes(9, 9).items()
        if degree(cls[0]) >= 2
    ]
    assert pairs.count((2, 15)) == 2
    calls = []
    real = structure.decompose_all

    def spy(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(structure, "decompose_all", spy)
    spy(9, 9)
    assert calls.count((2, 15)) == 1
    assert set(pairs) <= set(calls)


def test_decompose_all_never_classifies_its_own_poset(monkeypatch):
    # each class comes from its split step, which reads only its base
    # class, so the decomposed poset is neither classified nor memoized
    from unimodal_chains import statistics, structure

    real = statistics.signature_classes
    calls = []

    def spy(n, m):
        calls.append((n, m))
        return real(n, m)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "signature_classes", spy)
    monkeypatch.setattr(structure, "signature_classes", spy, raising=False)
    try:
        dec = decompose_all(9, 9)
        monkeypatch.undo()
        assert calls and (9, 9) not in calls
        # one miss: (9, 9) is new to the memo, its base posets are not
        misses = real.cache_info().misses
        real(9, 9)
        assert real.cache_info().misses == misses + 1
    finally:
        statistics.clear_caches()
    assert len(dec.index) == count_compositions(9, 9)


def test_decompose_class_never_classifies_its_poset(monkeypatch):
    # d is checked and the size guards run, but each class comes from its
    # split step, as in decompose_all, which gives it the same chains
    from unimodal_chains import statistics, structure
    from unimodal_chains.statistics import enumerate_signatures

    real = statistics.signature_classes
    calls = []

    def spy(n, m):
        calls.append((n, m))
        return real(n, m)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "signature_classes", spy)
    monkeypatch.setattr(structure, "signature_classes", spy, raising=False)
    try:
        chains = {d: decompose_class(9, d) for d in enumerate_signatures(9, 9)}
        monkeypatch.undo()
        assert calls and (9, 9) not in calls
        dec = decompose_all(9, 9)
    finally:
        statistics.clear_caches()
    assert chains == {cd.signature: list(cd.chains) for cd in dec.classes}


@pytest.mark.parametrize("n, m, flat", [(6, 6, []), (6, 8, [(0, 0, 0, 2)])])
def test_decompose_all_takes_its_tops_from_the_base_classes(n, m, flat):
    # the section images are written from the memoized base classes, so
    # decompose_all iterates no class of (n, m); those of transversal
    # length 0 are their tops as one-point chains
    from unimodal_chains import statistics

    iterated = []

    class Spy(tuple):
        def __iter__(self):
            iterated.append(self.signature)
            return super().__iter__()

    statistics.clear_caches()
    classes = signature_classes(n, m)
    for d, cls in classes.items():
        classes[d] = Spy(cls)
        classes[d].signature = d
    try:
        dec = decompose_all(n, m)
        assert iterated == []
        assert flat == [d for d in classes if chain_length(n, d) == 0]
        for cd in dec.classes:
            if cd.signature in flat:
                assert all(ch.colors == () for ch in cd.chains)
                assert {ch.top for ch in cd.chains} == set(classes[cd.signature])
    finally:
        statistics.clear_caches()
    assert len(dec.index) == count_compositions(n, m)


@pytest.mark.parametrize("n, m, own, memos", [(9, 9, 18, 46), (12, 7, 17, 42)])
def test_decompose_all_classifies_only_the_posets_it_decomposes(
    monkeypatch, n, m, own, memos
):
    # classifying a poset memoizes it with its base posets; decompose_all
    # adds base posets of the posets it decomposes, and nothing that
    # classifying each of those posets would not memoize
    from unimodal_chains import statistics, structure

    decomposed = []
    real = structure.decompose_all

    def spy(n, m):
        decomposed.append((n, m))
        return real(n, m)

    monkeypatch.setattr(structure, "decompose_all", spy)
    statistics.clear_caches()
    signature_classes(n, m)
    assert statistics.signature_classes.cache_info().currsize == own
    spy(n, m)
    assert own < statistics.signature_classes.cache_info().currsize < memos
    for pair in decomposed:
        signature_classes(*pair)
    assert statistics.signature_classes.cache_info().currsize == memos
    statistics.clear_caches()
    for pair in decomposed:
        signature_classes(*pair)
    assert statistics.signature_classes.cache_info().currsize == memos
    statistics.clear_caches()


@pytest.mark.parametrize("n, m, memos", [(9, 9, 40), (12, 7, 37)])
def test_decompose_all_classifies_only_the_base_posets_of_the_posets_it_decomposes(
    monkeypatch, n, m, memos
):
    # decompose_all classifies neither (n, m) nor the (r, ell) posets
    # whose chains it transports, only the base posets of their classes,
    # each memoized with its own base posets
    from unimodal_chains import statistics, structure
    from unimodal_chains.statistics import enumerate_signatures, highest_weight

    decomposed = []
    real = structure.decompose_all

    def spy(n, m):
        decomposed.append((n, m))
        return real(n, m)

    monkeypatch.setattr(structure, "decompose_all", spy)
    statistics.clear_caches()
    spy(n, m)
    assert statistics.signature_classes.cache_info().currsize == memos
    statistics.clear_caches()
    for a, b in decomposed:
        for d in enumerate_signatures(a, b):
            r = degree(highest_weight(a, d))
            signature_classes(a - 2 * r, b - r * sum(d))
    assert statistics.signature_classes.cache_info().currsize == memos
    statistics.clear_caches()


def test_fiber_points_are_the_coordinate_maps_images():
    # statistics walks each fiber whole; its i-th point is fiber_element's
    # image of the i-th weakly increasing coordinate vector in [0, ell]^r,
    # in colex order (the last coordinate varies slowest), and i is the
    # _fiber_position of the vector's element of the (r, ell) poset
    from unimodal_chains import statistics
    from unimodal_chains.posets import to_gaps
    from unimodal_chains.oracle import sweep_pairs
    from unimodal_chains.statistics import highest_weight

    fibers = 0
    for n, m in sweep_pairs(1000, 12):
        if n < 2 or m == 0 or count_compositions(n, m) > 5000:
            continue
        for d in signature_classes(n, m):
            r = degree(highest_weight(n, d))
            ell = chain_length(n, d)
            s = sum(d)
            order = sorted(combinations_with_replacement(range(ell + 1), r),
                           key=lambda lam: lam[::-1])
            for b in signature_class(n - 2 * r, d[r:]):
                points = statistics._fiber_points(section(b, r, s), r, ell)
                assert len(points) == len(order) == comb(r + ell, r)
                for i, (lam, point) in enumerate(zip(order, points)):
                    assert point == fiber_element(lam, b, s), (n, d, b, lam)
                    assert statistics._fiber_position(to_gaps(lam, ell)) == i
                fibers += 1
    assert fibers == 689
    statistics.clear_caches()


def test_certificate_stacks_each_element_of_a_shortened_chain():
    # the certificate reads only the decomposition handed to it: with one
    # chain cut short, its reconstruction is the per-element stacking of
    # the chains as they are, which misses the Gaussian coefficients
    from dataclasses import replace

    from unimodal_chains.structure import Chain, Decomposition

    dec = decompose_all(4, 4)
    cd = max(dec.classes, key=lambda cd: cd.ell)
    short = Chain(cd.chains[0].top, cd.chains[0].colors[:-2])
    classes = tuple(
        replace(c, chains=(short,) + c.chains[1:]) if c is cd else c
        for c in dec.classes
    )
    cut = Decomposition(dec.n, dec.m, classes, dec.index)
    stacked = [0] * (4 * 4 + 1)
    for ch in cut.chains():
        for e in ch.elements():
            stacked[rank(e)] += 1
    cert = unimodality_certificate(cut)
    assert cert.reconstruction == tuple(stacked)
    assert sum(stacked) == count_compositions(4, 4) - 2
    assert cert.matches_gaussian is False
    assert not cert.passed()


@pytest.mark.parametrize("n,m,built", [(9, 9, 51_616), (12, 7, 54_895)])
def test_decompose_all_walks_each_element_once(monkeypatch, n, m, built):
    # cold caches: the classification's fiber walks plus one walk per
    # chain of the degree 0 and 1 classes, here and in each (r, ell)
    # poset transported; the transported images are indexed as they are,
    # and the (r, ell) chains are read from their own index, not walked
    # again.
    from unimodal_chains import posets, statistics, structure, transversal

    real = posets.walk_down
    steps = []

    def spy(comp, colors):
        out = real(comp, colors)
        steps.append(len(out) - 1)
        return out

    for module in (posets, statistics, structure, transversal):
        if getattr(module, "walk_down", None) is real:
            monkeypatch.setattr(module, "walk_down", spy)
    statistics.clear_caches()
    try:
        dec = decompose_all(n, m)
    finally:
        statistics.clear_caches()
    assert sum(steps) == built
    assert len(dec.index) == count_compositions(n, m)
