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
from unimodal_chains.oracle import verify_split_extension


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
            r = degree(cls[0]) if cls else 0
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
        ([{"top": [1, 0, 1], "colors": []}] * 2, "covered twice"),
        ([], "covers 5 of 6 elements"),
        ([{"top": [1, 0, 1, 0], "colors": []}], "not in L"),
        ([{"top": [1, 1, 1], "colors": []}], "not in L"),
        ([{"top": [2, -1, 1], "colors": []}], "not in L"),
    ],
    ids=["duplicated-chain", "dropped-chain", "wrong-length", "wrong-mass",
         "negative-entry"],
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
    # _class_decomposition takes r from any element of the class; before,
    # it took the degree of the class's lowest-rank element
    from unimodal_chains.oracle import sweep_pairs

    for n, m in sweep_pairs(1000, 12):
        for cls in signature_classes(n, m).values():
            if cls:
                top = degree(min(cls, key=rank))
                assert {degree(a) for a in cls} == {top}, (n, m, cls[0])
