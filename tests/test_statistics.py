import pytest
from hypothesis import given, strategies as st

from unimodal_chains import posets, statistics
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
    spread,
)


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


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 3), (5, 5), (6, 2)])
def test_classes_partition_poset(n, m):
    classes = signature_classes(n, m)
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


def test_highest_weight_examples():
    assert highest_weight(5, (0, 1, 1)) == (2, 0, 2, 0, 1, 0)
    assert highest_weight(2, (2, 0)) == (2, 0, 0)
    assert highest_weight(2, (0, 1)) == (1, 0, 1)


def test_highest_weight_is_class_maximum():
    for n, m in [(3, 3), (4, 4), (5, 3)]:
        for d, cls in signature_classes(n, m).items():
            if not cls:
                continue
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


def test_degree_formula_boundary_case():
    # the recursion-computed degree of (1,0,1) is 1 while the leading-zero
    # formula gives 2; the recursion is ground truth here
    d = signature((1, 0, 1))
    assert d == (0, 1)
    assert degree((1, 0, 1)) == 1
    assert 1 + min(j for j, dj in enumerate(d) if dj > 0) == 2


def test_signature_class_wrong_length_rejected():
    with pytest.raises(ValueError):
        signature_class(4, (1, 0))


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
        assert statistics._components(comp) == (s, runs), comp
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

    real = statistics._components
    calls = []

    def spy(comp):
        calls.append(comp)
        return real(comp)

    statistics.clear_caches()
    monkeypatch.setattr(statistics, "_components", spy)
    for comp in enumerate_compositions(n, m):
        signature(comp)
    assert signature.cache_info().misses == len(reached)
    assert Counter(calls) == Counter(steps)
    assert len(calls) > posets.count_compositions(n, m)
