import hashlib
import sys
from collections import Counter
from itertools import chain, repeat
from math import comb
from operator import add

import pytest

from unimodal_chains.posets import ResourceGuardError, enumerate_compositions, rank
from unimodal_chains.qpoly import (
    GAUSSIAN_RECURSION_MAX,
    _gaussian_product,
    format_coefficients,
    gaussian,
    is_symmetric,
    is_unimodal,
    rank_generating_function,
)
from unimodal_chains.statistics import signature_class


def test_gaussian_examples():
    assert gaussian(2, 2) == (1, 1, 2, 1, 1)
    assert gaussian(5, 0) == (1,)
    assert gaussian(0, 7) == (1,)
    assert gaussian(1, 4) == (1, 1, 1, 1, 1)
    assert gaussian(3, 3) == (1, 1, 2, 3, 3, 3, 3, 2, 1, 1)


def test_gaussian_degree_and_total():
    from math import comb

    for m, n in [(2, 3), (4, 4), (5, 2), (6, 1)]:
        g = gaussian(m, n)
        assert len(g) == m * n + 1
        assert sum(g) == comb(m + n, m)


def test_gaussian_conjugation_symmetry():
    for m in range(7):
        for n in range(7):
            assert gaussian(m, n) == gaussian(n, m)


def test_gaussian_symmetric_unimodal_sweep():
    for m in range(8):
        for n in range(8):
            g = gaussian(m, n)
            assert is_symmetric(g)
            assert is_unimodal(g)


def test_gaussian_arbitrary_precision():
    g = gaussian(40, 40)
    assert max(g) > 2**64
    assert sum(g) == 107507208733336176461620  # C(80, 40)
    assert is_symmetric(g) and is_unimodal(g)


def test_gaussian_values_over_the_grid_are_pinned():
    # sha256 of the recursion's values before one memo entry served both orders
    text = "\n".join(
        ",".join(map(str, gaussian(m, n))) for m in range(41) for n in range(41)
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "6de53c2bf986c4ffa150f754c1537df6ec179db5890d48e6a76fa6bbc4df2d12"
    )


def test_gaussian_serves_both_orders_of_a_box_from_one_entry():
    gaussian.cache_clear()
    g = gaussian(12, 7)
    assert gaussian(7, 12) is g
    gaussian.cache_clear()
    gaussian(40, 40)
    # 820 computed boxes 1 <= m <= n <= 40, 41 empty ones ((0, 1) to
    # (0, 40) and (1, 0)) and 39 mirrored (k, k-1) for k = 2..40; with one
    # entry per ordered box the recursion left 1,680
    assert gaussian.cache_info().currsize == 900


def _cold_depth(m, n):
    """Most gaussian frames on the stack at once during a cold gaussian(m, n)."""
    code = gaussian.__wrapped__.__code__
    depth = deepest = 0

    def trace(frame, event, arg):
        nonlocal depth, deepest
        if frame.f_code is code:
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1
        return trace

    gaussian.cache_clear()
    old = sys.gettrace()
    sys.settrace(trace)
    try:
        gaussian(m, n)
    finally:
        sys.settrace(old)
    return deepest


@pytest.mark.parametrize(
    "m, n",
    [(m, n) for m in range(13) for n in range(13)]
    + [(1, 30), (5, 30), (40, 40), (1, 79), (79, 1)],
)
def test_a_cold_gaussian_goes_at_most_m_plus_n_plus_one_frames_deep(m, n):
    assert _cold_depth(m, n) <= m + n + 1


def test_a_box_beyond_the_switch_memoizes_only_itself():
    # the recursion left 5,250 entries here, every smaller box's
    gaussian.cache_clear()
    gaussian(100, 100)
    assert gaussian.cache_info().currsize == 1


def test_gaussian_resource_guard():
    with pytest.raises(ResourceGuardError):
        gaussian(100_000, 100_000)
    # degree 1,000,000 passes MAX_GAUSSIAN_DEGREE, but the product formula
    # would take about 10**9 integer steps
    with pytest.raises(ResourceGuardError, match="work"):
        gaussian(1000, 1000)


@pytest.mark.parametrize("m", [1, 2, 7, 30])
def test_gaussian_paths_agree_around_the_switch(m):
    # from cold, inside pytest's deeper stack: the recursion reaches the
    # switch without a RecursionError
    gaussian.cache_clear()
    for total in range(GAUSSIAN_RECURSION_MAX - 4, GAUSSIAN_RECURSION_MAX + 5):
        n = total - m
        g = gaussian(m, n)
        # at or below the switch, the recursion's value is the product's
        assert g == _gaussian_product(m, n)
        # above it, the product's value is one recursion step from the
        # boxes below
        assert g == tuple(map(add, chain(gaussian(m - 1, n), repeat(0, n)),
                              chain(repeat(0, m), gaussian(m, n - 1))))


@pytest.mark.parametrize(
    "m, n", [(1, 498), (2000, 10), (3, 298), (40, 1600), (151, 150), (161, 170)]
)
def test_gaussian_beyond_the_switch(m, n):
    g = gaussian(m, n)
    assert gaussian(n, m) is g
    assert len(g) == m * n + 1
    assert sum(g) == comb(m + n, n)
    assert is_symmetric(g)


def test_rank_gf_examples():
    assert rank_generating_function(enumerate_compositions(2, 2)) == (1, 1, 2, 1, 1)
    assert rank_generating_function(signature_class(2, (0, 1))) == (0, 0, 1)
    assert rank_generating_function([]) == ()


def test_rank_gf_matches_gaussian_small():
    for m, n in [(3, 4), (4, 3), (5, 5), (1, 9), (0, 3)]:
        assert rank_generating_function(enumerate_compositions(n, m)) == gaussian(m, n)


def test_predicates():
    assert is_symmetric((1, 1, 2, 1, 1))
    assert is_unimodal((1, 1, 2, 1, 1))
    assert not is_unimodal((1, 0, 1))
    assert is_symmetric(()) and is_unimodal(())
    assert is_symmetric((5,)) and is_unimodal((5,))
    assert not is_symmetric((1, 2))
    assert is_unimodal((1, 2, 2))
    assert is_unimodal((3, 1))


def test_format():
    assert format_coefficients((1, 1, 2, 1, 1)) == "1,1,2,1,1"
    assert format_coefficients(()) == ""


def test_rank_gf_is_the_histogram_of_rank():
    # on a class, on whole posets and on no element, as a sequence and as
    # a one-pass iterator
    for elements in (signature_class(6, (1, 1, 0, 1)),
                     tuple(enumerate_compositions(5, 4)),
                     tuple(enumerate_compositions(7, 0)), ()):
        counts = Counter(map(rank, elements))
        expected = tuple(counts[i] for i in range(max(counts, default=-1) + 1))
        assert rank_generating_function(elements) == expected
        assert rank_generating_function(iter(elements)) == expected
