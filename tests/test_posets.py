import itertools
import re

import pytest
from hypothesis import given, strategies as st

from unimodal_chains import posets


def small_compositions():
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1)
    ).map(tuple)


def small_partitions():
    return st.lists(st.integers(0, 4), min_size=0, max_size=5).map(
        lambda xs: tuple(sorted(xs))
    )


def test_parse_format_round_trip():
    assert posets.parse_composition("[2,0,1,0,0,2]") == (2, 0, 1, 0, 0, 2)
    assert posets.parse_composition("[]") == ()
    assert posets.format_composition((1, 0, 1)) == "[1,0,1]"
    with pytest.raises(ValueError):
        posets.parse_composition("2,0,1")
    with pytest.raises(ValueError):
        posets.parse_composition("[1,-2]")


@pytest.mark.parametrize("text", ["[1_0,2]", "[+2,0]", "[\uff13]", "[1.0]", "[0x1]", "[- 1]"])
def test_parse_composition_takes_only_plain_integers(text):
    # int() would take the first three; an entry is an optional "-" and
    # ASCII digits
    with pytest.raises(ValueError, match="non-integer entry in composition"):
        posets.parse_composition(text)


def test_parse_composition_keeps_whitespace_and_negative_entries_apart():
    assert posets.parse_composition(" [ 1 , 0,2 ] ") == (1, 0, 2)
    assert posets.parse_integers(" -3,\t4 ") == (-3, 4)
    with pytest.raises(ValueError, match="negative entry in composition"):
        posets.parse_composition("[1, -2]")


def test_to_counts_examples():
    assert posets.to_counts((0, 1, 1, 3), 3) == (1, 2, 0, 1)
    assert posets.to_counts((), 2) == (0, 0, 0)
    assert posets.to_counts((2, 2), 2) == (0, 0, 2)


def test_from_counts_examples():
    assert posets.from_counts((1, 2, 0, 1)) == (0, 1, 1, 3)
    assert posets.from_counts((3,)) == (0, 0, 0)
    assert posets.from_counts((0, 0, 2)) == (2, 2)


def test_counts_rank_preserved():
    comp = posets.to_counts((0, 1, 1, 3), 3)
    assert posets.rank(comp) == sum((0, 1, 1, 3))


@given(small_partitions(), st.integers(0, 6))
def test_counts_round_trip(parts, extra):
    bound = (parts[-1] if parts else 0) + extra
    comp = posets.to_counts(parts, bound)
    assert sum(comp) == len(parts)
    assert posets.from_counts(comp) == parts


def test_conjugate_examples():
    assert posets.conjugate((0, 1, 1, 3), 3) == (1, 1, 3)
    assert posets.conjugate((), 3) == (0, 0, 0)
    assert posets.conjugate((2, 2), 2) == (2, 2)


@given(small_partitions(), st.integers(0, 6))
def test_conjugate_involution(parts, extra):
    bound = (parts[-1] if parts else 0) + extra
    other = posets.conjugate(parts, bound)
    assert posets.conjugate(other, len(parts)) == parts


@pytest.mark.parametrize("encode, parts", [
    (posets.to_counts, (-1,)), (posets.conjugate, (-1, 2)), (posets.to_gaps, (-1,))])
def test_a_negative_part_is_named(encode, parts):
    with pytest.raises(ValueError, match=re.escape(f"negative part -1 in {parts}")):
        encode(parts, 3)
    with pytest.raises(ValueError, match=r"parts not weakly increasing: \(2, 1\)"):
        encode((2, 1), 3)


def test_gaps_examples():
    assert posets.to_gaps((1, 1, 3), 4) == (1, 2, 0, 1)
    assert posets.to_gaps((0, 0, 0), 5) == (5, 0, 0, 0)
    assert posets.to_gaps((1, 1), 2) == (1, 0, 1)
    assert posets.from_gaps((1, 2, 0, 1)) == (1, 1, 3)
    assert posets.from_gaps((7,)) == ()


def test_gaps_equal_counts_of_conjugate():
    # commuting triangle of encodings, exhaustively on a small box
    for parts in itertools.combinations_with_replacement(range(5), 3):
        assert posets.to_gaps(parts, 4) == posets.to_counts(
            posets.conjugate(parts, 4), 3
        )


def test_flip_examples():
    assert posets.flip((2, 0, 1, 0, 0, 2)) == (2, 0, 0, 1, 0, 2)
    assert posets.flip((3, 0, 0)) == (0, 0, 3)
    assert posets.flip((1, 0, 1)) == (1, 0, 1)


@given(small_compositions())
def test_flip_involution_and_weight(comp):
    assert posets.flip(posets.flip(comp)) == comp
    assert posets.weight(posets.flip(comp)) == -posets.weight(comp)


def test_rank_weight_examples():
    assert posets.rank((2, 0, 0)) == 0
    assert posets.rank((0, 0, 2)) == 4
    assert posets.rank((1, 2, 0, 1)) == 5
    assert posets.weight((2, 0, 0)) == 4
    assert posets.weight((0, 2, 0)) == 0
    assert posets.weight((0, 0, 2)) == -4


def test_weight_parity():
    for comp in posets.enumerate_compositions(3, 4):
        assert (posets.weight(comp) - 12) % 2 == 0


def test_leq_examples():
    assert posets.leq((2, 0, 0), (0, 0, 2))
    assert posets.leq((1, 0, 1), (1, 0, 1))
    assert not posets.leq((1, 0, 1), (0, 2, 0))
    assert not posets.leq((0, 2, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        posets.leq((1, 0), (1, 0, 0))


def test_leq_matches_componentwise_partition_order():
    elements = list(posets.enumerate_compositions(3, 3))
    for x, y in itertools.product(elements, repeat=2):
        direct = all(
            a <= b for a, b in zip(posets.from_counts(x), posets.from_counts(y))
        )
        assert posets.leq(x, y) == direct


def test_leq_flip_anti_automorphism():
    elements = list(posets.enumerate_compositions(3, 3))
    for x, y in itertools.product(elements, repeat=2):
        assert posets.leq(x, y) == posets.leq(posets.flip(y), posets.flip(x))


def test_cover_color_examples():
    assert posets.cover_color((2, 0, 0), (1, 1, 0)) == 1
    assert posets.cover_color((0, 2, 0), (0, 1, 1)) == 2
    assert posets.cover_color((2, 0, 0), (0, 2, 0)) is None
    assert posets.cover_color((1, 1, 0), (2, 0, 0)) is None
    for lower, upper in [((1, 0), (1, 0, 0)), ((0, 1, 0), (1, 0)), ((), (1,))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            posets.cover_color(lower, upper)


def test_covers_are_rank_one_comparable_pairs():
    elements = list(posets.enumerate_compositions(2, 3))
    for x, y in itertools.product(elements, repeat=2):
        c = posets.cover_color(x, y)
        if c is not None:
            assert posets.rank(y) == posets.rank(x) + 1
            assert posets.leq(x, y)
            assert posets.apply_color_down(x, c) == y


def test_upper_lower_covers_agree():
    for comp in posets.enumerate_compositions(3, 3):
        for color, up in posets.upper_covers(comp):
            assert posets.cover_color(comp, up) == color
            assert (color, comp) in posets.lower_covers(up)


def test_enumerate_counts():
    assert len(list(posets.enumerate_compositions(2, 2))) == 6
    assert list(posets.enumerate_compositions(0, 5)) == [(5,)]
    assert list(posets.enumerate_compositions(-1, 0)) == [()]
    for n, m in [(3, 4), (4, 3), (5, 2), (2, 0)]:
        got = list(posets.enumerate_compositions(n, m))
        assert len(got) == posets.count_compositions(n, m)
        assert len(set(got)) == len(got)
        assert all(sum(c) == m and len(c) == n + 1 for c in got)


def test_enumerate_lexicographic():
    got = list(posets.enumerate_compositions(2, 2))
    assert got == sorted(got)
    assert got[0] == (0, 0, 2) and got[-1] == (2, 0, 0)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        list(posets.enumerate_compositions(-1, 1))
    with pytest.raises(ValueError):
        list(posets.enumerate_compositions(-2, 0))
    with pytest.raises(posets.ResourceGuardError):
        list(posets.enumerate_compositions(2**20, 2**20))


def test_enumerate_bounds_entries_not_only_elements():
    # 998,991 elements, below MAX_POSET_SIZE, but of 1,413 entries each
    assert posets.count_compositions(1412, 2) <= posets.MAX_POSET_SIZE
    with pytest.raises(posets.ResourceGuardError, match="MAX_POSET_SIZE"):
        next(posets.enumerate_compositions(1412, 2))
    # the long thin and the largest square posets stay admitted
    for n, m in [(2000, 1), (11, 11)]:
        assert len(next(posets.enumerate_compositions(n, m))) == n + 1


@pytest.mark.parametrize(
    "top,colors,at,bad",
    [
        ((3, 0, 0), (2, 1), (3, 0, 0), 2),  # entry 1 is empty at the top
        ((2, 1, 0), (1, 1, 1), (0, 3, 0), 1),  # entry 0 runs out mid-walk
        ((1, 1, 0), (2, 3), (1, 0, 1), 3),  # no entry 3
        ((1, 1, 0), (0,), (1, 1, 0), 0),  # no entry -1
    ],
)
def test_walk_down_raises_the_text_of_one_step(top, colors, at, bad):
    with pytest.raises(ValueError) as walked:
        posets.walk_down(top, colors)
    with pytest.raises(ValueError) as stepped:
        posets.apply_color_down(at, bad)
    assert str(walked.value) == str(stepped.value) == f"color {bad} not applicable to {at}"


def test_walk_down_takes_unit_steps():
    for comp in posets.enumerate_compositions(3, 3):
        for color, low in posets.lower_covers(comp):
            assert posets.walk_down(low, (color,)) == [low, comp]
            assert posets.apply_color_down(low, color) == comp


def _cover_color_by_definition(lower, upper):
    # the entries where the two differ must be two neighbours i, i + 1,
    # with one unit moved from i in lower to i + 1 in upper
    diff = [i for i, (a, b) in enumerate(zip(lower, upper)) if a != b]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return None
    i = diff[0]
    if upper[i] == lower[i] - 1 and upper[i + 1] == lower[i + 1] + 1:
        return i + 1
    return None


@pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (2, 6), (6, 2)])
def test_cover_color_equals_its_definition_on_every_pair(n, m):
    elements = list(posets.enumerate_compositions(n, m))
    for x, y in itertools.product(elements, repeat=2):
        assert posets.cover_color(x, y) == _cover_color_by_definition(x, y), (x, y)

