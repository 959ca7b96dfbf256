import pytest

from unimodal_chains.oracle import sweep_pairs
from unimodal_chains.posets import cover_color, enumerate_compositions, flip, weight
from unimodal_chains.statistics import (
    chain_length,
    clear_caches,
    maximal_structure,
    signature,
    signature_classes,
)
from unimodal_chains.structure import decompose_all
from unimodal_chains.transversal import (
    Chain,
    chains_through,
    closed_form_colors,
    closed_form_terminal,
    flip_chain,
    is_initial,
    is_terminal,
    lower_run,
    raise_run,
    transversal_chain,
)


def test_initial_terminal_examples():
    assert is_initial((2, 0, 1, 0, 0, 2)) and is_terminal((2, 0, 1, 0, 0, 2))
    assert is_initial((2, 0, 0)) and not is_terminal((2, 0, 0))
    assert not is_initial((0, 1, 1)) and not is_terminal((0, 1, 1))


def test_raise_run_examples():
    assert raise_run((0, 1, 1), 1) == [(0, 1, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert raise_run((2, 0, 0), 0) == [(2, 0, 0)]
    assert raise_run((1, 0, 1), 0) == [(1, 0, 1)]


def test_raise_run_weights_increase():
    run = raise_run((0, 1, 1), 1)
    assert [weight(c) for c in run] == [-2, 0, 2, 4]


def test_lower_run_examples():
    assert lower_run((2, 0, 0), 0) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    ]
    assert lower_run((0, 0, 2), 1) == [(0, 0, 2)]
    assert lower_run((2, 0, 1, 0, 0, 2), 4) == [(2, 0, 1, 0, 0, 2)]


def test_run_rejects_non_maximal_pair():
    with pytest.raises(ValueError):
        raise_run((2, 0, 1), 1)
    with pytest.raises(ValueError):
        lower_run((2, 0, 1), 1)


def test_transversal_chain_example():
    ch = transversal_chain((2, 0, 0), 0)
    assert ch.top == (2, 0, 0)
    assert ch.colors == (1, 1, 2, 2)
    assert ch.bottom() == (0, 0, 2)
    assert ch.length == 4
    assert ch.elements() == lower_run((2, 0, 0), 0)


def test_chain_through_interior_element():
    ch = transversal_chain((0, 1, 1), 1)
    assert (0, 1, 1) in ch.elements()
    assert ch.top == (2, 0, 0) and ch.bottom() == (0, 0, 2)


def test_component_invariance():
    assert transversal_chain((0, 2, 0), 0) == transversal_chain((0, 2, 0), 1)
    for comp in enumerate_compositions(4, 4):
        ms = maximal_structure(comp)
        for start, end in ms.components:
            chains = {transversal_chain(comp, i) for i in range(start, end + 1)}
            assert len(chains) == 1


def test_chains_through_examples():
    assert len(chains_through((2, 0, 1, 0, 0, 2))) == 2
    assert len(chains_through((0, 2, 0))) == 1
    assert len(chains_through((2, 0, 2, 0, 1, 0))) == 1
    singleton = chains_through((1, 0, 1))
    assert len(singleton) == 1 and singleton[0].length == 0


def test_chains_through_zero_mass():
    chains = chains_through((0, 0, 0, 0))
    assert len(chains) == 1 and chains[0].length == 0


def test_closed_form_examples():
    assert closed_form_colors((2, 0, 0)) == (1, 1, 2, 2)
    assert closed_form_colors((1, 0, 1)) == ()
    assert closed_form_terminal((2, 0, 0)) == (0, 0, 2)
    assert closed_form_terminal((3, 0, 1, 2)) == (1, 2, 0, 3)
    with pytest.raises(ValueError):
        closed_form_colors((0, 1, 1))


def test_closed_form_matches_stepwise_exhaustive():
    for comp in enumerate_compositions(5, 4):
        if sum(comp) and is_initial(comp):
            ch = transversal_chain(comp, 0)
            assert ch.colors == closed_form_colors(comp)
            assert ch.bottom() == closed_form_terminal(comp)


def test_chain_materialization_consistency():
    ch = Chain((2, 0, 0), (1, 1, 2, 2))
    elems = ch.elements()
    assert len(elems) == 5
    for low, high in zip(elems, elems[1:]):
        assert cover_color(low, high) is not None
        assert weight(low) - weight(high) == 2


def test_bottom_is_the_last_element_of_every_decomposition_chain():
    for n, m in sweep_pairs(1000, 12) + [(9, 9)]:
        for ch in decompose_all(n, m).chains():
            assert ch.bottom() == ch.elements()[-1]
        clear_caches()


def test_bottom_refuses_colors_it_cannot_apply():
    with pytest.raises(ValueError, match="color 3 not applicable"):
        Chain((2, 0, 0), (1, 3)).bottom()
    with pytest.raises(ValueError, match="negative"):
        Chain((1, 0, 0), (1, 1)).bottom()
    # the counts fit but the order does not: only the walk catches it
    ch = Chain((1, 0, 0), (2, 1))
    assert ch.bottom() == (0, 0, 1)
    with pytest.raises(ValueError, match="color 2 not applicable"):
        ch.elements()


def test_chain_dict_round_trip():
    ch = transversal_chain((2, 0, 0), 0)
    assert Chain.from_dict(ch.to_dict()) == ch


def test_statistics_invariant_along_chains():
    for comp in enumerate_compositions(4, 4):
        d = signature(comp)
        for ch in chains_through(comp):
            assert all(signature(e) == d for e in ch.elements())


def test_uniform_length_within_class():
    for n, m in [(3, 3), (4, 4), (5, 3)]:
        for d, cls in signature_classes(n, m).items():
            expected = chain_length(n, d)
            for a in cls:
                for ch in chains_through(a):
                    assert ch.length == expected


def test_flip_chain_duality():
    for comp in enumerate_compositions(4, 4):
        if sum(comp) and is_initial(comp):
            ch = transversal_chain(comp, 0)
            mirrored = transversal_chain(flip(ch.bottom()), 0)
            assert flip_chain(ch) == mirrored
            assert sorted(flip_chain(ch).elements()) == sorted(
                flip(e) for e in ch.elements()
            )


def test_endpoint_duality():
    for comp in enumerate_compositions(4, 3):
        if sum(comp) and is_initial(comp):
            ch = transversal_chain(comp, 0)
            bottom = ch.bottom()
            rightmost = max(maximal_structure(bottom).mset)
            assert raise_run(bottom, rightmost)[::-1] == ch.elements()


def _unit_raise(comp, i):
    """Raising one cover at a time, by the rule in the module docstring."""
    a, elems, colors = list(comp), [comp], []
    while i >= 1 or a[1] > 0:
        if i >= 1 and a[i + 1] <= a[i - 1]:
            i -= 1  # drift left
            continue
        a[i] += 1
        a[i + 1] -= 1
        elems.append(tuple(a))
        colors.append(i + 1)
    return elems, colors


def _unit_lower(comp, i):
    """Lowering one cover at a time, the mirror of _unit_raise."""
    n = len(comp) - 1
    a, elems, colors = list(comp), [comp], []
    j = i + 1
    while j < n or a[n - 1] > 0:
        if j < n and a[j - 1] <= a[j + 1]:
            j += 1  # drift right
            continue
        a[j - 1] -= 1
        a[j] += 1
        elems.append(tuple(a))
        colors.append(j)
    return elems, colors


def test_bulk_walks_match_unit_steps_over_the_sweep():
    from unimodal_chains.oracle import sweep_pairs
    from unimodal_chains.statistics import degree, remove_maximal_pairs
    from unimodal_chains.structure import fiber_coordinates

    walks = 0
    for n, m in sweep_pairs(1000, 12):
        if n < 1:
            continue
        for a in enumerate_compositions(n, m):
            for i in maximal_structure(a).mset:
                up, up_colors = _unit_raise(a, i)
                down, down_colors = _unit_lower(a, i)
                assert raise_run(a, i) == up, (a, i)
                assert lower_run(a, i) == down, (a, i)
                ch = transversal_chain(a, i)
                assert ch.top == up[-1], (a, i)
                assert ch.colors == tuple(up_colors[::-1] + down_colors), (a, i)
                walks += 1
            steps = []
            cur = a
            for _ in range(degree(a)):
                up, up_colors = _unit_raise(cur, maximal_structure(cur).mset[0])
                steps.append(len(up_colors))
                cur = up[-1][2:]
            assert fiber_coordinates(a, remove_maximal_pairs(a)) == tuple(steps), a
    assert walks > 20_000


def test_chains_through_checks_no_pair_its_scan_found(monkeypatch):
    # the runs of chains_through's own scan start at maximal pairs, so it
    # takes no spread per chain; transversal_chain still checks its index
    from unimodal_chains import transversal

    calls = []
    real = transversal.spread
    monkeypatch.setattr(transversal, "spread",
                        lambda comp: calls.append(comp) or real(comp))
    comp = (2, 0, 1, 0, 0, 2)
    chains = chains_through(comp)
    assert calls == []
    assert chains == [transversal_chain(comp, 0), transversal_chain(comp, 4)]
    with pytest.raises(ValueError, match="not a maximal pair"):
        transversal_chain(comp, 1)
