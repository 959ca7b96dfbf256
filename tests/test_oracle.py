import pytest

from unimodal_chains import oracle


def test_spread_degree_via_partition_examples():
    assert oracle.spread_degree_via_partition((1, 0, 1)) == (1, 1)
    assert oracle.spread_degree_via_partition((2, 0, 1, 0, 0, 2)) == (2, 2)
    assert oracle.spread_degree_via_partition((5, 0, 0)) == (5, 1)
    with pytest.raises(ValueError):
        oracle.spread_degree_via_partition((5,))


def test_partition_side_matches_library_exhaustive():
    from unimodal_chains.posets import enumerate_compositions
    from unimodal_chains.statistics import degree, spread

    for comp in enumerate_compositions(5, 5):
        assert oracle.spread_degree_via_partition(comp) == (
            spread(comp), degree(comp)
        )


@pytest.mark.parametrize("n,m", [(0, 0), (0, 4), (1, 5), (2, 2), (3, 4), (5, 5)])
def test_check_statistics_passes(n, m):
    rep = oracle.check_statistics(n, m)
    assert rep.failed_names() == []


def test_degree_formula_census_contains_boundary_element():
    rep = oracle.check_statistics(2, 2)
    census = next(c for c in rep.checks if c.name == "degree_formula")
    assert [1, 0, 1] in census.info["census"]
    assert census.info["census_size"] == 1


@pytest.mark.parametrize("n,m", [(0, 0), (1, 4), (2, 2), (3, 3), (5, 5)])
def test_check_chains_passes(n, m):
    rep = oracle.check_chains(n, m)
    assert rep.failed_names() == []


@pytest.mark.parametrize("n,m", [(0, 0), (1, 4), (2, 2), (3, 3), (5, 5)])
def test_check_structure_passes(n, m):
    rep = oracle.check_structure(n, m)
    assert rep.failed_names() == []


def test_structure_projection_census_on_5_5():
    rep = oracle.check_structure(5, 5)
    names = {c.name: c for c in rep.checks}
    assert not names["projection_order_preserving"].passed
    assert not names["stripped_cover_preserved"].passed
    # waived by default, so the report still passes overall
    assert rep.passed()
    assert not rep.passed(waived=frozenset())


def test_failed_section_order_is_recorded(monkeypatch):
    # swap the two section images of class (1,1) at n=3 before their
    # order is compared, so the section reverses the base order
    from unimodal_chains.statistics import signature_class

    images = [(2, 0) + b for b in signature_class(1, (1,))]
    real = oracle._partition_suffix_matrix

    def swapped(elements):
        return real(images[::-1] if list(elements) == images else elements)

    monkeypatch.setattr(oracle, "_partition_suffix_matrix", swapped)
    rep = oracle.check_structure(3, 3)
    check = next(c for c in rep.checks if c.name == "section_order_preserving")
    assert not check.passed
    assert check.info["failing_classes"] == 1
    assert check.info["failing_pairs"] == 1
    assert check.counterexamples[0]["signature"] == (1, 1)
    assert rep.failed_names() == ["section_order_preserving"]


@pytest.mark.parametrize("n,m", [(5, 5), (0, 3), (1, 4)])
def test_leq_matrix_is_the_poset_order(n, m):
    # suffix rows of width n: 5, 0 (no columns, all True) and 1
    from unimodal_chains.posets import leq
    from unimodal_chains.statistics import signature_classes

    for cls in signature_classes(n, m).values():
        got = oracle._leq_matrix(oracle._partition_suffix_matrix(cls))
        assert got.shape == (len(cls), len(cls))
        for i, a in enumerate(cls):
            for j, b in enumerate(cls):
                assert got[i, j] == leq(a, b), (a, b)


def test_order_matrix_over_the_bound_is_refused_before_it_allocates(monkeypatch):
    import numpy as np

    from unimodal_chains.posets import ResourceGuardError

    class Allocated(Exception):
        pass

    def ones(*args, **kwargs):
        raise Allocated

    rows = np.zeros((oracle.MAX_ORDER_MATRIX_ROWS + 1, 1), dtype=np.int64)
    monkeypatch.setattr(oracle.np, "ones", ones)
    with pytest.raises(ResourceGuardError, match="MAX_ORDER_MATRIX_ROWS=16384"):
        oracle._leq_matrix(rows)
    with pytest.raises(Allocated):  # one row fewer is admitted
        oracle._leq_matrix(rows[1:])


def test_removal_order_independence_explored_on_small():
    rep = oracle.check_statistics(4, 4)
    check = next(c for c in rep.checks if c.name == "removal_order_independence")
    assert check.info["explored"] and check.passed


def test_reports_deterministic():
    a = oracle.check_statistics(3, 3).to_dict()
    b = oracle.check_statistics(3, 3).to_dict()
    assert a == b
    assert "elapsed_seconds" in oracle.check_statistics(3, 3).to_dict(with_timing=True)


def test_sweep_pairs_bounds():
    pairs = oracle.sweep_pairs(200, max_dim=6)
    assert all(n <= 6 and m <= 6 for n, m in pairs)
    from unimodal_chains.posets import count_compositions

    assert all(count_compositions(n, m) <= 200 for n, m in pairs)
    assert (0, 0) in pairs


def test_run_pair_report_shapes():
    reports = oracle.run_pair(2, 2)
    assert [r.scope for r in reports] == ["statistics", "chains", "structure"]
    for r in reports:
        d = r.to_dict()
        assert d["n"] == 2 and d["m"] == 2
        assert isinstance(r.to_text(), str)


def test_run_pair_classifies_the_poset_once(monkeypatch):
    from unimodal_chains import statistics, structure

    statistics.clear_caches()
    real = statistics.enumerate_compositions
    calls = []

    def spy(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(statistics, "enumerate_compositions", spy)
    oracle.run_pair(7, 7)
    assert calls.count((7, 7)) == 1
    # run_pair emptied every memo that statistics and structure define
    memos = [
        fn
        for module in (statistics, structure)
        for fn in vars(module).values()
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
    ]
    assert {fn.__name__ for fn in memos} >= {"signature", "signature_classes"}
    for fn in memos:
        assert fn.cache_info().currsize == 0, fn.__name__


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_chain_saturation_records_each_bad_chain_once(monkeypatch):
    # two chains of (5,5) whose walk takes two color steps at once, so
    # one step is not a cover; each is on several elements' chain lists
    from unimodal_chains.posets import cover_color
    from unimodal_chains.transversal import Chain

    class TwoStepsAtOnce(Chain):
        def elements(self):
            walk = super().elements()
            return walk[:1] + walk[2:]

    real = oracle.chains_through
    targets = set()
    for a in oracle.enumerate_compositions(5, 5):
        for ch in real(a):
            if ch.length >= 2 and len(targets) < 2:
                targets.add((ch.top, ch.colors))

    def faulty(a):
        return [TwoStepsAtOnce(c.top, c.colors) if (c.top, c.colors) in targets
                else c for c in real(a)]

    monkeypatch.setattr(oracle, "chains_through", faulty)
    rep = oracle.check_chains(5, 5)
    saturation = _check(rep, "chain_saturation")
    assert not saturation.passed
    assert saturation.failures == len(targets) == 2
    tops = {top for top, _ in targets}
    for ce in saturation.counterexamples:
        assert ce["lower"] in tops
        assert cover_color(ce["lower"], ce["upper"]) is None


def test_chain_membership_checked_for_every_element(monkeypatch):
    # give a the chain of an earlier element of its class that misses a,
    # so that chain was already walked when a's pair is checked
    from unimodal_chains.statistics import signature_classes

    real = oracle.chains_through

    def swaps():
        for cls in signature_classes(5, 5).values():
            for i, a in enumerate(cls):
                own = {(c.top, c.colors) for c in real(a)}
                for b in cls[:i]:
                    for ch in real(b):
                        if (ch.top, ch.colors) not in own and a not in ch.elements():
                            yield a, ch

    target, foreign = next(swaps())

    def faulty(a):
        chains = real(a)
        return [foreign, *chains[1:]] if a == target else chains

    monkeypatch.setattr(oracle, "chains_through", faulty)
    rep = oracle.check_chains(5, 5)
    bijection = _check(rep, "chains_per_component")
    assert bijection.failures == 1
    assert bijection.counterexamples == [
        {"element": target, "chain": foreign.to_dict()}
    ]
    assert rep.failed_names() == ["chains_per_component"]


def test_check_chains_checks_each_chain_step_once(monkeypatch):
    n, m = 6, 6
    distinct = {
        (ch.top, ch.colors)
        for a in oracle.enumerate_compositions(n, m)
        for ch in oracle.chains_through(a)
    }
    expected = sum(len(colors) for _, colors in distinct)
    real = oracle.cover_color
    calls = []

    def spy(lower, upper):
        calls.append((lower, upper))
        return real(lower, upper)

    monkeypatch.setattr(oracle, "cover_color", spy)
    rep = oracle.check_chains(n, m)
    assert rep.failed_names() == []
    assert len(calls) == expected > 0


def test_unappliable_chain_color_is_recorded(monkeypatch):
    # color 2 moves a unit out of entry 1, which is empty in (3,0,0);
    # every element gets this chain, so it is recorded once per class
    from unimodal_chains.statistics import signature_classes
    from unimodal_chains.transversal import Chain

    bad = Chain((3, 0, 0), (2, 1))
    monkeypatch.setattr(oracle, "chains_through", lambda a: [bad])
    rep = oracle.check_chains(2, 3)
    saturation = _check(rep, "chain_saturation")
    assert saturation.failures == sum(1 for c in signature_classes(2, 3).values() if c)
    for ce in saturation.counterexamples:
        assert ce["chain"] == bad.to_dict()
        assert "color 2 not applicable to (3, 0, 0)" in ce["error"]
    assert "chain_saturation" in rep.failed_names()


def test_check_chains_walks_each_initial_chain_twice(monkeypatch):
    # once for the closed-form, duality and flip checks, and once inside
    # flip_chain, the library call under test
    from unimodal_chains.transversal import Chain

    n, m = 6, 6
    distinct = {
        (ch.top, ch.colors)
        for a in oracle.enumerate_compositions(n, m)
        for ch in oracle.chains_through(a)
    }
    initial = sum(1 for a in oracle.enumerate_compositions(n, m)
                  if oracle.is_initial(a))
    real = Chain.elements
    calls = []

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Chain, "elements", spy)
    rep = oracle.check_chains(n, m)
    assert rep.failed_names() == []
    assert len(calls) == len(distinct) + 2 * initial
    assert initial > 0


def _failures(report):
    return {c.name: c.failures for c in report.checks if c.failures}


def test_wrong_removal_image_is_caught(monkeypatch):
    # the image of one element of (4,4) is left unremoved; the element
    # and its flip each see the flip check fail
    wrong = (1, 2, 0, 1, 0)
    real = oracle.remove_maximal_pairs
    monkeypatch.setattr(
        oracle, "remove_maximal_pairs", lambda c: c if c == wrong else real(c)
    )
    assert _failures(oracle.check_statistics(4, 4)) == {
        "flip_removal_commute": 2,
        "removal_containment": 1,
        "spread_strict_decrease": 1,
        "removal_order_independence": 1,
    }


def test_wrong_degree_is_caught(monkeypatch):
    wrong = (1, 2, 0, 1, 0)
    real = oracle.degree
    monkeypatch.setattr(
        oracle, "degree", lambda c: real(c) + 1 if c == wrong else real(c)
    )
    assert _failures(oracle.check_statistics(4, 4)) == {
        "partition_side_agreement": 1,
        "removal_containment": 1,
        "degree_formula": 1,
        "class_degree_consistent": 1,
        "removal_order_independence": 1,
    }


def _spy(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def spy(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_check_statistics_asks_for_each_element_once(monkeypatch):
    from collections import Counter

    elements = Counter(oracle.enumerate_compositions(6, 6))
    degrees = _spy(monkeypatch, oracle, "degree")
    images = _spy(monkeypatch, oracle, "remove_maximal_pairs")
    rep = oracle.check_statistics(6, 6)
    assert rep.failed_names() == []
    assert Counter(degrees) == elements
    assert Counter(images) == elements


def test_split_extension_lists_each_elements_covers_once(monkeypatch):
    from collections import Counter

    from unimodal_chains.statistics import signature_classes

    calls = _spy(monkeypatch, oracle, "upper_covers")
    for d, cls in signature_classes(6, 6).items():
        if not cls:
            continue
        calls.clear()
        rep = oracle.verify_split_extension(6, d)
        assert Counter(calls) == (Counter(cls) if rep.r else Counter())


def test_fiber_coordinates_scans_once_per_level(monkeypatch):
    from unimodal_chains import structure

    calls = _spy(monkeypatch, structure, "_components")
    for n, m in [(0, 3), (5, 5), (6, 6)]:
        for a in oracle.enumerate_compositions(n, m):
            calls.clear()
            structure.fiber_coordinates(a, oracle.remove_maximal_pairs(a))
            assert len(calls) == max(1, oracle.degree(a))
