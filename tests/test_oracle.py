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
    # both census checks fail and are waived, so the report still passes
    assert {c.name for c in rep.checks if not c.passed} == {
        "projection_order_preserving", "stripped_cover_preserved"
    }
    assert rep.passed() and rep.failed_names() == []


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


def test_swapped_fiber_points_are_recorded_not_raised(monkeypatch):
    # a coordinate map that trades the points (0,1) and (1,1) of the fiber
    # over (1,0) of class (0,1,1) at n=5 still covers the coordinate
    # lattice, which the oracle lists itself, so the bijection holds and
    # both points fail the round trip
    real = oracle._fiber
    top = (2, 0, 2, 0, 1, 0)
    swap = {(0, 1): (1, 1), (1, 1): (0, 1)}

    def swapped(image, *args):
        point = real(image, *args)
        if image != top:
            return point
        return lambda lam: point(swap.get(lam, lam))

    monkeypatch.setattr(oracle, "_fiber", swapped)
    rep = oracle.verify_split_extension(5, (0, 1, 1))
    assert rep.checks["coordinates_bijective"].passed
    check = rep.checks["coordinates_mutually_inverse"]
    assert check.failures == 2
    assert {ce["lam"] for ce in check.counterexamples} == set(swap)


def test_failed_fiber_order_is_recorded_row_by_row(monkeypatch):
    # two incomparable elements of the one fiber of class (0,1,0,1) at
    # n=6 (degree 2, base (1,0,1)) trade coordinates (3,3) and (1,4): the
    # coordinates stay a bijection, so the pairwise order check runs and
    # reports each failing pair in row-major order of the fiber
    x, y = (1, 0, 1, 1, 1, 1, 1), (1, 1, 1, 0, 1, 0, 2)
    real = oracle.fiber_coordinates
    swap = {x: y, y: x}
    monkeypatch.setattr(
        oracle, "fiber_coordinates", lambda a, b: real(swap.get(a, a), b)
    )
    pairs = [
        (x, (1, 0, 2, 0, 1, 0, 2)),
        ((1, 0, 2, 0, 1, 1, 1), x),
        ((1, 0, 2, 0, 1, 1, 1), y),
        ((1, 0, 2, 0, 2, 0, 1), x),
        ((1, 0, 2, 0, 2, 0, 1), y),
        (y, (1, 0, 2, 0, 1, 0, 2)),
        ((2, 0, 1, 0, 1, 0, 2), x),
        ((2, 0, 1, 0, 1, 0, 2), y),
    ]
    rep = oracle.verify_split_extension(6, (0, 1, 0, 1))
    got = rep.checks["fiber_order_isomorphism"].counterexamples
    assert got == [{"pair": p} for p in pairs]

    check = _check(oracle.check_structure(6, 6), "fiber_order_isomorphism")
    assert check.info == {"failing_pairs": 8, "failing_classes": 1}
    (ce,) = check.counterexamples
    assert ce == {"signature": (0, 1, 0, 1), "examples": got[:3]}


@pytest.mark.parametrize("n,m", [(5, 5), (0, 3), (1, 4)])
def test_leq_matrix_is_the_poset_order(n, m):
    # suffix rows of width n: 5, 0 (no columns, every pair related) and 1
    from unimodal_chains.posets import leq
    from unimodal_chains.statistics import signature_classes

    for cls in signature_classes(n, m).values():
        got = oracle._leq_matrix(oracle._partition_suffix_matrix(cls))
        assert len(got) == len(cls)
        for i, a in enumerate(cls):
            assert got[i] >> len(cls) == 0
            for j, b in enumerate(cls):
                assert bool(got[i] >> j & 1) == leq(a, b), (a, b)


def test_order_matrix_over_the_bound_is_refused_before_it_allocates():
    from unimodal_chains.posets import ResourceGuardError

    class Read(Exception):
        pass

    class Rows:
        """k rows that raise as soon as the builder reads one."""

        def __init__(self, k):
            self.k = k

        def __len__(self):
            return self.k

        def __iter__(self):
            raise Read

        def __getitem__(self, i):
            raise Read

    with pytest.raises(ResourceGuardError, match="MAX_ORDER_MATRIX_ROWS=16384"):
        oracle._leq_matrix(Rows(oracle.MAX_ORDER_MATRIX_ROWS + 1))
    with pytest.raises(Read):  # one row fewer is admitted
        oracle._leq_matrix(Rows(oracle.MAX_ORDER_MATRIX_ROWS))


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


def test_check_chains_walks_each_initial_chain_once_more(monkeypatch):
    # each distinct chain is walked once, and each initial chain once more
    # for the closed-form, duality and flip checks; flip_chain, the
    # library call under test, reads the bottom without a walk
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
    assert len(calls) == len(distinct) + initial
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


def test_a_missing_class_fails_the_census(monkeypatch):
    # the census lists the signatures of its own enumeration that the
    # classification has no class for, and fails on each
    from unimodal_chains.statistics import signature_classes

    classes = dict(signature_classes(5, 5))
    del classes[(0, 1, 1)]
    monkeypatch.setattr(oracle, "signature_classes", lambda n, m: classes)
    rep = oracle.check_statistics(5, 5)
    check = _check(rep, "empty_class_census")
    assert check.info == {"empty_signatures": [[0, 1, 1]], "empty_count": 1}
    assert check.counterexamples == [{"signature": (0, 1, 1)}]
    assert "empty_class_census" in rep.failed_names()


def test_split_extension_lists_each_elements_covers_once(monkeypatch):
    from collections import Counter

    from unimodal_chains.statistics import signature_classes

    calls = _spy(monkeypatch, oracle, "upper_covers")
    for d, cls in signature_classes(6, 6).items():
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


def test_misfiled_class_element_is_named(monkeypatch):
    # move one element of (4,4) into another class: sizes and the union
    # still match the poset, so only its own signature gives it away
    from unimodal_chains.statistics import signature, signature_classes

    wrong = (1, 2, 0, 1, 0)
    classes = {
        d: tuple(a for a in cls if a != wrong)
        for d, cls in signature_classes(4, 4).items()
    }
    other = next(d for d in classes if d != signature(wrong))
    classes[other] += (wrong,)
    monkeypatch.setattr(oracle, "signature_classes", lambda n, m: classes)
    check = _check(oracle.check_statistics(4, 4), "classes_partition_poset")
    assert check.failures == 1
    (ce,) = check.counterexamples
    assert ce["element"] == wrong and ce["class"] == other
    assert ce["signature"] == signature(wrong)
    assert ce["repro"] == "unimodal-chains signature '[1,2,0,1,0]'"


def test_run_pair_refuses_oversized_order_matrices_before_any_scope(monkeypatch):
    from unimodal_chains.posets import ResourceGuardError

    n, m = 5, 5
    built = []
    real_leq = oracle._leq_matrix
    monkeypatch.setattr(
        oracle, "_leq_matrix", lambda rows: built.append(len(rows)) or real_leq(rows)
    )
    admitted = [r.to_dict() for r in oracle.run_pair(n, m)]
    largest = max(oracle._order_matrix_rows(n, m))
    assert largest == max(built)  # the bound is the largest matrix built

    scopes = []
    real_stats = oracle.check_statistics
    monkeypatch.setattr(
        oracle, "check_statistics", lambda n, m: scopes.append(n) or real_stats(n, m)
    )
    monkeypatch.setattr(oracle, "MAX_ORDER_MATRIX_ROWS", largest - 1)
    with pytest.raises(
        ResourceGuardError,
        match=f"order matrix of {largest} rows exceeds MAX_ORDER_MATRIX_ROWS={largest - 1}",
    ):
        oracle.run_pair(n, m)
    assert scopes == []
    assert oracle.signature_classes.cache_info().currsize == 0
    monkeypatch.setattr(oracle, "MAX_ORDER_MATRIX_ROWS", largest)
    assert [r.to_dict() for r in oracle.run_pair(n, m)] == admitted
    assert scopes == [n]
