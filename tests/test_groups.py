"""Finite-group engine: constructors, coset enumeration, subgroup and
automorphism machinery."""

import functools
import os
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from handlebody import groups
from handlebody.config import load_config
from handlebody.groups import (AutCapExceeded, CosetCapExceeded, FiniteGroup,
                               Presentation, PresentationError,
                               automorphism_permutations, automorphisms,
                               coset_enumerate, cyclic,
                               evaluate_in_group, evaluate_rows,
                               heisenberg, heisenberg_presentation,
                               pair_orbit_count, semidirect_pq,
                               single_aut_orbit_certificate)
from handlebody.reference import RECORDED_WITNESS_ROWS
from handlebody.words import Word, parse_word

from group_helpers import (_fold_over_table, _reference_coset_enumerate,
                           classes_by_definition, conjugate, direct_product,
                           order_by_powers, power)


def test_presentation_validation():
    with pytest.raises(PresentationError):
        Presentation([], [])
    with pytest.raises(PresentationError):
        Presentation(["a", "a"], ["a^2"])
    with pytest.raises(PresentationError):
        Presentation(["a"], ["1"])
    with pytest.raises(PresentationError):
        Presentation(["a"], [parse_word("x1 y1")])  # wrong rank
    pres = Presentation(["a", "b"], ["a^2", "b^3", "[a,b]"])
    assert pres.gen_count == 2
    assert "a^2" in repr(pres)


def test_finite_group_validation():
    table = np.array([[0, 1], [1, 0]])
    G = FiniteGroup(table, generators=(1,))
    assert G.order == 2
    with pytest.raises(ValueError):
        FiniteGroup(np.array([[1, 0], [0, 1]]), generators=(1,))
    with pytest.raises(ValueError):
        FiniteGroup(table, generators=(0,))  # {0} does not generate Z2
    # Rows or columns that are not permutations of 0..n-1: row 1 has no
    # identity; row 1 repeats 1; entries out of range; every row is a
    # permutation but column 1 repeats 1.
    for bad in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
                [[0, 1], [1, 2]], [[0, 1], [1, -1]],
                [[0, 1, 2], [1, 2, 0], [2, 1, 0]]):
        with pytest.raises(ValueError, match="permutations"):
            FiniteGroup(bad, [])
    # Generators are elements 0..n-1 given as integers: no wrap-around
    # from a negative index, no truncated float, no IndexError.
    for bad in ([-1], [1.7], [7]):
        with pytest.raises(ValueError, match="elements 0..4"):
            FiniteGroup(cyclic(5).table, bad)
    # One name per generator: two names for one generator, or one for none.
    for gens, names in (([1], ("a", "b")), ([], ("a",)), ([1], ())):
        with pytest.raises(ValueError, match="one name per generator"):
            FiniteGroup(cyclic(5).table, gens, gen_names=names)
    assert FiniteGroup(cyclic(5).table, [1]).gen_names == ("g1",)


@pytest.mark.parametrize("make", [
    lambda: cyclic(5), lambda: semidirect_pq(11, 5, 3),
    lambda: heisenberg(3), lambda: heisenberg(3).subgroup_as_group([0, 1, 2]),
    lambda: _enumerate_uncached(Presentation(["a", "b"], _STANDIN)),
    lambda: (_enumerate_uncached(Presentation(["a", "b"], _STANDIN)),
             coset_enumerate(Presentation(["a", "b"], _STANDIN)))[1]],
    ids=["cyclic", "semidirect", "heisenberg", "subgroup", "presented",
         "presented-cached"])
def test_group_arrays_are_read_only(make):
    # A presented group's table is shared with coset_enumerate's cache, and
    # every group's element orders and classes are read from its table.
    G = make()
    with pytest.raises(ValueError):
        G.table[0, 0] = 1
    with pytest.raises(ValueError):
        G.inv[0] = 1
    assert G.table[0, 0] == 0 and G.inv[0] == 0


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_a_table_passed_in_stays_writable_for_its_owner(dtype):
    table = np.array([[0, 1], [1, 0]], dtype=dtype)
    G = FiniteGroup(table, [1])
    assert table.flags.writeable and not G.table.flags.writeable
    table[0, 0] = 0


@pytest.mark.parametrize("n", [1, 2, 3, 12, 31])
def test_cyclic_groups(n):
    G = cyclic(n)
    assert G.order == n
    assert G.is_abelian()
    if n > 1:
        g = G.generators[0]
        assert G.element_orders()[g] == n
        assert power(G, g, n) == 0
        assert G.inverse(g) == power(G, g, n - 1)


def test_semidirect_structure():
    G = semidirect_pq(11, 5, 3)
    assert G.order == 55
    a, b = G.generators
    assert G.element_orders()[[a, b]].tolist() == [11, 5]
    # b a b^-1 = a^3 is the defining twist.
    assert conjugate(G, a, b) == power(G, a, 3)
    assert not G.is_abelian()
    assert len(G.conjugacy_classes()) == 7


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(ValueError):
        semidirect_pq(11, 5, 2)  # 2^5 != 1 mod 11
    with pytest.raises(ValueError):
        semidirect_pq(10, 5, 3)  # p not prime
    with pytest.raises(ValueError):
        semidirect_pq(11, 4, 3)  # q not prime


def _semidirect_table_by_loops(p, q, r):
    """a^i b^j at index i*q + j, multiplied one entry at a time."""
    n = p * q
    rpow = [pow(r, j, p) for j in range(q)]
    table = np.empty((n, n), dtype=np.int32)
    for i1 in range(p):
        for j1 in range(q):
            e1 = i1 * q + j1
            for i2 in range(p):
                for j2 in range(q):
                    table[e1, i2 * q + j2] = ((i1 + i2 * rpow[j1]) % p) * q \
                        + (j1 + j2) % q
    return table


def _heisenberg_table_by_loops(p):
    """(i,j,k)*(m,n,l) = (i+m, j+n, k+l+i*n) at index (i*p + j)*p + k,
    one entry at a time."""
    n = p ** 3

    def enc(i, j, k):
        return (i * p + j) * p + k

    table = np.empty((n, n), dtype=np.int32)
    for i in range(p):
        for j in range(p):
            for k in range(p):
                e1 = enc(i, j, k)
                for m in range(p):
                    for nn in range(p):
                        for l in range(p):
                            table[e1, enc(m, nn, l)] = enc(
                                (i + m) % p, (j + nn) % p, (k + l + i * nn) % p)
    return table, (enc(1, 0, 0), enc(0, 1, 0))


def _same_table(G, table):
    return (G.table.dtype == np.int32 and G.table.flags.c_contiguous
            and G.table.tobytes() == table.tobytes())


@pytest.mark.parametrize("pqr", [pqr for pqr, _ in RECORDED_WITNESS_ROWS]
                         + [(7, 3, 2), (13, 3, 3), (31, 5, 2)])
def test_semidirect_table_matches_entrywise_loops(pqr):
    G = semidirect_pq(*pqr)
    assert _same_table(G, _semidirect_table_by_loops(*pqr))
    assert G.generators == (pqr[1], 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_heisenberg_table_matches_entrywise_loops(p):
    G = heisenberg(p)
    table, gens = _heisenberg_table_by_loops(p)
    assert _same_table(G, table)
    assert G.generators == gens


def test_conjugation_table_matches_scalar_products():
    G = semidirect_pq(7, 3, 2)
    conj = G.conjugation_table()
    assert conj.tolist() == [[conjugate(G, h, g) for h in range(G.order)]
                             for g in range(G.order)]


def test_heisenberg_structure():
    G = heisenberg(3)
    assert G.order == 27
    assert len(G.center()) == 3
    assert len(G.conjugacy_classes()) == 11
    x, y = G.generators
    z = G.commutator(x, y)
    assert z != 0 and G.element_orders()[z] == 3
    assert set(G.derived_subgroup()) == set(G.center())
    orders = G.element_orders()
    assert sorted(set(int(o) for o in orders)) == [1, 3]


def _enumerate_uncached(pres, coset_cap=50000):
    """coset_enumerate on an emptied cache: the run under test is HLT's
    own, and no entry an earlier call left can stand in for it."""
    groups._enumeration.cache_clear()
    return coset_enumerate(pres, coset_cap=coset_cap)


def test_heisenberg_matches_its_presentation():
    G = heisenberg(3)
    pres = heisenberg_presentation(3)
    H = _enumerate_uncached(pres, coset_cap=1000)
    assert H.order == 27
    for rel in pres.relators:
        assert evaluate_in_group(G, rel, G.generators) == 0


def test_coset_enumeration_small_groups():
    s3 = _enumerate_uncached(Presentation(["a", "b"],
                                          ["a^3", "b^2", "(a b)^2"]))
    assert s3.order == 6
    klein = _enumerate_uncached(Presentation(["a", "b"],
                                             ["a^2", "b^2", "[a,b]"]))
    assert klein.order == 4 and klein.is_abelian()
    q8 = _enumerate_uncached(Presentation(
        ["i", "j"], ["i^4", "i^2 (j^2)^-1", "j^-1 i j i"]))
    assert q8.order == 8
    assert q8.count_involutions() == 1


def _sympy_order(relators):
    """Order of <a, b | relators> by sympy's Todd-Coxeter: the number of
    cosets of the trivial subgroup once the table is compressed.
    (``FpGroup.order()`` is not used: it recursed past Python's limit on
    <a,b | a^7, b^3, b a b^-1 a^-2, a b a b>.)"""
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group
    F, a, b = free_group("a b")
    gens = (a, b)
    rels = []
    for w in relators:
        r = F.identity
        for g, sign in w.letters:
            r = r * gens[g] ** sign
        rels.append(r)
    table = FpGroup(F, rels).coset_enumeration([])
    table.compress()
    return len(table.table)


@st.composite
def _metacyclic_presentations(draw):
    """<a, b | a^m, b^n, b a b^-1 a^-k> with k^n = 1 mod m (order m n),
    optionally with one random extra relator."""
    m = draw(st.integers(1, 25))
    n = draw(st.integers(1, 100 // m))
    k = draw(st.sampled_from([k for k in range(1, m + 1)
                              if pow(k, n, m) == 1 % m]))
    rels = [Word([(0, 1)] * m, rank=2), Word([(1, 1)] * n, rank=2),
            Word([(1, 1), (0, 1), (1, -1)] + [(0, -1)] * k, rank=2)]
    extra = Word(draw(st.lists(st.tuples(st.integers(0, 1),
                                         st.sampled_from([1, -1])),
                               max_size=6)), rank=2)
    if draw(st.booleans()) and len(extra):
        rels.append(extra)
    return [r for r in rels if len(r)]


@settings(max_examples=60, deadline=None)
@given(_metacyclic_presentations())
def test_coset_enumeration_matches_sympy(relators):
    G = _enumerate_uncached(Presentation(["a", "b"], relators))
    assert G.order == _sympy_order(relators)
    if len(relators) == 3:
        m, n = len(relators[0]), len(relators[1])
        assert G.order == m * n


def test_coset_enumeration_respects_cap():
    pres = Presentation(["a", "b"], ["a^7", "b^9", "[a,b]"])
    with pytest.raises(CosetCapExceeded):
        _enumerate_uncached(pres, coset_cap=10)
    assert _enumerate_uncached(pres, coset_cap=5000).order == 63


def test_coset_lookahead_rescues_a_capped_run():
    # Unhindered, the stand-in's enumeration holds up to 4,094 live cosets.
    # At a cap of 244 it hits the cap eight times, and each lookahead pass
    # merges enough cosets to go on; the result is the same group, table
    # for table.  One coset less and a lookahead pass frees nothing.
    pres = Presentation(["a", "b"], ["a^27", "b^9", "b a b^-1 a^-4"])
    free = _enumerate_uncached(pres)
    capped = _enumerate_uncached(pres, coset_cap=244)
    assert np.array_equal(capped.table, free.table)
    assert capped.generators == free.generators
    with pytest.raises(CosetCapExceeded):
        _enumerate_uncached(pres, coset_cap=243)


_STANDIN = ("a^27", "b^9", "b a b^-1 a^-4")
# Every presentation the suite enumerates, by name: (generators, relators).
_PRESENTATIONS = {
    "S3": ("ab", ("a^3", "b^2", "(a b)^2")),
    "Klein": ("ab", ("a^2", "b^2", "[a,b]")),
    "Q8": ("ij", ("i^4", "i^2 (j^2)^-1", "j^-1 i j i")),
    "A4": ("ab", ("a^3", "b^2", "(a b)^3")),
    "C63": ("ab", ("a^7", "b^9", "[a,b]")),
    "C7:C9": ("ab", ("a^7", "b^9", "b a b^-1 a^-2")),
    "C3 wr C3": ("at", ("a^3", "t^3", "[a, t a t^-1]", "[a, t^-1 a t]")),
    "order243_obstructed_standin": ("ab", _STANDIN),
}


def _presentation(name):
    if name in ("H(3)", "H(5)"):
        return heisenberg_presentation(int(name[2]))
    if name == "order243_presented":
        return load_config(os.path.join(
            os.path.dirname(__file__), os.pardir, "configs",
            "order243_presented.cfg")).group.presentation
    gens, rels = _PRESENTATIONS[name]
    return Presentation(list(gens), rels)


def _enumerations_agree(pres, cap):
    """coset_enumerate, uncached, and the reference enumerator give the
    same table and generators under ``cap``, or both raise
    CosetCapExceeded; True when they succeed."""
    try:
        want = _reference_coset_enumerate(pres, coset_cap=cap)
    except CosetCapExceeded:
        with pytest.raises(CosetCapExceeded):
            _enumerate_uncached(pres, coset_cap=cap)
        return False
    G = _enumerate_uncached(pres, coset_cap=cap)
    assert np.array_equal(G.table, want[0])
    assert list(G.generators) == want[1]
    return True


@pytest.mark.parametrize("name", sorted(_PRESENTATIONS) + [
    "H(3)", "H(5)", "order243_presented"])
def test_coset_enumeration_matches_reference(name):
    # The flat table keeps the reference's strategy step for step, so the
    # element numbering of every presented group is the same.
    assert _enumerations_agree(_presentation(name), 50000)


def test_coset_cap_sweep_matches_reference():
    # Success is not monotone in the cap (see coset_enumerate); every cap
    # gives the reference's outcome, and the documented caps theirs.
    pres = Presentation(["a", "b"], _STANDIN)
    documented = {243: False, 244: True, 291: False, 364: False,
                  486: True, 4093: True}
    for cap, ok in documented.items():
        assert _enumerations_agree(pres, cap) is ok, cap
    for cap in (1, 2, 10, 100, 242, 4094, 4095) + tuple(range(245, 300, 3)):
        _enumerations_agree(pres, cap)
    small = _presentation("C3 wr C3")
    for cap in range(1, 60, 2):
        _enumerations_agree(small, cap)


# A presentation of C19 whose lookahead passes, at cap 600, keep freeing a
# few cosets each, so only the bound on the table's rows stops the run.
_REFILLING = ("a^3 a^5 a^5 b^-3 a^3 b a^-1 a^4 b^4",
              "b^2 b^-3 a b^4 b^-2 a^-1", "b^-2 a^2 b a^-2 b^5")


def test_capped_enumeration_stops_at_its_row_bound():
    pres = Presentation(["a", "b"], _REFILLING)
    start = time.perf_counter()
    with pytest.raises(CosetCapExceeded,
                       match="table reached %d rows" % (8 * 600)):
        _enumerate_uncached(pres, coset_cap=600)
    assert time.perf_counter() - start < 10
    assert _enumerate_uncached(pres, coset_cap=5000).order == 19


def test_row_bound_is_a_multiple_of_the_cap(monkeypatch):
    # The stand-in's table reaches 977 rows at cap 486: two rows per unit
    # of cap are too few, three enough.
    pres = Presentation(["a", "b"], _STANDIN)
    monkeypatch.setattr(groups, "COSET_ROWS_PER_CAP", 2)
    with pytest.raises(CosetCapExceeded, match="table reached 972 rows"):
        _enumerate_uncached(pres, coset_cap=486)
    monkeypatch.setattr(groups, "COSET_ROWS_PER_CAP", 3)
    assert _enumerate_uncached(pres, coset_cap=486).order == 243


def _count_runs(monkeypatch):
    """Empty the cache and record each uncached enumeration after it."""
    groups._enumeration.cache_clear()
    runs = []
    uncached = groups._coset_enumerate

    def counted(gen_names, relators, coset_cap):
        runs.append((gen_names, relators))
        return uncached(gen_names, relators, coset_cap)

    monkeypatch.setattr(groups, "_coset_enumerate", counted)
    return runs


def test_repeat_enumeration_is_a_new_group_over_the_same_table(monkeypatch):
    groups._enumeration.cache_clear()
    first, second = (Presentation(["a", "b"], _STANDIN) for _ in range(2))
    G = coset_enumerate(first)
    # A warm hit builds no group and evaluates no relator.
    made, folds = [], []
    init, fold = FiniteGroup.__init__, groups.evaluate_rows

    def counted_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(groups, "evaluate_rows",
                        lambda *args: folds.append(args) or fold(*args))
    H = coset_enumerate(second)
    assert made == folds == []
    assert H is not G
    assert (G.presentation, H.presentation) == (first, second)
    assert np.array_equal(H.table, G.table) and H.generators == G.generators
    assert np.shares_memory(H.table, G.table)
    # Each call's group keeps its own name and lazy caches.
    H.name = "renamed"
    assert G.name == "presented(a,b)"
    assert H.element_orders() is not G.element_orders()
    # The counters see a cold run: one group, one fold per relator.
    groups._enumeration.cache_clear()
    coset_enumerate(second)
    assert len(made) == 1 and len(folds) == len(_STANDIN)


def test_a_table_that_breaks_a_relator_is_refused(monkeypatch):
    # C6 with a = 3 and b = 2 satisfies a^2 and b^3 but not (ab)^2: the
    # group is valid, only the relator check can refuse it.
    groups._enumeration.cache_clear()
    monkeypatch.setattr(groups, "_coset_enumerate",
                        lambda gen_names, relators, coset_cap:
                        (cyclic(6).table, [3, 2]))
    pres = Presentation(["a", "b"], ["a^2", "b^3", "(a b)^2"])
    with pytest.raises(AssertionError, match=r"relator 'a b a b' violated "
                                             r"in enumerated group"):
        coset_enumerate(pres)
    assert not groups._enumeration.cache_info().currsize


def test_each_cap_keeps_its_own_outcome_when_cached():
    # Success is not monotone in the cap, so the cap is part of the key:
    # a success at 486 does not answer 291, nor a failure at 291 486.
    pres = Presentation(["a", "b"], _STANDIN)
    groups._enumeration.cache_clear()
    assert coset_enumerate(pres, coset_cap=486).order == 243
    with pytest.raises(CosetCapExceeded):
        coset_enumerate(pres, coset_cap=291)
    groups._enumeration.cache_clear()
    with pytest.raises(CosetCapExceeded):
        coset_enumerate(pres, coset_cap=291)
    assert coset_enumerate(pres, coset_cap=486).order == 243


def test_a_capped_run_leaves_no_entry(monkeypatch):
    runs = _count_runs(monkeypatch)
    pres = Presentation(["a", "b"], _STANDIN)
    for _ in range(2):
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(pres, coset_cap=291)
    assert len(runs) == 2 and not groups._enumeration.cache_info().currsize


def test_relators_in_another_order_are_another_entry(monkeypatch):
    runs = _count_runs(monkeypatch)
    forward = Presentation(["a", "b"], _STANDIN)
    backward = Presentation(["a", "b"], _STANDIN[::-1])
    for pres in (forward, backward, forward, backward):
        G = coset_enumerate(pres)
        assert np.array_equal(G.table,
                              _reference_coset_enumerate(pres)[0])
    assert len(runs) == 2 and groups._enumeration.cache_info().currsize == 2


def test_the_cache_evicts_the_least_recently_used(monkeypatch):
    runs = _count_runs(monkeypatch)
    size = groups._enumeration.cache_info().maxsize
    cyclic_pres = [Presentation(["a"], ["a^%d" % n])
                   for n in range(2, size + 3)]
    for pres in cyclic_pres[:size]:
        coset_enumerate(pres)
    coset_enumerate(cyclic_pres[0])              # a hit refreshes the entry
    assert len(runs) == size
    coset_enumerate(cyclic_pres[size])           # evicts a^3, not a^2
    assert len(runs) == size + 1
    assert groups._enumeration.cache_info().currsize == size
    coset_enumerate(cyclic_pres[0])
    assert len(runs) == size + 1
    coset_enumerate(cyclic_pres[1])              # a^3 again: evicts a^4
    assert len(runs) == size + 2
    kept = cyclic_pres[3:] + cyclic_pres[:2]
    assert [coset_enumerate(p).order for p in kept] == [
        len(p.relators[0]) for p in kept]
    assert len(runs) == size + 2


def test_direct_product():
    G = direct_product(cyclic(3), cyclic(5))
    assert G.order == 15
    assert G.is_abelian()
    H = direct_product(heisenberg(3), cyclic(2))
    assert H.order == 54
    assert len(H.center()) == 6


def test_subgroup_and_closure():
    G = semidirect_pq(11, 5, 3)
    a, b = G.generators
    assert len(G.subgroup_closure([a])) == 11
    assert len(G.subgroup_closure([b])) == 5
    assert len(G.subgroup_closure([a, b])) == 55
    assert set(G.normal_closure([b])) == set(range(55))
    assert len(G.normal_closure([a])) == 11


def test_sylow_subgroups():
    G = semidirect_pq(11, 5, 3)
    assert len(G.sylow_subgroup(11)) == 11
    assert len(G.sylow_subgroup(5)) == 5
    H = heisenberg(3)
    assert len(H.sylow_subgroup(3)) == 27
    K = direct_product(cyclic(4), cyclic(3))
    assert len(K.sylow_subgroup(2)) == 4


def test_subgroup_as_group():
    G = semidirect_pq(11, 5, 3)
    sub = G.subgroup_as_group(G.sylow_subgroup(11))
    assert sub.order == 11
    assert sub.is_abelian()


# Closure oracle groups, drawn by key and built once: an int n is cyclic(n).
_NAMED_GROUPS = {
    "semidirect_pq(11,5,3)": lambda: semidirect_pq(11, 5, 3),
    "heisenberg(3)": lambda: heisenberg(3),
    "heisenberg(3) x cyclic(2)": lambda: direct_product(heisenberg(3),
                                                        cyclic(2)),
    # [s, t] of its two generators lies in the Klein four-group [A4, A4]
    # but does not generate it.
    "alternating(4)": lambda: coset_enumerate(
        Presentation(["a", "b"], ["a^3", "b^2", "(a b)^3"])),
    "cyclic(3) x semidirect_pq(7,3,2)": lambda: direct_product(
        cyclic(3), semidirect_pq(7, 3, 2)),
    # No declared generators: queries that start from G.generators must
    # fall back to the whole group.
    "semidirect_pq(7,3,2), no generators": lambda: FiniteGroup(
        semidirect_pq(7, 3, 2).table, ()),
}


@functools.lru_cache(maxsize=None)
def _oracle_group(key):
    return cyclic(key) if isinstance(key, int) else _NAMED_GROUPS[key]()


def _brute_closure(G, gens):
    """Multiply everything reached by every generator until nothing new
    appears; in a finite group that is the generated subgroup."""
    reached = {0}
    while True:
        grown = reached | {int(G.table[h, g]) for h in reached for g in gens}
        if grown == reached:
            return sorted(reached)
        reached = grown


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(1, 30), st.sampled_from(sorted(_NAMED_GROUPS))),
       st.data())
def test_subgroup_closure_matches_brute_force(key, data):
    G = _oracle_group(key)
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    closure = G.subgroup_closure(gens)
    assert closure == _brute_closure(G, gens)
    conjugates = {conjugate(G, g, h) for g in gens for h in range(G.order)}
    assert G.normal_closure(gens) == _brute_closure(G, conjugates)


@pytest.mark.parametrize("key", [1, 2, 12, 30] + sorted(_NAMED_GROUPS))
def test_derived_subgroup_and_reindexing_match_brute_force(key):
    G = _oracle_group(key)
    commutators = {G.commutator(g, h)
                   for g in range(G.order) for h in range(G.order)}
    derived = G.derived_subgroup()
    assert derived == _brute_closure(G, commutators)

    # Element i of the reindexed subgroup is derived[i].  It carries no
    # generators, so its own derived subgroup is closed from every
    # commutator, as the brute force closes it.
    sub = G.subgroup_as_group(derived)
    assert sub.order == len(derived)
    assert sub.generators == ()
    for i, g in enumerate(derived):
        for j, h in enumerate(derived):
            assert derived[sub.mult(i, j)] == G.mult(g, h)
    assert sub.derived_subgroup() == _brute_closure(
        sub, {sub.commutator(g, h)
              for g in range(sub.order) for h in range(sub.order)})


def _reference_sylow(G, p):
    """Greedy normalizer extension one element at a time: list the
    normalizer of the subgroup so far by conjugating it with every g, then
    join its least p-element outside the subgroup."""
    n, target = G.order, 1
    while n % p == 0:
        target *= p
        n //= p
    sub = [0]
    orders = G.element_orders()
    while len(sub) < target:
        sub_set = set(sub)
        normalizer = [g for g in range(G.order)
                      if all(conjugate(G, s, g) in sub_set
                             for s in sub)]
        candidate = None
        for g in normalizer:
            if g in sub_set:
                continue
            o = orders[g]
            while o % p == 0:
                o //= p
            if o == 1:
                candidate = g
                break
        assert candidate is not None
        sub = G.subgroup_closure(sub + [candidate])
    return sub


@pytest.mark.parametrize("key, p", [
    ("semidirect_pq(11,5,3)", 11), ("semidirect_pq(11,5,3)", 5),
    ("heisenberg(3)", 3), ("heisenberg(3)", 2),
    ("heisenberg(3) x cyclic(2)", 2), ("heisenberg(3) x cyclic(2)", 3),
    ("alternating(4)", 2), ("alternating(4)", 3),
    ("cyclic(3) x semidirect_pq(7,3,2)", 3),
    ("cyclic(3) x semidirect_pq(7,3,2)", 7),
    (12, 2), (12, 3), (30, 2), (30, 3), (30, 5)])
def test_sylow_subgroup_matches_elementwise_search(key, p):
    G = _oracle_group(key)
    assert G.sylow_subgroup(p) == _reference_sylow(G, p)


def test_sylow_subgroup_of_order243_matches_elementwise_search(order243):
    assert order243.sylow_subgroup(3) == _reference_sylow(order243, 3)


def test_subgroup_as_group_rejects_non_subgroups():
    G = semidirect_pq(11, 5, 3)
    a, b = G.generators
    with pytest.raises(ValueError, match="not closed"):
        G.subgroup_as_group([0, a])
    with pytest.raises(ValueError, match="not closed"):
        G.subgroup_as_group(G.subgroup_closure([a]) + [b])
    with pytest.raises(ValueError, match="identity"):
        G.subgroup_as_group([a, b])


def test_closure_of_nothing_is_trivial():
    G = heisenberg(3)
    assert G.subgroup_closure([]) == [0]
    assert G.subgroup_closure([0, 0]) == [0]
    assert G.normal_closure([0]) == [0]


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 30), st.data())
def test_cyclic_word_evaluation_matches_exponent_sum(n, data):
    G = cyclic(n)
    g = G.generators[0]
    ls = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=20))
    w = parse_word(" ".join(
        ("x1", "y1", "x2", "y2")[i] + ("" if s > 0 else "^-1")
        for i, s in ls) or "1")
    total = sum(s for _, s in ls)
    assert evaluate_in_group(G, w, (g, g, g, g)) == power(G, g, total)


@pytest.mark.parametrize("images", [(-1, 0, 0, 0), (1.7, 0, 0, 0),
                                    (27, 0, 0, 0), (0, 0, 0, "1")])
def test_evaluate_in_group_refuses_non_elements(heis3, images):
    # Images are elements 0..26: a negative image may not index from the
    # end, nor a float be truncated to an element.
    with pytest.raises(ValueError, match="generator images"):
        evaluate_in_group(heis3, parse_word("x1 y1"), images)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, "semidirect_pq(11,5,3)", "heisenberg(3)",
                        "order243"]),
       st.sampled_from([2, 4]), st.data())
def test_evaluate_rows_matches_scalar_fold(order243, key, rank, data):
    """The row fold, and ``evaluate_in_group`` over it, agree row by row
    with the oracle fold, whichever generators are broadcast as scalars
    and which as arrays."""
    G = order243 if key == "order243" else _oracle_group(key)
    letters = data.draw(st.lists(
        st.tuples(st.integers(0, rank - 1), st.sampled_from([1, -1])),
        min_size=1, max_size=12))
    w = Word(letters, rank)
    assume(not w.is_identity())
    K = data.draw(st.integers(1, 6))
    element = st.integers(0, G.order - 1)
    gens = [data.draw(element) if data.draw(st.booleans())
            else np.array(data.draw(st.lists(element, min_size=K,
                                             max_size=K)))
            for _ in range(rank)]
    rows = np.broadcast_to(evaluate_rows(G, w, gens), (K,))
    for k in range(K):
        images = [g if np.ndim(g) == 0 else g[k] for g in gens]
        want = _fold_over_table(G, images, w)
        assert rows[k] == want == evaluate_in_group(G, w, images)


def test_automorphisms_of_known_groups(heis3):
    auts = automorphisms(heis3)
    assert len(auts) == 432
    x, y = heis3.generators
    assert (x, y) in auts
    assert len(automorphisms(semidirect_pq(11, 5, 3))) == 110
    assert len(automorphisms(cyclic(12))) == 4


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# Presented groups for the automorphism and certificate oracles.
_AUT_GROUPS = {
    "heisenberg(3)": lambda: heisenberg(3),
    "heisenberg(5)": lambda: heisenberg(5),
    "semidirect_pq(11,5,3)": lambda: semidirect_pq(11, 5, 3),
    "semidirect_pq(7,3,2)": lambda: semidirect_pq(7, 3, 2),
    "semidirect_pq(13,3,3)": lambda: semidirect_pq(13, 3, 3),
    "standin": lambda: load_config(os.path.join(
        CONFIG_DIR, "order243_obstructed_standin.cfg")).group,
    "cyclic(6)": lambda: cyclic(6),
}


def _backtrack_automorphisms(G, node_cap=200000, fixed=None, limit=None):
    """Oracle for automorphisms: the depth-first backtracker it replaced.

    Same candidates (elements of each generator's order, or the pin),
    assignment order and relator pruning, one generator per recursion
    level; each leaf that passes the relators is kept when its images
    generate G.  Every visited node counts its candidates against
    ``node_cap``, and the search stops after ``limit`` automorphisms."""
    pres = G.presentation
    k = pres.gen_count
    orders = G.element_orders()
    gen_orders = [int(orders[g]) for g in G.generators]
    assign_order = sorted(range(k), key=lambda i: (-gen_orders[i], i))
    candidates = {}
    for i in range(k):
        if fixed is not None and i in fixed:
            img = int(fixed[i])
            pool = [img] if int(orders[img]) == gen_orders[i] else []
        else:
            pool = np.flatnonzero(orders == gen_orders[i])
        candidates[i] = np.array(pool, dtype=np.int32)
    check_after = [[] for _ in range(k)]
    for rel in pres.relators:
        check_after[max(assign_order.index(g) for g, _ in rel.letters)
                    ].append(rel)
    images = [None] * k
    found = []
    nodes = 0

    def backtrack(pos):
        nonlocal nodes
        if pos == k:
            if len(G.subgroup_closure(images)) == G.order:
                found.append(tuple(int(g) for g in images))
            return limit is not None and len(found) >= limit
        gi = assign_order[pos]
        cands = candidates[gi]
        nodes += len(cands)
        if nodes > node_cap:
            raise AutCapExceeded(
                "automorphism search exceeded node cap %d" % node_cap)
        gens = list(images)
        for rel in check_after[pos]:
            gens[gi] = cands
            cands = cands[evaluate_rows(G, rel, gens) == 0]
        for cand in cands:
            images[gi] = int(cand)
            if backtrack(pos + 1):
                return True
        images[gi] = None
        return False

    backtrack(0)
    return found


def _brute_automorphism_count(G):
    """Bijective homomorphisms G -> G, over every assignment of generator
    images: each element is reached from the identity along a spanning
    tree of the Cayley graph, so an assignment fixes at most one map, which
    is then checked against the whole multiplication table."""
    n, gens = G.order, G.generators
    steps = []                          # (element, parent, generator slot)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for slot, g in enumerate(gens):
                x = G.mult(h, g)
                if x not in seen:
                    seen.add(x)
                    steps.append((x, h, slot))
                    nxt.append(x)
        frontier = nxt
    assert len(seen) == n
    grids = np.meshgrid(*[np.arange(n)] * len(gens), indexing="ij")
    images = np.stack([g.ravel() for g in grids], axis=1)     # [A, k]
    maps = np.zeros((len(images), n), dtype=np.int64)
    for x, h, slot in steps:
        maps[:, x] = G.table[maps[:, h], images[:, slot]]
    homomorphic = (maps[:, G.table] == G.table[maps[:, :, None],
                                               maps[:, None, :]]).all(
        axis=(1, 2))
    bijective = (np.sort(maps, axis=1) == np.arange(n)).all(axis=1)
    return int((homomorphic & bijective).sum())


@pytest.mark.parametrize("key", list(range(2, 31))
                         + ["semidirect_pq(7,3,2)", "semidirect_pq(11,5,3)",
                            "heisenberg(3)", "heisenberg(5)", "standin"])
def test_automorphism_count_matches_brute_force(key):
    G = _AUT_GROUPS[key]() if isinstance(key, str) else cyclic(key)
    auts = automorphisms(G)
    assert auts == _backtrack_automorphisms(G)
    if G.order <= 30:
        assert len(auts) == _brute_automorphism_count(G)


@pytest.mark.parametrize("key", ["heisenberg(3)", "semidirect_pq(11,5,3)",
                                 "standin"])
def test_pinned_automorphisms_match_backtracking(key):
    G = _AUT_GROUPS[key]()
    g0, g1 = G.generators[:2]
    orders = G.element_orders()
    wrong_order = int(np.flatnonzero(orders != orders[g0])[-1])
    last = automorphisms(G)[-1]
    pins = [{0: g0}, {1: last[1]}, dict(enumerate(last)),
            {0: G.commutator(g0, g1)}, {0: 0}, {0: wrong_order}]
    for fixed in pins:
        assert automorphisms(G, fixed=fixed) == \
            _backtrack_automorphisms(G, fixed=fixed)
    assert automorphisms(G, fixed=dict(enumerate(last))) == [last]
    assert automorphisms(G, fixed={0: 0}) == []
    assert automorphisms(G, fixed={0: wrong_order}) == []


@pytest.mark.parametrize("key, tree", [("heisenberg(3)", 702),
                                       ("semidirect_pq(11,5,3)", 450),
                                       ("standin", 11826)])
def test_automorphism_cap_is_the_backtracking_tree(key, tree):
    """An unpinned search raises exactly when the depth-first tree over
    the same candidates has more than ``node_cap`` nodes."""
    G = _AUT_GROUPS[key]()
    for search in (automorphisms, _backtrack_automorphisms):
        assert search(G, node_cap=tree) == search(G)
        with pytest.raises(AutCapExceeded):
            search(G, node_cap=tree - 1)


def test_automorphisms_cap(heis3):
    with pytest.raises(AutCapExceeded):
        automorphisms(heis3, node_cap=10)


def test_searches_take_their_options_by_keyword(heis3):
    """A presentation passed where the removed ``pres`` argument stood is
    refused rather than read as a node cap."""
    pairs = _noncommuting_pairs(heis3)
    with pytest.raises(TypeError):
        automorphisms(heis3, heis3.presentation)
    with pytest.raises(TypeError):
        pair_orbit_count(heis3, pairs, None, heis3.presentation)
    with pytest.raises(TypeError):
        pair_orbit_count(heis3, pairs)  # the automorphisms are required
    with pytest.raises(TypeError):
        single_aut_orbit_certificate(heis3, pairs, heis3.presentation)


def _loop_permutation(G, pres_gens, images):
    """Oracle for the batched permutations: one breadth-first walk of G
    per map, element by element, filling perm[h g] = perm[h] image."""
    n = G.order
    perm = np.full(n, -1, dtype=np.int32)
    perm[0] = 0
    frontier = [0]
    step = [(g, img) for g, img in zip(pres_gens, images)]
    step += [(G.inverse(g), G.inverse(img)) for g, img in step]
    while frontier:
        nxt = []
        for h in frontier:
            for g, img in step:
                x = int(G.table[h, g])
                if perm[x] == -1:
                    perm[x] = G.table[perm[h], img]
                    nxt.append(x)
        frontier = nxt
    if (perm == -1).any():
        raise ValueError("generator elements do not generate the group")
    return perm


def test_extend_to_permutation_is_homomorphic(heis3):
    auts = automorphisms(heis3)
    gens = list(heis3.generators)
    perm = automorphism_permutations(heis3, [auts[5]])[0]
    n = heis3.order
    assert sorted(perm.tolist()) == list(range(n))
    rng = np.random.default_rng(7)
    for _ in range(50):
        g, h = rng.integers(0, n, 2)
        assert perm[heis3.table[g, h]] == heis3.table[perm[g], perm[h]]
    assert np.array_equal(perm, _loop_permutation(heis3, gens, auts[5]))
    # The walk does not depend on the images, so even images that define
    # no automorphism give the oracle's array.
    for images in rng.integers(0, n, (20, 2)):
        assert np.array_equal(automorphism_permutations(heis3, [images])[0],
                              _loop_permutation(heis3, gens, images))
    # A group built with no generators has no tree to extend along.
    with pytest.raises(ValueError, match="no generators"):
        automorphism_permutations(FiniteGroup(heis3.table, ()), [()])


def test_pair_orbit_count_heisenberg(heis3):
    pairs = [(u, v) for u in range(27) for v in range(27)
             if heis3.commutator(u, v) != 0]
    assert len(pairs) == 432
    assert pair_orbit_count(heis3, pairs, automorphisms(heis3)) == 1


def test_pair_orbit_count_klein_four():
    G = coset_enumerate(Presentation(["a", "b"], ["a^2", "b^2", "[a,b]"]))
    # Orbits of ordered pairs under Aut = GL(2,2): (0,0), (0,u), (u,0),
    # (u,u), (u,v) independent -- five orbits of the sixteen pairs.
    pairs = [(u, v) for u in range(4) for v in range(4)]
    assert pair_orbit_count(G, pairs, automorphisms(G)) == 5


def test_automorphisms_fixed_and_limit(heis3):
    x, y = heis3.generators
    pinned = automorphisms(heis3, fixed={0: x, 1: y})
    assert pinned == [(x, y)]
    some = automorphisms(heis3)[:5]
    assert len(some) == 5
    # Pinning a non-generating image admits no completion.
    assert automorphisms(heis3, fixed={0: 0})[:1] == []


@pytest.mark.parametrize("fixed", [{5: 1}, {-1: 1}, {0: 999}, {0: -1},
                                   {0: 1.0}])
def test_automorphisms_refuse_pins_out_of_range(heis3, fixed):
    # A key names a generator and a value an element of the group; a
    # float is no element, even one that equals an element.
    with pytest.raises(ValueError):
        automorphisms(heis3, fixed=fixed)


def test_single_aut_orbit_certificate(heis3, order243):
    nc = [(u, v) for u in range(27) for v in range(27)
          if heis3.commutator(u, v) != 0]
    assert single_aut_orbit_certificate(heis3, nc) is True

    G = semidirect_pq(11, 5, 3)
    pairs = [(u, v) for u in range(55) for v in range(55)
             if G.commutator(u, v) != 0]
    # 24 true orbits, so the single-orbit certificate must refuse.
    assert single_aut_orbit_certificate(G, pairs) is False
    auts = automorphisms(G)
    assert pair_orbit_count(G, pairs, auts=auts) == 24

    # Abelian: no noncommuting generator pair, so no certificate.
    K = cyclic(6)
    assert single_aut_orbit_certificate(K, [(1, 2)]) is None

    nc243 = [(u, v) for u in range(243) for v in range(243)
             if order243.commutator(u, v) != 0]
    assert len(nc243) == 38880
    assert single_aut_orbit_certificate(order243, nc243,
                                        node_cap=2_000_000) is True


def _per_class_certificate(G, pairs, node_cap=200000):
    """Oracle for single_aut_orbit_certificate: fuse the pairs into
    conjugation classes, then make one pinned backtracking query per class
    representative, from a noncommuting pair of presentation generators,
    stopping at the first automorphism."""
    if G.presentation is None or not pairs:
        return None
    gens = G.generators
    source = next(((i, j) for i in range(len(gens)) for j in range(len(gens))
                   if i != j and G.commutator(gens[i], gens[j]) != 0), None)
    if source is None:
        return None
    n = G.order
    x = np.arange(n)
    conj = [G.table[G.table[h, x], G.inv[h]] for g in gens
            for h in (g, int(G.inv[g]))]
    visited = set()
    reps = []
    for u, v in pairs:
        if u * n + v in visited:
            continue
        reps.append((u, v))
        visited.add(u * n + v)
        frontier = [(u, v)]
        while frontier:
            nxt = []
            for a, b in frontier:
                for perm in conj:
                    image = (int(perm[a]), int(perm[b]))
                    if image[0] * n + image[1] not in visited:
                        visited.add(image[0] * n + image[1])
                        nxt.append(image)
            frontier = nxt
    gi, gj = source
    return all(_backtrack_automorphisms(G, node_cap=node_cap,
                                        fixed={gi: a, gj: b}, limit=1)
               for a, b in reps)


def _noncommuting_pairs(G):
    us, vs = np.nonzero(G.conjugation_table() != np.arange(G.order))
    return list(zip(us.tolist(), vs.tolist()))


@pytest.mark.parametrize("name", sorted(_AUT_GROUPS))
def test_single_aut_orbit_certificate_matches_per_class_oracle(name):
    G = _AUT_GROUPS[name]()
    pairs = _noncommuting_pairs(G)
    want = _per_class_certificate(G, pairs)
    assert single_aut_orbit_certificate(G, pairs) is want
    assert (want is None) == (name == "cyclic(6)")
    if pairs:
        # A commuting pair lies outside every noncommuting pair's orbit.
        mixed = pairs + [(0, G.generators[0])]
        assert single_aut_orbit_certificate(G, mixed) is False
        assert _per_class_certificate(G, mixed) is False


def test_single_aut_orbit_certificate_order243_queries(order243,
                                                       monkeypatch):
    pairs = _noncommuting_pairs(order243)
    want = _per_class_certificate(order243, pairs, node_cap=2_000_000)
    assert want is True
    calls = []
    query = groups.automorphisms
    monkeypatch.setattr(groups, "automorphisms",
                        lambda *a, **k: calls.append(k) or query(*a, **k))
    assert single_aut_orbit_certificate(order243, pairs,
                                        node_cap=2_000_000) is want
    assert 1 <= len(calls) <= 10


def test_automorphism_permutations_consistent(heis3, group55):
    klein4 = coset_enumerate(Presentation(["a", "b"],
                                          ["a^2", "b^2", "[a,b]"]))
    for G, count in ((heis3, 432), (group55, 110), (klein4, 6)):
        auts = automorphisms(G)
        perms = automorphism_permutations(G, auts)
        assert perms.shape == (count, G.order)
        # Each row is a bijection fixing the identity.
        assert (perms[:, 0] == 0).all()
        assert (np.sort(perms, axis=1) == np.arange(G.order)).all()
        # Row for row, the one-pass build equals a walk per automorphism.
        for aut, perm in zip(auts, perms):
            assert np.array_equal(perm,
                                  _loop_permutation(G, G.generators, aut))


# Every group the tests build that the class and order queries are
# pinned on: C1..C30, the metacyclic groups (table 1's and two more), the
# Heisenberg groups and both order-243 configs.
_QUERY_GROUPS = (
    [pytest.param(functools.partial(cyclic, n), id="C%d" % n)
     for n in range(1, 31)]
    + [pytest.param(functools.partial(semidirect_pq, *pqr),
                    id="semidirect_pq(%d,%d,%d)" % pqr)
       for pqr in sorted({pqr for pqr, _ in RECORDED_WITNESS_ROWS}
                         | {(7, 3, 2), (13, 3, 3)})]
    + [pytest.param(functools.partial(heisenberg, p), id="heisenberg(%d)" % p)
       for p in (3, 5)]
    + [pytest.param(lambda name=name: load_config(os.path.join(
        CONFIG_DIR, name + ".cfg")).group, id=name)
       for name in ("order243_presented", "order243_obstructed_standin")])


@pytest.mark.parametrize("make", _QUERY_GROUPS)
def test_conjugacy_classes_match_their_definition(make):
    G = make()
    classes = G.conjugacy_classes()
    # A partition of G, ordered by least element, each class sorted.
    assert sorted(g for cls in classes for g in cls) == list(range(G.order))
    leasts = [cls[0] for cls in classes]
    assert leasts == sorted(set(leasts))
    assert all(cls == sorted(set(cls)) for cls in classes)
    assert classes == classes_by_definition(G)


@pytest.mark.parametrize("make", _QUERY_GROUPS)
def test_element_orders_match_the_power_loop(make):
    G = make()
    want = [order_by_powers(G, g) for g in range(G.order)]
    assert G.element_orders().tolist() == want


@pytest.mark.parametrize("build", [
    lambda: cyclic(10 ** 12), lambda: heisenberg(10 ** 7),
    # Past the bound before either primality test: trial division on a
    # 20-digit p would run for hours.
    lambda: semidirect_pq(10 ** 19 + 1, 3, 2),
    lambda: semidirect_pq(10 ** 19 + 1, -1, 2),
    lambda: semidirect_pq(67, 67, 2)],
    ids=["cyclic", "heisenberg", "semidirect", "semidirect-negative-q",
         "semidirect-product"])
def test_constructors_refuse_orders_past_the_bound(build):
    with pytest.raises(ValueError, match="exceeds the bound 4096 on dense "
                                         "tables"):
        build()


def test_constructors_build_up_to_the_bound(monkeypatch):
    monkeypatch.setattr(groups, "MAX_ORDER", 27)
    assert cyclic(27).order == heisenberg(3).order == 27
    assert semidirect_pq(7, 3, 2).order == 21
    for build in (lambda: cyclic(28), lambda: semidirect_pq(11, 5, 3),
                  lambda: heisenberg(5)):
        with pytest.raises(ValueError, match="bound 27"):
            build()


def test_enumeration_refuses_a_group_past_the_bound(monkeypatch):
    # C11 x C11 has order 121: the bound is checked once the cosets are
    # counted, before the 121 x 121 table is built, and nothing is cached.
    pres = Presentation(["a", "b"], ["a^11", "b^11", "[a,b]"])
    monkeypatch.setattr(groups, "MAX_ORDER", 120)
    with pytest.raises(ValueError, match="order 121 exceeds the bound 120"):
        _enumerate_uncached(pres)
    assert not groups._enumeration.cache_info().currsize
    monkeypatch.setattr(groups, "MAX_ORDER", 121)
    assert _enumerate_uncached(pres).order == 121
