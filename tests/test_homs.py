"""Surface-group epimorphisms, quick products, witness search, pair counts
and the quadruple search."""

import functools
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from handlebody.config import load_config

from handlebody.groups import (coset_enumerate, cyclic, evaluate_in_group,
                               heisenberg, Presentation, semidirect_pq)
from handlebody.homs import (EXTENDS, Epimorphism, NO_WITNESS,
                             NotGenerating, QuadrupleCapExceeded,
                             RelationViolated, batch_pair_witnesses,
                             evaluate,
                             handlebody_witness, partner_pairs,
                             _QUICK_PRODUCTS, _quick_mask, quadruple_search,
                             r3_criterion_word, r_cubed_criterion,
                             standard_metacyclic_images)
from handlebody.orbit import OrbitSet, generate_c0
from handlebody.words import Word, parse_word

from group_helpers import _fold_over_table, direct_product

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_epimorphism_validation(group55, heis3):
    a, b = group55.generators
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    assert theta.images[0] == a

    with pytest.raises(RelationViolated) as err:
        Epimorphism(group55, (a, b, a, b))  # [a,b]^2 != 1
    assert err.value.element != 0

    x, _ = heis3.generators
    with pytest.raises(NotGenerating) as err:
        Epimorphism(heis3, (x, x, x, x))
    assert err.value.closure_size == 3

    with pytest.raises(ValueError):
        Epimorphism(heis3, (x, x, x))

    # The swap pattern satisfies [a,b][b,a] = 1 in any group.
    x, y = heis3.generators
    assert Epimorphism(heis3, (x, y, y, x)).images == (x, y, y, x)


@pytest.mark.parametrize("images", [(-18, 3, 3, 9), (27, 3, 3, 9),
                                    (9, 3, 3, 27), (9.7, 3, 3, 9),
                                    ("9", 3, 3, 9)])
def test_epimorphism_rejects_images_outside_the_group(heis3, images):
    # (9, 3, 3, 9) is the shipped heisenberg_3 theta; -18 is 9 mod 27, and
    # 9.7 is no element although it truncates to 9.
    assert Epimorphism(heis3, (9, 3, 3, 9)).images == (9, 3, 3, 9)
    with pytest.raises(ValueError, match="elements 0..26"):
        Epimorphism(heis3, images)


def test_evaluate_matches_scalar_reference(heis3, orbit3):
    x, y = heis3.generators
    theta = Epimorphism(heis3, (x, y, y, x))
    for w in orbit3:
        assert evaluate(theta, w) == _fold_over_table(heis3, theta.images, w)
    with pytest.raises(ValueError):
        evaluate_in_group(heis3, parse_word("y2"), theta.images[:3])
    with pytest.raises(ValueError):
        evaluate(theta, Word([(0, 1)], rank=3))


def quick_witness(theta):
    """Name of the first trivial product in the nine-element quick set, or
    None when all nine are nontrivial: the one-map oracle of the batched
    ``_quick_mask``."""
    for kind, word in _QUICK_PRODUCTS:
        if evaluate_in_group(theta.group, word, theta.images) == 0:
            return kind
    return None


def _masked_pairs(G, a, b, pairs):
    """``pairs`` less those ``_quick_mask`` marks, filtered one list at a
    time."""
    rs, ts = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return [pair for pair, trivial
            in zip(pairs, _quick_mask(G, a, b, rs, ts).tolist())
            if not trivial]


def test_quick_witness_kinds(heis3):
    x, y = heis3.generators
    zinv = heis3.inverse(heis3.commutator(x, y))

    # Abelian images: the commutator product fires first.
    K = cyclic(5)
    g = K.generators[0]
    assert quick_witness(Epimorphism(K, (g, g, g, g))) == \
        "commutator [u,v] trivial"

    # (x, y, x^-1, y): [x^-1, y] = [x,y]^-1 in a class-2 group, and
    # u*r = 1 while [u,v] != 1.
    assert heis3.commutator(heis3.inverse(x), y) == zinv
    theta = Epimorphism(heis3, (x, y, heis3.inverse(x), y))
    assert quick_witness(theta) == "ur trivial"


def test_quick_witness_none_for_standard_metacyclic(group55):
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    assert quick_witness(theta) is None


def test_handlebody_witness_finds_recorded_word(group55, orbit3):
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    verdict = handlebody_witness(theta, orbit3)
    assert verdict.value == EXTENDS
    report = verdict.report
    assert evaluate(theta, report.witness) == 0
    assert report.sigma_path == (3, 4, 4)
    assert verdict.searched_depth == 3


def test_handlebody_witness_negative_at_depth_zero(group55):
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    verdict = handlebody_witness(theta, OrbitSet(0))
    assert verdict.value == NO_WITNESS
    assert verdict.report is None
    assert verdict.searched_depth == 0


def test_r3_criterion_equivalence():
    w = r3_criterion_word()
    assert len(w) > 0
    for p, q, r in ((7, 3, 2), (11, 5, 3), (11, 5, 4), (23, 11, 2),
                    (31, 5, 2)):
        G = semidirect_pq(p, q, r)
        theta = Epimorphism(G, standard_metacyclic_images(G))
        assert (evaluate(theta, w) == 0) == r_cubed_criterion(p, r)


def _burnside_noncommuting(G):
    """|{(u,v): [u,v] != 1}| = |G|^2 - |G| k(G): the commuting pairs are
    the fixed points of conjugation, |G| per conjugacy class."""
    return G.order ** 2 - G.order * len(G.conjugacy_classes())


def test_noncommuting_pair_count(heis3, group55):
    # ``counts`` reads the count off the conjugation table, as the number
    # of pairs it lists; the class-count identity is the oracle.
    s3 = coset_enumerate(Presentation(["a", "b"], ["a^3", "b^2", "(a b)^2"]))
    brute = sum(1 for u in range(6) for v in range(6)
                if s3.commutator(u, v) != 0)
    for G, want in ((heis3, 432), (group55, 2640), (s3, brute),
                    (cyclic(9), 0)):
        listed = np.count_nonzero(G.conjugation_table() != np.arange(G.order))
        assert listed == _burnside_noncommuting(G) == want


def _brute_partner_pairs(G, a, b):
    target = G.inverse(G.commutator(a, b))
    out = []
    for r in range(G.order):
        for t in range(G.order):
            if G.commutator(r, t) != target:
                continue
            if len(G.subgroup_closure([a, b, r, t])) == G.order:
                out.append((r, t))
    return out


def test_partner_pairs_against_brute_force(heis3, group55):
    x, y = heis3.generators
    pairs = partner_pairs(heis3, x, y)
    assert pairs == _brute_partner_pairs(heis3, x, y)
    assert len(pairs) == 216
    assert pairs == sorted(pairs)

    filtered = partner_pairs(heis3, x, y, filter_quick=True)
    assert len(filtered) == 181
    assert set(filtered) <= set(pairs)
    # The filter is the batched quick test applied to the unfiltered list.
    assert _masked_pairs(heis3, x, y, pairs) == filtered
    assert filtered == [
        (r, t) for r, t in pairs
        if quick_witness(Epimorphism(heis3, (x, y, r, t))) is None]

    a, b = group55.generators
    assert partner_pairs(group55, a, b) == _brute_partner_pairs(group55, a, b)


def _quick_product_trivial(G, u, v, r, t):
    """The nine quick products, one scalar product at a time."""
    inv = G.inverse
    return 0 in (G.commutator(u, v), G.mult(u, r), G.mult(u, v),
                 G.mult(u, inv(v)), G.mult(u, inv(t)), G.mult(r, t),
                 G.mult(r, inv(t)), G.mult(r, inv(v)), G.mult(t, v))


def _check_partner_pairs(G, a, b):
    pairs = partner_pairs(G, a, b)
    assert pairs == _brute_partner_pairs(G, a, b)
    filtered = [(r, t) for r, t in pairs
                if not _quick_product_trivial(G, a, b, r, t)]
    assert partner_pairs(G, a, b, filter_quick=True) == filtered
    assert _masked_pairs(G, a, b, pairs) == filtered


_PROPER_PAIR_GROUPS = {
    "heisenberg(3) x cyclic(3)": lambda: direct_product(heisenberg(3),
                                                       cyclic(3)),
    "cyclic(12)": lambda: cyclic(12),
    "semidirect_pq(7,3,2) x cyclic(3)": lambda: direct_product(
        semidirect_pq(7, 3, 2), cyclic(3)),
}
_proper_pair_group = functools.lru_cache(maxsize=None)(
    lambda key: _PROPER_PAIR_GROUPS[key]())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PROPER_PAIR_GROUPS)), st.data())
def test_partner_pairs_when_a_b_generate_a_proper_subgroup(key, data):
    """(a, b) that do not generate G: generation is then decided per
    (subgroup <a,b,r>, coset of t), which the brute force does per pair."""
    G = _proper_pair_group(key)
    a = data.draw(st.integers(0, G.order - 1), label="a")
    b = data.draw(st.integers(0, G.order - 1), label="b")
    assume(len(G.subgroup_closure([a, b])) < G.order)
    _check_partner_pairs(G, a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["heisenberg(3)", "semidirect_pq(11,5,3)",
                        "order243"]), st.data())
def test_quick_mask_matches_quick_witness(heis3, group55, order243, key,
                                          data):
    """The batched quick filter fires on exactly the epimorphisms whose
    quick witness does.  Pairs are drawn from the solutions of
    [a,b][r,t] = 1 as well as at random, so that many are epimorphisms."""
    G = {"heisenberg(3)": heis3, "semidirect_pq(11,5,3)": group55,
         "order243": order243}[key]
    element = st.integers(0, G.order - 1)
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    target = G.inverse(G.commutator(a, b))
    sol_r, sol_t = np.nonzero(G.conjugation_table() == G.table[target])
    pair = st.one_of(
        st.integers(0, sol_r.size - 1).map(
            lambda i: (int(sol_r[i]), int(sol_t[i]))),
        st.tuples(element, element))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=16), label="pairs")
    rs, ts = np.array(pairs).T
    mask = _quick_mask(G, a, b, rs, ts)
    for (r, t), fired in zip(pairs, mask.tolist()):
        try:
            theta = Epimorphism(G, (a, b, r, t))
        except (RelationViolated, NotGenerating):
            continue
        assert fired == (quick_witness(theta) is not None)


def test_partner_pairs_order243_proper_pairs(order243):
    # order243 needs four generators, so no (a, b) generates it.
    for a, b in ((1, 2), (37, 200)):
        assert len(order243.subgroup_closure([a, b])) < order243.order
        _check_partner_pairs(order243, a, b)


def test_batch_pair_witnesses(heis3, orbit9):
    x, y = heis3.generators
    pairs = partner_pairs(heis3, x, y)
    idxs = batch_pair_witnesses(heis3, x, y, pairs, orbit9)
    assert idxs.shape == (216,)
    assert (idxs >= 0).all()
    words = list(orbit9)
    for k in (0, 57, 215):  # spot-check first-index semantics
        r, t = pairs[k]
        theta = Epimorphism(heis3, (x, y, r, t))
        idx = int(idxs[k])
        assert evaluate(theta, words[idx]) == 0
        assert all(evaluate(theta, w) != 0 for w in words[:idx])


def test_batch_pair_witnesses_reports_missing(heis3):
    x, y = heis3.generators
    pairs = partner_pairs(heis3, x, y)[:4]
    idxs = batch_pair_witnesses(heis3, x, y, pairs, OrbitSet(0))
    assert (idxs == -1).sum() + (idxs >= 0).sum() == 4


def test_quadruple_search_known_values(group55):
    K = cyclic(5)
    assert quadruple_search(K) == (0, 0, 0, 1)
    assert quadruple_search(group55) == (0, 1, 0, 5)
    s1, s2, s3, s4 = quadruple_search(group55)
    assert group55.commutator(s1, s2) == 0
    assert group55.commutator(s3, s4) == 0
    assert len(group55.subgroup_closure([s1, s2, s3, s4])) == 55


def test_quadruple_search_exhaustion_and_cap(heis3):
    assert quadruple_search(_elementary_abelian_2(5)) is None
    with pytest.raises(QuadrupleCapExceeded):
        quadruple_search(heis3, node_cap=3)


def _reference_quadruple(G):
    """The quadruple search one candidate at a time, every closure made from
    an element set and memoized on it, with no node cap.  Returns the
    quadruple (None when the search is exhausted) and the visits counted up
    to it."""
    n = G.order
    nodes = 0
    closures = {}

    def closure_of(elements):
        key = tuple(sorted(set(elements)))
        if key not in closures:
            closures[key] = tuple(G.subgroup_closure(list(key)))
        return closures[key]

    def centralizer(g):
        return np.flatnonzero(G.table[:, g] == G.table[g]).tolist()

    for s1 in range(n):
        for s2 in centralizer(s1):
            h12 = closure_of((s1, s2))
            for s3 in range(n):
                h123 = closure_of(h12 + (s3,))
                # The s4 loop cannot help if even the whole centralizer of
                # s3 cannot complete the generation.
                if len(closure_of(h123 + tuple(centralizer(s3)))) < n:
                    nodes += 1
                    continue
                for s4 in centralizer(s3):
                    nodes += 1
                    if len(closure_of(h123 + (s4,))) == n:
                        return (s1, s2, s3, s4), nodes
    return None, nodes


def _elementary_abelian_2(rank):
    G = cyclic(2)
    for _ in range(rank - 1):
        G = direct_product(G, cyclic(2))
    return G


# group -> the visits its search counts, the node cap it passes at
_QUADRUPLE_VISITS = {
    "cyclic(3)": (lambda: cyclic(3), 2),
    "cyclic(6)": (lambda: cyclic(6), 2),
    "heisenberg(3)": (lambda: heisenberg(3), 325),
    "heisenberg(5)": (lambda: heisenberg(5), 3751),
    "semidirect_pq(11,5,3)": (lambda: semidirect_pq(11, 5, 3), 115),
    "semidirect_pq(7,3,2)": (lambda: semidirect_pq(7, 3, 2), 45),
    "semidirect_pq(23,11,3)": (lambda: semidirect_pq(23, 11, 3), 517),
    "order243_obstructed_standin": (lambda: load_config(os.path.join(
        CONFIG_DIR, "order243_obstructed_standin.cfg")).group, 997),
    "Z2^4": (lambda: _elementary_abelian_2(4), 4681),
    # Abelian and of rank 5, so the search is exhausted after visiting
    # every (s1, s2, s3, s4) once.
    "Z2^5": (lambda: _elementary_abelian_2(5), 32 ** 4),
}


@pytest.mark.parametrize("name", sorted(_QUADRUPLE_VISITS))
def test_quadruple_search_matches_reference_at_its_cap(name):
    """Same quadruple as the one-candidate-at-a-time search, and the same
    visit count: the search passes at that cap and raises one below it."""
    build, visits = _QUADRUPLE_VISITS[name]
    G = build()
    found, counted = _reference_quadruple(G)
    assert counted == visits
    assert quadruple_search(G, node_cap=visits) == found
    with pytest.raises(QuadrupleCapExceeded):
        quadruple_search(G, node_cap=visits - 1)


def test_standard_metacyclic_images_family():
    for p, q, r in ((7, 3, 2), (11, 5, 3), (23, 11, 2)):
        G = semidirect_pq(p, q, r)
        theta = Epimorphism(G, standard_metacyclic_images(G))
        assert theta.images[:2] == G.generators


# --- partial (fresh) orbit sets against finished ones -------------------

_GROUPS = {
    "cyclic_3": lambda: cyclic(3),
    "heisenberg_3": lambda: heisenberg(3),
    "semidirect_11_5_3": lambda: semidirect_pq(11, 5, 3),
    "order243_presented": lambda: load_config(
        os.path.join(CONFIG_DIR, "order243_presented.cfg")).group,
}
_ORBIT_DEPTHS = [0, 1, 3, 5, 9]
_CACHE = {}


def _cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def _group(name):
    return _cached(name, _GROUPS[name])


def _finished(depth):
    def build():
        s = generate_c0(depth=depth)
        len(s)
        return s
    return _cached(depth, build)


def _partner(G, a, b, c, k):
    """The k-th (cyclically) d with [a,b][c,d] = 1, or None."""
    ds = [d for d in range(G.order)
          if G.mult(G.commutator(a, b), G.commutator(c, d)) == 0]
    return ds[k % len(ds)] if ds else None


_ELEMENT = st.integers(0, 242)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_GROUPS)),
       depth=st.sampled_from(_ORBIT_DEPTHS),
       abck=st.tuples(_ELEMENT, _ELEMENT, _ELEMENT, st.integers(0, 10 ** 6)))
def test_witness_agrees_on_fresh_and_finished_sets(name, depth, abck):
    G = _group(name)
    a, b, c = (x % G.order for x in abck[:3])
    d = _partner(G, a, b, c, abck[3])
    assume(d is not None)
    try:
        theta = Epimorphism(G, (a, b, c, d))
    except NotGenerating:
        assume(False)
    fresh = OrbitSet(depth)
    got = handlebody_witness(theta, fresh)
    want = handlebody_witness(theta, _finished(depth))
    assert got.value == want.value
    assert got.searched_depth == want.searched_depth == depth
    if want.report is None:
        assert got.report is None and fresh.complete
    else:
        assert got.report.witness == want.report.witness
        assert got.report.sigma_path == want.report.sigma_path


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_GROUPS)),
       depth=st.sampled_from(_ORBIT_DEPTHS),
       ab=st.tuples(_ELEMENT, _ELEMENT),
       cks=st.lists(st.tuples(_ELEMENT, st.integers(0, 10 ** 6)),
                    min_size=1, max_size=6))
def test_batch_agrees_on_fresh_and_finished_sets(name, depth, ab, cks):
    G = _group(name)
    a, b = (x % G.order for x in ab)
    pairs = [(c % G.order, _partner(G, a, b, c % G.order, k))
             for c, k in cks]
    pairs = [(c, d) for c, d in pairs if d is not None]
    assume(pairs)
    fresh = OrbitSet(depth)
    got = batch_pair_witnesses(G, a, b, pairs, fresh)
    want = batch_pair_witnesses(G, a, b, pairs, _finished(depth))
    assert got.tolist() == want.tolist()
    if (want < 0).any():
        assert fresh.complete


def test_witness_scan_stops_at_the_witness_level(group55):
    # The witness has path (3, 4, 4), a level-3 word: levels 0..3 hold 41.
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    s = OrbitSet(depth=9)
    assert handlebody_witness(theta, s).report.sigma_path == (3, 4, 4)
    assert not s.complete and s.generated == 41


def test_no_witness_scan_finishes_the_set(group55, heis3):
    theta = Epimorphism(group55, standard_metacyclic_images(group55))
    s = OrbitSet(depth=2)
    assert handlebody_witness(theta, s).value == NO_WITNESS
    assert s.complete and s.generated == 14

    a, b, c, d = theta.images
    s = OrbitSet(depth=2)
    idxs = batch_pair_witnesses(group55, a, b, [(c, d)], s)
    assert idxs.tolist() == [-1] and s.complete
