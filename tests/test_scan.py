"""The witness scan: the first word of an orbit set that a map sends to the
identity, read one level trie at a time (``orbit.first_zero``), against a
scalar fold over the scan order."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handlebody.groups import cyclic, evaluate_in_group
from handlebody.homs import (batch_pair_witnesses,
                             standard_metacyclic_images)
from handlebody.orbit import OrbitSet, first_zero, generate_c0

orbit_module = importlib.import_module("handlebody.orbit")

# Words generated by the end of each level of the default set.
LEVEL_ENDS = (2, 5, 14, 41, 122, 366)
KINDS = ("fresh", "grown", "finished")
_REFERENCE = {}


def _reference(depth):
    """The words of the finished depth-``depth`` set, in scan order."""
    if depth not in _REFERENCE:
        _REFERENCE[depth] = list(generate_c0(depth=depth))
    return _REFERENCE[depth]


def _scalar_first_zero(G, images, words):
    """Oracle: index of the first of ``words`` that ``evaluate_in_group``
    sends to the identity, or -1."""
    return next((i for i, w in enumerate(words)
                 if evaluate_in_group(G, w, images) == 0), -1)


def _orbit_set(kind, depth, k):
    """A depth-``depth`` set: fresh, grown to scan index ``k`` by
    ``word_at``, or finished; never the shared set, so the kinds are
    distinct sets."""
    s = OrbitSet(depth)
    if kind == "grown":
        s.word_at(k % LEVEL_ENDS[depth])
    elif kind == "finished":
        len(s)
    return s


def _group(name, heis3, group55, order243):
    return {"cyclic3": cyclic(3), "heisenberg3": heis3,
            "semidirect_11_5_3": group55, "order243": order243}[name]


GROUPS = ("cyclic3", "heisenberg3", "semidirect_11_5_3", "order243")
_ELEMENTS = st.lists(st.integers(0, 242), min_size=4, max_size=4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", GROUPS)
@settings(max_examples=25, deadline=None)
@given(depth=st.integers(0, 5), row=_ELEMENTS, k=st.integers(0, 10 ** 6))
def test_first_zero_matches_scalar_fold(name, kind, depth, row, k, heis3,
                                        group55, order243):
    # Any four elements will do: a word's value is the root's under its
    # path's substitutions, for every assignment of the free generators.
    G = _group(name, heis3, group55, order243)
    images = tuple(g % G.order for g in row)
    s = _orbit_set(kind, depth, k)
    before = s.generated
    want = _scalar_first_zero(G, images, _reference(depth))
    assert first_zero(s, G, images) == want
    if want < 0:
        assert s.complete
    else:
        # The scan generated no level past the witness's.
        level_end = min(end for end in LEVEL_ENDS if end > want)
        assert s.generated == max(before, level_end)


def test_rows_with_and_without_a_witness(heis3, group55):
    # A seeded sample at depth 3 holds both outcomes, scanned on fresh and
    # finished sets.
    words = _reference(3)
    finished = generate_c0(depth=3)
    len(finished)
    rng = np.random.default_rng(3)
    outcomes = set()
    for G in (heis3, group55, cyclic(3)):
        for row in rng.integers(0, G.order, size=(40, 4)).tolist():
            want = _scalar_first_zero(G, row, words)
            assert first_zero(OrbitSet(depth=3), G, row) == want
            assert first_zero(finished, G, row) == want
            outcomes.add(want >= 0)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(depth=st.integers(0, 5), ab=st.lists(st.integers(0, 242), min_size=2,
                                             max_size=2),
       pairs=st.lists(st.tuples(st.integers(0, 242), st.integers(0, 242)),
                      max_size=8),
       k=st.integers(0, 10 ** 6))
def test_batch_pair_witnesses_match_per_pair_folds(kind, depth, ab, pairs, k,
                                                    order243, group55):
    G = order243 if k % 2 else group55
    a, b = (g % G.order for g in ab)
    pairs = [(r % G.order, t % G.order) for r, t in pairs]
    s = _orbit_set(kind, depth, k)
    got = batch_pair_witnesses(G, a, b, pairs, s)
    assert got.dtype == np.int64 and got.shape == (len(pairs),)
    words = _reference(depth)
    assert got.tolist() == [_scalar_first_zero(G, (a, b, r, t), words)
                            for r, t in pairs]


def test_second_scan_reuses_the_level_tries(group55, monkeypatch):
    built = []
    path_trie = orbit_module._path_trie
    monkeypatch.setattr(orbit_module, "_path_trie",
                        lambda moves: built.append(len(moves))
                        or path_trie(moves))
    s = OrbitSet(depth=2)
    zero = (0, 0, 0, 0)         # every word dies: stops at level 0
    # Its first witness has path (3, 4, 4), on level 3.
    miss = standard_metacyclic_images(group55)
    assert _scalar_first_zero(group55, miss, _reference(2)) == -1
    assert first_zero(s, group55, zero) == 0
    assert built == [2]
    assert first_zero(s, group55, miss) == -1
    assert built == [2, 3, 9]
    tries = [t for _, t in s.trie_blocks()]
    assert first_zero(s, group55, miss) == -1
    assert built == [2, 3, 9]
    assert all(t is u for (_, t), u in zip(s.trie_blocks(), tries))
