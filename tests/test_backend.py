"""Word-evaluation kernels: packing, both backends, selection logic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handlebody.backend import (HAVE_NUMBA, ENV_VAR, available_backends,
                                get_backend, letter_image_table, pack_words)
from handlebody.homs import evaluate
from handlebody.words import Word, identity, parse_word

letters_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=25)
word_lists_st = st.lists(letters_st.map(lambda ls: Word(ls, rank=4)),
                         max_size=30)


def _setup(G, images):
    return letter_image_table([int(g) for g in images], G.inv)


def test_pack_words_offsets():
    ws = [parse_word("x1 y1"), identity(4), parse_word("x2^-1")]
    enc, offsets = pack_words(ws)
    assert offsets.tolist() == [0, 2, 2, 3]
    assert enc.dtype == np.uint8
    assert enc.tolist() == [1, 2, 7]
    enc0, offsets0 = pack_words([])
    assert offsets0.tolist() == [0] and enc0.size == 0


def test_letter_image_table_layout(group55):
    a, b = group55.generators
    table = _setup(group55, (a, b, b, a))
    assert table[0] == 0
    assert table[1] == a and table[5] == group55.inverse(a)
    assert table[2] == b and table[6] == group55.inverse(b)


def test_available_backends_contains_numpy():
    names = available_backends()
    assert "numpy" in names
    assert ("numba" in names) == HAVE_NUMBA


def test_get_backend_names_and_errors(monkeypatch):
    assert get_backend("numpy").name == "numpy"
    with pytest.raises(ValueError):
        get_backend("fortran")
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert get_backend().name == "numpy"
    monkeypatch.setenv(ENV_VAR, "auto")
    assert get_backend().name == ("numba" if HAVE_NUMBA else "numpy")
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert get_backend().name in available_backends()


def _reference_values(G, images, ws):
    from handlebody.homs import Epimorphism
    # Scalar evaluation via the group table, independent of the kernels.
    out = []
    for w in ws:
        g = 0
        for gen, sign in w.letters:
            img = images[gen] if sign > 0 else G.inverse(images[gen])
            g = G.mult(g, img)
        out.append(g)
    return out


def _scalar_first_identity(G, images, ws):
    values = _reference_values(G, images, ws)
    return next((i for i, g in enumerate(values) if g == 0), -1)


@pytest.mark.parametrize("name", available_backends())
def test_evaluate_words_matches_scalar(name, group55):
    a, b = group55.generators
    images = (a, b, group55.inverse(b), group55.mult(b, group55.inverse(a)))
    ws = [parse_word(t) for t in
          ("1", "x1", "y2^-1", "[x1,y1]", "x1 y1 x2 y2", "(x1 y1)^5",
           "x2^-2 y2^3 x1^-1")]
    enc, offsets = pack_words(ws)
    backend = get_backend(name)
    got = backend.evaluate_words(enc, offsets, _setup(group55, images),
                                 group55.table)
    assert got.tolist() == _reference_values(group55, images, ws)


@pytest.mark.parametrize("name", available_backends())
def test_find_identity_word_first_index(name, group55):
    a, b = group55.generators
    images = (a, b, group55.inverse(b), group55.mult(b, group55.inverse(a)))
    table = _setup(group55, images)
    nontrivial = parse_word("x1")
    killer = parse_word("x1^55")  # order(a) divides 55, so this maps to 1
    ws = [nontrivial, killer, killer * parse_word("y1 y1^-1 x1 x1^-1")]
    enc, offsets = pack_words(ws)
    backend = get_backend(name)
    assert backend.find_identity_word(enc, offsets, table,
                                      group55.table) == 1
    enc2, offsets2 = pack_words([nontrivial, nontrivial])
    assert backend.find_identity_word(enc2, offsets2, table,
                                      group55.table) == -1
    enc3, offsets3 = pack_words([])
    assert backend.find_identity_word(enc3, offsets3, table,
                                      group55.table) == -1


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
@settings(max_examples=25, deadline=None)
@given(word_lists_st)
def test_backends_agree_on_random_words(heis3, ws):
    x, y = heis3.generators
    images = (x, y, y, x)
    enc, offsets = pack_words(ws)
    table = _setup(heis3, images)
    a = get_backend("numpy").evaluate_words(enc, offsets, table, heis3.table)
    b = get_backend("numba").evaluate_words(enc, offsets, table, heis3.table)
    assert a.tolist() == b.tolist()
    ia = get_backend("numpy").find_identity_word(enc, offsets, table,
                                                 heis3.table)
    ib = get_backend("numba").find_identity_word(enc, offsets, table,
                                                 heis3.table)
    assert ia == ib


@pytest.mark.parametrize("name", available_backends())
@settings(max_examples=50, deadline=None)
@given(ws=word_lists_st)
def test_kernels_match_scalar_on_random_words(name, heis3, ws):
    x, y = heis3.generators
    images = (x, y, y, x)
    enc, offsets = pack_words(ws)
    table = _setup(heis3, images)
    backend = get_backend(name)
    got = backend.evaluate_words(enc, offsets, table, heis3.table)
    assert got.tolist() == _reference_values(heis3, images, ws)
    assert backend.find_identity_word(enc, offsets, table, heis3.table) \
        == _scalar_first_identity(heis3, images, ws)


@pytest.mark.parametrize("name", available_backends())
def test_kernels_agree_with_epimorphism_evaluate(name, heis3, orbit3):
    from handlebody.homs import Epimorphism
    x, y = heis3.generators
    theta = Epimorphism(heis3, (x, y, y, x))
    ws = list(orbit3)
    enc, offsets = pack_words(ws)
    table = _setup(heis3, theta.images)
    got = get_backend(name).evaluate_words(enc, offsets, table, heis3.table)
    expected = [evaluate(theta, w) for w in ws]
    assert got.tolist() == expected


# First-hit positions on both sides of the numpy scan's block boundaries:
# blocks of 64, 128, ... words, doubling up to 2,048, start at 0, 64, 192,
# 448, 960, 1984, 4032 and 6080.
_FIRST_HIT_POSITIONS = (0, 63, 64, 191, 192, 447, 448, 1983, 1984, 2047,
                        2048, 4031, 4032, 5000)


@pytest.fixture(scope="module")
def scan_pool(group55):
    """Random words of lengths 1..14 split by their scalar image under a
    fixed epimorphism onto the order-55 group: (images, misses, hits)."""
    a, b = group55.generators
    images = (a, b, group55.inverse(b), group55.mult(b, group55.inverse(a)))
    rng = np.random.default_rng(2048)
    misses, hits = [], [identity(4)]
    while len(misses) < 6000 or len(hits) < 40:
        n = int(rng.integers(1, 15))
        w = Word(zip(rng.integers(0, 4, n).tolist(),
                     rng.choice([1, -1], n).tolist()), rank=4)
        if w.data:
            (hits if _reference_values(group55, images, [w])[0] == 0
             else misses).append(w)
    return images, misses, hits


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("position", _FIRST_HIT_POSITIONS)
def test_find_identity_word_across_block_boundaries(name, position,
                                                    group55, scan_pool):
    images, misses, hits = scan_pool
    # Ragged words before the hit, the hit (the empty word at one
    # position), then misses and further hits that must not be reported.
    hit = hits[position % len(hits)]
    ws = (misses[:position] + [hit]
          + [w for pair in zip(misses[position:position + 50], hits)
             for w in pair])
    enc, offsets = pack_words(ws)
    got = get_backend(name).find_identity_word(
        enc, offsets, _setup(group55, images), group55.table)
    assert got == _scalar_first_identity(group55, images, ws) == position


@pytest.mark.parametrize("name", available_backends())
def test_find_identity_word_no_witness_and_empty(name, group55, scan_pool):
    images, misses, _ = scan_pool
    table = _setup(group55, images)
    backend = get_backend(name)
    enc, offsets = pack_words(misses)
    assert backend.find_identity_word(enc, offsets, table,
                                      group55.table) == -1
    assert _scalar_first_identity(group55, images, misses) == -1
    got = backend.evaluate_words(enc, offsets, table, group55.table)
    assert got.tolist() == _reference_values(group55, images, misses)
    enc0, offsets0 = pack_words([])
    assert backend.find_identity_word(enc0, offsets0, table,
                                      group55.table) == -1
