"""The ten substitution automorphisms: applying them, their cancelling
pairs, and the identities between them."""

import pytest
from hypothesis import given, strategies as st

from handlebody.twists import (TwistAuto, apply, apply_bytes,
                               commutator_base, sigma)
from handlebody.words import Word, parse_word

letters_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=30)
words_st = letters_st.map(lambda ls: Word(ls, rank=4))


def _reduced_bytes(first, steps):
    """A freely reduced word from its first letter byte and, for each later
    letter, an index into the seven letters that do not cancel it."""
    data = bytearray([first])
    for k in steps:
        inverse = data[-1] + 4 if data[-1] <= 4 else data[-1] - 4
        data.append([b for b in range(1, 9) if b != inverse][k])
    return Word.from_bytes(data, 4)


reduced_words_st = st.one_of(
    st.just(Word()),
    st.builds(_reduced_bytes, st.integers(1, 8),
              st.lists(st.integers(0, 6), max_size=199)))


def _one_image_killed(j, i):
    """sigma(j) with generator i sent to the identity, so whole images
    cancel."""
    images = list(sigma(j).images)
    images[i] = Word()
    return TwistAuto(images)


def _composed(path):
    """The map applying the twists of ``path`` in turn, first one first;
    the empty path gives the identity map."""
    images = [Word([(i, 1)]) for i in range(4)]
    for j in path:
        images = [apply(sigma(j), w) for w in images]
    return TwistAuto(images)


maps_st = st.one_of(
    st.integers(1, 10).map(sigma),
    st.lists(st.integers(1, 10), max_size=6).map(_composed),
    st.just(_composed(())),
    st.builds(_one_image_killed, st.integers(1, 10), st.integers(0, 3)))


def _stack_fold(f, w):
    """Reference substitution: each letter's image pushed letter by letter,
    cancelling against the top of a stack."""
    table = [b""] * 9
    for i, img in enumerate(f.images):
        table[i + 1] = img.data
        table[i + 5] = (~img).data
    out = bytearray()
    for b in w.data:
        for c in table[b]:
            if out and out[-1] == (c - 4 if c > 4 else c + 4):
                out.pop()
            else:
                out.append(c)
    return bytes(out)


@given(maps_st, reduced_words_st)
def test_apply_matches_stack_fold(f, w):
    assert apply(f, w).data == _stack_fold(f, w)


def _pair_letters(f):
    """The letters whose inverse pairs apply_bytes deletes for ``f``."""
    return sorted(p[0] for p in f._plan[2])


def test_cancelling_pairs_of_each_map():
    # Each built-in twist sends every moved letter b to u b v with u and v
    # unmoved, so it deletes only the pairs of the letters of u and v,
    # those nearest the image ends first: x2, then y1 for s3.
    x1, y1, x2, y2 = ((1, 5), (5, 1)), ((2, 6), (6, 2)), \
        ((3, 7), (7, 3)), ((4, 8), (8, 4))
    expected = {1: y1, 2: x1, 3: x2 + y1, 4: y2, 5: x2,
                6: y1, 7: x1, 8: y1 + x2, 9: y2, 10: x2}
    for j, pairs in expected.items():
        assert sigma(j)._plan[2] == tuple(bytes(p) for p in pairs), j
    # Maps where some moved image holds another moved letter, or none: all
    # eight pairs.
    every = list(range(1, 9))
    for path in [(1, 2), (2, 1), (4, 5), (5, 4), (1, 2, 4), (3, 2)]:
        assert _pair_letters(_composed(path)) == every
    for j in range(1, 11):
        for i in range(4):
            assert _pair_letters(_one_image_killed(j, i)) == every


def _reduced_words_up_to(length):
    """Every freely reduced rank-4 word of at most ``length`` letters, as
    bytes."""
    words, last = [b""], [b""]
    for _ in range(length):
        last = [w + bytes((b,)) for w in last for b in range(1, 9)
                if not w or abs(w[-1] - b) != 4]
        words += last
    return words


def test_one_pass_of_the_pairs_reduces_short_words():
    # Seam-adjacent pairs first: apply_bytes's first pass over the pairs
    # finishes the reduction, so its second pass deletes nothing.
    inverse_pairs = [bytes((a, a + 4)) for a in range(1, 5)] + \
        [bytes((a + 4, a)) for a in range(1, 5)]
    words = _reduced_words_up_to(5)
    assert len(words) == 1 + 8 * (7 ** 5 - 1) // 6
    for j in range(1, 11):
        table, subs, pairs = sigma(j)._plan
        for w in words:
            data = w.translate(table)
            for holder, image in subs:
                data = data.replace(holder, image)
            for pair in pairs:
                data = data.replace(pair, b"")
            assert not any(p in data for p in inverse_pairs), (j, w)
            assert data == apply_bytes(sigma(j)._plan, w)


@given(maps_st, st.lists(reduced_words_st, min_size=1, max_size=8))
def test_joined_words_apply_one_by_one(f, ws):
    # The orbit generator applies a move to many words joined by b"\0".
    data = [w.data for w in ws]
    assert apply_bytes(f._plan, b"\0".join(data)).split(b"\0") == \
        [apply_bytes(f._plan, d) for d in data]


def test_base_is_commutator_of_first_handles():
    assert commutator_base() == Word([(0, 1), (1, 1), (0, -1), (1, -1)])


def test_sigma_index_range():
    for j in (0, 11, -1):
        with pytest.raises(ValueError):
            sigma(j)


@given(st.integers(1, 5), words_st)
def test_inverse_pairs_cancel(j, w):
    assert apply(sigma(j), apply(sigma(j + 5), w)) == w
    assert apply(sigma(j + 5), apply(sigma(j), w)) == w


@given(st.integers(1, 10), words_st, words_st)
def test_twists_are_homomorphisms(j, u, v):
    f = sigma(j)
    assert apply(f, Word(u.letters + v.letters)) == \
        Word(apply(f, u).letters + apply(f, v).letters)


def test_base_fixed_by_eight_twists():
    base = commutator_base()
    for j in (1, 2, 4, 5, 6, 7, 9, 10):
        assert apply(sigma(j), base) == base
    assert apply(sigma(3), base) != base
    assert apply(sigma(8), base) != base


def test_sigma3_moves_base_to_second_seed():
    # The orbit generation uses exactly this image as its second seed.
    moved = apply(sigma(3), commutator_base())
    assert moved == parse_word("x2^-1 y1 x1 y1 x1^-1 y1^-1 x2 y1^-1")


def test_twist_images_generate_rank_four():
    # Each twist is invertible, so the images of the four generators must
    # have an inverse substitution taking them back; spot-check via the
    # paired inverse.
    for j in range(1, 11):
        f, g = sigma(j), sigma(j + 5 if j <= 5 else j - 5)
        for i in range(4):
            assert apply(g, apply(f, Word([(i, 1)]))) == Word([(i, 1)])
