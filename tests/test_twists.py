"""The ten substitution automorphisms: applying them, their cancelling
pairs, and the identities between them."""

import pytest
from hypothesis import given, strategies as st

from handlebody.twists import (_plan, apply, apply_bytes, commutator_base,
                               sigma)
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


def _stack_fold(images, w):
    """Reference substitution: each letter's image pushed letter by letter,
    cancelling against the top of a stack."""
    table = [b""] * 9
    for i, img in enumerate(images):
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


def _composed(path):
    """The images of the generators under the twists of ``path`` applied in
    turn, first one first, composed by the stack fold; the empty path gives
    the generators."""
    images = [Word([(i, 1)]) for i in range(4)]
    for j in path:
        images = [Word.from_bytes(_stack_fold(sigma(j), w), 4)
                  for w in images]
    return images


paths_st = st.one_of(st.integers(1, 10).map(lambda j: (j,)),
                     st.lists(st.integers(1, 10), max_size=6))


@given(paths_st, reduced_words_st)
def test_apply_matches_stack_fold(path, w):
    # apply(j, .) folded along the path against one stack fold of the
    # composed images; a one-move path is sigma(j) itself.
    out = w
    for j in path:
        out = apply(j, out)
    assert out.data == _stack_fold(_composed(path), w)


def test_each_moved_image_is_u_b_v_over_unmoved_letters():
    # apply_bytes deletes only the pairs of the letters of u and v
    # (_cancelling_pairs).  That is right only when each moved generator b
    # has an image u b v with u and v over unmoved letters.
    for j in range(1, 11):
        images = sigma(j)
        moved = {i + 1 for i, w in enumerate(images)
                 if w.data != bytes((i + 1,))}
        moved |= {b + 4 for b in moved}
        for i, w in enumerate(images):
            if i + 1 in moved:
                assert [c for c in w.data if c in moved] == [i + 1], j


def test_cancelling_pairs_of_each_map():
    # Each twist sends every moved letter b to u b v with u and v unmoved,
    # so it deletes only the pairs of the letters of u and v, one
    # orientation each: (c, c^-1) for c in v, (d^-1, d) for d in u, those
    # nearest the image ends first: x2, then y1 for s3.
    x1, y1, x2, y2 = (1, 5), (2, 6), (3, 7), (4, 8)
    X1, Y1, X2, Y2 = (5, 1), (6, 2), (7, 3), (8, 4)
    expected = {1: (y1,), 2: (X1,), 3: (x2, Y1), 4: (Y2,), 5: (X2,),
                6: (Y1,), 7: (x1,), 8: (y1, X2), 9: (y2,), 10: (x2,)}
    for j, pairs in expected.items():
        assert _plan(j)[1] == tuple(bytes(p) for p in pairs), j


def _reduced_words_up_to(length):
    """Every freely reduced rank-4 word of at most ``length`` letters, as
    bytes."""
    words, last = [b""], [b""]
    for _ in range(length):
        last = [w + bytes((b,)) for w in last for b in range(1, 9)
                if not w or abs(w[-1] - b) != 4]
        words += last
    return words


_ALL_INVERSE_PAIRS = [bytes((a, a + 4)) for a in range(1, 5)] + \
    [bytes((a + 4, a)) for a in range(1, 5)]


def _fixpoint_reduce(data):
    """Free reduction by deleting all eight inverse pairs until none is
    left."""
    n = -1
    while n != len(data):
        n = len(data)
        for pair in _ALL_INVERSE_PAIRS:
            data = data.replace(pair, b"")
    return data


def test_one_pass_of_the_pairs_reduces_short_words():
    # apply_bytes deletes each of the plan's pairs once, seam-adjacent
    # first.  Between two cores at most four letters of the word take part
    # in cancelling (see apply_bytes), so the reduced words of length <= 6
    # hold every case.  On each, that pass must leave no inverse pair and
    # agree with a separate reduction: the letter-by-letter substitution
    # reduced to a fixpoint over all eight pairs, and the stack fold up to
    # length 5.  The words are joined by zero bytes, as the orbit
    # generator joins them.
    words = _reduced_words_up_to(6)
    assert len(words) == 1 + 8 * (7 ** 6 - 1) // 6 == 156865
    joined = b"\0".join(words)
    for j in range(1, 11):
        images = sigma(j)
        table = [b"\0"] + [w.data for w in images] + \
            [(~w).data for w in images]
        out = apply_bytes(j, joined)
        assert not any(p in out for p in _ALL_INVERSE_PAIRS), j
        substituted = b"".join([table[b] for b in joined])
        assert out == _fixpoint_reduce(substituted), j
        out = out.split(b"\0")
        for w, image in zip(words, out):
            if len(w) <= 5:
                assert image == _stack_fold(images, Word.from_bytes(w, 4)), \
                    (j, w)


@given(st.integers(1, 10), st.lists(reduced_words_st, min_size=1, max_size=8))
def test_joined_words_apply_one_by_one(j, ws):
    # The orbit generator applies a move to many words joined by b"\0".
    data = [w.data for w in ws]
    assert apply_bytes(j, b"\0".join(data)).split(b"\0") == \
        [apply_bytes(j, d) for d in data]


def test_base_is_commutator_of_first_handles():
    assert commutator_base() == Word([(0, 1), (1, 1), (0, -1), (1, -1)])


def test_sigma_index_range():
    for j in (0, 11, -1):
        with pytest.raises(ValueError):
            sigma(j)
        with pytest.raises(ValueError):
            apply(j, commutator_base())
        with pytest.raises(ValueError):
            apply_bytes(j, b"")


@given(st.integers(1, 5), words_st)
def test_inverse_pairs_cancel(j, w):
    assert apply(j, apply(j + 5, w)) == w
    assert apply(j + 5, apply(j, w)) == w


@given(st.integers(1, 10), words_st, words_st)
def test_twists_are_homomorphisms(j, u, v):
    assert apply(j, Word(u.letters + v.letters)) == \
        Word(apply(j, u).letters + apply(j, v).letters)


def test_base_fixed_by_eight_twists():
    base = commutator_base()
    for j in (1, 2, 4, 5, 6, 7, 9, 10):
        assert apply(j, base) == base
    assert apply(3, base) != base
    assert apply(8, base) != base


def test_sigma3_moves_base_to_second_seed():
    # The orbit generation uses exactly this image as its second seed.
    moved = apply(3, commutator_base())
    assert moved == parse_word("x2^-1 y1 x1 y1 x1^-1 y1^-1 x2 y1^-1")


def test_twist_images_generate_rank_four():
    # Each twist is invertible, so the images of the four generators must
    # have an inverse substitution taking them back; spot-check via the
    # paired inverse.
    for j in range(1, 11):
        k = j + 5 if j <= 5 else j - 5
        for i in range(4):
            assert apply(k, apply(j, Word([(i, 1)]))) == Word([(i, 1)])
