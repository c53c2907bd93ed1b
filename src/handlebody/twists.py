"""The ten twist substitutions s1..s10 of the rank-4 free group.

A twist is named by its index j in 1..10: ``sigma(j)`` is the 4-tuple of
images of the generators x1, y1, x2, y2, and ``apply(j, w)`` substitutes
each letter of ``w`` by the corresponding image (or its inverse) and freely
reduces.  The twists come in inverse pairs: s_j and s_{j+5} undo each
other for j in 1..5.  Reports name a word by the moves that reach it
(``orbit.format_path``).
"""

from __future__ import annotations

from functools import lru_cache

from .words import Word, _inv_byte, parse_word

RANK = 4

# Images of (x1, y1, x2, y2) for the five positive twists and their inverses.
_SIGMA_IMAGES = {
    1: ("x1 y1", "y1", "x2", "y2"),
    2: ("x1", "y1 x1^-1", "x2", "y2"),
    3: ("x2^-1 y1 x1", "y1", "x2", "x2^-1 y1 y2"),
    4: ("x1", "y1", "x2 y2^-1", "y2"),
    5: ("x1", "y1", "x2", "y2 x2^-1"),
    6: ("x1 y1^-1", "y1", "x2", "y2"),
    7: ("x1", "y1 x1", "x2", "y2"),
    8: ("y1^-1 x2 x1", "y1", "x2", "y1^-1 x2 y2"),
    9: ("x1", "y1", "x2 y2", "y2"),
    10: ("x1", "y1", "x2", "y2 x2"),
}


@lru_cache(maxsize=None)
def sigma(j):
    """The images of (x1, y1, x2, y2) under the twist s_j, 1 <= j <= 10.

    s_j and s_{j+5} are mutually inverse for j in 1..5.
    """
    if j not in _SIGMA_IMAGES:
        raise ValueError("sigma index must be in 1..10, got %r" % (j,))
    return tuple(parse_word(t) for t in _SIGMA_IMAGES[j])


@lru_cache(maxsize=None)
def _plan(j):
    """apply_bytes's plan for s_j: (((letter, image), ...), pairs) over the
    letters whose image is not themselves."""
    images = sigma(j)
    data = [w.data for w in images] + [(~w).data for w in images]
    subs = tuple((bytes((b,)), d) for b, d in enumerate(data, 1)
                 if d != bytes((b,)))
    return subs, _cancelling_pairs(subs)


def _cancelling_pairs(subs):
    """The inverse pairs apply_bytes deletes after substituting ``subs``
    ((letter, image u b v), ...), seam-adjacent first: (c, c^-1) for each
    letter c of some v and (d^-1, d) for each letter d of some u, keyed by
    the fewest steps from one such letter to the image end it sits
    towards."""
    seam = {}
    for (b,), image in subs:
        core = image.index(b)
        for i, c in enumerate(image):
            if i < core:
                pair, d = bytes((_inv_byte(c, RANK), c)), i
            elif i > core:
                pair, d = bytes((c, _inv_byte(c, RANK))), len(image) - 1 - i
            else:
                continue
            seam[pair] = min(seam.get(pair, d), d)
    return tuple(sorted(seam, key=lambda pair: (seam[pair], pair)))


def apply_bytes(j, data):
    """Substitute the letter bytes of ``data``, freely reduced words joined
    by zero bytes, through the twist s_j and freely reduce each.

    Shared hot path for apply() and OrbitSet._grow, which joins the
    words of many parents and splits the result on b"\\0": a zero byte is
    no letter and in no pair, so no word's letters meet another's.

    Every twist sends each moved letter b to u b v with u and v over
    unmoved letters (the tests check this of ``_SIGMA_IMAGES``), so one
    replace per moved letter writes its image: no image holds another
    moved letter for a later replace to rewrite.  Then one pass deletes
    each of the plan's inverse pairs once, and the word is reduced:

    Two letters of ``data`` (an unmoved letter, or the core b of an
    image) never cancel: the segment between them would be the image of
    the segment of ``data`` between them, which would map to 1, so it
    would be empty and ``data`` would not be reduced.  A core is moved and
    the letters of u and v are not, so no core cancels at all.  So a
    letter c of v cancels only to its right, and its pair is (c, c^-1); a
    letter d of u cancels only to its left, and its pair is (d^-1, d).
    These are the plan's pairs, one orientation per letter: one pair for
    s1, s2, s4, s5 and their inverses, two for s3 and s8.  Letters cancel
    outwards from the seam where a v meets unmoved letters or a u, so the
    letters at the image ends go first (x2, then y1 for s3).
    The cores split the word into stretches that reduce apart: a v, then
    unmoved letters of ``data``, then a u.  Each cancellation uses up a
    letter of u or v, which hold at most two each, so at most four letters
    of ``data`` between two cores take part, and every stretch is met in
    some reduced ``data`` of at most six letters.  The tests check the one
    pass on all of those.
    """
    subs, pairs = _plan(j)
    for letter, image in subs:
        data = data.replace(letter, image)
    for pair in pairs:
        data = data.replace(pair, b"")
    return data


def apply(j, w):
    """Image of the rank-4 word ``w`` under the twist s_j (ValueError for
    j outside 1..10)."""
    if w.rank != RANK:
        raise ValueError("expected a rank-%d word" % RANK)
    return Word.from_bytes(apply_bytes(j, w.data), RANK)


@lru_cache(maxsize=None)
def commutator_base():
    """The seed word [x1, y1], parsed once: a Word is immutable, so the
    one object is shared."""
    return parse_word("[x1,y1]")
