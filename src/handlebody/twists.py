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

from .words import Word, parse_word

RANK = 4
# Letter b cancels against b + RANK: x x^-1 and x^-1 x for each generator.
_INVERSE_PAIRS = tuple(bytes(p) for a in range(1, RANK + 1)
                       for p in ((a, a + RANK), (a + RANK, a)))

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
    """apply_bytes's plan for s_j, over the letters whose image is not
    themselves: (translate table, ((placeholder, image), ...), pairs)."""
    images = sigma(j)
    data = [w.data for w in images] + [(~w).data for w in images]
    moved = {b: d for b, d in enumerate(data, 1) if d != bytes((b,))}
    table = bytes.maketrans(bytes(moved), bytes(16 + b for b in moved))
    subs = tuple((bytes((16 + b,)), d) for b, d in moved.items())
    return table, subs, _cancelling_pairs(moved)


def _cancelling_pairs(moved):
    """The inverse pairs apply_bytes deletes after substituting ``moved``
    (letter byte -> image bytes u b v), seam-adjacent first: the pairs of
    each generator of u and v, keyed by the fewest steps from one of its
    letters to the image end it sits towards."""
    seam = {}
    for b, image in moved.items():
        core = image.index(b)
        for i, c in enumerate(image):
            if i != core:
                g = (c - 1) % RANK
                d = i if i < core else len(image) - 1 - i
                seam[g] = min(seam.get(g, d), d)
    return tuple(pair for g in sorted(seam, key=lambda g: (seam[g], g))
                 for pair in _INVERSE_PAIRS[2 * g:2 * g + 2])


def apply_bytes(j, data):
    """Substitute the letter bytes of ``data``, freely reduced words joined
    by zero bytes, through the twist s_j and freely reduce each.

    Shared hot path for apply() and the orbit generator, which joins the
    words of many parents and splits the result on b"\\0": a zero byte is
    no letter, no placeholder and in no pair, so no word's letters meet
    another's.  The plan's translate table sends each moved letter b to the
    byte 16 + b, never a letter, and one replace per moved letter writes
    its image.  Free reduction deletes the plan's inverse pairs until the
    length stops changing; it is confluent, so the order of cancellation
    does not matter for the result.

    Every twist sends each moved letter b to u b v with u and v over
    unmoved letters (the tests check this of ``_SIGMA_IMAGES``).  So two
    letters that cancel cannot both stand for letters of ``data`` (an
    unmoved letter, or the b of a moved letter's image): the segment
    between them would be the image of the segment of ``data`` between
    them, which would map to 1, so it would be empty and ``data`` would not
    be reduced.  So every pair that can meet holds a letter c of some u or
    v, and the pairs are (c, c^-1) and (c^-1, c) for those c: two for s1,
    s2, s4, s5 and their inverses, four for s3 and s8.  Letters cancel
    outwards from the seam between two images, so the pairs come nearest
    the image ends first (x2, then y1 for s3).  The first pass then
    finishes the reduction of every reduced word of length <= 5 and of
    every word ``generate_c0(9)`` makes; the loop keeps the result right
    for any order.
    """
    table, subs, pairs = _plan(j)
    data = data.translate(table)
    for holder, image in subs:
        data = data.replace(holder, image)
    n = -1
    while n != len(data):
        n = len(data)
        for pair in pairs:
            data = data.replace(pair, b"")
    return data


def apply(j, w):
    """Image of the rank-4 word ``w`` under the twist s_j (ValueError for
    j outside 1..10)."""
    if w.rank != RANK:
        raise ValueError("expected a rank-%d word" % RANK)
    return Word.from_bytes(apply_bytes(j, w.data), RANK)


def commutator_base():
    """The seed word [x1, y1]."""
    return parse_word("[x1,y1]")
