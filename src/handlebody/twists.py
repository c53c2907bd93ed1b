"""The ten built-in substitution automorphisms of the rank-4 free group.

Each automorphism is stored extensionally as the 4-tuple of images of the
generators x1, y1, x2, y2.  Applying one to a word substitutes each letter by
the corresponding image (or its inverse) and freely reduces.  The built-ins
come in inverse pairs: ``sigma(j)`` and ``sigma(j + 5)`` undo each other for
j in 1..5.  Reports name a word by the moves that reach it
(``orbit.format_path``).
"""

from __future__ import annotations

from .words import Word, parse_word, print_word

RANK = 4
# Letter b cancels against b + RANK: x x^-1 and x^-1 x for each generator.
_INVERSE_PAIRS = tuple(bytes(p) for a in range(1, RANK + 1)
                       for p in ((a, a + RANK), (a + RANK, a)))


class TwistAuto:
    """A free-group endomorphism given by generator images (rank 4)."""

    __slots__ = ("images", "_plan")

    def __init__(self, images):
        images = tuple(images)
        if len(images) != RANK:
            raise ValueError("need %d image words, got %d" % (RANK, len(images)))
        for img in images:
            if not isinstance(img, Word) or img.rank != RANK:
                raise ValueError("images must be rank-%d words" % RANK)
        object.__setattr__(self, "images", images)
        # apply_bytes's plan, over the letters whose image is not themselves.
        data = [w.data for w in images] + [(~w).data for w in images]
        moved = {b: d for b, d in enumerate(data, 1) if d != bytes((b,))}
        table = bytes.maketrans(bytes(moved), bytes(16 + b for b in moved))
        subs = tuple((bytes((16 + b,)), d) for b, d in moved.items())
        object.__setattr__(self, "_plan",
                           (table, subs, _cancelling_pairs(moved)))

    def __setattr__(self, name, value):
        raise AttributeError("TwistAuto is immutable")

    def __eq__(self, other):
        return isinstance(other, TwistAuto) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "TwistAuto(%s)" % ", ".join(print_word(w) for w in self.images)


def _cancelling_pairs(moved):
    """The inverse pairs apply_bytes deletes after substituting ``moved``
    (letter byte -> image bytes), seam-adjacent first; see apply_bytes."""
    if not all([c for c in image if c in moved] == [b]
               for b, image in moved.items()):
        return _INVERSE_PAIRS
    # Each image is u b v: each generator of u and v, keyed by the fewest
    # steps from one of its letters to the image end it sits towards.
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


def apply_bytes(plan, data):
    """Substitute the letter bytes of ``data``, freely reduced words joined
    by zero bytes, through ``plan`` and freely reduce each.

    Shared hot path for apply() and the orbit generator, which joins the
    words of many parents and splits the result on b"\\0": a zero byte is
    no letter, no placeholder and in no pair, so no word's letters meet
    another's.  A TwistAuto's ``plan`` is (translate table, ((placeholder,
    image), ...), pairs): the table sends each moved letter b to the byte
    16 + b, never a letter, and one replace per moved letter writes its
    image.  Free reduction deletes the inverse pairs ``pairs`` until the
    length stops changing; it is confluent, so the order of cancellation
    does not matter for the result.

    ``pairs`` is all eight inverse pairs unless every moved letter b has an
    image u b v with u and v over unmoved letters.  Such a map is an
    automorphism (its inverse sends b to u^-1 b v^-1), and then two letters
    that cancel cannot both stand for letters of ``data`` (an unmoved
    letter, or the b of a moved letter's image): the segment between them
    would be the image of the segment of ``data`` between them, which would
    map to 1, so it would be empty and ``data`` would not be reduced.  So
    every pair that can meet holds a letter c of some u or v, and ``pairs``
    is (c, c^-1) and (c^-1, c) for those c: two for s1, s2, s4, s5 and
    their inverses, four for s3 and s8.  Letters cancel outwards from the
    seam between two images, so the pairs come nearest the image ends
    first (x2, then y1 for s3).  On the built-in twists the first pass
    then finishes the reduction of every reduced word of length <= 5 and
    of every word ``generate_c0(9)`` makes; the loop keeps the result
    right for any order.
    """
    table, subs, pairs = plan
    data = data.translate(table)
    for holder, image in subs:
        data = data.replace(holder, image)
    n = -1
    while n != len(data):
        n = len(data)
        for pair in pairs:
            data = data.replace(pair, b"")
    return data


def apply(f, w):
    """Image of word ``w`` under the substitution ``f``."""
    if w.rank != RANK:
        raise ValueError("expected a rank-%d word" % RANK)
    return Word.from_bytes(apply_bytes(f._plan, w.data), RANK)


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

_SIGMA_CACHE = {}


def sigma(j):
    """The j-th built-in twist substitution, 1 <= j <= 10.

    sigma(j) and sigma(j+5) are mutually inverse for j in 1..5.
    """
    if j not in _SIGMA_IMAGES:
        raise ValueError("sigma index must be in 1..10, got %r" % (j,))
    auto = _SIGMA_CACHE.get(j)
    if auto is None:
        auto = TwistAuto(tuple(parse_word(t) for t in _SIGMA_IMAGES[j]))
        _SIGMA_CACHE[j] = auto
    return auto


def commutator_base():
    """The seed word [x1, y1]."""
    return parse_word("[x1,y1]")
