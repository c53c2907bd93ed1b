"""Batch word evaluation in a finite group, as numpy folds.

The hot loops of this package evaluate tens of thousands of words inside a
finite group (witness search over an orbit set, certificate search over
kernel classes).  Both operations reduce to folding letters through a dense
multiplication table whose element 0 is the identity:

- ``evaluate_words``: image of every word in a batch, one letter column
  at a time;
- ``find_identity_word``: index of the first word that evaluates to the
  identity (the witness scan), or -1.  It folds blocks of 64, 128, ...
  words (doubling up to 2,048) and stops at the first block holding a
  hit, so an early witness costs one small block.

Word batches are packed CSR-style: ``enc`` holds the concatenated letter
bytes of all words, ``offsets[i]:offsets[i+1]`` delimits word i.  A letter
byte b maps to the group element ``letter_images[b]``.
"""

from __future__ import annotations

import numpy as np

FIRST_BLOCK = 64
MAX_BLOCK = 2048


def pack_words(word_list):
    """Pack an iterable of Words into (enc uint8, offsets int64); ``enc`` is
    a read-only view of the joined letter bytes."""
    return pack_bytes([w.data for w in word_list])


def pack_bytes(datas):
    """``pack_words`` for a list of letter-byte strings."""
    offsets = np.zeros(len(datas) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in datas], out=offsets[1:])
    enc = np.frombuffer(b"".join(datas), dtype=np.uint8)
    return enc, offsets


def letter_image_table(images, inverse):
    """Group element for each letter byte: 1..4 the images, then inverses.

    ``images`` are the group elements assigned to the four positive
    generators; ``inverse`` is the group's inverse lookup array.
    """
    table = np.zeros(9, dtype=np.int32)
    for i, g in enumerate(images):
        table[i + 1] = g
        table[i + 5] = inverse[g]
    return table


def evaluate_words(enc, offsets, letter_images, mult):
    """Image of each packed word: an int32 array, one entry per word."""
    # ``offsets`` may be a slice of a larger batch's offsets: they index
    # ``enc`` directly, so a block needs no rebased copy.  Words are folded
    # longest first, so the words still unfinished at column t are a
    # prefix of that order: their count is ``active[t]``.
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.int32)
    if n == 0:
        return out
    lengths = offsets[1:] - offsets[:-1]
    order = np.argsort(-lengths, kind="stable")
    starts = offsets[:-1][order]
    active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    state = out[order]
    for t, k in enumerate(active.tolist()):
        state[:k] = mult[state[:k], letter_images[enc[starts[:k] + t]]]
    out[order] = state
    return out


def find_identity_word(enc, offsets, letter_images, mult):
    """Index of the first packed word mapped to the identity, or -1."""
    n = len(offsets) - 1
    lo, block = 0, FIRST_BLOCK
    while lo < n:
        hi = min(lo + block, n)
        images = evaluate_words(enc, offsets[lo:hi + 1], letter_images, mult)
        hits = np.nonzero(images == 0)[0]
        if hits.size:
            return lo + int(hits[0])
        lo, block = hi, min(2 * block, MAX_BLOCK)
    return -1
