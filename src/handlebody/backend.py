"""Batch word-evaluation kernels, with a numba fast path.

The hot loops of this package evaluate tens of thousands of words inside a
finite group (witness search over an orbit set, certificate search over
kernel classes).  Both operations reduce to folding letters through a dense
multiplication table:

- ``evaluate_words``: image of every word in a batch;
- ``find_identity_word``: index of the first word that evaluates to the
  group identity (the witness scan), or -1.

Two interchangeable implementations are provided: numba ``@njit`` loops with
per-word early exit, and a pure-numpy column-at-a-time fold whose identity
scan evaluates blocks of 64, 128, ... words (doubling up to 2,048) and stops
at the first block holding a hit, so an early witness costs one small block.
Selection is via the HANDLEBODY_BACKEND environment variable — "numba",
"numpy", or "auto" (default: numba when importable, else numpy).  Results
are identical; see benchmarks/bench_backends.py for the speed comparison.

Word batches are packed CSR-style: ``enc`` holds the concatenated letter
bytes of all words, ``offsets[i]:offsets[i+1]`` delimits word i.  A letter
byte b maps to the group element ``letter_images[b]``.
"""

from __future__ import annotations

import os

import numpy as np

ENV_VAR = "HANDLEBODY_BACKEND"

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


def pack_words(word_list):
    """Pack an iterable of Words into (enc uint8, offsets int64); ``enc`` is
    a read-only view of the joined letter bytes."""
    datas = [w.data for w in word_list]
    offsets = np.zeros(len(datas) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in datas], out=offsets[1:])
    enc = np.frombuffer(b"".join(datas), dtype=np.uint8)
    return enc, offsets


def letter_image_table(images, inverse, rank=4):
    """Group element for each letter byte: 1..rank the images, then inverses.

    ``images`` are the group elements assigned to the positive generators;
    ``inverse`` is the group's inverse lookup array.
    """
    table = np.zeros(2 * rank + 1, dtype=np.int32)
    for i, g in enumerate(images):
        table[i + 1] = g
        table[i + 1 + rank] = inverse[g]
    return table


# --- pure numpy --------------------------------------------------------


def _evaluate_words_numpy(enc, offsets, letter_images, mult, identity=0):
    # ``offsets`` may be a slice of a larger batch's offsets: they index
    # ``enc`` directly, so a block needs no rebased copy.  Words are folded
    # longest first, so the words still unfinished at column t are a
    # prefix of that order: their count is ``active[t]``.
    n = len(offsets) - 1
    out = np.full(n, identity, dtype=np.int32)
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


def _find_identity_word_numpy(enc, offsets, letter_images, mult, identity=0,
                              first_block=64, max_block=2048):
    n = len(offsets) - 1
    lo, block = 0, first_block
    while lo < n:
        hi = min(lo + block, n)
        images = _evaluate_words_numpy(enc, offsets[lo:hi + 1], letter_images,
                                       mult, identity)
        hits = np.nonzero(images == identity)[0]
        if hits.size:
            return lo + int(hits[0])
        lo, block = hi, min(2 * block, max_block)
    return -1


# --- numba -------------------------------------------------------------


@njit(cache=True)
def _evaluate_words_jit(enc, offsets, letter_images, mult, identity):
    n = len(offsets) - 1
    out = np.empty(n, dtype=np.int32)
    for i in range(n):
        g = identity
        for k in range(offsets[i], offsets[i + 1]):
            g = mult[g, letter_images[enc[k]]]
        out[i] = g
    return out


@njit(cache=True)
def _find_identity_word_jit(enc, offsets, letter_images, mult, identity):
    n = len(offsets) - 1
    for i in range(n):
        g = identity
        for k in range(offsets[i], offsets[i + 1]):
            g = mult[g, letter_images[enc[k]]]
        if g == identity:
            return i
    return -1


# --- selection ---------------------------------------------------------


class Backend:
    """A named pair of evaluation kernels with a common signature."""

    def __init__(self, name, evaluate, find_identity):
        self.name = name
        self._evaluate = evaluate
        self._find_identity = find_identity

    def evaluate_words(self, enc, offsets, letter_images, mult, identity=0):
        return self._evaluate(enc, offsets,
                              np.asarray(letter_images, dtype=np.int32),
                              np.ascontiguousarray(mult, dtype=np.int32),
                              np.int32(identity))

    def find_identity_word(self, enc, offsets, letter_images, mult,
                           identity=0):
        return int(self._find_identity(
            enc, offsets, np.asarray(letter_images, dtype=np.int32),
            np.ascontiguousarray(mult, dtype=np.int32), np.int32(identity)))

    def __repr__(self):
        return "Backend(%r)" % self.name


def _numpy_backend():
    return Backend("numpy",
                   lambda e, o, li, m, i: _evaluate_words_numpy(e, o, li, m, int(i)),
                   lambda e, o, li, m, i: _find_identity_word_numpy(e, o, li, m, int(i)))


def _numba_backend():
    return Backend("numba", _evaluate_words_jit, _find_identity_word_jit)


def available_backends():
    names = ["numpy"]
    if HAVE_NUMBA:
        names.append("numba")
    return names


_CACHE = {}


def get_backend(name=None):
    """Resolve a backend by name, or from HANDLEBODY_BACKEND / auto."""
    if name is None:
        name = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if name == "auto":
        name = "numba" if HAVE_NUMBA else "numpy"
    if name not in ("numba", "numpy"):
        raise ValueError("unknown backend %r (use numba, numpy or auto)" % name)
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    if name not in _CACHE:
        _CACHE[name] = _numba_backend() if name == "numba" else _numpy_backend()
    return _CACHE[name]
