"""Bounded-depth orbit of the commutator [x1,y1] under the twist moves.

The orbit set is seeded with [x1,y1] and s3([x1,y1]) and grown breadth-first
from the root s3([x1,y1]): level n holds the new images of level n - 1 under
the moves s1..s5 (``MOVES``), deduplicated on freely reduced words.  The
seeds are never expanded, but each move sends [x1,y1] to a seed, so the set
to depth n is [x1,y1] and every image of the root under at most n moves:
the depth alone determines it.  Every stored word carries one replayable
provenance path — the shortest derivation, ties broken by lexicographically
least index sequence — so reports can show how a witness was produced.

Every scan of a set (``first_zero`` for the witness scans, and the
kernel-orbit intersection) reads it one level at a time, through one
cached path trie per level (``OrbitSet.trie_blocks``, ``trie_values``).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .words import Word
from .twists import apply, apply_bytes, commutator_base, sigma

BASE_PATH = "base"
DEFAULT_DEPTH = 9
MOVES = (1, 2, 3, 4, 5)

# The deepest level a set may make.  The depth alone determines the set,
# and depth 12 is the deepest whose children fit 2^20: 842,104 of them
# (its 813,885 words peak near 480 MB).  Depth 13 would need about 2.5
# million.
MAX_DEPTH = 12


class OrbitCapExceeded(RuntimeError):
    """A set would make a level past MAX_DEPTH; the set keeps its last
    whole level."""


@lru_cache(maxsize=None)
def root_word():
    """s3([x1,y1]), the expansion seed."""
    return apply(3, commutator_base())


PathTrie = namedtuple("PathTrie", "size blocks node")
PathTrie.__doc__ = """One level of an orbit set's provenance paths, reversed
and merged into a trie, for evaluating a map on the level's words without
reading their letters.  Node 0 is the empty suffix.  There is one block
``(lo, parents, moves)`` per trie depth: it numbers ``lo, lo + 1, ...`` the
nodes that extend the node ``parents[i]`` by the move ``moves[i]``, and
every parent is numbered before its block.  The word with path
(i1, ..., ik) is s_ik o ... o s_i1 (root), so it is the root under the map
theta o s_ik o ... o s_i1 of node (ik, ..., i1): a child's map is its
parent's map precomposed with its move.  ``node[i]`` is the node of the
level's word i (0 for the root), or -1 for the base word [x1,y1]; see
``trie_values``."""

# Letter codes: 0 is the identity, 1..4 the generators x1, y1, x2, y2 and
# 5..8 their inverses (a Word's letter bytes).  A map's letter row holds its
# value on each code: [1, images, inverses].
_WIDTH = 3          # letters of the longest twist image


def _image_table(images):
    """Letter codes [len(images), 4, _WIDTH] of the image words
    ``images[i]`` (four words per move), each padded with the identity
    code 0.  ValueError for an image longer than _WIDTH letters."""
    table = np.zeros((len(images), 4, _WIDTH), dtype=np.intp)
    for i, words in enumerate(images):
        for c, w in enumerate(words):
            if len(w.data) > _WIDTH:
                raise ValueError("twist image %r is longer than %d letters"
                                 % (w, _WIDTH))
            table[i, c, :len(w.data)] = tuple(w.data)
    return table


@lru_cache(maxsize=None)
def _twist_codes():
    """Row j - 1 is the twist s_j's image table, letter-major: entry
    4k + c is letter k of generator c's image word."""
    table = _image_table([sigma(j) for j in range(1, 11)])
    return table.transpose(0, 2, 1).reshape(len(table), 4 * _WIDTH)


def _letter_rows(G, rows, out=None):
    """Letter rows [K, 9] of the maps with generator image rows [K, 4],
    written to ``out`` when it is given."""
    rows = np.asarray(rows, dtype=G.table.dtype).reshape(-1, 4)
    if out is None:
        out = np.empty((len(rows), 9), dtype=rows.dtype)
    out[:, 0] = 0
    out[:, 1:5] = rows
    out[:, 5:] = G.inv[rows]
    return out


def _precompose(G, letters, parents, moves):
    """Image rows [K, 4] of theta_p o s_j for each parent p = ``parents[i]``
    and move j = ``moves[i]``, theta_p having the letter row ``letters[p]``.

    Each generator's new image is its twist image word v0 v1 v2 read
    through the parent's row: one gather of the twelve letters for all
    rows, then ``table[table[v0, v1], v2]`` for all rows and generators at
    once (``take`` on the flat table, faster than 2-d indexing on large
    levels)."""
    n, table = G.order, G.table.ravel()
    codes = _twist_codes()[moves - 1]
    codes += parents[:, None] * letters.shape[1]
    v = letters.ravel().take(codes)
    return table.take(table.take(v[:, :4] * n + v[:, 4:8]) * n + v[:, 8:])


class OrbitSet:
    """A deduplicated orbit fragment with provenance paths, shared per
    depth by ``generate_c0``; ``OrbitSet(depth)`` builds a fresh one.

    ``path(w)`` gives each word's provenance: the marker string "base"
    (for the two seed words) or a tuple of move indices in application
    order: path (1, 4) stores s4(s1(root)).

    The set is held once, in scan order (the seeds [x1,y1] and the root,
    then by path length and path): word bytes -> scan index, and the same
    bytes as a list.  A level is the run of words with one path length,
    the seeds being level 0; level k keeps its paths as one uint8 array
    [words, k] of moves, and its path trie is built from that array the
    first time the level is scanned and then kept.  The set starts as the
    two seeds, and ``_grow`` adds one level at a time, on demand, from the
    set's own last level.
    Calls that need the whole set finish it: ``len``, iteration, and a
    membership lookup of a rank-4 word (``in``, ``path``,
    ``contains``) that misses.  A lookup grows the set only until the word
    appears, ``word_at`` only until its index is generated, and
    ``trie_blocks`` one level per block asked for.
    Generation order is scan order, and a word is generated only at its
    first level, so none of these calls sees a different answer on a
    partial set.

    Trie evaluation (``trie_values``) reads the paths, not the words'
    letters, so every path must replay to its word (``replay_path``).
    That holds by construction: the set holds only the seeds and the words
    ``_grow`` derives, each stored under the path it was derived by.
    """

    def __init__(self, depth):
        depth = operator.index(depth)   # a float is refused, not cut
        if depth < 0:
            raise ValueError("depth must be >= 0, got %r" % (depth,))
        self.depth = depth
        seeds = (commutator_base().data, root_word().data)
        self._seen = {d: i for i, d in enumerate(seeds)}
        self._order = list(seeds)
        # _bounds[k]:_bounds[k + 1] is level k of _order, _moves[k] its
        # paths and _tries[k] its trie once scanned.  Only _grow adds to
        # them, and it sets complete once no level is left.
        self._bounds = [0, len(seeds)]
        self._moves = [np.zeros((len(seeds), 0), dtype=np.uint8)]
        self._tries = []
        self.complete = False

    @property
    def generated(self):
        """Words generated so far; the set's size once it is complete."""
        return len(self._order)

    def _grow(self):
        """Generate the next level from the last one (the root alone right
        after the seeds); False, and the set complete, once none is left.

        A parent whose path ends with the move m skips each move j < m
        that commutes with s_m; its child would already be in the set or
        the level, so the set, its paths and their order are the same.
        Proof: the parent is s_m(w'), w' the parent's parent, so the child
        s_j(s_m(w')) is s_m(u) with u = s_j(w').  Then u is a seed or is in
        the set with a path no longer than the parent's and, at equal
        length, lexicographically smaller, since it ends in j < m.  So u
        was expanded before the parent, and s_m(u) is in the set already
        (by induction when that step was itself skipped).  A seed u is the
        root, which is expanded, or [x1,y1], which is not; then s_m(u) is a
        seed, since each move sends [x1,y1] to one.

        Each move is applied once per level, to the words of the parents
        that take it joined by zero bytes (see apply_bytes).  One loop then
        reads the children in (parent, move) order, a stable argsort of
        parent * 8 + move, and adds each child not yet in the set under
        the next scan index, so the level is filled exactly as one
        application per child in that order would fill it.
        """
        k = len(self._bounds) - 2           # the last level's path length
        if self.complete or k == self.depth:
            self.complete = True
            return False
        self._check_depth(k + 1)
        # The parents' word bytes in lex path order, and their paths: the
        # last level, or the root alone after the seeds.
        root = k == 0
        words = self._order[self._bounds[-2] + root:]
        paths = self._moves[-1][root:]
        last = np.zeros(1, np.uint8) if root else paths[:, -1]
        # (move, parent) of each child, by move: the order it is made in.
        movers, parents = _takes()[last].T.nonzero()
        children = []
        for j in MOVES:
            mine = parents[movers == j].tolist()
            if mine:
                children += apply_bytes(
                    j, b"\0".join([words[p] for p in mine])).split(b"\0")
        # Parents in lex path order, moves ascending: a child's first
        # position is its lexicographically least shortest derivation, and
        # the first positions ascend in lex path order, so the level needs
        # no sort.
        keys = parents * 8 + movers
        seen, order, keep = self._seen, self._order, []
        for i in np.argsort(keys, kind="stable").tolist():
            child = children[i]
            if child not in seen:
                seen[child] = len(order)
                order.append(child)
                keep.append(i)
        if not keep:
            self.complete = True
            return False
        keys = keys[keep]
        self._moves.append(np.concatenate(
            [paths[keys >> 3], (keys & 7)[:, None]], axis=1).astype(np.uint8))
        self._bounds.append(len(order))
        return True

    def _check_depth(self, level):
        """Refuse (OrbitCapExceeded) to make ``level`` past MAX_DEPTH."""
        if level > MAX_DEPTH:
            raise OrbitCapExceeded(
                "orbit depth cap %d exceeded: depth %d would make level %d"
                % (MAX_DEPTH, self.depth, MAX_DEPTH + 1))

    def _finish(self):
        # A set too deep to finish is refused before any level is made.
        self._check_depth(self.depth)
        while self._grow():
            pass

    def __len__(self):
        self._finish()
        return len(self._order)

    def __contains__(self, w):
        return self.path(w) is not None

    def __iter__(self):
        self._finish()
        return (Word.from_bytes(data, 4) for data in self._order)

    def word_at(self, i):
        """The word at scan index ``i`` (IndexError if ``i`` < 0 or past
        the end)."""
        if i < 0:
            raise IndexError("scan index %d is negative" % i)
        while i >= len(self._order) and self._grow():
            pass
        return Word.from_bytes(self._order[i], 4)

    def trie_blocks(self):
        """Yield ``(start, trie)`` for each level in turn: ``trie`` is the
        level's PathTrie, its ``node[k]`` the node of the word at scan
        index ``start + k``.

        Each trie is built on the first scan of its level and kept, so
        partial and finished sets give the same blocks.  A partial set
        generates a level only when the caller asks for its block; a
        caller that exhausts the blocks has read the whole set.
        """
        k = 0
        while k + 1 < len(self._bounds) or self._grow():
            if k == len(self._tries):
                self._tries.append(_path_trie(self._moves[k]))
            yield self._bounds[k], self._tries[k]
            k += 1

    def path(self, w):
        """The provenance path of ``w``, or None if it is not in the set
        (at once if ``w`` is not a rank-4 Word)."""
        if not (isinstance(w, Word) and w.rank == 4):
            return None
        i = self._seen.get(w.data)
        while i is None and self._grow():
            i = self._seen.get(w.data)
        if i is None:
            return None
        k = bisect_right(self._bounds, i) - 1
        if k == 0:
            return BASE_PATH
        return tuple(self._moves[k][i - self._bounds[k]].tolist())

    def __eq__(self, other):
        # The depth determines the set, so neither set is grown.
        return isinstance(other, OrbitSet) and self.depth == other.depth

    def __repr__(self):
        return "OrbitSet(%d words%s, depth=%d)" % (
            self.generated, "" if self.complete else " so far", self.depth)


def _path_trie(moves):
    """The PathTrie of one level's paths ``moves`` [words, k], in scan
    order.  Level 0 (k = 0) is the seeds, [x1,y1] and then the root."""
    if moves.shape[1] == 0:
        return PathTrie(1, (), np.array([-1, 0], dtype=np.intp))
    cur = np.zeros(len(moves), dtype=np.intp)  # node of each suffix so far
    size, blocks = 1, []
    for col in moves[:, ::-1].T:
        # One key per (parent node, move), moves being below 8: unique,
        # and sorting the new nodes by parent, then move.
        keys, child = np.unique(cur * 8 + col, return_inverse=True)
        blocks.append((size, keys >> 3, keys & 7))
        cur = size + child
        size += len(keys)
    return PathTrie(size, tuple(blocks), cur)


def trie_values(G, images, trie):
    """The map sending the generators to ``images`` on the words of one
    ``trie_blocks()`` level, in scan order.

    Each node's map is its parent's precomposed with one twist, one
    ``_precompose`` call per trie depth, and a word's value is the root
    under its node's map, so the cost follows the trie's size, not the
    words' letters.  This relies on every path replaying to its word,
    which holds by construction (see OrbitSet).  The base word [x1,y1] is
    off the trie: its value is the commutator of the first two images.
    """
    maps = np.empty((trie.size, 9), dtype=G.table.dtype)
    maps[0] = _letter_rows(G, images)
    for lo, parents, moves in trie.blocks:
        _letter_rows(G, _precompose(G, maps, parents, moves),
                     out=maps[lo:lo + len(parents)])
    leaves = maps[trie.node]
    root = root_word().data
    values = leaves[:, root[0]]
    for b in root[1:]:
        values = G.table[values, leaves[:, b]]
    values[trie.node < 0] = G.commutator(images[0], images[1])
    return values


def first_zero(s, G, images):
    """Scan index of the first word of ``s`` that the map sending the
    generators to ``images`` sends to the identity, or -1.

    Reads ``s.trie_blocks()`` level by level, so a partial set grows only
    to the first zero's level, and a scan that finds none has finished it.
    """
    for start, trie in s.trie_blocks():
        hits = trie_values(G, images, trie) == 0
        if hits.any():
            return start + int(hits.argmax())
    return -1


def replay_path(path):
    """Fold a provenance path over the root: path (i1, i2, ...) applies i1
    first.  The empty path returns the root itself."""
    w = root_word()
    for j in path:
        w = apply(j, w)
    return w


def generate_c0(depth=DEFAULT_DEPTH):
    """The orbit set to the given composition depth, shared per process.

    Breadth-first with global dedup on reduced words; provenance is the
    shortest derivation with lexicographically least move sequence.  The
    depth is checked at once.  Every call with the same depth returns the
    same OrbitSet: it starts with only its two seeds generated and grows
    level by level as callers need it (see OrbitSet for the calls that
    finish it), so a call meets the set as earlier calls left it.  That is
    safe since a set only grows and no call sees a different answer on a
    partial set.  The memo (``_orbit_set``) holds the depth used last, up
    to DEFAULT_DEPTH; a deeper depth gets a fresh ``OrbitSet(depth)`` each
    call, freed with its last reference, so a long-lived process does not
    keep it (a finished depth-12 set peaks near 480 MB).
    """
    # A float is refused here, not looked up; a negative depth raises in
    # OrbitSet, and a call that raises is not kept.
    depth = operator.index(depth)
    return _orbit_set(depth) if depth <= DEFAULT_DEPTH else OrbitSet(depth)


@lru_cache(maxsize=1)
def _orbit_set(depth):
    """The shared set of ``generate_c0``, for the depth used last."""
    return OrbitSet(depth)


@lru_cache(maxsize=None)
def _commuting_below(m):
    """The moves j < m with s_j s_m = s_m s_j."""
    return frozenset(j for j in range(1, m)
                     if [apply(j, w) for w in sigma(m)]
                     == [apply(m, w) for w in sigma(j)])


@lru_cache(maxsize=None)
def _takes():
    """takes[m, j]: a parent whose path ends with the move m applies j
    (m = 0 for the root, whose path is empty: it applies every move)."""
    takes = np.zeros((max(MOVES) + 1, 8), dtype=bool)
    for m in (0,) + MOVES:
        takes[m, [j for j in MOVES if j not in _commuting_below(m)]] = True
    return takes


def contains(s, w):
    """Membership plus provenance: (True, path) or (False, None).  Grows a
    partial set only until ``w`` appears."""
    p = s.path(w)
    if p is None:
        return False, None
    return True, p


def format_path(path):
    if path == BASE_PATH:
        return BASE_PATH
    return ",".join(str(j) for j in path)
