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
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .groups import evaluate_rows
from .words import Word
from .twists import apply, apply_bytes, commutator_base, sigma

BASE_PATH = "base"
DEFAULT_DEPTH = 9
MOVES = (1, 2, 3, 4, 5)


@lru_cache(maxsize=None)
def root_word():
    """s3([x1,y1]), the expansion seed."""
    return apply(3, commutator_base())


PathTrie = namedtuple("PathTrie", "size blocks node")
PathTrie.__doc__ = """One level of an orbit set's provenance paths, reversed
and merged into a trie, for evaluating a map on the level's words without
reading their letters.  Node 0 is the empty suffix.  Each block
``(j, lo, parents)`` numbers ``lo, lo + 1, ...`` the nodes that extend the
nodes ``parents`` by the move j, and every parent is numbered before its
block.  The word with path (i1, ..., ik) is s_ik o ... o s_i1 (root), so it
is the root under the map theta o s_ik o ... o s_i1 of node (ik, ..., i1):
a child's map is its parent's map precomposed with s_j.  ``node[i]`` is the
node of the level's word i (0 for the root), or -1 for the base word
[x1,y1]; see ``trie_values``."""


class OrbitSet:
    """A deduplicated orbit fragment with provenance paths, built by
    ``generate_c0``.

    ``path(w)`` gives each word's provenance: the marker string "base"
    (for the two seed words) or a tuple of move indices in application
    order: path (1, 4) stores s4(s1(root)).

    The set is held once, in scan order (the seeds [x1,y1] and the root,
    then by path length and path): word bytes -> path, and the same bytes
    as a list.  A level is the run of words with one path length, the
    seeds being level 0; its path trie is built the first time the level
    is scanned and then kept.  The set starts as the two seeds, and its
    own level generator (``_levels``) adds one level at a time, on demand.
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
    its generator derives, each stored under the path it was derived by.
    """

    def __init__(self, depth):
        depth = operator.index(depth)   # a float is refused, not cut
        if depth < 0:
            raise ValueError("depth must be >= 0, got %r" % (depth,))
        self.depth = depth
        seeds = (commutator_base().data, root_word().data)
        self._seen = dict.fromkeys(seeds, BASE_PATH)
        self._order = list(seeds)
        # _bounds[k]:_bounds[k + 1] is level k of _order, _tries[k] its
        # trie once scanned.  _levels yields the levels not yet generated.
        self._bounds = [0, len(seeds)]
        self._tries = []
        self._levels = _levels(self._seen, self.depth)

    @property
    def complete(self):
        """True once every level is generated."""
        return self._levels is None

    @property
    def generated(self):
        """Words generated so far; the set's size once it is complete."""
        return len(self._order)

    def _grow(self):
        """Generate the next level; False once none is left."""
        level = None if self.complete else next(self._levels, None)
        if level is None:
            self._levels = None
            return False
        self._order.extend(level)
        self._bounds.append(len(self._order))
        return True

    def _finish(self):
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
            lo, hi = self._bounds[k:k + 2]
            if k == len(self._tries):
                self._tries.append(_path_trie(self._order[lo:hi], self._seen))
            yield lo, self._tries[k]
            k += 1

    def path(self, w):
        """The provenance path of ``w``, or None if it is not in the set
        (at once if ``w`` is not a rank-4 Word)."""
        if not (isinstance(w, Word) and w.rank == 4):
            return None
        p = self._seen.get(w.data)
        while p is None and self._grow():
            p = self._seen.get(w.data)
        return p

    def __eq__(self, other):
        # The depth determines the set, so neither set is grown.
        return isinstance(other, OrbitSet) and self.depth == other.depth

    def __repr__(self):
        return "OrbitSet(%d words%s, depth=%d)" % (
            self.generated, "" if self.complete else " so far", self.depth)


def _path_trie(order, seen):
    """The PathTrie of one level's words ``order``, word bytes in scan
    order, with their paths in ``seen``."""
    paths = [seen[d] for d in order]
    if paths[0] == BASE_PATH:
        base = commutator_base().data
        return PathTrie(1, (), np.array([-1 if d == base else 0
                                         for d in order], dtype=np.intp))
    cur = np.zeros(len(paths), dtype=np.intp)  # node of each suffix so far
    size, blocks = 1, []
    for moves in np.array(paths, dtype=np.intp)[:, ::-1].T:
        # One key per (parent node, move); parents are below ``size``, so
        # the key is unique and sorts the new nodes by move, then parent.
        keys, child = np.unique(moves * size + cur, return_inverse=True)
        cur = size + child
        level_moves, parents = np.divmod(keys, size)
        for j in np.unique(level_moves).tolist():
            lo, hi = np.searchsorted(level_moves, [j, j + 1])
            blocks.append((j, size + int(lo), parents[lo:hi]))
        size += len(keys)
    return PathTrie(size, tuple(blocks), cur)


@lru_cache(maxsize=None)
def _moved_columns(j):
    """(column, image word) of each generator the move s_j moves."""
    return tuple((c, w) for c, w in enumerate(sigma(j))
                 if w.data != bytes((c + 1,)))


def _precompose_rows(G, rows, j):
    """Image rows [K, 4] of theta o s_j for the image rows [K, 4] of
    theta.  Only the columns of generators that s_j moves are evaluated."""
    out = rows.copy()
    for c, w in _moved_columns(j):
        out[:, c] = evaluate_rows(G, w, rows.T)
    return out


def trie_values(G, images, trie):
    """The map sending the generators to ``images`` on the words of one
    ``trie_blocks()`` level, in scan order.

    Each node's map is its parent's precomposed with one twist, and a
    word's value is the root under its node's map, so the cost follows the
    trie's size, not the words' letters.  This relies on every path
    replaying to its word, which holds by construction (see OrbitSet).
    The base word [x1,y1] is off the trie: its value is the commutator of
    the first two images.
    """
    maps = np.empty((trie.size, 4), dtype=G.table.dtype)
    maps[0] = images
    for j, lo, parents in trie.blocks:
        maps[lo:lo + len(parents)] = _precompose_rows(G, maps[parents], j)
    values = evaluate_rows(G, root_word(), maps[trie.node].T)
    values[trie.node < 0] = G.commutator(images[0], images[1])
    return values


def first_zero(s, G, images):
    """Scan index of the first word of ``s`` that the map sending the
    generators to ``images`` sends to the identity, or -1.

    Reads ``s.trie_blocks()`` level by level, so a partial set grows only
    to the first zero's level, and a scan that finds none has finished it.
    """
    for start, trie in s.trie_blocks():
        hits = np.flatnonzero(trie_values(G, images, trie) == 0)
        if hits.size:
            return start + int(hits[0])
    return -1


def replay_path(path):
    """Fold a provenance path over the root: path (i1, i2, ...) applies i1
    first.  The empty path returns the root itself."""
    w = root_word()
    for j in path:
        w = apply(j, w)
    return w


def generate_c0(depth=DEFAULT_DEPTH):
    """The orbit set to the given composition depth.

    Breadth-first with global dedup on reduced words; provenance is the
    shortest derivation with lexicographically least move sequence.  The
    depth is checked at once, but the set is returned with only its two
    seeds generated: it grows level by level as callers need it (see
    OrbitSet for the calls that finish it).
    """
    return OrbitSet(depth)


@lru_cache(maxsize=None)
def _commuting_below(m):
    """The moves j < m with s_j s_m = s_m s_j."""
    return frozenset(j for j in range(1, m)
                     if [apply(j, w) for w in sigma(m)]
                     == [apply(m, w) for w in sigma(j)])


def _levels(seen, depth):
    """Yield the words of each new level in lex path order, after adding
    them with their paths to ``seen``.

    A parent whose path ends with the move m skips each move j < m that
    commutes with s_m; its child would already be in ``seen`` or the
    level, so the set, its paths and their order are the same.  Proof:
    the parent is s_m(w'), w' the parent's parent, so the child s_j(s_m(w'))
    is s_m(u) with u = s_j(w').  Then u is a seed or is in the set with a
    path no longer than the parent's and, at equal length, lexicographically
    smaller, since it ends in j < m.  So u was expanded before the parent,
    and s_m(u) is in the set already (by induction when that step was itself
    skipped).  A seed u is the root, which is expanded, or [x1,y1], which
    is not; then s_m(u) is a seed, since each move sends [x1,y1] to one.

    Each move is applied once per level, to the words of the parents that
    take it joined by zero bytes (see apply_bytes), and the children are
    read back in (parent, move) order, so ``level`` is filled exactly as
    one application per child would fill it.
    """
    # The moves to apply after a path's last move; all of them after ().
    after = {(): MOVES}
    for m in MOVES:
        after[(m,)] = tuple(j for j in MOVES if j not in _commuting_below(m))
    # The frontier maps word bytes to path tuples; the root's path is ().
    frontier = {root_word().data: ()}
    for _ in range(depth):
        children = {}
        for j in MOVES:
            words = [d for d, p in frontier.items() if j in after[p[-1:]]]
            joined = apply_bytes(j, b"\0".join(words))
            children[j] = iter(joined.split(b"\0"))
        # Parents in lex path order, moves ascending: first assignment to
        # a child is its lexicographically least shortest derivation, and
        # ``level`` is filled in lex path order, so the next frontier needs
        # no sort.
        level = {}
        for data, path in frontier.items():
            for j in after[path[-1:]]:
                child = next(children[j])
                if child not in seen and child not in level:
                    level[child] = path + (j,)
        if not level:
            return
        seen.update(level)
        frontier = level
        yield level


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
