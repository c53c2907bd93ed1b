"""Bounded-depth orbit of the commutator [x1,y1] under the twist moves.

The orbit set is seeded with [x1,y1] and s3([x1,y1]) and grown breadth-first:
level n holds the images of the root s3([x1,y1]) under all length-n
compositions of the configured moves (default s1..s5), deduplicated on freely
reduced words.  Every stored word carries one replayable provenance path —
the shortest derivation, ties broken by lexicographically least index
sequence — so reports can show how a witness was produced.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from .backend import pack_words
from .words import Word
from .twists import apply, apply_bytes, commutator_base, sigma

BASE_PATH = "base"
DEFAULT_DEPTH = 9
DEFAULT_SIGMAS = (1, 2, 3, 4, 5)


class OrbitCapExceeded(RuntimeError):
    """Word-count cap hit during generation; partial sets are never returned."""


def root_word():
    """s3([x1,y1]), the expansion seed."""
    return apply(sigma(3), commutator_base())


ScanView = namedtuple("ScanView", "words enc offsets")
ScanView.__doc__ = """An orbit set's words in scan order, packed once for the
batch kernels: ``words[i]`` is the word at scan index i and
``enc[offsets[i]:offsets[i+1]]`` its letter bytes."""


class OrbitSet:
    """A deduplicated orbit fragment with provenance paths.

    ``paths`` maps each word to either the marker string "base" (for the two
    seed words) or a tuple of move indices in application order: path
    (1, 4) stores s4(s1(root)).  It is read-only, so the cached scan view
    always matches it.
    """

    def __init__(self, paths, depth, sigmas):
        self.paths = MappingProxyType(dict(paths))
        self.depth = int(depth)
        self.sigmas = tuple(int(j) for j in sigmas)
        self._scan = None

    @property
    def words(self):
        return self.paths.keys()

    def __len__(self):
        return len(self.paths)

    def __contains__(self, w):
        return w in self.paths

    def __iter__(self):
        return iter(self.scan_view().words)

    def scan_view(self):
        """The ScanView of this set, built on first use and cached.

        Scan order is deterministic: seeds first, then by discovery order
        key (path length, path, word).
        """
        if self._scan is None:
            words = tuple(sorted(self.paths, key=self._sort_key))
            self._scan = ScanView(words, *pack_words(words))
        return self._scan

    def _sort_key(self, w):
        p = self.paths[w]
        if p == BASE_PATH:
            return (0, (), len(w.data), w.data)
        return (1, (len(p),) + p, len(w.data), w.data)

    def path(self, w):
        return self.paths.get(w)

    def __eq__(self, other):
        return (isinstance(other, OrbitSet) and self.paths == other.paths
                and self.depth == other.depth and self.sigmas == other.sigmas)

    def __repr__(self):
        return "OrbitSet(%d words, depth=%d, sigmas=%s)" % (
            len(self.paths), self.depth, ",".join(map(str, self.sigmas)))


def replay_path(path):
    """Fold a provenance path over the root: path (i1, i2, ...) applies i1
    first.  The empty path returns the root itself."""
    w = root_word()
    for j in path:
        w = apply(sigma(j), w)
    return w


def generate_c0(depth=DEFAULT_DEPTH, sigmas=DEFAULT_SIGMAS, word_cap=None):
    """Enumerate the orbit set to the given composition depth.

    Breadth-first with global dedup on reduced words; provenance is the
    shortest derivation with lexicographically least move sequence.  Raises
    OrbitCapExceeded if the set would exceed ``word_cap`` words (a partial
    set must never be used to report a negative search verdict).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0, got %r" % (depth,))
    sigmas = tuple(sigmas)
    for j in sigmas:
        if not 1 <= j <= 10:
            raise ValueError("move index must be in 1..10, got %r" % (j,))
    plans = {j: sigma(j)._plan for j in sorted(sigmas)}

    base = commutator_base()
    root = root_word()
    seen = {base.data: BASE_PATH, root.data: BASE_PATH}
    # The frontier maps word bytes to path tuples; the root's path is ().
    frontier = {root.data: ()}

    for _ in range(depth):
        if not frontier:
            break
        level = {}
        # Parents in lex path order, moves ascending: first assignment to a
        # child is its lexicographically least shortest derivation, and
        # ``level`` is filled in lex path order, so the next frontier needs
        # no sort.
        for data, path in frontier.items():
            for j, plan in plans.items():
                child = apply_bytes(plan, data)
                if child not in seen and child not in level:
                    level[child] = path + (j,)
        if word_cap is not None and len(seen) + len(level) > word_cap:
            raise OrbitCapExceeded(
                "orbit would exceed word cap %d (have %d, next level adds %d)"
                % (word_cap, len(seen), len(level)))
        seen.update(level)
        frontier = level

    paths = {Word.from_bytes(data, 4): p for data, p in seen.items()}
    # OrbitSet copies ``paths``; dropping the byte-keyed tables first keeps
    # them out of that copy's memory peak.
    del seen, frontier
    return OrbitSet(paths, depth, sigmas)


def contains(s, w):
    """Membership plus provenance: (True, path) or (False, None)."""
    p = s.paths.get(w)
    if p is None:
        return False, None
    return True, p


def format_path(path):
    if path == BASE_PATH:
        return BASE_PATH
    return ",".join(str(j) for j in path)
