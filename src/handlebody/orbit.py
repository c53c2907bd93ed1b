"""Bounded-depth orbit of the commutator [x1,y1] under the twist moves.

The orbit set is seeded with [x1,y1] and s3([x1,y1]) and grown breadth-first:
level n holds the images of the root s3([x1,y1]) under all length-n
compositions of the configured moves (default s1..s5), deduplicated on freely
reduced words.  Every stored word carries one replayable provenance path —
the shortest derivation, ties broken by lexicographically least index
sequence — so reports can show how a witness was produced.

Orbit sets round-trip through a line-oriented text cache with a checksum, so
the depth-9 set (the expensive one) is generated once per machine.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from types import MappingProxyType

from .backend import pack_words
from .words import Word, print_word
from .twists import apply, apply_bytes, commutator_base, compose_path, sigma

BASE_PATH = "base"
DEFAULT_DEPTH = 9
DEFAULT_SIGMAS = (1, 2, 3, 4, 5)


class OrbitCapExceeded(RuntimeError):
    """Word-count cap hit during generation; partial sets are never returned."""


class CacheError(ValueError):
    """Cache file malformed (bad version, header, or checksum); regenerate."""


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
    return apply(compose_path(path), root_word())


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
    tables = {j: sigma(j)._table for j in sigmas}

    base = commutator_base()
    root = root_word()
    seen = {base.data: BASE_PATH, root.data: BASE_PATH}
    # Frontier entries are (word bytes, path tuple); the root's path is ().
    frontier = [(root.data, ())]

    for _ in range(depth):
        if not frontier:
            break
        level = {}
        # Parents in lex path order, moves ascending: first assignment to a
        # child is its lexicographically least shortest derivation.
        for data, path in frontier:
            for j in sigmas:
                child = apply_bytes(tables[j], data)
                if child not in seen and child not in level:
                    level[child] = path + (j,)
        if word_cap is not None and len(seen) + len(level) > word_cap:
            raise OrbitCapExceeded(
                "orbit would exceed word cap %d (have %d, next level adds %d)"
                % (word_cap, len(seen), len(level)))
        seen.update(level)
        frontier = sorted(level.items(), key=lambda item: item[1])

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


def _parse_path(text):
    if text == BASE_PATH:
        return BASE_PATH
    return tuple(int(part) for part in text.split(","))


def _render_body(s):
    lines = []
    for w in iter(s):
        lines.append("%s\t%s\n" % (print_word(w), format_path(s.paths[w])))
    return "".join(lines)


def save_cache(s, path):
    """Write the orbit set to a checksummed text cache file."""
    body = _render_body(s)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = ("c0-cache v1\n"
              "depth=%d\n"
              "sigmas=%s\n"
              "count=%d\n"
              "sha256=%s\n" % (s.depth, ",".join(map(str, s.sigmas)),
                               len(s), digest))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write(body)


_DISPLAY_LETTER = {"x1": 1, "y1": 2, "x2": 3, "y2": 4}


def _decode_display(text):
    """Decode print_word output directly to bytes (records are written by
    save_cache, so the display grammar subset suffices; the checksum has
    already vouched for the text)."""
    if text == "1":
        return Word.from_bytes(b"", 4)
    out = bytearray()
    for token in text.split(" "):
        name, _, exp = token.partition("^")
        base = _DISPLAY_LETTER.get(name)
        if base is None:
            raise CacheError("unknown generator %r in cache record" % name)
        try:
            e = int(exp) if exp else 1
        except ValueError:
            raise CacheError("bad exponent in cache record %r"
                             % token) from None
        if e == 0:
            raise CacheError("zero exponent in cache record %r" % token)
        out.extend([base if e > 0 else base + 4] * abs(e))
    return Word.from_bytes(bytes(out), 4)


def load_cache(path):
    """Read a cache file back; raises CacheError on any mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if len(lines) < 5 or lines[0] != "c0-cache v1":
        raise CacheError("not a c0-cache v1 file: %s" % path)
    header = {}
    for i, key in enumerate(("depth", "sigmas", "count", "sha256"), start=1):
        prefix = key + "="
        if not lines[i].startswith(prefix):
            raise CacheError("missing header line %r in %s" % (prefix, path))
        header[key] = lines[i][len(prefix):]
    body = "\n".join(lines[5:])
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != header["sha256"]:
        raise CacheError("checksum mismatch in %s (file truncated or edited); "
                         "regenerate the cache" % path)
    depth = int(header["depth"])
    sigmas = tuple(int(j) for j in header["sigmas"].split(","))
    count = int(header["count"])
    paths = {}
    for line in body.splitlines():
        word_text, _, path_text = line.partition("\t")
        if not path_text:
            raise CacheError("malformed record %r in %s" % (line, path))
        paths[_decode_display(word_text)] = _parse_path(path_text)
    if len(paths) != count:
        raise CacheError("count mismatch in %s: header says %d, body has %d"
                         % (path, count, len(paths)))
    return OrbitSet(paths, depth, sigmas)
