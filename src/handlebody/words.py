"""Freely reduced words in a finitely generated free group.

Words are the universal currency of this package: curve classes on the
surface, relators of finite-group presentations, and images of generators
under substitutions are all words.  A word of rank k lives in the free group
on k generators; it is stored freely reduced, so equal words have equal
letter sequences and can be used directly as dictionary keys.

Internally a word is a ``bytes`` string: letter values 1..k are the positive
generators, k+1..2k their inverses.  The byte form is compact, hashable and
feeds straight into the numeric evaluation kernels.
"""

from __future__ import annotations

import re


class WordSyntaxError(ValueError):
    """Malformed word text; ``pos`` is the character offset of the problem."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class UnknownGeneratorError(WordSyntaxError):
    """Word text names a generator absent from the declared name list."""


def default_names(rank):
    """Generator names used when none are supplied.

    Rank 4 gets the surface-group names; other ranks get g1..gk.
    """
    if rank == 4:
        return ("x1", "y1", "x2", "y2")
    return tuple("g%d" % (i + 1) for i in range(rank))


def _inv_byte(b, rank):
    return b - rank if b > rank else b + rank


def _reduce_bytes(seq, rank):
    """Freely reduce a letter-byte sequence with a stack."""
    out = bytearray()
    for b in seq:
        if out and out[-1] == _inv_byte(b, rank):
            out.pop()
        else:
            out.append(b)
    return bytes(out)


class Word:
    """An immutable freely reduced word.

    Construct from a sequence of (generator_index, sign) pairs; the input is
    reduced automatically.  Generator indices are 0-based, signs are +1/-1.
    """

    __slots__ = ("data", "rank")

    def __init__(self, letters=(), rank=4):
        if rank < 1 or rank > 120:
            raise ValueError("rank must be in 1..120, got %r" % (rank,))
        raw = bytearray()
        for gen, sign in letters:
            if not 0 <= gen < rank:
                raise ValueError(
                    "letter index %r out of range for rank %d" % (gen, rank))
            if sign == 1:
                raw.append(gen + 1)
            elif sign == -1:
                raw.append(gen + 1 + rank)
            else:
                raise ValueError("letter sign must be +1 or -1, got %r" % (sign,))
        object.__setattr__(self, "data", _reduce_bytes(raw, rank))
        object.__setattr__(self, "rank", rank)

    @classmethod
    def from_bytes(cls, data, rank):
        """Wrap an already-reduced byte string (internal fast path)."""
        w = cls.__new__(cls)
        object.__setattr__(w, "data", bytes(data))
        object.__setattr__(w, "rank", rank)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @property
    def letters(self):
        """The word as a tuple of (generator_index, sign) pairs."""
        r = self.rank
        return tuple((b - 1, 1) if b <= r else (b - 1 - r, -1) for b in self.data)

    def is_identity(self):
        return not self.data

    def __len__(self):
        return len(self.data)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.rank == other.rank
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rank, self.data))

    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return invert(self)

    def __repr__(self):
        return "Word(%r, rank=%d)" % (print_word(self), self.rank)


def identity(rank=4):
    return Word.from_bytes(b"", rank)


def generator(i, rank=4, sign=1):
    """The one-letter word for generator ``i`` (0-based)."""
    return Word(((i, sign),), rank)


def multiply(u, v):
    if u.rank != v.rank:
        raise ValueError("rank mismatch: %d vs %d" % (u.rank, v.rank))
    return Word.from_bytes(_reduce_bytes(u.data + v.data, u.rank), u.rank)


def invert(u):
    r = u.rank
    return Word.from_bytes(bytes(_inv_byte(b, r) for b in reversed(u.data)), r)


def power(u, n):
    """u**n for any integer n (negative powers invert)."""
    base = u if n >= 0 else invert(u)
    # One reduction of the whole product: free reduction is confluent.
    return Word.from_bytes(_reduce_bytes(base.data * abs(n), u.rank), u.rank)


def commutator(u, v):
    """[u, v] = u v u^-1 v^-1."""
    if u.rank != v.rank:
        raise ValueError("rank mismatch: %d vs %d" % (u.rank, v.rank))
    seq = u.data + v.data + invert(u).data + invert(v).data
    return Word.from_bytes(_reduce_bytes(seq, u.rank), u.rank)


# --- text form ----------------------------------------------------------
#
# word   := factor { [ "*" ] factor }
# factor := atom [ "^" int ]
# atom   := name | "(" word ")" | "[" word "," word "]" | "1"
#
# Whitespace is insignificant, "*" is optional, "[u,v]" is the commutator,
# "1" is the empty word.

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<int>-?\d+)"
                       r"|(?P<sym>[\^\*\(\)\[\],]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise WordSyntaxError("unexpected character %r" % stripped[0],
                                  len(text) - len(stripped))
        if m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, names):
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.rank = len(names)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, pos = self.take()
        if kind != "sym" or value != sym:
            raise WordSyntaxError("expected %r" % sym, pos)

    def parse_word(self):
        w = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "sym" and value == "*":
                self.take()
                w = multiply(w, self.parse_factor())
            elif kind in ("name", "int") or (kind == "sym" and value in "(["):
                w = multiply(w, self.parse_factor())
            else:
                return w

    def parse_factor(self):
        w = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise WordSyntaxError("expected integer exponent", pos)
            w = power(w, value)
        return w

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "name":
            idx = self.names.get(value)
            if idx is None:
                raise UnknownGeneratorError(
                    "unknown generator %r (declared: %s)"
                    % (value, " ".join(sorted(self.names))), pos)
            return generator(idx, self.rank)
        if kind == "int":
            if value == 1:
                return identity(self.rank)
            raise WordSyntaxError("unexpected integer %r" % value, pos)
        if kind == "sym" and value == "(":
            w = self.parse_word()
            self.expect_sym(")")
            return w
        if kind == "sym" and value == "[":
            u = self.parse_word()
            self.expect_sym(",")
            v = self.parse_word()
            self.expect_sym("]")
            return commutator(u, v)
        raise WordSyntaxError("expected a generator, '1', '(' or '['", pos)


def parse_word(text, names=None):
    """Parse word text over the given generator names (default x1 y1 x2 y2)."""
    if names is None:
        names = default_names(4)
    parser = _Parser(text, tuple(names))
    w = parser.parse_word()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise WordSyntaxError("trailing input %r" % (value,), pos)
    return w


def print_word(w, names=None):
    """Canonical text form: runs collapsed to name^e, space separated."""
    if names is None:
        names = default_names(w.rank)
    names = tuple(names)
    if len(names) < w.rank:
        raise ValueError("need %d generator names, got %d" % (w.rank, len(names)))
    if not w.data:
        return "1"
    parts = []
    data = w.data
    rank = w.rank
    i = 0
    while i < len(data):
        b = data[i]
        j = i
        while j < len(data) and data[j] == b:
            j += 1
        count = j - i
        if b <= rank:
            name, exp = names[b - 1], count
        else:
            name, exp = names[b - 1 - rank], -count
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
        i = j
    return " ".join(parts)
