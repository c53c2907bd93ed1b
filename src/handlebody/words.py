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

# The most letters a product, power or commutator in word text may spell:
# past it the parser refuses the text before building the letters.
MAX_LETTERS = 1 << 20


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


def _check_rank(rank):
    if not 1 <= rank <= 120:  # letters and their inverses fit a byte
        raise ValueError("rank must be in 1..120, got %r" % (rank,))


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
        _check_rank(rank)
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

    def __invert__(self):
        return invert(self)

    def __repr__(self):
        return "Word(%r, rank=%d)" % (print_word(self), self.rank)


def _invert_bytes(data, rank):
    return bytes(_inv_byte(b, rank) for b in reversed(data))


def invert(u):
    return Word.from_bytes(_invert_bytes(u.data, u.rank), u.rank)


# --- text form ----------------------------------------------------------
#
# word   := factor { [ "*" ] factor }
# factor := atom [ "^" int ]
# atom   := name | "(" word ")" | "[" word "," word "]" | "1"
#
# Whitespace is insignificant, "*" is optional, "[u,v]" is the commutator,
# "1" is the empty word.  The parser emits unreduced letter bytes: a product
# concatenates its factors, a power or commutator reduces its operands once,
# and the whole text is reduced once at the end.  Free reduction is
# confluent, so the result equals reducing after every step, in linear time.
# Each product, power and commutator is held to MAX_LETTERS letters before
# its bytes are built (WordSyntaxError at its position).

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
        _check_rank(self.rank)
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

    def bound(self, letters, pos):
        """Refuse (WordSyntaxError at ``pos``) a word of more than
        MAX_LETTERS letters, before it is built."""
        if letters > MAX_LETTERS:
            raise WordSyntaxError("word of %d letters exceeds the bound %d"
                                  % (letters, MAX_LETTERS), pos)

    def parse_word(self):
        parts = [self.parse_factor()]
        letters = len(parts[0])
        while True:
            kind, value, pos = self.peek()
            if kind == "sym" and value == "*":
                self.take()
            elif not (kind in ("name", "int")
                      or (kind == "sym" and value in "([")):
                return b"".join(parts)
            parts.append(self.parse_factor())
            letters += len(parts[-1])
            self.bound(letters, pos)

    def parse_factor(self):
        data = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise WordSyntaxError("expected integer exponent", pos)
            data = _reduce_bytes(data, self.rank)
            if data:  # any power of the empty word is empty
                self.bound(len(data) * abs(value), pos)
                if value < 0:
                    data = _invert_bytes(data, self.rank)
                data *= abs(value)
        return data

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "name":
            idx = self.names.get(value)
            if idx is None:
                raise UnknownGeneratorError(
                    "unknown generator %r (declared: %s)"
                    % (value, " ".join(sorted(self.names))), pos)
            return bytes((idx + 1,))
        if kind == "int":
            if value == 1:
                return b""
            raise WordSyntaxError("unexpected integer %r" % value, pos)
        if kind == "sym" and value == "(":
            data = self.parse_word()
            self.expect_sym(")")
            return data
        if kind == "sym" and value == "[":
            u = _reduce_bytes(self.parse_word(), self.rank)
            self.expect_sym(",")
            v = _reduce_bytes(self.parse_word(), self.rank)
            self.expect_sym("]")
            self.bound(2 * (len(u) + len(v)), pos)
            return (u + v + _invert_bytes(u, self.rank)
                    + _invert_bytes(v, self.rank))
        raise WordSyntaxError("expected a generator, '1', '(' or '['", pos)


def parse_word(text, names=None):
    """Parse word text over the given generator names (default x1 y1 x2 y2)."""
    if names is None:
        names = default_names(4)
    parser = _Parser(text, tuple(names))
    data = parser.parse_word()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise WordSyntaxError("trailing input %r" % (value,), pos)
    return Word.from_bytes(_reduce_bytes(data, parser.rank), parser.rank)


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
