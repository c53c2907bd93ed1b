"""Free-group words: reduction, inversion, parsing and printing."""

import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from handlebody import words
from handlebody.words import (Word, WordSyntaxError, UnknownGeneratorError,
                              default_names, invert, parse_word, print_word)

letters_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=40)
words_st = letters_st.map(lambda ls: Word(ls, rank=4))


def _text(w):
    """``w`` as a parenthesized factor of word text."""
    return "(%s)" % print_word(w)


def test_empty_word_is_identity():
    w = Word()
    assert w.is_identity()
    assert len(w) == 0
    assert w == parse_word("1")


def test_construction_reduces():
    w = Word([(0, 1), (0, -1), (1, 1)])
    assert w == Word([(1, 1)])
    assert Word([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()


def test_rank_and_index_validation():
    with pytest.raises(ValueError):
        Word(rank=0)
    with pytest.raises(ValueError):
        Word([(4, 1)], rank=4)
    with pytest.raises(ValueError):
        Word([(0, 2)], rank=4)
    # parse_word takes the rank from the names, whatever the text names:
    # "1" names no generator, yet ranks 0 and 121 are refused as above.
    names = ["g%d" % i for i in range(121)]
    for text, ns in (("1", ()), ("1", names), ("g0", names)):
        with pytest.raises(ValueError, match=r"rank must be in 1\.\.120"):
            parse_word(text, ns)
    assert parse_word("1", names[:120]).rank == 120


def test_word_is_immutable():
    w = Word([(0, 1)])
    with pytest.raises(AttributeError):
        w.data = b""


def test_from_bytes_matches_constructor():
    w = Word([(0, 1), (1, -1), (2, 1)])
    assert Word.from_bytes(w.data, 4) == w


@given(letters_st)
def test_reduction_leaves_no_adjacent_inverses(ls):
    w = Word(ls, rank=4)
    for a, b in zip(w.data, w.data[1:]):
        assert b != (a - 4 if a > 4 else a + 4)


@given(letters_st)
def test_reduction_idempotent(ls):
    w = Word(ls, rank=4)
    assert Word(w.letters, rank=4) == w


@given(words_st)
def test_inverse_cancels(w):
    assert parse_word(_text(w) + _text(invert(w))).is_identity()
    assert parse_word(_text(invert(w)) + _text(w)).is_identity()
    assert invert(invert(w)) == w


@given(words_st, words_st)
def test_inverse_antihomomorphism(u, v):
    assert invert(parse_word(_text(u) + _text(v))) == \
        parse_word(_text(invert(v)) + _text(invert(u)))


@given(words_st, words_st, words_st)
def test_multiplication_associative(u, v, w):
    assert parse_word("(%s %s) %s" % (_text(u), _text(v), _text(w))) == \
        parse_word("%s (%s %s)" % (_text(u), _text(v), _text(w)))


# Conjugates u v u^-1 cancel wherever two copies meet.
conjugates_st = st.builds(
    lambda u, v: parse_word("%s %s %s^-1" % (_text(u), _text(v), _text(u))),
    words_st, words_st)


@given(st.one_of(words_st, conjugates_st), st.integers(-6, 6))
def test_power_matches_repeated_multiplication(w, n):
    step = _text(w if n >= 0 else invert(w))
    assert parse_word("%s^%d" % (_text(w), n)) == \
        parse_word(" ".join([step] * abs(n)) or "1")


def test_long_powers_parse():
    assert len(parse_word("x1^100000")) == 100000
    w = parse_word("(x1 y1 x1^-1)^-32000")
    assert w.data == b"\x01" + b"\x06" * 32000 + b"\x05"


@given(words_st, words_st)
def test_commutator_expansion(u, v):
    t, s = _text(u), _text(v)
    assert parse_word("[%s,%s]" % (t, s)) == \
        parse_word("%s %s %s^-1 %s^-1" % (t, s, t, s))


def test_operator_sugar():
    u = Word([(0, 1), (1, -1)], rank=5)
    assert ~u == invert(u) == Word([(1, 1), (0, -1)], rank=5)


def test_default_names():
    assert default_names(4) == ("x1", "y1", "x2", "y2")
    assert default_names(2) == ("g1", "g2")


def test_parse_basic_forms():
    assert parse_word("1").is_identity()
    x, y = (0, 1), (1, 1)
    xi, yi = (0, -1), (1, -1)
    assert parse_word("x1") == Word([x])
    assert parse_word("x1^-1") == Word([xi])
    assert parse_word("x1 y1") == parse_word("x1*y1")
    assert parse_word("x1^3") == Word([x, x, x])
    assert parse_word("(x1 y1)^2") == Word([x, y, x, y])
    assert parse_word("[x1,y1]") == Word([x, y, xi, yi])
    assert parse_word("[x1,y1]^-1") == Word([y, x, yi, xi])
    assert parse_word("x1 x1^-1").is_identity()


def test_parse_custom_names():
    w = parse_word("a b^-1", ("a", "b"))
    assert w.rank == 2
    assert w == Word([(0, 1), (1, -1)], rank=2)


def test_parse_errors_carry_position():
    for bad in ("x1^", "(x1", "[x1 y1]", "x1^x1", ")", "x1^2^2"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)
    with pytest.raises(UnknownGeneratorError):
        parse_word("z9")
    err = None
    try:
        parse_word("x1 z9")
    except UnknownGeneratorError as exc:
        err = exc
    assert err is not None and err.pos == 3


def test_print_collapses_runs():
    w = parse_word("x1^3 y1^-2 x2")
    assert print_word(w) == "x1^3 y1^-2 x2"
    assert print_word(Word()) == "1"
    assert print_word(parse_word("a", ("a",)), ("a",)) == "a"


@given(words_st)
def test_print_parse_round_trip(w):
    assert parse_word(print_word(w)) == w


def test_repr_mentions_text_form():
    assert "x1" in repr(Word([(0, 1)]))


# --- the parser against a concatenating oracle ---------------------------
#
# Each strategy draws (text, letter bytes) with the bytes built without any
# reduction: products concatenate, powers repeat (the inverse for n < 0),
# commutators spell out u v u^-1 v^-1.  One stack reduction at the end must
# give what parse_word gives.

_LEAVES = (("x1", b"\x01"), ("y1", b"\x02"), ("x2", b"\x03"),
           ("y2", b"\x04"), ("1", b""))


def _inverse(data):
    return bytes(b - 4 if b > 4 else b + 4 for b in reversed(data))


def _stack_reduce(data):
    out = []
    for b in data:
        if out and out[-1] == (b - 4 if b > 4 else b + 4):
            out.pop()
        else:
            out.append(b)
    return bytes(out)


def _product(factors, sep):
    return sep.join(t for t, _ in factors), b"".join(d for _, d in factors)


def _power(factor, n, template):
    text, data = factor
    return template % (text, n), (data if n >= 0 else _inverse(data)) * abs(n)


def _commutator(u, v):
    return ("[%s,%s]" % (u[0], v[0]),
            u[1] + v[1] + _inverse(u[1]) + _inverse(v[1]))


leaves_st = st.sampled_from(_LEAVES)
texts_st = st.recursive(
    st.one_of(leaves_st,
              st.builds(_power, leaves_st, st.integers(-4, 4),
                        st.just("%s^%d"))),
    lambda inner: st.one_of(
        st.builds(_product, st.lists(inner, min_size=1, max_size=4),
                  st.sampled_from([" ", "*", " * "])),
        st.builds(_power, inner, st.integers(-4, 4), st.just("(%s)^%d")),
        st.builds(_commutator, inner, inner),
        inner.map(lambda f: ("(%s)" % f[0], f[1]))),
    max_leaves=24)


@given(texts_st)
def test_parse_matches_concatenating_oracle(case):
    text, data = case
    w = parse_word(text)
    assert (w.data, w.rank) == (_stack_reduce(data), 4)


@pytest.mark.parametrize("text, error, message", [
    ("x1^", WordSyntaxError, "expected integer exponent (at position 3)"),
    ("(x1", WordSyntaxError, "expected ')' (at position 3)"),
    ("[x1 y1]", WordSyntaxError, "expected ',' (at position 6)"),
    (")", WordSyntaxError,
     "expected a generator, '1', '(' or '[' (at position 0)"),
    ("x1^2^2", WordSyntaxError, "trailing input '^' (at position 4)"),
    ("x1 z9", UnknownGeneratorError,
     "unknown generator 'z9' (declared: x1 x2 y1 y2) (at position 3)"),
    ("x1 -1", WordSyntaxError, "unexpected integer -1 (at position 3)"),
    ("[x1,]", WordSyntaxError,
     "expected a generator, '1', '(' or '[' (at position 4)"),
    ("x1 $", WordSyntaxError, "unexpected character '$' (at position 3)"),
    ("x1)", WordSyntaxError, "trailing input ')' (at position 2)"),
])
def test_malformed_text_errors(text, error, message):
    with pytest.raises(error) as info:
        parse_word(text)
    assert type(info.value) is error and str(info.value) == message


def test_long_words_parse_in_linear_time():
    # Reducing the product after each factor is quadratic, about 16 s
    # here; one reduction at the end takes milliseconds.  The bound is
    # generous on purpose.
    start = time.perf_counter()
    assert len(parse_word("x1 y1 " * 8000)) == 16000
    # Commutator operands are reduced first, so nesting a word that
    # cancels does not double its letters at each of the twelve levels.
    text = "x1 y1 " * 1000 + "y1^-1 x1^-1 " * 1000
    for name in ("x2", "y2") * 6:
        text = "[%s, %s]" % (text, name)
    assert parse_word(text).is_identity()
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("exponent", ["99999999999999999999", "1000000000",
                                      "-1000000000"])
def test_power_past_the_letter_bound_is_refused_before_it_is_built(exponent):
    text = "x1 (y1 x2)^%s" % exponent
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError) as info:
            parse_word(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.pos == text.index(exponent)
    assert "exceeds the bound 1048576" in str(info.value)
    assert peak < 1 << 20
    # A power of the empty word has no letters, whatever its exponent.
    assert parse_word("1^%s x1" % exponent) == parse_word("x1")


@pytest.mark.parametrize("text, pos", [
    ("x1^9", 3), ("(x1 y1)^-5", 8), ("x1^5 y1^4", 5), ("x1^4 * y1^5", 5),
    ("[x1^2, y1^3]", 0), ("x1 [x1 y1, x2 y2]", 3)])
def test_each_construct_is_held_to_the_letter_bound(monkeypatch, text, pos):
    monkeypatch.setattr(words, "MAX_LETTERS", 8)
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text)
    assert info.value.pos == pos
    # Letters that cancel are not counted: operands are reduced first.
    for fits in ("x1^8", "(x1 y1)^4", "(x1 x1^-1)^100", "x1^4 y1^4",
                 "[x1 x1^-1, y1^4]", "[x1, y1]^2"):
        assert len(parse_word(fits)) <= 8
