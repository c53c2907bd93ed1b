"""Free-group word arithmetic, reduction, parsing and printing."""

import pytest
from hypothesis import given, strategies as st

from handlebody.words import (Word, WordSyntaxError, UnknownGeneratorError,
                              commutator, default_names, generator, identity,
                              invert, multiply, parse_word, power, print_word)

letters_st = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=40)
words_st = letters_st.map(lambda ls: Word(ls, rank=4))


def test_empty_word_is_identity():
    w = Word()
    assert w.is_identity()
    assert len(w) == 0
    assert w == identity(4)


def test_construction_reduces():
    w = Word([(0, 1), (0, -1), (1, 1)])
    assert w == generator(1)
    assert Word([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()


def test_rank_and_index_validation():
    with pytest.raises(ValueError):
        Word(rank=0)
    with pytest.raises(ValueError):
        Word([(4, 1)], rank=4)
    with pytest.raises(ValueError):
        Word([(0, 2)], rank=4)


def test_word_is_immutable():
    w = generator(0)
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
    assert multiply(w, invert(w)).is_identity()
    assert multiply(invert(w), w).is_identity()
    assert invert(invert(w)) == w


@given(words_st, words_st)
def test_inverse_antihomomorphism(u, v):
    assert invert(multiply(u, v)) == multiply(invert(v), invert(u))


@given(words_st, words_st, words_st)
def test_multiplication_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


# Conjugates u v u^-1 cancel wherever two copies meet.
conjugates_st = st.builds(lambda u, v: u * v * ~u, words_st, words_st)


@given(st.one_of(words_st, conjugates_st), st.integers(-6, 6))
def test_power_matches_repeated_multiplication(w, n):
    out = identity(4)
    step = w if n >= 0 else invert(w)
    for _ in range(abs(n)):
        out = multiply(out, step)
    assert power(w, n) == out


def test_long_powers_parse():
    assert len(parse_word("x1^100000")) == 100000
    w = parse_word("(x1 y1 x1^-1)^-32000")
    assert w.data == b"\x01" + b"\x06" * 32000 + b"\x05"


@given(words_st, words_st)
def test_commutator_expansion(u, v):
    expected = multiply(multiply(u, v), multiply(invert(u), invert(v)))
    assert commutator(u, v) == expected


def test_operator_sugar():
    u, v = generator(0), generator(1)
    assert u * v == multiply(u, v)
    assert ~u == invert(u)
    with pytest.raises(ValueError):
        multiply(u, generator(0, rank=5))


def test_default_names():
    assert default_names(4) == ("x1", "y1", "x2", "y2")
    assert default_names(2) == ("g1", "g2")


def test_parse_basic_forms():
    assert parse_word("1").is_identity()
    assert parse_word("x1") == generator(0)
    assert parse_word("x1^-1") == invert(generator(0))
    assert parse_word("x1 y1") == parse_word("x1*y1")
    assert parse_word("x1^3") == power(generator(0), 3)
    assert parse_word("(x1 y1)^2") == power(generator(0) * generator(1), 2)
    assert parse_word("[x1,y1]") == commutator(generator(0), generator(1))
    assert parse_word("[x1,y1]^-1") == commutator(generator(1), generator(0))
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
    assert print_word(identity(4)) == "1"
    assert print_word(parse_word("a", ("a",)), ("a",)) == "a"


@given(words_st)
def test_print_parse_round_trip(w):
    assert parse_word(print_word(w)) == w


def test_repr_mentions_text_form():
    assert "x1" in repr(generator(0))
