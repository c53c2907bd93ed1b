"""Orbit-set enumeration, provenance replay, and the cache format."""

import random

import numpy as np
import pytest

from handlebody.orbit import (BASE_PATH, CacheError, OrbitCapExceeded,
                              OrbitSet, contains, format_path, generate_c0,
                              load_cache, replay_path, root_word, save_cache)
from handlebody.twists import apply, commutator_base, sigma
from handlebody.words import parse_word

# Regression values measured by exhaustive enumeration (see tests below for
# the replay cross-check; the full-depth value is asserted in acceptance).
CUMULATIVE_COUNTS = {0: 2, 1: 5, 2: 14, 3: 41, 4: 122, 5: 366}


def test_depth_zero_is_the_two_seeds():
    s = generate_c0(depth=0)
    assert len(s) == 2
    assert commutator_base() in s
    assert root_word() in s
    assert s.paths[commutator_base()] == BASE_PATH
    assert s.paths[root_word()] == BASE_PATH


@pytest.mark.parametrize("depth,count", sorted(CUMULATIVE_COUNTS.items()))
def test_cumulative_counts_small_depths(depth, count):
    assert len(generate_c0(depth=depth)) == count


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generate_c0(depth=-1)
    with pytest.raises(ValueError):
        generate_c0(depth=1, sigmas=(0,))
    with pytest.raises(ValueError):
        generate_c0(depth=1, sigmas=(11,))


def test_word_cap_raises_before_truncation():
    with pytest.raises(OrbitCapExceeded):
        generate_c0(depth=3, word_cap=20)
    # A cap at least as large as the result is harmless.
    assert len(generate_c0(depth=2, word_cap=14)) == 14


def test_paths_replay_to_their_words(orbit3):
    for w in orbit3:
        p = orbit3.paths[w]
        if p == BASE_PATH:
            assert w in (commutator_base(), root_word())
        else:
            assert replay_path(p) == w


def test_paths_are_shortest_and_lex_least(orbit3):
    # Any one-step extension of a stored word stays in deeper sets with a
    # path no longer than (parent path + 1).
    s4 = generate_c0(depth=4)
    for w in orbit3:
        p = orbit3.paths[w]
        steps = 0 if p == BASE_PATH else len(p)
        for j in (1, 2, 3, 4, 5):
            child = apply(sigma(j), w)
            cp = s4.paths[child]
            child_steps = 0 if cp == BASE_PATH else len(cp)
            assert child_steps <= steps + 1


def test_iteration_deterministic_and_seeds_first(orbit3):
    order = list(orbit3)
    assert order[0] == commutator_base()
    assert order[1] == root_word()
    assert order == list(orbit3)
    assert order == sorted(orbit3.paths, key=orbit3._sort_key)


def test_contains_reports_provenance(orbit3):
    ok, p = contains(orbit3, commutator_base())
    assert ok and p == BASE_PATH
    ok, p = contains(orbit3, parse_word("x1^50"))
    assert not ok and p is None


def test_format_path():
    assert format_path(BASE_PATH) == "base"
    assert format_path((3, 4, 4)) == "3,4,4"
    assert format_path(()) == ""


def test_cache_round_trip(tmp_path, orbit3):
    cache = tmp_path / "orbit.cache"
    save_cache(orbit3, str(cache))
    loaded = load_cache(str(cache))
    assert loaded == orbit3
    text = cache.read_text()
    assert text.startswith("c0-cache v1\n")
    assert "depth=3\n" in text and "count=41\n" in text


def test_cache_is_byte_deterministic(tmp_path, orbit3):
    a, b = tmp_path / "a", tmp_path / "b"
    save_cache(orbit3, str(a))
    save_cache(orbit3, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cache_rejects_corruption(tmp_path, orbit3):
    cache = tmp_path / "orbit.cache"
    save_cache(orbit3, str(cache))
    good = cache.read_text()

    bad_header = good.replace("c0-cache v1", "c0-cache v9", 1)
    (tmp_path / "h").write_text(bad_header)
    with pytest.raises(CacheError):
        load_cache(str(tmp_path / "h"))

    # Flipping one word invalidates the checksum.
    tampered = good.replace("x2^-1 y1 x1 y1", "x2^-1 y1 x1 y2", 1)
    assert tampered != good
    (tmp_path / "t").write_text(tampered)
    with pytest.raises(CacheError):
        load_cache(str(tmp_path / "t"))

    truncated = good[:len(good) // 2]
    (tmp_path / "u").write_text(truncated)
    with pytest.raises(CacheError):
        load_cache(str(tmp_path / "u"))


def test_restricted_move_set():
    s = generate_c0(depth=2, sigmas=(1, 2))
    assert s.sigmas == (1, 2)
    for w in s:
        p = s.paths[w]
        if p != BASE_PATH:
            assert set(p) <= {1, 2}


def test_orbit_set_equality_includes_metadata(orbit3):
    other = OrbitSet(orbit3.paths, orbit3.depth, (1, 2, 3, 4, 5))
    assert other == orbit3
    assert OrbitSet(orbit3.paths, 4, orbit3.sigmas) != orbit3


def test_paths_are_read_only(orbit3):
    w = root_word()
    with pytest.raises(TypeError):
        orbit3.paths[w] = (1,)
    with pytest.raises(TypeError):
        del orbit3.paths[w]
    assert contains(orbit3, w) == (True, BASE_PATH)
    assert OrbitSet(dict(orbit3.paths), orbit3.depth, orbit3.sigmas) == orbit3


def _scan_view_sources(tmp_path):
    s = generate_c0(depth=4)
    cache = tmp_path / "orbit.cache"
    save_cache(s, str(cache))
    items = list(s.paths.items())
    random.Random(4).shuffle(items)
    return {"generated": s, "cache": load_cache(str(cache)),
            "shuffled": OrbitSet(dict(items), s.depth, s.sigmas)}


@pytest.mark.parametrize("source", ["generated", "cache", "shuffled"])
def test_scan_view_is_packed_scan_order(tmp_path, source):
    s = _scan_view_sources(tmp_path)[source]
    view = s.scan_view()
    assert list(view.words) == sorted(s.paths, key=s._sort_key)
    assert list(s) == list(view.words)
    assert view.enc.dtype == np.uint8 and view.offsets.dtype == np.int64
    assert not view.enc.flags.writeable
    assert len(view.offsets) == len(s) + 1 and view.offsets[0] == 0
    for i, w in enumerate(view.words):
        assert view.enc[view.offsets[i]:view.offsets[i + 1]].tobytes() \
            == w.data
    again = s.scan_view()
    assert again.words is view.words
    assert again.enc is view.enc and again.offsets is view.offsets


def _signed_letters(word):
    """Letters of a rank-4 word as +-1..+-4 (x1, y1, x2, y2; minus for an
    inverse), read off the byte encoding."""
    return tuple(b if b <= 4 else 4 - b for b in word.data)


def _substitution_table(twist):
    """Image of each signed letter under ``twist``: a generator's image, and
    for an inverse letter that image reversed and negated."""
    table = {}
    for i, image in enumerate(twist.images, start=1):
        table[i] = _signed_letters(image)
        table[-i] = tuple(-c for c in reversed(table[i]))
    return table


def _substitute(table, letters):
    """Substitute each letter through ``table`` and freely reduce with a
    stack."""
    out = []
    for letter in letters:
        for c in table[letter]:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def test_orbit_set_matches_independent_recomputation(orbit9):
    # The set orbit.py documents: [x1,y1] and s3([x1,y1]), plus every image
    # of s3([x1,y1]) under at most 9 moves from s1..s5.  Recomputed level by
    # level from the generator images with its own substitution and free
    # reduction; this checks the enumeration's bookkeeping, not the choice
    # of moves.
    moves = [_substitution_table(sigma(j)) for j in range(1, 6)]
    base = (1, 2, -1, -2)
    reached = frontier = {_substitute(moves[2], base)}
    for _ in range(orbit9.depth):
        frontier = {_substitute(move, w)
                    for w in frontier for move in moves} - reached
        reached = reached | frontier
    reached.add(base)
    assert {_signed_letters(w) for w in orbit9} == reached
