"""Orbit-set enumeration, provenance replay and the scan view."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handlebody import orbit
from handlebody.groups import (cyclic, evaluate_in_group, heisenberg,
                               semidirect_pq)
from handlebody.homs import (EXTENDS, Epimorphism, evaluate,
                             handlebody_witness, standard_metacyclic_images)
from handlebody.orbit import (BASE_PATH, MOVES, OrbitCapExceeded, OrbitSet,
                              _commuting_below,
                              _image_table, _letter_rows, _precompose,
                              contains, format_path, generate_c0,
                              replay_path, root_word, trie_values)
from handlebody.twists import apply, apply_bytes, commutator_base, sigma
from handlebody.words import Word, parse_word

# Regression values measured by exhaustive enumeration (see tests below for
# the replay cross-check; the full-depth value is asserted in acceptance).
CUMULATIVE_COUNTS = {0: 2, 1: 5, 2: 14, 3: 41, 4: 122, 5: 366}


def _items(s):
    """The (word, path) pairs of ``s`` in scan order."""
    return [(w, s.path(w)) for w in s]


def test_depth_zero_is_the_two_seeds():
    s = OrbitSet(0)
    assert len(s) == 2
    assert commutator_base() in s
    assert root_word() in s
    assert s.path(commutator_base()) == BASE_PATH
    assert s.path(root_word()) == BASE_PATH


@pytest.mark.parametrize("depth,count", sorted(CUMULATIVE_COUNTS.items()))
def test_cumulative_counts_small_depths(depth, count):
    assert len(generate_c0(depth=depth)) == count


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generate_c0(depth=-1)
    # A depth that is not an integer is refused, not truncated.
    with pytest.raises(TypeError):
        generate_c0(2.5)
    with pytest.raises(TypeError):
        generate_c0(-1.5)
    # The depth alone determines the set: there is no move set to pass.
    with pytest.raises(TypeError):
        generate_c0(9, (1, 2))


def test_generate_c0_shares_one_set_per_depth():
    orbit._orbit_set.cache_clear()
    s = generate_c0(9)
    assert generate_c0(depth=9) is s
    assert generate_c0(np.int64(9)) is s
    shallow = generate_c0(3)
    assert shallow is not s and shallow.depth == 3 and s.depth == 9


def test_warm_memo_still_checks_the_depth():
    generate_c0(9)
    with pytest.raises(TypeError):
        generate_c0(9.0)
    with pytest.raises(ValueError):
        generate_c0(-1)


def test_memo_evicts_the_least_recently_used_depth():
    # One entry: a process keeps at most one shared set.
    orbit._orbit_set.cache_clear()
    assert orbit._orbit_set.cache_info().maxsize == 1
    s9 = generate_c0(9)
    assert generate_c0(9) is s9             # a hit keeps depth 9
    s3 = generate_c0(3)                     # evicts depth 9
    assert generate_c0(3) is s3
    assert orbit._orbit_set.cache_info().currsize == 1
    assert generate_c0(9) is not s9         # evicts depth 3
    assert generate_c0(3) is not s3


def test_cache_clear_gives_a_fresh_set():
    s = generate_c0(4)
    len(s)
    orbit._orbit_set.cache_clear()
    fresh = generate_c0(4)
    assert fresh is not s and fresh.generated == 2 and not fresh.complete


def test_seeds_are_not_expanded():
    # A derivation that reaches a seed stops there.  That loses nothing:
    # the root is expanded, and each move sends [x1,y1] to a seed (the
    # fact OrbitSet._grow's commuting prune relies on).
    assert MOVES == (1, 2, 3, 4, 5)
    seeds = OrbitSet(0)
    for j in MOVES:
        assert apply(j, commutator_base()) in seeds


def _unpruned_paths(depth):
    """The orbit's (word, path) items in generation order, from the level
    loop with every move applied to every parent (no commuting prune)."""
    seen = {commutator_base().data: BASE_PATH, root_word().data: BASE_PATH}
    frontier = {root_word().data: ()}
    for _ in range(depth):
        level = {}
        for data, path in frontier.items():
            for j in MOVES:
                child = apply_bytes(j, data)
                if child not in seen and child not in level:
                    level[child] = path + (j,)
        seen.update(level)
        frontier = level
    return [(Word.from_bytes(data, 4), p) for data, p in seen.items()]


@pytest.mark.parametrize("depth", range(10))
def test_commuting_prune_keeps_paths_and_order(depth):
    assert _items(generate_c0(depth)) == _unpruned_paths(depth)


# sha256 over "word bytes:format_path(path)\n" in scan order, one per
# depth, as the store that kept a dict of path tuples gave them.
STORE_DIGESTS = (
    "3c38c8cf5a9ab7154812ae722bb611de3d8d4abb9c135d7289eefadb9a5031fa",
    "4fc500a0f29cd3deed2c226369800146d6491dc0d05a4e1465bcfcbee64658f6",
    "e977308809d72f352986bf8174e519ff477712896039e2c46675c633a1176066",
    "106acd080abbf7e7c0ed08ab04225b514ab04fdf8757c46e214c78bb4ab0688f",
    "7b3f56502e9d1de0824e1a9028631fac6817acdaf58cdadf5578bb1f5177696c",
    "cdc6a058570fa260f36338562b23e421141669128a82b058fbf38c649faea90c",
    "69cae8693e63290e59b9e6984ee47c6956ea0a7f89e73fe2ed35f609dce4ae9a",
    "ac487c7719f7b89a8e00821c560528a5f97aca02dcfb3870da97f8de5ce879a2",
    "62b8fe4ea84e2f35c2e3277ac603d909be284554e7c1d29ffe33a9f9b25a2421",
    "4018785a130bf860fe663a72a48cd9ae31f32b8541892436746d74bb1535fe43",
)


@pytest.mark.parametrize("depth", range(10))
def test_store_keeps_scan_order_and_paths(depth, orbit9):
    s = orbit9 if depth == orbit9.depth else generate_c0(depth)
    digest = hashlib.sha256()
    for w, p in _items(s):
        digest.update(w.data + b":" + format_path(p).encode() + b"\n")
        if p != BASE_PATH:
            # Plain ints, so reports and JSON records print them as before.
            assert type(p) is tuple and all(type(j) is int for j in p)
            assert json.loads(json.dumps(list(p))) == list(p)
    assert digest.hexdigest() == STORE_DIGESTS[depth]


def test_depth_9_lookups_grow_only_to_the_words_level(orbit9):
    bounds = [start for start, _ in orbit9.trie_blocks()] + [len(orbit9)]
    for lo, hi in zip(bounds, bounds[1:]):
        for i in (lo, (lo + hi) // 2, hi - 1):
            w = orbit9.word_at(i)
            s = OrbitSet(9)
            assert s.path(w) == orbit9.path(w)
            assert s.generated == hi


def _precompose_group(name, heis3, group55, order243):
    return {"cyclic3": cyclic(3), "heisenberg3": heis3,
            "semidirect_11_5_3": group55, "order243": order243}[name]


@pytest.mark.parametrize("name", ("cyclic3", "heisenberg3",
                                  "semidirect_11_5_3", "order243"))
@pytest.mark.parametrize("seed", range(3))
def test_precompose_matches_scalar_fold(name, seed, heis3, group55,
                                        order243):
    G = _precompose_group(name, heis3, group55, order243)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, G.order, size=(16, 4))
    # Every twist four times, each on a random parent row.
    moves = np.tile(np.arange(1, 11), 4)
    parents = rng.integers(0, len(rows), size=len(moves))
    out = _precompose(G, _letter_rows(G, rows), parents, moves)
    for got, p, j in zip(out.tolist(), parents.tolist(), moves.tolist()):
        assert got == [evaluate_in_group(G, sigma(j)[c], rows[p])
                       for c in range(4)]


def test_image_table_refuses_images_past_its_width():
    # Three letters fit (s3 moves x1 to x2^-1 y1 x1); a fourth is refused.
    table = _image_table([sigma(j) for j in range(1, 11)])
    assert table[2, 0].tolist() == list(sigma(3)[0].data)
    long = tuple(sigma(1)[:3]) + (parse_word("y2 x2 y2 x2"),)
    with pytest.raises(ValueError):
        _image_table([sigma(2), long])


def test_commuting_moves_below_each_move():
    # The moves the prune may skip: s_j s_m = s_m s_j with j < m.
    assert [sorted(_commuting_below(m)) for m in MOVES] == [
        [], [], [1], [1, 2], [1, 2, 3]]


def test_fresh_set_holds_only_the_seeds():
    s = OrbitSet(depth=9)
    assert not s.complete and s.generated == 2
    assert repr(s) == "OrbitSet(2 words so far, depth=9)"


# Each call that needs the whole set, applied to a fresh one.
_FINISHING_CALLS = {
    "len": len,
    "iter": lambda s: next(iter(s)),
    "trie_blocks (all)": lambda s: list(s.trie_blocks()),
    "in (miss)": lambda s: parse_word("x1^50") in s,
    "path (miss)": lambda s: s.path(parse_word("x1^50")),
    "contains (miss)": lambda s: contains(s, parse_word("x1^50")),
}


@pytest.mark.parametrize("call", sorted(_FINISHING_CALLS))
def test_full_set_calls_finish_the_set(call):
    s = OrbitSet(depth=4)
    _FINISHING_CALLS[call](s)
    assert s.complete and s.generated == CUMULATIVE_COUNTS[4]
    assert _items(s) == _items(generate_c0(depth=4))


# Lookups of what cannot be a word of the set, applied to a fresh one.
_OFF_RANK_LOOKUPS = {
    "path (rank 2)": lambda s: s.path(parse_word("x1 y1", ["x1", "y1"])),
    "in (rank 2)": lambda s: Word.from_bytes(b"\x01\x02", 2) in s,
    "contains (str)": lambda s: contains(s, "x1")[1],
    "path (None)": lambda s: s.path(None),
}


@pytest.mark.parametrize("lookup", sorted(_OFF_RANK_LOOKUPS))
def test_off_rank_lookups_grow_nothing(lookup):
    s = OrbitSet(depth=9)
    assert _OFF_RANK_LOOKUPS[lookup](s) in (None, False)
    assert s.generated == 2 and not s.complete


def _read_blocks(s, finish_at):
    """``s.trie_blocks()`` read in turn; ``finish_at`` finishes the set from
    outside after that many blocks (0: before the first)."""
    if finish_at == 0:
        len(s)
    blocks = []
    for k, block in enumerate(s.trie_blocks()):
        if k + 1 == finish_at:
            len(s)
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("finish_at", [None, 0, 1, 3])
def test_scan_blocks_cover_the_scan_order(finish_at):
    # The blocks cover the scan order in turn, and each one's values are
    # those of its words, however far the set had grown.
    s = OrbitSet(depth=4)
    blocks = _read_blocks(s, finish_at)
    covered = 0
    for start, trie in blocks:
        assert start == covered
        covered += len(trie.node)
    assert s.complete and covered == len(s)
    G = heisenberg(3)
    images = (1, 2, 5, 7)
    values = np.concatenate([trie_values(G, images, t) for _, t in blocks])
    assert values.tolist() == [evaluate_in_group(G, w, images) for w in s]


@pytest.mark.parametrize("finish_at", [None, 0, 1, 3])
def test_trie_blocks_follow_the_scan_blocks(finish_at):
    # One block per level: the seeds, then each path length.
    s = OrbitSet(depth=4)
    sizes = [(start, len(trie.node))
             for start, trie in _read_blocks(s, finish_at)]
    assert sizes == [(0, 2), (2, 3), (5, 9), (14, 27), (41, 81)]
    levels = [0 if p == BASE_PATH else len(p) for _, p in _items(s)]
    assert [levels[start:start + n] for start, n in sizes] == [
        [k] * n for k, (_, n) in enumerate(sizes)]


# Words per level through depth 10: the seeds, then each path length.
LEVEL_SIZES = (2, 3, 9, 27, 81, 244, 734, 2208, 6641, 19973, 60067)


def test_level_sizes_through_depth_10():
    s = generate_c0(depth=10)
    assert tuple(len(t.node) for _, t in s.trie_blocks()) == LEVEL_SIZES
    assert len(s) == sum(LEVEL_SIZES)


def test_complete_only_once_no_level_is_left():
    # The set is complete after the call that finds no level past the
    # last, not when the last level is made.
    s = OrbitSet(depth=4)
    assert not s.complete
    s.word_at(CUMULATIVE_COUNTS[4] - 1)
    assert s.generated == CUMULATIVE_COUNTS[4] and not s.complete
    len(s)
    assert s.complete and s.generated == CUMULATIVE_COUNTS[4]
    assert repr(s) == "OrbitSet(122 words, depth=4)"


def test_depth_bound_refuses_a_level_before_making_it(monkeypatch):
    monkeypatch.setattr(orbit, "MAX_DEPTH", 4)
    assert len(OrbitSet(depth=4)) == CUMULATIVE_COUNTS[4]
    # A set too deep to finish is refused before it makes any level.
    s = OrbitSet(depth=9)
    with pytest.raises(OrbitCapExceeded, match="orbit depth cap 4 exceeded: "
                                               "depth 9 would make level 5"):
        len(s)
    assert s.generated == 2
    with pytest.raises(OrbitCapExceeded):
        list(s)
    # Lookups still grow it to the bound, then refuse the next level, and
    # the set keeps its last whole level.
    assert s.word_at(121) == OrbitSet(depth=4).word_at(121)
    with pytest.raises(OrbitCapExceeded, match="would make level 5"):
        s.word_at(122)
    assert s.generated == CUMULATIVE_COUNTS[4] and not s.complete
    monkeypatch.setattr(orbit, "MAX_DEPTH", 3)
    with pytest.raises(OrbitCapExceeded, match="would make level 4"):
        len(OrbitSet(depth=4))


def test_lookups_grow_only_to_the_words_level():
    finished = generate_c0(depth=5)
    for i, (w, p) in enumerate(_items(finished)):
        level = 0 if p == BASE_PATH else len(p)
        for lookup in (contains, lambda s, w: s.path(w),
                       lambda s, w: w in s):
            s = OrbitSet(depth=5)
            lookup(s, w)
            assert s.generated == CUMULATIVE_COUNTS[level]
        s = OrbitSet(depth=5)
        assert s.word_at(i) == w
        assert s.generated == CUMULATIVE_COUNTS[level]


def test_word_at_rejects_negative_indices():
    # The answer must not depend on how far the set has grown.
    s = OrbitSet(depth=4)
    for state in ("partial", "complete"):
        with pytest.raises(IndexError):
            s.word_at(-1)
        assert s.complete == (state == "complete")
        len(s)
    with pytest.raises(IndexError):
        s.word_at(len(s))
    assert s.word_at(len(s) - 1) == list(s)[-1]


def test_paths_replay_to_their_words(orbit3):
    for w, p in _items(orbit3):
        if p == BASE_PATH:
            assert w in (commutator_base(), root_word())
        else:
            assert replay_path(p) == w


def test_paths_are_shortest_and_lex_least(orbit3):
    # Any one-step extension of a stored word stays in deeper sets with a
    # path no longer than (parent path + 1).
    s4 = generate_c0(depth=4)
    for w, p in _items(orbit3):
        steps = 0 if p == BASE_PATH else len(p)
        for j in (1, 2, 3, 4, 5):
            child = apply(j, w)
            cp = s4.path(child)
            child_steps = 0 if cp == BASE_PATH else len(cp)
            assert child_steps <= steps + 1


def _scan_order(s):
    """The words of ``s`` sorted into scan order: seeds first, then by
    (path length, path, word length, word)."""
    def key(w):
        p = s.path(w)
        if p == BASE_PATH:
            return (0, (), len(w), w.data)
        return (1, (len(p),) + p, len(w), w.data)
    return sorted(s, key=key)


def test_iteration_deterministic_and_seeds_first(orbit3):
    order = list(orbit3)
    assert order[0] == commutator_base()
    assert order[1] == root_word()
    assert order == list(orbit3)
    assert order == _scan_order(orbit3)


_FINISHED = {}


def _finished(depth):
    if depth not in _FINISHED:
        s = generate_c0(depth=depth)
        len(s)  # finish it
        _FINISHED[depth] = s
    return _FINISHED[depth]


_LETTER = st.sampled_from([(g, e) for g in range(4) for e in (1, -1)])


@settings(max_examples=60, deadline=None)
@given(depth=st.sampled_from([0, 1, 3, 5, 9]),
       pick=st.integers(0, 10 ** 9), letters=st.lists(_LETTER, max_size=12))
def test_contains_agrees_on_fresh_and_finished_sets(depth, pick, letters):
    # A word of the set, and an arbitrary word (mostly outside it).
    finished = _finished(depth)
    for w in (finished.word_at(pick % len(finished)), Word(letters)):
        fresh = OrbitSet(depth=depth)
        assert contains(fresh, w) == contains(finished, w)
        assert (w in fresh) == (w in finished)


def test_contains_reports_provenance(orbit3):
    ok, p = contains(orbit3, commutator_base())
    assert ok and p == BASE_PATH
    ok, p = contains(orbit3, parse_word("x1^50"))
    assert not ok and p is None


def test_format_path():
    assert format_path(BASE_PATH) == "base"
    assert format_path((3, 4, 4)) == "3,4,4"
    assert format_path(()) == ""


@pytest.mark.parametrize("depth", [0, 1, 5, 9])
def test_generation_order_is_scan_order(orbit9, depth):
    # generate_c0 does not sort: it relies on insertion order being lex
    # path order.
    s = orbit9 if depth == orbit9.depth else generate_c0(depth=depth)
    assert list(s) == _scan_order(s)


def test_orbit_set_equality_includes_metadata(orbit3):
    # The depth determines the set, so == compares depths and grows
    # neither set.
    fresh, deep = OrbitSet(depth=3), OrbitSet(depth=9)
    assert fresh == orbit3 and fresh != deep
    assert fresh != list(orbit3)
    assert fresh.generated == deep.generated == 2


def test_orbit_set_takes_no_path_mapping():
    # The trie scans evaluate a word through its path, so a mapping that
    # stored the depth-3 witness under another path would hide it: the
    # witness scan would answer NoWitnessInSearchedSet.
    G = semidirect_pq(11, 5, 4)
    theta = Epimorphism(G, standard_metacyclic_images(G))
    w = replay_path((4, 3, 5))
    assert evaluate(theta, w) == 0
    mislabeled = {commutator_base(): BASE_PATH, root_word(): BASE_PATH,
                  w: (1,)}
    with pytest.raises(TypeError):
        OrbitSet(mislabeled, 3)
    s = generate_c0(depth=3)
    verdict = handlebody_witness(theta, s)
    assert verdict.value == EXTENDS
    assert verdict.report.witness == w
    assert verdict.report.sigma_path == (4, 3, 5)
    assert contains(s, w) == (True, (4, 3, 5))


def test_complete_set_scans_its_cached_level_tries():
    s = generate_c0(depth=4)
    words = list(s)
    assert words == _scan_order(s)
    blocks = list(s.trie_blocks())
    assert [start for start, _ in blocks] == [0, 2, 5, 14, 41]
    assert sum(len(t.node) for _, t in blocks) == len(words)
    # Each level's trie is built once and reused by every later scan.
    assert all(t is u for (_, t), (_, u) in zip(s.trie_blocks(), blocks))


def _signed_letters(word):
    """Letters of a rank-4 word as +-1..+-4 (x1, y1, x2, y2; minus for an
    inverse), read off the byte encoding."""
    return tuple(b if b <= 4 else 4 - b for b in word.data)


def _substitution_table(images):
    """Image of each signed letter under the generator images ``images``: a
    generator's image, and for an inverse letter that image reversed and
    negated."""
    table = {}
    for i, image in enumerate(images, start=1):
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
