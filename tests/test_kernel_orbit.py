"""Kernel-orbit enumeration, the intersection certificate, and fiber sizes."""

import importlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handlebody.config import load_config
from handlebody.groups import (automorphism_permutations, automorphisms,
                               cyclic, evaluate_rows, heisenberg,
                               semidirect_pq)
from handlebody.homs import (Epimorphism, NotGenerating, evaluate,
                             standard_metacyclic_images)
from handlebody.kernel_orbit import (KernelClassCapExceeded,
                                     fiber_group_order,
                                     intersection_avoids_c0,
                                     kernel_keys, kernel_orbit)
from handlebody.orbit import (BASE_PATH, MOVES, OrbitSet, generate_c0,
                             trie_values)
from handlebody.twists import apply, commutator_base, sigma

ko = importlib.import_module("handlebody.kernel_orbit")
orbit_module = importlib.import_module("handlebody.orbit")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def precompose(theta, j):
    """Oracle: theta o s_j for the twist s_j, one image word at a time on
    the scalar path."""
    return Epimorphism(theta.group, tuple(evaluate(theta, w)
                                          for w in sigma(j)))


def _kernel_equal(th1, th2):
    """True when the two epimorphisms have the same kernel (equal keys)."""
    keys = kernel_keys(th1.group, [th1.images, th2.images])
    return bool(np.array_equal(keys[0], keys[1]))


def _abelian_theta():
    K = cyclic(3)
    g = K.generators[0]
    return Epimorphism(K, (g, g, g, g))


def _seed(name):
    """A seed epimorphism onto each oracle group."""
    if name == "cyclic3":
        return _abelian_theta()
    if name == "heisenberg3":
        G = heisenberg(3)
        x, y = G.generators
        return Epimorphism(G, (x, y, y, x))
    p, q, r = {"semidirect_11_5_3": (11, 5, 3),
               "semidirect_7_3_2": (7, 3, 2)}[name]
    G = semidirect_pq(p, q, r)
    return Epimorphism(G, standard_metacyclic_images(G))


ORACLE_GROUPS = ("cyclic3", "heisenberg3", "semidirect_11_5_3",
                 "semidirect_7_3_2")


def _aut_perms(G):
    return np.array(automorphism_permutations(G, automorphisms(G)),
                    dtype=np.int64)


def _aut_canonical(perms, images):
    """Oracle: the code of the pointwise-least Aut(G) translate of each
    image row.  Two epimorphisms share a kernel exactly when some
    automorphism maps one image tuple to the other, i.e. when these codes
    agree."""
    n = perms.shape[1]
    translates = perms[:, np.asarray(images, dtype=np.int64)]
    codes = ((translates[..., 0] * n + translates[..., 1]) * n
             + translates[..., 2]) * n + translates[..., 3]
    return codes.min(axis=0)


def _random_epimorphism(G, rng):
    while True:
        a, b, c = (int(v) for v in rng.integers(0, G.order, size=3))
        target = G.inverse(G.commutator(a, b))
        ds = [d for d in range(G.order) if G.commutator(c, d) == target]
        if not ds:
            continue
        try:
            return Epimorphism(G, (a, b, c, ds[rng.integers(len(ds))]))
        except NotGenerating:
            continue


def _scalar_key(G, images):
    """The key by its definition, one product at a time."""
    number = {0: 0}
    elements = [0]
    key = []
    for g in elements:
        for img in images:
            h = G.mult(g, img)
            if h not in number:
                number[h] = len(elements)
                elements.append(h)
            key.append(number[h])
    return key


def _fold_values(theta, s, alive=None):
    """Oracle: theta on every scan-order word (on the words ``alive``
    only, if given; 0 elsewhere), folding its letters one at a time
    through the group table, as ``evaluate_in_group`` does."""
    table = theta.group.table.tolist()
    letters = [0] + list(theta.images) + [theta.group.inverse(g)
                                          for g in theta.images]
    values = np.zeros(len(s), dtype=np.int64)
    for i, data in enumerate(w.data for w in s):
        if alive is None or alive[i]:
            g = 0
            for b in data:
                g = table[g][letters[b]]
            values[i] = g
    return values


def _fold_intersection(reps, s):
    """Oracle: the intersection scan on letter folds, as
    (avoids, counterexample, survivors), the survivors counted among the
    words up to the counterexample's scan index (all words without one)."""
    words = list(s)
    alive = np.ones(len(words), dtype=bool)
    masks = []
    for th in reps:
        alive &= _fold_values(th, s, alive) == 0
        masks.append(alive.copy())
        if not alive.any():
            break
    hits = np.flatnonzero(alive)
    end = int(hits[0]) + 1 if len(hits) else len(words)
    survivors = [int(m[:end].sum()) for m in masks]
    if len(hits):
        return False, words[int(hits[0])], survivors
    return True, None, survivors


def _block_values(theta, s):
    """theta on every scan-order word, by ``trie_values`` on each block."""
    return np.concatenate([trie_values(theta.group, theta.images, trie)
                           for _, trie in s.trie_blocks()])


# Depths of the orbit sets evaluated through their level tries.
TRIE_DEPTHS = tuple(range(10))
TRIE_GROUPS = ("cyclic3", "heisenberg3", "semidirect_11_5_3", "order243")
_TRIE_SET_CACHE = {}


def _set_id(depth):
    return "depth%d-s%s" % (depth, ",".join(map(str, MOVES)))


def _trie_set(depth, orbit9):
    if depth == orbit9.depth:
        return orbit9
    if depth not in _TRIE_SET_CACHE:
        _TRIE_SET_CACHE[depth] = generate_c0(depth=depth)
    return _TRIE_SET_CACHE[depth]


def _trie_group(name, heis3, group55, order243):
    return {"cyclic3": cyclic(3), "heisenberg3": heis3,
            "semidirect_11_5_3": group55, "order243": order243}[name]


@pytest.mark.parametrize("depth", TRIE_DEPTHS, ids=_set_id)
@pytest.mark.parametrize("name", TRIE_GROUPS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_values_match_letter_fold(name, depth, seed, orbit9, heis3,
                                        group55, order243):
    G = _trie_group(name, heis3, group55, order243)
    theta = _random_epimorphism(G, np.random.default_rng(seed))
    full = _trie_set(depth, orbit9)
    want = _fold_values(theta, full)
    # A fresh set builds each level's trie as it grows; the complete set
    # keeps the tries of its earlier scans.
    for s in (OrbitSet(depth), full):
        assert np.array_equal(_block_values(theta, s), want)


def test_path_trie_is_cached_with_one_node_per_suffix(orbit3):
    blocks = list(orbit3.trie_blocks())
    again = list(orbit3.trie_blocks())
    assert len(again) == len(blocks) == orbit3.depth + 1
    assert all(t is u for (_, t), (_, u) in zip(again, blocks))
    # Level 0 is the seeds: [x1,y1] off the trie, the root at node 0.
    (start, trie), levels = blocks[0], blocks[1:]
    assert start == 0 and trie.size == 1 and trie.blocks == ()
    assert trie.node.tolist() == [-1, 0]
    words = list(orbit3)
    for n, (start, trie) in enumerate(levels, start=1):
        paths = [orbit3.path(w) for w in words[start:start + len(trie.node)]]
        assert {len(p) for p in paths} == {n}
        # One node per distinct reversed path suffix, root suffix included.
        suffixes = {p[::-1][:d] for p in paths for d in range(n + 1)}
        assert trie.size == len(suffixes)
        assert len(set(trie.node.tolist())) == len(paths)
    fresh = OrbitSet(depth=3)
    assert [(start, t.node.tolist()) for start, t in fresh.trie_blocks()] \
        == [(start, t.node.tolist()) for start, t in blocks]


@pytest.mark.parametrize("name", TRIE_GROUPS)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), maps=st.integers(1, 6),
       depth=st.sampled_from(TRIE_DEPTHS), grown=st.integers(0, 2 ** 16))
def test_intersection_matches_fold_oracle(name, seed, maps, depth, grown,
                                          orbit9, heis3, group55, order243):
    G = _trie_group(name, heis3, group55, order243)
    rng = np.random.default_rng(seed)
    reps = [_random_epimorphism(G, rng) for _ in range(maps)]
    full = _trie_set(depth, orbit9)
    avoids, counterexample, survivors = _fold_intersection(reps, full)
    partial = OrbitSet(depth)
    partial.word_at(grown % len(full))
    for s in (OrbitSet(depth), partial, full):
        report = intersection_avoids_c0(reps, s)
        assert report.avoids is avoids
        assert report.survivors == survivors
        assert report.counterexample == counterexample
        assert report.counterexample_path == (
            None if counterexample is None else full.path(counterexample))


def test_intersection_matches_fold_oracle_on_kernel_orbit(orbit9):
    reps, _ = kernel_orbit(_seed("heisenberg3"))
    report = intersection_avoids_c0(reps, orbit9)
    assert (report.avoids, report.counterexample, report.survivors) == (
        _fold_intersection(reps, orbit9))


def test_intersection_stops_at_first_common_word():
    # The cyclic_3 config's theta: the base word lies in every kernel, so
    # the scan reads the two seeds and no level.
    reps, _ = kernel_orbit(_abelian_theta())
    s = OrbitSet(9)
    report = intersection_avoids_c0(reps, s)
    assert report.counterexample == commutator_base()
    assert report.counterexample_path == BASE_PATH
    assert report.survivors == [1] * len(reps)
    assert s.generated == 2 and not s.complete


def test_intersection_on_a_finished_set_stops_at_level_0(monkeypatch):
    # The same scan on a finished depth-9 set reads the level-0 trie only.
    reps, _ = kernel_orbit(_abelian_theta())
    s = OrbitSet(9)
    len(s)
    built = []
    path_trie = orbit_module._path_trie
    monkeypatch.setattr(orbit_module, "_path_trie",
                        lambda moves: built.append(len(moves))
                        or path_trie(moves))
    report = intersection_avoids_c0(reps, s)
    assert report.counterexample == commutator_base()
    assert report.survivors == [1] * len(reps)
    assert built == [2]
    # A second scan builds nothing and reads the same trie.
    first = next(s.trie_blocks())[1]
    intersection_avoids_c0(reps, s)
    assert built == [2] and next(s.trie_blocks())[1] is first


# Complete kernel orbits: the shipped configs' thetas, seeded random
# epimorphisms onto small groups, and theta = (x, 1, y, 1) onto
# heisenberg(3), whose own [theta(x1), theta(y1)] is trivial although the
# orbit's intersection avoids [x1,y1].
RANDOM_ORBIT_GROUPS = {
    "random-heisenberg3": lambda: heisenberg(3),
    "random-semidirect_7_3_2": lambda: semidirect_pq(7, 3, 2),
    "random-semidirect_13_3_3": lambda: semidirect_pq(13, 3, 3),
    "random-cyclic3": lambda: cyclic(3),
    "random-cyclic6": lambda: cyclic(6),
}
CONFIG_ORBITS = ("cyclic_3", "heisenberg_3", "order243_presented",
                 "semidirect_11_5_3")
COMPLETE_ORBITS = (CONFIG_ORBITS + tuple(RANDOM_ORBIT_GROUPS)
                   + ("x1-y1-trivial",))
_COMPLETE_ORBIT_CACHE = {}


def _x1_y1_trivial_theta():
    G = heisenberg(3)
    x, y = G.generators
    return Epimorphism(G, (x, 0, y, 0))


def _complete_orbit(name):
    """(reps, keys) of the named orbit, built once per test run."""
    if name not in _COMPLETE_ORBIT_CACHE:
        if name in CONFIG_ORBITS:
            path = os.path.join(CONFIG_DIR, name + ".cfg")
            theta = load_config(path).theta()
        elif name in RANDOM_ORBIT_GROUPS:
            seed = list(RANDOM_ORBIT_GROUPS).index(name)
            theta = _random_epimorphism(RANDOM_ORBIT_GROUPS[name](),
                                        np.random.default_rng(seed))
        else:
            theta = _x1_y1_trivial_theta()
        _COMPLETE_ORBIT_CACHE[name] = kernel_orbit(theta)
    return _COMPLETE_ORBIT_CACHE[name]


def _decision(report):
    return (report.avoids, report.counterexample, report.counterexample_path)


@pytest.mark.parametrize("name", COMPLETE_ORBITS)
def test_seeds_decide_a_complete_kernel_orbit(name, orbit9):
    # The intersection of a closed twist orbit is twist-invariant, so the
    # two seeds give the depth-9 scan's answer.
    reps, _ = _complete_orbit(name)
    seeds = intersection_avoids_c0(reps, OrbitSet(0))
    assert _decision(seeds) == _decision(intersection_avoids_c0(reps, orbit9))


@pytest.mark.parametrize("name", CONFIG_ORBITS)
def test_unchecked_classes_pass_validation(name):
    # kernel_orbit builds its classes without Epimorphism's checks, which
    # cannot fail there; each class is still a valid epimorphism.
    reps, _ = _complete_orbit(name)
    G = reps[0].group
    for th in reps:
        assert all(type(g) is int for g in th.images)
        assert th == Epimorphism(G, th.images)


@pytest.mark.parametrize("name", COMPLETE_ORBITS)
def test_kernel_orbit_is_closed_under_the_ten_twists(name):
    # The precondition of the seeds-only decision: every class precomposed
    # with any twist, all four images folded afresh, has a returned key.
    reps, keys = _complete_orbit(name)
    G = reps[0].group
    rows = np.array([th.images for th in reps], dtype=G.table.dtype).T
    known = set(keys)
    for j in range(1, 11):
        moved = np.stack([evaluate_rows(G, w, rows)
                          for w in sigma(j)], axis=1)
        assert {k.tobytes() for k in kernel_keys(G, moved)} <= known


def test_seed_class_alone_does_not_decide_its_orbit():
    # [theta(x1), theta(y1)] = 1, so theta alone has [x1,y1] in its kernel,
    # yet the orbit's intersection avoids it: class 5 is the first that
    # sends [x1,y1] off the identity.
    theta = _x1_y1_trivial_theta()
    seeds = OrbitSet(0)
    assert intersection_avoids_c0([theta], seeds).avoids is False
    reps, _ = _complete_orbit("x1-y1-trivial")
    assert len(reps) == 40
    report = intersection_avoids_c0(reps, seeds)
    assert report.avoids is True
    assert report.survivors == [2, 1, 1, 1, 1, 0]


def test_seeds_do_not_decide_a_list_that_is_no_orbit(orbit9):
    # One class alone is not closed under the twists: the seeds miss its
    # kernel, but a level-1 word lies in it.
    theta = load_config(os.path.join(CONFIG_DIR, "heisenberg_3.cfg")).theta()
    assert intersection_avoids_c0([theta], OrbitSet(0)).avoids
    report = intersection_avoids_c0([theta], orbit9)
    assert report.avoids is False
    assert report.counterexample_path == (2,)


def test_precompose_is_composition(heis3, orbit3):
    x, y = heis3.generators
    theta = Epimorphism(heis3, (x, y, y, x))
    for j in (1, 3, 8):
        composed = precompose(theta, j)
        for w in list(orbit3)[:12]:
            assert evaluate(composed, w) == evaluate(theta, apply(j, w))


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_kernel_keys_match_aut_oracle(name):
    theta = _seed(name)
    G = theta.group
    rng = np.random.default_rng(7)
    # The first candidates of the orbit BFS: repeated kernels and new ones.
    maps = [theta] + [precompose(theta, j) for j in (1, 2, 3)]
    rows = [precompose(th, j).images
            for th in maps for j in range(1, 11)]
    perms = _aut_perms(G)
    for _ in range(12):
        images = np.array(_random_epimorphism(G, rng).images)
        rows.append(tuple(images))
        rows.append(tuple(perms[rng.integers(len(perms))][images]))
    canon = _aut_canonical(perms, rows)
    keys = kernel_keys(G, rows)
    same_key = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
    same_kernel = canon[:, None] == canon[None, :]
    assert np.array_equal(same_key, same_kernel)
    off_diagonal = ~np.eye(len(rows), dtype=bool)
    assert (same_kernel & off_diagonal).any()
    assert (~same_kernel).any()
    for i in (0, 5, len(rows) - 1):
        assert keys[i].tolist() == _scalar_key(G, rows[i])
        assert _kernel_equal(Epimorphism(G, rows[i]),
                             Epimorphism(G, rows[-1])) == bool(
                                 same_kernel[i, -1])


def test_kernel_keys_reject_non_generating(group55):
    a, b = group55.generators
    with pytest.raises(NotGenerating):
        kernel_keys(group55, [(a, b, 0, a), (b, b, b, b)])


@pytest.mark.parametrize("name", ("heisenberg3", "semidirect_7_3_2"))
def test_batched_candidates_are_precompositions(name, monkeypatch):
    theta = _seed(name)
    reps, keys = kernel_orbit(theta)
    # Small blocks exercise the chunking; the orbit must not change.
    calls = []
    keys_of = ko.kernel_keys
    monkeypatch.setattr(ko, "_BLOCK", 7)
    monkeypatch.setattr(ko, "kernel_keys",
                        lambda G, images: calls.append(np.array(images))
                        or keys_of(G, images))
    chunked, chunked_keys = kernel_orbit(theta)
    assert chunked == reps and chunked_keys == keys
    cands = np.concatenate(calls[1:])
    want = [precompose(th, j).images
            for th in reps for j in MOVES]
    assert cands.tolist() == [list(w) for w in want]


@pytest.mark.parametrize("name", ("cyclic3", "heisenberg3",
                                  "semidirect_7_3_2"))
def test_kernel_orbit_matches_scalar_bfs(name):
    """The orbit, in discovery order, against a BFS over s1..s5 on
    precompose and the Aut(G) oracle."""
    theta = _seed(name)
    G = theta.group
    perms = _aut_perms(G)
    seen = set(_aut_canonical(perms, [theta.images]).tolist())
    want = [theta]
    frontier = [theta]
    while frontier:
        cands = [precompose(th, j)
                 for th in frontier for j in MOVES]
        canon = _aut_canonical(perms, [c.images for c in cands])
        frontier = []
        for cand, code in zip(cands, canon.tolist()):
            if code not in seen:
                seen.add(code)
                want.append(cand)
                frontier.append(cand)
    reps, keys = kernel_orbit(theta)
    assert reps == want
    assert len(set(keys)) == len(keys) == len(reps)


def _ten_twist_codes(theta, perms):
    """Oracle: the Aut(G)-canonical codes of every kernel a BFS over all
    ten twists reaches from ``theta``, all four images folded afresh."""
    G = theta.group
    seen = set(_aut_canonical(perms, [theta.images]).tolist())
    frontier = np.array([theta.images], dtype=np.int64)
    while len(frontier):
        cands = np.concatenate([
            np.stack([evaluate_rows(G, w, frontier.T)
                      for w in sigma(j)], axis=1)
            for j in range(1, 11)])
        # Blocks of rows bound the [|Aut(G)|, rows, 4] translates.
        codes = np.concatenate([_aut_canonical(perms, cands[lo:lo + 2048])
                                for lo in range(0, len(cands), 2048)])
        _, first = np.unique(codes, return_index=True)
        new = [i for i in first.tolist() if codes[i] not in seen]
        seen.update(codes[new].tolist())
        frontier = cands[new]
    return seen


_FIVE_MOVE_CASES = ORACLE_GROUPS + tuple(
    "%s-seed%d" % (name, seed)
    for name in RANDOM_ORBIT_GROUPS for seed in (11, 12))


@pytest.mark.parametrize("case", _FIVE_MOVE_CASES)
def test_five_move_orbit_is_the_ten_twist_orbit(case):
    # Each move permutes the finitely many kernels onto G, so the BFS over
    # s1..s5 also reaches every kernel s6..s10 reach: the same class set.
    if case in ORACLE_GROUPS:
        theta = _seed(case)
    else:
        name, seed = case.rsplit("-seed", 1)
        theta = _random_epimorphism(RANDOM_ORBIT_GROUPS[name](),
                                    np.random.default_rng(int(seed)))
    perms = _aut_perms(theta.group)
    reps, _ = kernel_orbit(theta)
    codes = _aut_canonical(perms, [th.images for th in reps]).tolist()
    assert len(set(codes)) == len(codes)
    assert set(codes) == _ten_twist_codes(theta, perms)


def test_kernel_equal_same_kernel_under_target_automorphism(group55):
    a, b = group55.generators
    th1 = Epimorphism(group55, (a, b, group55.inverse(b),
                                group55.mult(b, group55.inverse(a))))
    assert _kernel_equal(th1, th1)
    # Post-composing with a target automorphism preserves the kernel.
    a2 = group55.mult(a, a)
    th2 = Epimorphism(group55, (a2, b, group55.inverse(b),
                                group55.mult(b, group55.inverse(a2))))
    assert _kernel_equal(th1, th2)
    th3 = precompose(th1, 1)
    canon = _aut_canonical(_aut_perms(group55), [th1.images, th3.images])
    assert canon[0] != canon[1]
    assert not _kernel_equal(th1, th3)


def test_kernel_orbit_abelian_count():
    reps, keys = kernel_orbit(_abelian_theta())
    assert len(reps) == 40
    assert all(isinstance(r, Epimorphism) for r in reps)
    assert len(set(keys)) == 40
    # Distinct classes really have distinct kernels.
    for i, j in itertools.combinations(range(0, 40, 13), 2):
        assert not _kernel_equal(reps[i], reps[j])


def test_kernel_orbit_class_cap():
    with pytest.raises(KernelClassCapExceeded,
                       match="kernel orbit exceeded class cap 5"):
        kernel_orbit(_abelian_theta(), class_cap=5)


def test_intersection_counterexample_for_abelian(orbit3):
    reps, _ = kernel_orbit(_abelian_theta())
    report = intersection_avoids_c0(reps, orbit3)
    assert report.avoids is False
    # The base commutator lies in every abelian kernel.
    assert report.counterexample == commutator_base()
    assert report.counterexample_path == BASE_PATH
    rep0 = reps[0]
    assert evaluate(rep0, report.counterexample) == 0


def test_intersection_avoids_for_seed_free_set(group55, orbit3):
    theta = Epimorphism(group55, (group55.generators[0],
                                  group55.generators[1],
                                  group55.inverse(group55.generators[1]),
                                  group55.mult(group55.generators[1],
                                               group55.inverse(
                                                   group55.generators[0]))))
    # Only the seed class: with no witness in a depth-0 set the kernel
    # classes all avoid it.
    report = intersection_avoids_c0([theta], OrbitSet(0))
    assert report.avoids is True
    assert report.counterexample is None
    assert report.survivors[-1] == 0


def _bfs_fiber_order(reps, closure_cap=1000000):
    """Oracle for fiber_group_order: the breadth-first closure of the
    diagonal images and their inverses, one row lookup per product, with
    the same cap rule (None once the closure would pass the cap)."""
    G = reps[0].group
    r = len(reps)
    cap = min(closure_cap, max(1, ko._FIBER_INT_BUDGET // max(r, 1)))
    gens = np.empty((8, r), dtype=np.int32)
    for i in range(4):
        tup = np.array([th.images[i] for th in reps], dtype=np.int32)
        gens[2 * i] = tup
        gens[2 * i + 1] = G.inv[tup]
    identity = np.zeros(r, dtype=np.int32)
    seen = {identity.tobytes()}
    frontier = identity[None, :]
    while frontier.shape[0]:
        fresh = []
        prods = G.table[frontier[:, None, :], gens[None, :, :]]
        for row in prods.reshape(-1, r):
            key = row.tobytes()
            if key not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(key)
                fresh.append(row)
        frontier = (np.stack(fresh) if fresh
                    else np.empty((0, r), dtype=np.int32))
    return len(seen)


def _assert_fiber_matches_oracle(reps):
    """The closure equals the oracle at the default cap and at caps 1,
    |H| - 1, |H| and |H| + 1; returns |H|."""
    order = _bfs_fiber_order(reps)
    assert order is not None
    assert fiber_group_order(reps) == order
    for cap in (1, order - 1, order, order + 1):
        want = _bfs_fiber_order(reps, closure_cap=cap)
        assert want == (order if cap >= order else None)
        assert fiber_group_order(reps, closure_cap=cap) == want
    return order


@pytest.mark.parametrize("name,order", [("cyclic_3", 81),
                                        ("heisenberg_3", 19683),
                                        ("order243_presented", 19683)])
def test_fiber_group_order_matches_bfs_oracle(name, order):
    cfg = load_config(os.path.join(CONFIG_DIR, name + ".cfg"))
    reps, _ = kernel_orbit(cfg.theta())
    assert _assert_fiber_matches_oracle(reps) == order
    for k in (1, 2, 3):
        _assert_fiber_matches_oracle(reps[:k])


@pytest.mark.parametrize("pqr,seed", [((7, 3, 2), 0), ((13, 3, 3), 1)])
def test_fiber_group_order_matches_bfs_oracle_on_random_thetas(
        pqr, seed, monkeypatch):
    G = semidirect_pq(*pqr)
    reps, _ = kernel_orbit(_random_epimorphism(G, np.random.default_rng(seed)))
    for k in (1, 2, 3):
        order = _assert_fiber_matches_oracle(reps[:k])
    # The memory-scaled cap, budget // r, follows the same rule.
    for budget, want in ((3 * order - 1, None), (3 * order, order)):
        monkeypatch.setattr(ko, "_FIBER_INT_BUDGET", budget)
        assert _bfs_fiber_order(reps[:3]) == want
        assert fiber_group_order(reps[:3]) == want
    # The whole orbit passes a small cap in both.
    assert fiber_group_order(reps, closure_cap=500) is None
    assert _bfs_fiber_order(reps, closure_cap=500) is None


def test_fiber_group_order_abelian():
    reps, _ = kernel_orbit(_abelian_theta())
    assert fiber_group_order(reps) == 81
    # A cap too small for the closure reports absence honestly.
    assert fiber_group_order(reps, closure_cap=10) is None


def test_fiber_group_order_single_class():
    reps, _ = kernel_orbit(_abelian_theta())
    one = fiber_group_order(reps[:1])
    assert one == 3  # a single diagonal class generates one copy
