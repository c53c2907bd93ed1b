"""Time orbit generation, provenance replay, full-set evaluation and the
early-exit scans at depth 9.

Prints the best-of-N seconds of these stages: a fresh ``OrbitSet(9)``
finished to all 29,922 words, with the number of twist applications it
makes (words substituted) and the number of ``apply_bytes`` calls that
make them, one per move and level (both counted in a separate, untimed
run by wrapping ``handlebody.orbit``'s ``apply_bytes``), and the memory
the finished set holds (tracemalloc's traced size after one more
finished set is built, caches warm, no level trie built); ``replay_path``
over a seeded sample of 3,000 stored paths, every ``trie_blocks()`` level trie of a second finished set
whose tries are not yet built, and one map (the standard epimorphism
onto the metacyclic group of order 55) evaluated on every word by
precomposing along those tries (``trie_values``); then the first witness of each shipped config's
theta, on a fresh (partial) set, with the number of words that scan
generated, and on the finished set, whose level tries are kept between
scans; and ``intersection_avoids_c0`` of the kernel orbits of cyclic_3
and heisenberg_3 on a fresh set, with the words it generated, and on the
two seeds alone (a fresh ``OrbitSet(0)``), the decision ``kernel-orbit``
makes: a complete kernel orbit's intersection is twist-invariant, so the
seeds decide it; last, ``batch_pair_witnesses`` on a seeded sample of 640 of
order243_presented's quick-filtered partner pairs on the finished set
(ten of perfbench's ``pair_census`` 64-pair blocks), one witness scan
per pair; and finishing a fresh ``OrbitSet(13)``, one level past
``orbit.MAX_DEPTH``, which must raise ``OrbitCapExceeded`` with only its
two seeds generated.  Finished and fresh sets, kernel orbits and partner
pairs are made outside the timed region; the replayed words, a seeded sample of
the trie values (against ``evaluate_in_group``), each witness and each
intersection report (against the finished set; the seeds-only answer,
counterexample and path) and each pair's witness word (it must map to
the identity) are checked after timing.

Usage:
    python3 benchmarks/bench_orbit.py [--repeats 7]
"""

import argparse
import gc
import glob
import os
import random
import time
import tracemalloc

import numpy as np

from handlebody import (Epimorphism, OrbitSet, batch_pair_witnesses,
                        evaluate_in_group, handlebody_witness,
                        intersection_avoids_c0, kernel_orbit, load_config,
                        partner_pairs, replay_path, semidirect_pq,
                        standard_metacyclic_images)
from handlebody import orbit
from handlebody.orbit import BASE_PATH, OrbitCapExceeded, trie_values

DEPTH = 9
REPLAYS = 3000
SAMPLE = 500
PAIRS = 640
KERNEL_CONFIGS = ("cyclic_3", "heisenberg_3")
CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def best_of(repeats, fn, prepare=lambda: ()):
    """Best seconds of ``fn(*prepare())`` and the last result."""
    best = float("inf")
    for _ in range(repeats):
        args = prepare()
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def count_twists(depth):
    """Twist applications made by finishing a fresh ``OrbitSet(depth)``:
    the words substituted, and the ``apply_bytes`` calls that substituted
    them (each call applies one move to the words of a level's parents,
    joined by zero bytes)."""
    words = calls = 0
    inner = orbit.apply_bytes

    def counted(j, data):
        nonlocal words, calls
        words += data.count(b"\0") + 1
        calls += 1
        return inner(j, data)

    orbit.apply_bytes = counted
    try:
        len(OrbitSet(depth))
    finally:
        orbit.apply_bytes = inner
    return words, calls


def refused_set(depth):
    """A fresh ``OrbitSet(depth)`` after ``len`` refused to finish it."""
    s = OrbitSet(depth)
    try:
        len(s)
    except OrbitCapExceeded:
        return s
    raise SystemExit("OrbitSet(%d) finished past the depth bound" % depth)


def answer(verdict):
    report = verdict.report
    return (verdict.value, report and report.witness,
            report and report.sigma_path)


def decision(report):
    return (report.avoids, report.counterexample, report.counterexample_path)


def intersection(report):
    return decision(report) + (report.survivors,)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    def full_set():
        # A fresh set, not generate_c0's shared one, which only the first
        # call would build.
        s = OrbitSet(DEPTH)
        len(s)  # the set grows on demand; this finishes it
        return s

    t_gen, s = best_of(args.repeats, full_set)
    twists, calls = count_twists(DEPTH)
    gc.collect()
    tracemalloc.start()
    traced = full_set()
    set_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del traced
    sample = random.Random(0).sample(
        [(w, p) for w in s if (p := s.path(w)) != BASE_PATH], REPLAYS)
    t_replay, replayed = best_of(
        args.repeats, lambda: [replay_path(p) for _, p in sample])
    if replayed != [w for w, _ in sample]:
        raise SystemExit("replay_path disagrees with the stored words")

    t_trie, tries = best_of(
        args.repeats, lambda copy: [t for _, t in copy.trie_blocks()],
        lambda: (full_set(),))
    G = semidirect_pq(11, 5, 3)
    theta = Epimorphism(G, standard_metacyclic_images(G))
    t_values, values = best_of(args.repeats, lambda: np.concatenate(
        [trie_values(G, theta.images, t) for t in tries]))
    for i in random.Random(1).sample(range(len(s)), SAMPLE):
        if values[i] != evaluate_in_group(G, s.word_at(i), theta.images):
            raise SystemExit("trie_values disagrees with evaluate_in_group")

    witnesses = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))):
        cfg = load_config(path)
        if cfg.theta_words is None:
            continue
        theta = cfg.theta()
        fresh = []

        def fresh_set():
            fresh.append(OrbitSet(DEPTH))
            return (fresh[-1],)

        t_wit, got = best_of(args.repeats,
                             lambda t: handlebody_witness(theta, t),
                             fresh_set)
        t_done, want = best_of(args.repeats,
                               lambda: handlebody_witness(theta, s))
        if answer(got) != answer(want):
            raise SystemExit("%s: the fresh-set witness differs" % cfg.name)
        witnesses.append((cfg.name, fresh[-1].generated, t_wit, t_done))

    intersections = []
    for name in KERNEL_CONFIGS:
        reps, _ = kernel_orbit(
            load_config(os.path.join(CONFIG_DIR, name + ".cfg")).theta())
        fresh = []

        def fresh_set():
            fresh.append(OrbitSet(DEPTH))
            return (reps, fresh[-1])

        t_int, got = best_of(args.repeats, intersection_avoids_c0, fresh_set)
        want = intersection_avoids_c0(reps, s)
        if intersection(got) != intersection(want):
            raise SystemExit("%s: the fresh-set intersection differs" % name)
        t_seeds, got = best_of(args.repeats, intersection_avoids_c0,
                               lambda: (reps, OrbitSet(0)))
        if decision(got) != decision(want):
            raise SystemExit("%s: the seeds-only decision differs" % name)
        intersections.append((name, fresh[-1].generated, t_int, t_seeds))

    theta = load_config(os.path.join(CONFIG_DIR,
                                     "order243_presented.cfg")).theta()
    G, (a, b) = theta.group, theta.images[:2]
    pairs = random.Random(2).sample(
        partner_pairs(G, a, b, filter_quick=True), PAIRS)
    t_pairs, found = best_of(
        args.repeats, lambda: batch_pair_witnesses(G, a, b, pairs, s))
    for (r, t), i in zip(pairs, found.tolist()):
        if i >= 0 and evaluate_in_group(G, s.word_at(i), (a, b, r, t)):
            raise SystemExit("pair (%d, %d): word %d is no witness"
                             % (r, t, i))

    too_deep = orbit.MAX_DEPTH + 1
    t_refused, refused = best_of(args.repeats, lambda: refused_set(too_deep))
    if refused.generated != 2:
        raise SystemExit("OrbitSet(%d) made %d words before it was refused"
                         % (too_deep, refused.generated))

    print("%-44s %10s" % ("stage", "best s"))
    print("%-44s %10.3f   %d twist applications in %d apply_bytes calls"
          % ("OrbitSet(%d), %d words" % (DEPTH, len(s)), t_gen, twists,
             calls))
    print("%-44s %10.2f   MB traced" % ("finished set, held", set_bytes / 1e6))
    print("%-44s %10.3f" % ("replay_path x %d" % REPLAYS, t_replay))
    print("%-44s %10.3f" % ("trie_blocks(), %d nodes"
                            % sum(t.size for t in tries), t_trie))
    print("%-44s %10.4f" % ("one map, level tries", t_values))
    for name, generated, t_wit, t_done in witnesses:
        print("%-44s %10.4f" % ("witness %s, %d words" % (name, generated),
                                t_wit))
        print("%-44s %10.4f" % ("witness %s, finished" % name, t_done))
    for name, generated, t_int, t_seeds in intersections:
        print("%-44s %10.4f" % ("intersect %s, %d words" % (name, generated),
                                t_int))
        print("%-44s %10.4f" % ("intersect %s, seeds only" % name, t_seeds))
    print("%-44s %10.4f   %d of %d pairs witnessed"
          % ("batch_pair_witnesses order243, %d pairs" % PAIRS, t_pairs,
             int((found >= 0).sum()), PAIRS))
    print("%-44s %10.6f" % ("OrbitSet(%d) refused, %d words"
                            % (too_deep, refused.generated), t_refused))


if __name__ == "__main__":
    main()
