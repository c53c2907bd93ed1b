"""Time orbit generation, its scan view and provenance replay at depth 9.

Prints the best-of-N seconds of three stages: ``generate_c0(9)`` (29,922
words), ``scan_view()`` (sort and pack) on a fresh copy of that set, and
``replay_path`` over a seeded sample of 3,000 stored paths.  The copy and
the sample are made outside the timed region, and every replayed word is
checked against the set after timing.

Usage:
    python3 benchmarks/bench_orbit.py [--repeats 7]
"""

import argparse
import random
import time

from handlebody import OrbitSet, generate_c0, replay_path
from handlebody.orbit import BASE_PATH

DEPTH = 9
REPLAYS = 3000


def best_of(repeats, fn, prepare=lambda: ()):
    """Best seconds of ``fn(*prepare())`` and the last result."""
    best = float("inf")
    for _ in range(repeats):
        args = prepare()
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    t_gen, s = best_of(args.repeats, generate_c0, lambda: (DEPTH,))
    t_scan, view = best_of(
        args.repeats, OrbitSet.scan_view,
        lambda: (OrbitSet(s.paths, s.depth, s.sigmas),))
    sample = random.Random(0).sample(
        [(w, p) for w, p in s.paths.items() if p != BASE_PATH], REPLAYS)
    t_replay, replayed = best_of(
        args.repeats, lambda: [replay_path(p) for _, p in sample])
    if replayed != [w for w, _ in sample]:
        raise SystemExit("replay_path disagrees with the stored words")

    print("%-28s %10s" % ("stage", "best s"))
    print("%-28s %10.3f" % ("generate_c0(%d), %d words" % (DEPTH, len(s)),
                            t_gen))
    print("%-28s %10.3f" % ("scan_view(), %d words" % len(view.words),
                            t_scan))
    print("%-28s %10.3f" % ("replay_path x %d" % REPLAYS, t_replay))


if __name__ == "__main__":
    main()
