"""Time the B0 rule chain on the groups the check workload cycles through.

For each of the 14 table-1 metacyclic groups, heisenberg(3), heisenberg(5)
and the two order-243 configs (the stand-in with its ``known_b0``
override), prints the best-of-N seconds of one ``b0_status`` call, twice:
``first`` on a fresh copy of the group (as a one-shot CLI ``check`` pays
it, conjugacy classes not yet built) and ``repeat`` on the same copy
right after (as a long-running caller pays it).  The copy is made from the
group's table and generators outside the timed region.

Usage:
    python3 benchmarks/bench_b0.py [--repeats 5]
"""

import argparse
import os
import time

from handlebody import (FiniteGroup, b0_status, heisenberg, load_config,
                        reference, semidirect_pq)

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
OVERRIDES = {None: None, "zero": "Zero", "nonzero": "NonZero"}


def build_groups():
    """(group, override) pairs in the check workload's group order."""
    groups = [(semidirect_pq(*pqr), None)
              for pqr, _ in reference.RECORDED_WITNESS_ROWS]
    groups += [(heisenberg(3), None), (heisenberg(5), None)]
    for name in ("order243_presented", "order243_obstructed_standin"):
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
        groups.append((cfg.group, OVERRIDES[cfg.known_b0]))
    return groups


def fresh_copy(G):
    return FiniteGroup(G.table, G.generators, gen_names=G.gen_names,
                       name=G.name, presentation=G.presentation)


def time_group(G, override, repeats):
    """Best (first-call, repeat-call) seconds and the status returned."""
    best_first = best_repeat = float("inf")
    for _ in range(repeats):
        H = fresh_copy(G)
        t0 = time.perf_counter()
        status = b0_status(H, override)
        t1 = time.perf_counter()
        b0_status(H, override)
        t2 = time.perf_counter()
        best_first = min(best_first, t1 - t0)
        best_repeat = min(best_repeat, t2 - t1)
    return best_first, best_repeat, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    total_first = total_repeat = 0.0
    print("%-32s %5s %10s %10s  %s" % ("group", "order", "first ms",
                                        "repeat ms", "status"))
    for G, override in build_groups():
        first, repeat, status = time_group(G, override, args.repeats)
        total_first += first
        total_repeat += repeat
        print("%-32s %5d %10.3f %10.3f  %s (%s)"
              % (G.name, G.order, first * 1e3, repeat * 1e3, status.value,
                 status.reason.split(":")[0]))
    print("%-32s %5s %10.3f %10.3f" % ("total (18 groups)", "",
                                       total_first * 1e3, total_repeat * 1e3))


if __name__ == "__main__":
    main()
