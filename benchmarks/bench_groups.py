"""Time partner-pair enumeration and the built-in Cayley-table constructors.

Prints the best-of-N seconds of ``partner_pairs`` on the theta of the two
order-243 configs, unfiltered and with the nine quick products filtered
out, and checks the pair counts (order243_presented: 12,312 and 12,312;
the stand-in: 5,832 and 5,725).  Then times building the 14 table-1
metacyclic groups with ``semidirect_pq`` (all 14 in one timed run) and
``heisenberg(5)``.  Configs are loaded outside the timed region.

Usage:
    python3 benchmarks/bench_groups.py [--repeats 5]
"""

import argparse
import os
import time

from handlebody import (heisenberg, load_config, partner_pairs, reference,
                        semidirect_pq)

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
# config name -> (unfiltered, filtered) partner-pair counts
EXPECTED_PAIRS = {
    "order243_presented": (12312, 12312),
    "order243_obstructed_standin": (5832, 5725),
}


def best_of(repeats, fn):
    """Best seconds of ``fn()`` and the last result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    rows = []
    for name, expected in EXPECTED_PAIRS.items():
        cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
        G = cfg.group
        a, b = cfg.theta().images[:2]
        for filtered, want in zip((False, True), expected):
            t, pairs = best_of(args.repeats, lambda: partner_pairs(
                G, a, b, filter_quick=filtered))
            if len(pairs) != want:
                raise SystemExit("%s: %d partner pairs (filtered=%s), "
                                 "expected %d" % (name, len(pairs), filtered,
                                                  want))
            rows.append(("partner_pairs %s %s, %d" % (
                name, "filtered" if filtered else "all", want), t))

    triples = [pqr for pqr, _ in reference.RECORDED_WITNESS_ROWS]
    t_pq, _ = best_of(args.repeats,
                      lambda: [semidirect_pq(*pqr) for pqr in triples])
    rows.append(("semidirect_pq x %d (table 1)" % len(triples), t_pq))
    t_heis, _ = best_of(args.repeats, lambda: heisenberg(5))
    rows.append(("heisenberg(5)", t_heis))

    print("%-56s %10s" % ("stage", "best s"))
    for label, t in rows:
        print("%-56s %10.4f" % (label, t))


if __name__ == "__main__":
    main()
