"""Time coset enumeration, partner-pair enumeration, the first class and
element-order queries and the built-in Cayley-table constructors.

Prints the least of COLD_RUNS (30) cold runs of ``coset_enumerate`` on the
presentations of the two order-243 configs (each must give a group of
order 243), its per-process cache emptied before each run so every run
enumerates (a best of 5 spreads too widely to compare two trees), then
the best-of-N seconds of ``load_config`` on the same configs with the
cache warm, of
``partner_pairs`` on the theta of the same configs, unfiltered and with
the nine quick products filtered out, and checks the pair counts
(order243_presented: 12,312 and 12,312; the stand-in: 5,832 and 5,725).
Then times the first ``conjugacy_classes()`` and ``element_orders()`` call
on a fresh copy of each order-243 group and of ``semidirect_pq(23, 11,
2)`` (83, 35 and 13 classes; exponents 3, 27 and 23), the full
``automorphisms`` searches of heisenberg(3) and heisenberg(5) (432 and
12,000 found), the search of order243_presented under the default node
cap (it must raise ``AutCapExceeded``), the 432 permutations of
heisenberg(3) those automorphisms induce (``automorphism_permutations``),
``single_aut_orbit_certificate`` on order243_presented's 38,880
noncommuting pairs (one Aut(G) orbit, so True), the ``kernel_orbit`` BFS
of semidirect_11_5_3 and heisenberg_3 (r = 7,488 and 40 classes),
``fiber_group_order`` on the kernel orbits of heisenberg_3 and
order243_presented (|H| = 19,683 each), ``quadruple_search`` on the
stand-in ((0, 1, 0, 27)), on heisenberg(5) ((0, 5, 0, 25)), on
order243_presented under a 200,000 node cap (it must raise
``QuadrupleCapExceeded``), on heisenberg_3 ((0, 3, 0, 9)) and cyclic_3
((0, 0, 0, 1)), which take the Frattini rank oracle as the three before,
and on semidirect_11_5_3 ((0, 1, 0, 5)), which is no p-group and takes
subgroup closures, each on a fresh copy of its group so the Frattini
labels are made inside the timed region, and building the 14 table-1 metacyclic groups
with ``semidirect_pq`` (all 14 in one timed run) and ``heisenberg(5)``.
Configs and groups, and the kernel orbits the fiber closure reads, are
built outside the timed region.

Usage:
    python3 benchmarks/bench_groups.py [--repeats 5]
"""

import argparse
import os
import time

import numpy as np

from handlebody import (automorphisms, coset_enumerate, fiber_group_order,
                        groups, heisenberg, kernel_orbit, load_config,
                        partner_pairs, reference, semidirect_pq,
                        single_aut_orbit_certificate)
from handlebody.groups import (AutCapExceeded, FiniteGroup,
                               automorphism_permutations)
from handlebody.homs import QuadrupleCapExceeded, quadruple_search

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "configs")
# config name -> (unfiltered, filtered) partner-pair counts
EXPECTED_PAIRS = {
    "order243_presented": (12312, 12312),
    "order243_obstructed_standin": (5832, 5725),
}
# Configs whose kernel-orbit BFS is timed, and the classes r it finds.
KERNEL_ORBIT_CONFIGS = (("semidirect_11_5_3", 7488), ("heisenberg_3", 40))
# Configs whose kernel orbit's fiber group is closed, and its order.
FIBER_CONFIGS = ("heisenberg_3", "order243_presented")
FIBER_ORDER = 19683
# Config (None: heisenberg(5)) -> node cap and the quadruple it finds, or
# "capped" when the search must raise QuadrupleCapExceeded.
QUADRUPLE_CASES = (
    ("order243_obstructed_standin", 2000000, (0, 1, 0, 27)),
    (None, 2000000, (0, 5, 0, 25)),
    ("order243_presented", 200000, "capped"),
    ("heisenberg_3", 2000000, (0, 3, 0, 9)),
    ("cyclic_3", 2000000, (0, 0, 0, 1)),
    ("semidirect_11_5_3", 2000000, (0, 1, 0, 5)),
)
# Cold coset enumerations per config; the least is printed.
COLD_RUNS = 30
# Group (a config name, or None: semidirect_pq(23, 11, 2)) -> its classes
# and exponent, for the first-call class and element-order rows.
FIRST_CALL_CASES = (("order243_presented", 83, 3),
                    ("order243_obstructed_standin", 35, 27),
                    (None, 13, 23))


def best_of(repeats, fn, setup=None):
    """Best seconds of ``fn()``, or of ``fn(setup())`` with ``setup`` run
    outside the timed region, and the last result."""
    best = float("inf")
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; best run is reported")
    args = parser.parse_args(argv)

    rows = []
    presented = {}
    for name, expected in EXPECTED_PAIRS.items():
        path = os.path.join(CONFIGS, name + ".cfg")
        cfg = load_config(path)
        G = presented[name] = cfg.group

        def cold_enumeration():
            groups._enumeration.cache_clear()
            return coset_enumerate(G.presentation)

        t_coset, H = best_of(COLD_RUNS, cold_enumeration)
        if H.order != 243:
            raise SystemExit("coset_enumerate %s: order %d, expected 243"
                             % (name, H.order))
        rows.append(("coset_enumerate %s, 243, cold" % name, t_coset))
        t_load, warm = best_of(args.repeats, lambda: load_config(path))
        if not np.array_equal(warm.group.table, G.table):
            raise SystemExit("load_config %s: a warm load changed the "
                             "table" % name)
        rows.append(("load_config %s, warm" % name, t_load))
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

    for name, classes, exponent in FIRST_CALL_CASES:
        group = presented[name] if name else semidirect_pq(23, 11, 2)

        def fresh():
            return FiniteGroup(group.table, group.generators)

        t_cls, got = best_of(args.repeats, FiniteGroup.conjugacy_classes,
                             fresh)
        t_ord, orders = best_of(args.repeats, FiniteGroup.element_orders,
                                fresh)
        if (len(got), orders.max()) != (classes, exponent):
            raise SystemExit("%s: %d classes and exponent %d, expected %d "
                             "and %d" % (group.name, len(got), orders.max(),
                                         classes, exponent))
        rows.append(("first conjugacy_classes %s, %d" % (group.name, classes),
                     t_cls))
        rows.append(("first element_orders %s" % group.name, t_ord))

    G = presented["order243_presented"]
    heis3 = heisenberg(3)
    t_aut, auts = best_of(args.repeats, lambda: automorphisms(heis3))
    if len(auts) != 432:
        raise SystemExit("automorphisms(heisenberg(3)): %d, expected 432"
                         % len(auts))
    rows.append(("automorphisms heisenberg(3), 432", t_aut))
    heis5 = heisenberg(5)
    t_aut5, auts5 = best_of(args.repeats, lambda: automorphisms(heis5))
    if len(auts5) != 12000:
        raise SystemExit("automorphisms(heisenberg(5)): %d, expected 12000"
                         % len(auts5))
    rows.append(("automorphisms heisenberg(5), 12000", t_aut5))

    def capped_search():
        try:
            automorphisms(G)
        except AutCapExceeded:
            return True
        return False

    t_capped, capped = best_of(args.repeats, capped_search)
    if not capped:
        raise SystemExit("automorphisms(order243_presented) did not raise "
                         "AutCapExceeded under the default node cap")
    rows.append(("automorphisms order243_presented, capped", t_capped))
    t_perms, perms = best_of(args.repeats,
                             lambda: automorphism_permutations(heis3, auts))
    perms = np.asarray(perms)
    if perms.shape != (432, 27) or not (
            np.sort(perms, axis=1) == np.arange(27)).all():
        raise SystemExit("automorphism_permutations(heisenberg(3)): "
                         "not 432 permutations of 27 elements")
    rows.append(("automorphism_permutations heisenberg(3), 432", t_perms))

    us, vs = np.nonzero(G.conjugation_table() != np.arange(G.order))
    noncommuting = list(zip(us.tolist(), vs.tolist()))
    t_cert, cert = best_of(args.repeats, lambda: single_aut_orbit_certificate(
        G, noncommuting))
    if len(noncommuting) != 38880 or cert is not True:
        raise SystemExit("single_aut_orbit_certificate order243_presented: "
                         "%s on %d pairs, expected True on 38880"
                         % (cert, len(noncommuting)))
    rows.append(("single_aut_orbit_certificate order243_presented, 38880",
                 t_cert))

    for name, want in KERNEL_ORBIT_CONFIGS:
        theta = load_config(os.path.join(CONFIGS, name + ".cfg")).theta()
        t_bfs, (reps, _) = best_of(args.repeats, lambda: kernel_orbit(theta))
        if len(reps) != want:
            raise SystemExit("kernel_orbit %s: r = %d, expected %d"
                             % (name, len(reps), want))
        rows.append(("kernel_orbit %s, r = %d" % (name, want), t_bfs))

    for name in FIBER_CONFIGS:
        reps, _ = kernel_orbit(
            load_config(os.path.join(CONFIGS, name + ".cfg")).theta())
        t_fiber, order = best_of(args.repeats,
                                 lambda: fiber_group_order(reps))
        if order != FIBER_ORDER:
            raise SystemExit("fiber_group_order %s: %s, expected %d"
                             % (name, order, FIBER_ORDER))
        rows.append(("fiber_group_order %s, %d" % (name, FIBER_ORDER),
                     t_fiber))

    for name, cap, want in QUADRUPLE_CASES:
        group = heis5 if name is None else load_config(
            os.path.join(CONFIGS, name + ".cfg")).group

        def search(fresh):
            try:
                return quadruple_search(fresh, node_cap=cap)
            except QuadrupleCapExceeded:
                return "capped"

        t_quad, quad = best_of(args.repeats, search, lambda: FiniteGroup(
            group.table, group.generators))
        if quad != want:
            raise SystemExit("quadruple_search %s: %s, expected %s"
                             % (group.name, quad, want))
        rows.append(("quadruple_search %s, cap %d" % (group.name, cap),
                     t_quad))

    triples = [pqr for pqr, _ in reference.RECORDED_WITNESS_ROWS]
    t_pq, _ = best_of(args.repeats,
                      lambda: [semidirect_pq(*pqr) for pqr in triples])
    rows.append(("semidirect_pq x %d (table 1)" % len(triples), t_pq))
    t_heis, _ = best_of(args.repeats, lambda: heisenberg(5))
    rows.append(("heisenberg(5)", t_heis))

    print("%-56s %10s" % ("stage", "best s"))
    for label, t in rows:
        print("%-56s %10.6f" % (label, t))


if __name__ == "__main__":
    main()
