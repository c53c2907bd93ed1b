"""End-to-end acceptance suite: one test per acceptance criterion.

Each test appends exactly one line

    ACCEPTANCE NN <name>: PASS|FAIL|SKIP -- <detail>

to the session scoreboard (echoed in the terminal summary) and prints it,
then asserts.  A criterion that compares a fresh enumeration against a
recorded reference count which the enumeration does not reproduce fails
honestly with a documented-discrepancy report in the assertion message;
nothing is loosened to force agreement.  Where a counting identity proves
the fresh count instead, the test asserts the identity and reports the
recorded value beside it as ``recorded=<n> provenance=<token>``, so a PASS
line never hides an unmatched recorded value.  Report lines elsewhere in
the package flag such counts ``provenance=derived`` in the same way.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from handlebody import (Epimorphism, Presentation, automorphisms,
                        batch_pair_witnesses, coset_enumerate, cyclic,
                        evaluate, generate_c0, heisenberg, pair_orbit_count,
                        parse_word, partner_pairs, semidirect_pq,
                        standard_metacyclic_images)
from handlebody import homs, reference
from handlebody.bogomolov import (ALL_EXTEND, EXISTS_NON_EXTENDABLE, NONZERO,
                                  ZERO, b0_status, samperton_verdict)
from handlebody.config import load_config
from handlebody.groups import (AutCapExceeded, automorphism_permutations,
                               heisenberg_presentation)
from handlebody.kernel_orbit import (fiber_group_order,
                                     intersection_avoids_c0, kernel_orbit)
from handlebody.orbit import OrbitSet, contains
from handlebody.twists import apply, commutator_base, sigma
from handlebody.words import Word

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Display forms of the two substitutions that move the commutator base,
# as recorded alongside the ten-twist generating set.
RECORDED_SIGMA3_IMAGES = ("x2^-1 y1 x1", "y1", "x2", "x2^-1 y1 y2")
RECORDED_SIGMA8_IMAGES = ("y1^-1 x2 x1", "y1", "x2", "y1^-1 x2 y2")


def _record(scoreboard, num, name, status, detail):
    line = "ACCEPTANCE %02d %s: %s -- %s" % (num, name, status, detail)
    scoreboard.append(line)
    print(line)
    return line


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, p))]


def test_01_orbit_cardinality(orbit9, scoreboard):
    """Depth-9 orbit enumeration versus the recorded reference count."""
    t0 = time.perf_counter()
    enumerated = len(orbit9)
    recorded = reference.RECORDED_ORBIT_COUNT
    # Stability: a full re-enumeration must agree with the fixture.
    again = len(OrbitSet(depth=9))
    # Hand-checkable shallow prefix of cumulative counts.
    prefix = tuple(len(generate_c0(depth=d)) for d in range(6))
    elapsed = time.perf_counter() - t0
    ok = (enumerated == recorded and again == enumerated
          and prefix == (2, 5, 14, 41, 122, 366))
    _record(scoreboard, 1, "orbit-cardinality", "PASS" if ok else "FAIL",
            "enumerated=%d rerun=%d prefix(d0..d5)=%s recorded=%d "
            "provenance=%s (%.1fs)"
            % (enumerated, again, ",".join(map(str, prefix)), recorded,
               reference.provenance(enumerated, recorded), elapsed))
    assert ok, (
        "documented discrepancy: the depth-9 orbit enumeration is stable at "
        "%d words (re-enumeration agrees), while the recorded reference "
        "count is %d.  The shallow cumulative counts %s through depth 5 are "
        "reproduced and hand-checkable, and test_orbit checks the "
        "enumerated set word for word against a separate recomputation of "
        "the set orbit.py documents.  No convention swept so far (twist "
        "subsets, conjugacy dedup, identification in the surface group, "
        "length cut-offs, exact move counts; README, 'Recorded-count "
        "discrepancies') yields the recorded value.  The recorded count is "
        "kept as reference and report lines flag the enumerated value "
        "provenance=derived." % (enumerated, recorded,
                                 ",".join(map(str, prefix))))


def test_02_twist_algebra(scoreboard):
    """Inverse pairs cancel; the base is fixed by eight of ten twists;
    the two moving substitutions match their recorded display forms."""
    t0 = time.perf_counter()
    rng = random.Random(99173)
    words = []
    for _ in range(1000):
        letters = [(rng.randrange(4), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 25))]
        words.append(Word(letters, 4))
    cancel_ok = True
    for w in words:
        for j in range(1, 6):
            if (apply(j, apply(5 + j, w)) != w
                    or apply(5 + j, apply(j, w)) != w):
                cancel_ok = False
    base = commutator_base()
    fixed_ok = all(apply(j, base) == base
                   for j in (1, 2, 4, 5, 6, 7, 9, 10))
    display_ok = (
        sigma(3) == tuple(parse_word(t) for t in RECORDED_SIGMA3_IMAGES)
        and sigma(8) == tuple(parse_word(t) for t in RECORDED_SIGMA8_IMAGES))
    elapsed = time.perf_counter() - t0
    ok = cancel_ok and fixed_ok and display_ok
    _record(scoreboard, 2, "twist-algebra", "PASS" if ok else "FAIL",
            "inverse_cancel(1000 words x j=1..5)=%s base_fixed(8 twists)=%s "
            "display_match(s3,s8)=%s (%.1fs)"
            % (cancel_ok, fixed_ok, display_ok, elapsed))
    assert ok


def test_03_recorded_witness_rows(orbit9, scoreboard):
    """All fourteen recorded metacyclic witness rows check out end to end."""
    t0 = time.perf_counter()
    base = commutator_base()
    verified = 0
    failures = []
    for (p, q, r), text in reference.RECORDED_WITNESS_ROWS:
        G = semidirect_pq(p, q, r)
        theta = Epimorphism(G, standard_metacyclic_images(G))
        w = parse_word(text)
        in_c0, _ = contains(orbit9, w)
        in_kernel = evaluate(theta, w) == 0
        base_nontrivial = evaluate(theta, base) != 0
        if in_c0 and in_kernel and base_nontrivial:
            verified += 1
        else:
            failures.append(((p, q, r), in_c0, in_kernel, base_nontrivial))
    elapsed = time.perf_counter() - t0
    ok = verified == reference.RECORDED_WITNESS_ROW_COUNT and not failures
    _record(scoreboard, 3, "recorded-witness-rows", "PASS" if ok else "FAIL",
            "rows=%d verified=%d (parse + orbit membership + kernel "
            "membership + nontrivial base) (%.1fs)"
            % (len(reference.RECORDED_WITNESS_ROWS), verified, elapsed))
    assert ok, "failing rows: %r" % failures


def test_04_r_cubed_criterion(scoreboard):
    """Over every valid metacyclic tuple with p < 50, the recorded
    three-twist word lies in the kernel iff r^3 = 1 mod p."""
    t0 = time.perf_counter()
    w = homs.r3_criterion_word()
    triples = 0
    kernel_hits = 0
    mismatches = []
    for p in _primes_below(50):
        for q in _primes_below(p):
            if q < 3:
                continue
            for r in range(2, p):
                if pow(r, q, p) != 1:
                    continue
                triples += 1
                G = semidirect_pq(p, q, r)
                theta = Epimorphism(G, standard_metacyclic_images(G))
                in_kernel = evaluate(theta, w) == 0
                expected = homs.r_cubed_criterion(p, r)
                kernel_hits += int(in_kernel)
                if in_kernel != expected:
                    mismatches.append((p, q, r))
    elapsed = time.perf_counter() - t0
    # 68 is the (fixed, arithmetic) number of valid tuples below 50.
    ok = not mismatches and triples == 68
    _record(scoreboard, 4, "r-cubed-criterion", "PASS" if ok else "FAIL",
            "triples=%d kernel_hits=%d mismatches=%d (%.1fs)"
            % (triples, kernel_hits, len(mismatches), elapsed))
    assert ok, "tuples violating the equivalence: %r" % mismatches


def test_05_heisenberg_counts(orbit9, heis3, scoreboard):
    """Order-27 Heisenberg walkthrough: Burnside count, the swap identity
    for the partner pairs, witnesses; the recorded pair count is reported
    beside them."""
    t0 = time.perf_counter()
    # The count ``counts`` reports: the pairs (u, v) with u v u^-1 != v.
    noncomm = int(np.count_nonzero(heis3.conjugation_table()
                                   != np.arange(heis3.order)))
    classes = len(heis3.conjugacy_classes())
    burnside_ok = (noncomm == 432 and classes == 11
                   and noncomm == 27 ** 2 - 27 * classes)
    a, b = heis3.generators[0], heis3.generators[1]
    pairs = partner_pairs(heis3, a, b)
    filtered = partner_pairs(heis3, a, b, filter_quick=True)
    idxs = batch_pair_witnesses(heis3, a, b, pairs, orbit9)
    witnessed = int((idxs >= 0).sum())
    recorded = reference.RECORDED_COUNTS["heisenberg3_partner_pairs"]
    elapsed = time.perf_counter() - t0
    # Every non-commuting (r, t) has [r,t] in Z(G) minus 1 = {z, z^-1} and
    # the swap (r, t) -> (t, r) exchanges the two values, so exactly half
    # of them have [r,t] = [a,b]^-1; all of these generate since <a,b> = G.
    count_ok = len(pairs) == noncomm // 2
    witness_ok = witnessed == len(pairs)
    ok = burnside_ok and count_ok and witness_ok
    _record(scoreboard, 5, "heisenberg-counts", "PASS" if ok else "FAIL",
            "noncommuting=%d burnside(27^2-27*%d)=%s partner_pairs=%d "
            "noncommuting/2=%d filtered=%d witnessed=%d/%d recorded=%d "
            "provenance=%s (%.1fs)"
            % (noncomm, classes, burnside_ok, len(pairs), noncomm // 2,
               len(filtered), witnessed, len(pairs), recorded,
               reference.provenance(len(pairs), recorded), elapsed))
    assert ok, (
        "the generator pair of the order-27 Heisenberg group has exactly "
        "half of the 432 = 27^2 - 27*11 non-commuting pairs as ordered "
        "partner pairs (the swap (r,t) -> (t,r) exchanges [r,t] = z and "
        "z^-1), all witnessed; got noncommuting=%d classes=%d "
        "partner_pairs=%d witnessed=%d.  The recorded count %d (filtered "
        "here: %d) is reported, not asserted: no document in the repo "
        "settles which set it counts."
        % (noncomm, classes, len(pairs), witnessed, recorded,
           len(filtered)))


def test_06_order243_counts(orbit9, order243, scoreboard):
    """Order-243 presented group: order, filtered pair count, witnesses."""
    t0 = time.perf_counter()
    recorded_order = reference.RECORDED_COUNTS["order243_presented_order"]
    order_ok = order243.order == recorded_order
    a, c = order243.generators[0], order243.generators[2]
    filtered = partner_pairs(order243, a, c, filter_quick=True)
    recorded = reference.RECORDED_COUNTS["order243_partner_pairs_filtered"]
    idxs = batch_pair_witnesses(order243, a, c, filtered, orbit9)
    witnessed = int((idxs >= 0).sum())
    max_scan = int(idxs.max()) if len(filtered) else -1
    elapsed = time.perf_counter() - t0
    ok = (order_ok and len(filtered) == recorded
          and witnessed == len(filtered))
    _record(scoreboard, 6, "order243-counts", "PASS" if ok else "FAIL",
            "order=%d recorded_order=%d provenance=%s "
            "partner_pairs_filtered=%d recorded=%d witnessed=%d/%d "
            "max_scan_index=%d (%.1fs)"
            % (order243.order, recorded_order,
               reference.provenance(order243.order, recorded_order),
               len(filtered), recorded, witnessed, len(filtered), max_scan,
               elapsed))
    assert ok


def test_07_kernel_orbit_consistency(orbit9, group55, scoreboard):
    """Kernel-orbit intersection avoids the orbit set for the metacyclic
    example, fails to avoid it for an abelian target, and reports the
    capped fiber closure as unknown instead of failing."""
    t0 = time.perf_counter()
    th = Epimorphism(group55, standard_metacyclic_images(group55))
    reps, _ = kernel_orbit(th, pres=group55.presentation)
    report = intersection_avoids_c0(reps, orbit9)
    fib = fiber_group_order(reps)

    G3 = cyclic(3)
    th3 = Epimorphism(G3, (1, 0, 0, 0))
    reps3, _ = kernel_orbit(th3, pres=G3.presentation)
    report3 = intersection_avoids_c0(reps3, orbit9)
    fib3 = fiber_group_order(reps3)
    elapsed = time.perf_counter() - t0
    ok = (report.avoids is True and fib is None
          and report3.avoids is False
          and report3.counterexample == commutator_base()
          and fib3 == 81)
    _record(scoreboard, 7, "kernel-orbit-consistency",
            "PASS" if ok else "FAIL",
            "metacyclic: r=%d avoids=%s survivors=%s fiber=%s(unverified); "
            "abelian: r=%d avoids=%s counterexample=base fiber=%s (%.1fs)"
            % (len(reps), report.avoids, report.survivors,
               fib, len(reps3), report3.avoids, fib3, elapsed))
    assert ok


def test_08_extension_verdicts(group55, scoreboard):
    """Obstruction-status rules feed the extendability verdicts."""
    t0 = time.perf_counter()
    st55 = b0_status(group55)
    v55 = samperton_verdict(group55, st55)
    st3 = b0_status(heisenberg(3))
    st5 = b0_status(heisenberg(5))

    # The canonical obstructed order-243 group needs a user-imported
    # presentation (see the best-effort criterion); the asserted-override
    # path is exercised on the shipped stand-in of the same order.
    user_cfg = CONFIG_DIR / "order243_obstructed_user.cfg"
    cfg_path = user_cfg if user_cfg.exists() \
        else CONFIG_DIR / "order243_obstructed_standin.cfg"
    cfg = load_config(cfg_path)
    st_ob = b0_status(cfg.group, override=NONZERO)
    involutions = cfg.group.count_involutions()
    v_ob = samperton_verdict(cfg.group, st_ob)
    elapsed = time.perf_counter() - t0
    ok = (st55.value == ZERO and v55.value == ALL_EXTEND
          and st3.value == ZERO and st5.value == ZERO
          and st_ob.value == NONZERO and involutions == 0
          and v_ob.value == EXISTS_NON_EXTENDABLE)
    _record(scoreboard, 8, "extension-verdicts", "PASS" if ok else "FAIL",
            "metacyclic(11,5,3)->%s->%s; heisenberg(3)->%s; "
            "heisenberg(5)->%s; %s(asserted NonZero, %d involutions)->%s "
            "(%.1fs)"
            % (st55.value, v55.value, st3.value, st5.value,
               cfg_path.stem, involutions, v_ob.value, elapsed))
    assert ok, (st55, v55, st3, st5, st_ob, involutions, v_ob)


def test_09_group_engine(heis3, order243, group55, scoreboard):
    """Coset enumeration orders, Sylow orders, and the single
    automorphism orbit on the Heisenberg non-commuting pairs."""
    t0 = time.perf_counter()
    o5 = coset_enumerate(Presentation(("a",), ("a^5",))).order
    o27 = coset_enumerate(heisenberg_presentation(3)).order
    o243 = order243.order
    syl = (len(group55.sylow_subgroup(11)), len(group55.sylow_subgroup(5)),
           len(heis3.sylow_subgroup(3)))
    auts = automorphisms(heis3)
    pairs_all = [(u, v) for u in range(heis3.order)
                 for v in range(heis3.order)
                 if heis3.commutator(u, v) != 0]
    orbits = pair_orbit_count(heis3, pairs_all, auts=auts)
    recorded_aut = reference.RECORDED_COUNTS["heisenberg3_aut_order"]
    elapsed = time.perf_counter() - t0
    ok = ((o5, o27, o243) == (5, 27, 243) and syl == (11, 5, 27)
          and len(auts) == recorded_aut and len(pairs_all) == 432
          and orbits == 1)
    _record(scoreboard, 9, "group-engine", "PASS" if ok else "FAIL",
            "coset_orders=(%d,%d,%d) sylow_orders=(11:%d,5:%d,3:%d) "
            "aut_order=%d recorded=%d provenance=%s pair_orbits=%d on %d "
            "pairs (%.1fs)"
            % (o5, o27, o243, syl[0], syl[1], syl[2], len(auts),
               recorded_aut, reference.provenance(len(auts), recorded_aut),
               orbits, len(pairs_all), elapsed))
    assert ok


def test_10_obstructed_import(orbit9, scoreboard):
    """Best-effort walkthrough for the obstructed order-243 group; runs
    only when a user-imported presentation config is present."""
    user_cfg = CONFIG_DIR / "order243_obstructed_user.cfg"
    if not user_cfg.exists():
        _record(scoreboard, 10, "obstructed-import", "SKIP",
                "no user-imported presentation at %s; place one there to "
                "enable the count checks" % user_cfg)
        pytest.skip("user-imported presentation not provided (%s)"
                    % user_cfg)
    t0 = time.perf_counter()
    cfg = load_config(user_cfg)
    G = cfg.group
    pairs_all = [(u, v) for u in range(G.order) for v in range(G.order)
                 if G.commutator(u, v) != 0]
    noncomm = len(pairs_all)
    try:
        auts = automorphisms(G, node_cap=50000000)
    except AutCapExceeded as exc:
        _record(scoreboard, 10, "obstructed-import", "FAIL",
                "automorphism enumeration capped (%s); orbit counts "
                "unverified" % exc)
        raise AssertionError("automorphism enumeration capped: %s" % exc)
    orbits = pair_orbit_count(G, pairs_all, auts=auts)

    # Per-orbit-class partner-pair and witness counts, flagging any class
    # that reproduces the recorded pair/witness combination.
    perms = np.array(automorphism_permutations(G, auts))
    n = G.order
    us = np.array([p[0] for p in pairs_all])
    vs = np.array([p[1] for p in pairs_all])
    canon = np.full(len(pairs_all), np.iinfo(np.int64).max)
    for perm in perms:
        np.minimum(canon, perm[us].astype(np.int64) * n + perm[vs],
                   out=canon)
    reps = {}
    for i, code in enumerate(canon):
        reps.setdefault(int(code), pairs_all[i])
    recorded_pp = reference.RECORDED_COUNTS["order243_obstructed_partner_pairs"]
    recorded_wit = reference.RECORDED_COUNTS["order243_obstructed_witnesses"]
    flagged = []
    for code, (a, b) in sorted(reps.items()):
        pp = partner_pairs(G, a, b)
        wit = int((batch_pair_witnesses(G, a, b, pp, orbit9) >= 0).sum())
        if len(pp) == recorded_pp and wit == recorded_wit:
            flagged.append((a, b))
    elapsed = time.perf_counter() - t0
    ok = (G.order == 243 and noncomm == 54432 and orbits == 96
          and len(reps) == orbits and bool(flagged))
    _record(scoreboard, 10, "obstructed-import", "PASS" if ok else "FAIL",
            "order=%d noncommuting=%d aut_orbits=%d classes_flagging_"
            "%d/%d=%d (%.1fs)"
            % (G.order, noncomm, orbits, recorded_pp, recorded_wit,
               len(flagged), elapsed))
    assert ok
