"""Command-line front end: deterministic key=value reports.

Exit codes: 0 success/witness, 2 usage, 3 inconclusive-negative,
4 invalid input, 5 cap exceeded.  Reports are line-oriented ``key=value``
text in a fixed order; every numeric claim carries a provenance token
(``paper-match`` when it equals the recorded reference value,
``derived`` otherwise, ``unverified`` when a cap blocked the check).
"""

from __future__ import annotations

import argparse
import os
import sys

from .words import parse_word, print_word
from .twists import commutator_base
from .orbit import (generate_c0, load_cache, save_cache, contains,
                    format_path, OrbitCapExceeded, CacheError,
                    DEFAULT_DEPTH)
from .groups import (semidirect_pq, automorphisms, pair_orbit_count,
                     single_aut_orbit_certificate,
                     CosetCapExceeded, AutCapExceeded)
from . import homs
from .homs import (Epimorphism, evaluate, handlebody_witness,
                   standard_metacyclic_images, noncommuting_pair_count,
                   partner_pairs, batch_pair_witnesses, quadruple_search,
                   QuadrupleCapExceeded, RelationViolated, NotGenerating)
from .kernel_orbit import (ClosureCapExceeded, KernelClassCapExceeded,
                           kernel_orbit as compute_kernel_orbit,
                           intersection_avoids_c0, fiber_group_order)
from .bogomolov import (b0_status, samperton_verdict, all_sylows_abelian,
                        ZERO, NONZERO)
from .config import load_config, ConfigError
from . import reference
from .reference import provenance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_INVALID = 4
EXIT_CAP = 5

_CAP_ERRORS = (OrbitCapExceeded, CosetCapExceeded, AutCapExceeded,
               QuadrupleCapExceeded, ClosureCapExceeded,
               KernelClassCapExceeded)


def _emit(line):
    sys.stdout.write(line + "\n")


def _orbit_set(depth, cache_path):
    """Load a matching cache or enumerate afresh (writing the cache back
    when a path was given)."""
    if cache_path and os.path.exists(cache_path):
        s = load_cache(cache_path)
        if s.depth == depth:
            return s
    s = generate_c0(depth=depth)
    if cache_path:
        save_cache(s, cache_path)
    return s


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _load(args):
    return load_config(args.config, coset_cap=args.coset_cap)


def _require_theta(cfg, parser):
    if cfg.theta_words is None:
        parser.error("config %s declares no theta" % cfg.name)
    return cfg.theta()


def _override_of(cfg):
    if cfg.known_b0 is None:
        return None
    return ZERO if cfg.known_b0 == "zero" else NONZERO


def cmd_orbit(args, parser):
    try:
        s = _orbit_set(args.depth, args.cache)
    except OrbitCapExceeded as exc:
        _emit("error=orbit-cap-exceeded detail=\"%s\"" % exc)
        return EXIT_CAP
    count = len(s.paths)
    _emit("count=%d depth=%d provenance=%s"
          % (count, s.depth,
             provenance(count, reference.RECORDED_ORBIT_COUNT)))
    return EXIT_OK


def cmd_check(args, parser):
    cfg = _load(args)
    theta = _require_theta(cfg, parser)
    G = cfg.group
    _emit("group=%s order=%d" % (cfg.name, G.order))
    s = _orbit_set(args.depth, args.cache)
    verdict = handlebody_witness(theta, s)
    if verdict.value == homs.EXTENDS:
        _emit("extends-to-handlebody witness=\"%s\" path=%s"
              % (print_word(verdict.report.witness),
                 format_path(verdict.report.sigma_path)))
        code = EXIT_OK
    else:
        _emit("no-witness depth=%d" % verdict.searched_depth)
        code = EXIT_NEGATIVE
    status = b0_status(G, override=_override_of(cfg))
    _emit("b0=%s reason=\"%s\"" % (status.value, status.reason))
    verdict_line = samperton_verdict(G, status)
    _emit("samperton=%s basis=\"%s\"" % (verdict_line.value,
                                         verdict_line.basis))
    return code


def cmd_table1(args, parser):
    s = _orbit_set(args.depth, args.cache)
    base = commutator_base()
    verified = 0
    for (p, q, r), text in reference.RECORDED_WITNESS_ROWS:
        G = semidirect_pq(p, q, r)
        theta = Epimorphism(G, standard_metacyclic_images(G))
        w = parse_word(text)
        in_c0, _ = contains(s, w)
        in_kernel = evaluate(theta, w) == 0
        base_nontrivial = evaluate(theta, base) != 0
        own = handlebody_witness(theta, s)
        ok = (in_c0 and in_kernel and base_nontrivial
              and own.value == homs.EXTENDS)
        verified += int(ok)
        _emit("row=%d,%d,%d in_c0=%s in_kernel=%s base_nontrivial=%s "
              "own_witness=\"%s\""
              % (p, q, r, str(in_c0).lower(), str(in_kernel).lower(),
                 str(base_nontrivial).lower(),
                 print_word(own.report.witness)
                 if own.value == homs.EXTENDS else ""))
    _emit("rows=%d verified=%d provenance=%s"
          % (len(reference.RECORDED_WITNESS_ROWS), verified,
             provenance(verified, reference.RECORDED_WITNESS_ROW_COUNT)))
    return EXIT_OK if verified == len(reference.RECORDED_WITNESS_ROWS) \
        else EXIT_NEGATIVE


def _recorded_keys(cfg):
    """Pick the recorded-claim set this config plausibly corresponds to;
    None when no recorded example matches its shape."""
    G = cfg.group
    if cfg.kind == "heisenberg" and cfg.params.get("p") == 3:
        return {
            "noncommuting": "heisenberg3_noncommuting",
            "aut_orbits": "heisenberg3_aut_orbits",
            "partner_pairs": "heisenberg3_partner_pairs",
            "witnesses": "heisenberg3_witnesses",
        }
    if cfg.kind == "presentation" and G.order == 243:
        if cfg.known_b0 == "nonzero":
            return {
                "noncommuting": "order243_obstructed_noncommuting",
                "aut_orbits": "order243_obstructed_aut_orbits",
                "partner_pairs": "order243_obstructed_partner_pairs",
                "witnesses": "order243_obstructed_witnesses",
            }
        return {
            "aut_orbits": "order243_presented_aut_orbits",
            "partner_pairs_filtered": "order243_partner_pairs_filtered",
            "witnesses": "order243_witnesses",
        }
    return None


def _prov_for(cfg, key, value):
    keys = _recorded_keys(cfg)
    if keys is None or key not in keys:
        return "derived"
    return provenance(value, reference.RECORDED_COUNTS[keys[key]])


def cmd_counts(args, parser):
    cfg = _load(args)
    G = cfg.group
    _emit("group=%s order=%d" % (cfg.name, G.order))
    noncomm = noncommuting_pair_count(G)
    _emit("noncommuting=%d provenance=%s"
          % (noncomm, _prov_for(cfg, "noncommuting", noncomm)))
    pairs_all = [(u, v) for u in range(G.order) for v in range(G.order)
                 if G.commutator(u, v) != 0]
    try:
        auts = automorphisms(G, cfg.group.presentation,
                             node_cap=args.aut_cap)
        orbits = pair_orbit_count(G, pairs_all, auts=auts) if pairs_all \
            else 0
        _emit("aut_orbits=%d provenance=%s"
              % (orbits, _prov_for(cfg, "aut_orbits", orbits)))
    except AutCapExceeded:
        # Enumeration is out of reach; a single orbit can still be
        # certified by per-class extension queries.
        cert = None
        try:
            cert = single_aut_orbit_certificate(
                G, pairs_all, pres=cfg.group.presentation,
                node_cap=args.aut_cap)
        except AutCapExceeded:
            cert = None
        if cert is True:
            _emit("aut_orbits=1 provenance=%s"
                  % _prov_for(cfg, "aut_orbits", 1))
        else:
            _emit("aut_orbits=unverified provenance=unverified")
    if cfg.theta_words is None:
        return EXIT_OK
    theta = cfg.theta()
    a, b = theta.images[0], theta.images[1]
    pp = partner_pairs(G, a, b)
    ppf = partner_pairs(G, a, b, filter_quick=True)
    _emit("partner_pairs=%d provenance=%s"
          % (len(pp), _prov_for(cfg, "partner_pairs", len(pp))))
    _emit("partner_pairs_filtered=%d provenance=%s"
          % (len(ppf), _prov_for(cfg, "partner_pairs_filtered", len(ppf))))
    s = _orbit_set(args.depth, args.cache)
    idxs = batch_pair_witnesses(G, a, b, pp, s)
    witnesses = int((idxs >= 0).sum())
    _emit("witnesses=%d provenance=%s"
          % (witnesses, _prov_for(cfg, "witnesses", witnesses)))
    return EXIT_OK


def cmd_quadruple(args, parser):
    cfg = _load(args)
    _emit("group=%s order=%d" % (cfg.name, cfg.group.order))
    quad = quadruple_search(cfg.group, node_cap=args.closure_cap)
    if quad is None:
        _emit("quadruple=none")
        return EXIT_NEGATIVE
    _emit("quadruple=%d,%d,%d,%d" % quad)
    return EXIT_OK


def cmd_kernel_orbit(args, parser):
    cfg = _load(args)
    theta = _require_theta(cfg, parser)
    G = cfg.group
    _emit("group=%s order=%d" % (cfg.name, G.order))
    s = _orbit_set(args.depth, args.cache)
    reps, _ = compute_kernel_orbit(theta, pres=G.presentation,
                              aut_cap=args.aut_cap)
    _emit("r=%d provenance=derived" % len(reps))
    report = intersection_avoids_c0(reps, s)
    # The orbit set and its cached scan view are not needed past the scan;
    # freeing them keeps them out of the fiber closure's memory peak.
    del s
    _emit("intersection-avoids-c0=%s depth=%d"
          % (str(report.avoids).lower(), report.depth))
    if not report.avoids:
        _emit("counterexample=\"%s\" path=%s"
              % (print_word(report.counterexample),
                 format_path(report.counterexample_path)))
    fiber = fiber_group_order(reps, closure_cap=args.closure_cap)
    if fiber is None:
        _emit("fiber-order=absent provenance=unverified")
    else:
        _emit("fiber-order=%d provenance=derived" % fiber)
    if report.avoids and all_sylows_abelian(G):
        _emit("fiber-action: extendable-but-not-to-handlebody "
              "(c0-certified)")
        _emit("certificate-scope=c0-depth-%d" % report.depth)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="handlebody",
        description="Decide handlebody extension of free genus-2-quotient "
                    "surface actions by orbit-witness search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False, orbit=False, caps=()):
        if config:
            p.add_argument("--config", required=True,
                           help="run configuration file")
        if orbit:
            p.add_argument("--depth", type=_nonnegative,
                           default=DEFAULT_DEPTH,
                           help="orbit generation depth (default %d)"
                                % DEFAULT_DEPTH)
            p.add_argument("--cache", default=None,
                           help="orbit cache file to reuse/write")
        if "coset" in caps:
            p.add_argument("--coset-cap", type=int, default=50000,
                           help="coset enumeration cap")
        if "aut" in caps:
            p.add_argument("--aut-cap", type=int, default=200000,
                           help="automorphism search node cap")
        if "closure" in caps:
            p.add_argument("--closure-cap", type=int, default=1000000,
                           help="closure/search node cap")

    p_orbit = sub.add_parser("orbit", help="enumerate the orbit set")
    add_common(p_orbit, orbit=True)
    p_orbit.set_defaults(func=cmd_orbit)

    p_check = sub.add_parser("check", help="witness verdict for one theta")
    add_common(p_check, config=True, orbit=True, caps=("coset",))
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table1",
                             help="verify the recorded metacyclic witness "
                                  "rows")
    add_common(p_table, orbit=True, caps=("coset",))
    p_table.set_defaults(func=cmd_table1)

    p_counts = sub.add_parser("counts", help="pair-counting report")
    add_common(p_counts, config=True, orbit=True, caps=("coset", "aut"))
    p_counts.set_defaults(func=cmd_counts)

    p_quad = sub.add_parser("quadruple",
                            help="search a commuting generating quadruple")
    add_common(p_quad, config=True, caps=("coset", "closure"))
    p_quad.set_defaults(func=cmd_quadruple)

    p_ko = sub.add_parser("kernel-orbit",
                          help="kernel orbit and intersection report")
    add_common(p_ko, config=True, orbit=True,
               caps=("coset", "aut", "closure"))
    p_ko.set_defaults(func=cmd_kernel_orbit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _CAP_ERRORS as exc:
        _emit("error=cap-exceeded detail=\"%s\"" % exc)
        return EXIT_CAP
    except (ConfigError, CacheError, RelationViolated, NotGenerating,
            ValueError, OSError) as exc:
        _emit("error=invalid-input detail=\"%s\"" % exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
