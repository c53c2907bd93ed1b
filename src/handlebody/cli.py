"""Command-line front end: deterministic key=value reports.

Exit codes: 0 success/witness, 2 usage, 3 inconclusive-negative,
4 invalid input, 5 cap exceeded.  Reports are line-oriented ``key=value``
text in a fixed order; every numeric claim carries a provenance token
(``paper-match`` when it equals the recorded reference value,
``derived`` otherwise, ``unverified`` when a cap blocked the check).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

import numpy as np

from .words import parse_word, print_word
from .twists import commutator_base
from .orbit import (OrbitSet, generate_c0, contains, format_path,
                    DEFAULT_DEPTH, OrbitCapExceeded)
from .groups import (semidirect_pq, automorphisms, pair_orbit_count,
                     single_aut_orbit_certificate, COSET_CAP, AUT_NODE_CAP,
                     CosetCapExceeded, AutCapExceeded)
from . import homs
from .homs import (Epimorphism, evaluate, handlebody_witness,
                   standard_metacyclic_images, partner_pairs,
                   batch_pair_witnesses, quadruple_search,
                   QuadrupleCapExceeded, RelationViolated, NotGenerating)
from .kernel_orbit import (KernelClassCapExceeded, CLOSURE_CAP,
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

# The caps that can end a command.  counts catches AutCapExceeded itself.
_CAP_ERRORS = (CosetCapExceeded, QuadrupleCapExceeded,
               KernelClassCapExceeded, OrbitCapExceeded)


def _emit(line):
    sys.stdout.write(line + "\n")


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
    s = generate_c0(depth=args.depth)
    count = len(s)
    _emit("count=%d depth=%d provenance=%s"
          % (count, s.depth,
             provenance(count, reference.RECORDED_ORBIT_COUNT)))
    return EXIT_OK


def cmd_check(args, parser):
    cfg = _load(args)
    theta = _require_theta(cfg, parser)
    G = cfg.group
    _emit("group=%s order=%d" % (cfg.name, G.order))
    s = generate_c0(depth=args.depth)
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
    s = generate_c0(depth=args.depth)
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
    theta = cfg.theta()  # first, so a bad theta prints only the error line
    _emit("group=%s order=%d" % (cfg.name, G.order))
    us, vs = np.nonzero(G.conjugation_table() != np.arange(G.order))
    pairs_all = list(zip(us.tolist(), vs.tolist()))
    _emit("noncommuting=%d provenance=%s"
          % (len(us), _prov_for(cfg, "noncommuting", len(us))))
    try:
        orbits = 0
        if pairs_all:   # an abelian G has no pair, so no search to make
            auts = automorphisms(G, node_cap=args.aut_cap)
            orbits = pair_orbit_count(G, pairs_all, auts=auts)
        _emit("aut_orbits=%d provenance=%s"
              % (orbits, _prov_for(cfg, "aut_orbits", orbits)))
    except AutCapExceeded:
        # Enumeration is out of reach; a single orbit can still be
        # certified by the orbit algorithm's extension queries.
        try:
            cert = single_aut_orbit_certificate(G, pairs_all,
                                                node_cap=args.aut_cap)
        except AutCapExceeded:
            cert = None
        if cert is True:
            _emit("aut_orbits=1 provenance=%s"
                  % _prov_for(cfg, "aut_orbits", 1))
        else:
            _emit("aut_orbits=unverified provenance=unverified")
    if theta is None:
        return EXIT_OK
    a, b = theta.images[0], theta.images[1]
    pp = partner_pairs(G, a, b)
    ppf = partner_pairs(G, a, b, filter_quick=True)
    _emit("partner_pairs=%d provenance=%s"
          % (len(pp), _prov_for(cfg, "partner_pairs", len(pp))))
    _emit("partner_pairs_filtered=%d provenance=%s"
          % (len(ppf), _prov_for(cfg, "partner_pairs_filtered", len(ppf))))
    s = generate_c0(depth=args.depth)
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
    reps, _ = compute_kernel_orbit(theta)
    _emit("r=%d provenance=derived" % len(reps))
    # The classes are closed under the ten twists, not only the BFS's five
    # moves, so the seeds decide the scan (kernel_orbit's module docstring).
    report = intersection_avoids_c0(reps, OrbitSet(0))
    _emit("intersection-avoids-c0=%s depth=%d"
          % (str(report.avoids).lower(), args.depth))
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
        _emit("certificate-scope=c0-depth-%d" % args.depth)
    return EXIT_OK


# Each option's spelling and argparse keywords; a cap's default is the
# library constant it bounds.
_FLAGS = {
    "--config": dict(required=True, help="run configuration file"),
    "--depth": dict(type=_nonnegative, default=DEFAULT_DEPTH,
                    help="orbit generation depth (default %d)"
                         % DEFAULT_DEPTH),
    "--coset-cap": dict(type=_nonnegative, default=COSET_CAP,
                        help="coset enumeration cap"),
    "--aut-cap": dict(type=_nonnegative, default=AUT_NODE_CAP,
                      help="automorphism search node cap"),
    "--closure-cap": dict(type=_nonnegative, default=CLOSURE_CAP,
                          help="fiber closure size and quadruple search "
                               "node cap"),
}

# Each command: its name (run by cmd_<name>), help and flags in usage order.
_COMMANDS = (
    ("orbit", "enumerate the orbit set", ("--depth",)),
    ("check", "witness verdict for one theta",
     ("--config", "--depth", "--coset-cap")),
    ("table1", "verify the recorded metacyclic witness rows", ("--depth",)),
    ("counts", "pair-counting report",
     ("--config", "--depth", "--coset-cap", "--aut-cap")),
    ("quadruple", "search a commuting generating quadruple",
     ("--config", "--coset-cap", "--closure-cap")),
    ("kernel-orbit", "kernel orbit and intersection report",
     ("--config", "--depth", "--coset-cap", "--closure-cap")),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="handlebody",
        description="Decide handlebody extension of free genus-2-quotient "
                    "surface actions by orbit-witness search.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


@lru_cache(maxsize=None)
def _parser():
    """build_parser(), built once per process: parsing leaves a parser as
    it was, so a process that calls main many times pays for it once."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        # The command's function is looked up at call time, so the kept
        # parser runs the module's current one.
        return globals()["cmd_" + args.command.replace("-", "_")](
            args, parser)
    except _CAP_ERRORS as exc:
        _emit("error=cap-exceeded detail=\"%s\"" % exc)
        return EXIT_CAP
    except (ConfigError, RelationViolated, NotGenerating,
            ValueError, OSError) as exc:
        _emit("error=invalid-input detail=\"%s\"" % exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
