"""The four benchmark workloads.

Each workload drives the handlebody package through its public API only
(``handlebody.*`` top-level names and ``handlebody.cli.main``), with inputs
generated from the seed.  A workload object has:

``setup()``         the timed set-up: orbit generation, group builds, the
                    theta pool, partner pairs.  It rebuilds everything on
                    each call, so set-up can be timed more than once.
``prepare_checks()`` untimed state for answer verification.
``op_input(i)``     the i-th op of the seeded schedule (endless).
``run_op(x)``       one op; its result goes to ``check``.
``check(x, r)``     raises ``Mismatch`` if the answer is wrong; returns
                    values the traced run reports (witness scan indices).
``describe(x)``     a JSON-able form of an op input, for the plan digest.

``cycle`` is the number of ops after which the op mix repeats; a run
stops only at a multiple of it, so every run sees the same mix.

The checks use nothing of the package's evaluation code: words are folded
letter by letter over ``G.table`` here.  Where ``data/<workload>.json``
holds an answer recorded for the same input, the answer must also match it
exactly (see ``record.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import handlebody as hb
import handlebody.cli

DEPTH = 9
EXTENDS = "ExtendsToHandlebody"
NO_WITNESS = "NoWitnessInSearchedSet"
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# (p, q, r) of the fourteen recorded metacyclic witness rows (table 1).
TABLE1 = ((11, 5, 3), (11, 5, 4), (11, 5, 5), (11, 5, 9), (23, 11, 2),
          (23, 11, 3), (23, 11, 4), (23, 11, 6), (23, 11, 8), (23, 11, 9),
          (23, 11, 12), (23, 11, 13), (23, 11, 16), (23, 11, 18))


class Mismatch(Exception):
    """An answer failed verification."""


def require(cond, message):
    if not cond:
        raise Mismatch(message)


def load_recorded(name):
    path = os.path.join(DATA_DIR, name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stream_rng(seed, workload_id, *more):
    """Independent generator per (seed, workload, purpose) so that any
    schedule position can be computed without replaying earlier ones."""
    return np.random.default_rng([seed, workload_id, *more])


def random_epimorphism(G, rng):
    """a, b, c uniform, d uniform among the solutions of [c, d] = [a, b]^-1;
    redrawn until the four images generate G."""
    n = G.order
    table, inv = G.table, G.inv
    while True:
        a, b, c = (int(v) for v in rng.integers(0, n, size=3))
        target = G.inverse(G.commutator(a, b))
        comm = table[table[table[c], inv[c]], inv]   # c d c^-1 d^-1, all d
        ds = np.flatnonzero(comm == target)
        if ds.size == 0:
            continue
        d = int(ds[rng.integers(ds.size)])
        try:
            return hb.Epimorphism(G, (a, b, c, d))
        except hb.NotGenerating:
            continue


def theta_key(theta):
    return "%s:%s" % (theta.group.name, ",".join(map(str, theta.images)))


def word_text(w):
    return None if w is None else hb.print_word(w)


def path_value(path):
    return path if path is None or isinstance(path, str) else list(path)


class OrbitCheck:
    """Scan order of an orbit set plus a scalar fold over a group table:
    the reference the witness answers are checked against."""

    def __init__(self, s):
        self.s = s
        self.words = list(iter(s))
        self.index = {w: i for i, w in enumerate(self.words)}
        self._codes = {}
        self._rows = {}
        self._bases = (hb.commutator_base(), hb.root_word())

    def codes(self, i):
        """Letter codes of word i: 1..4 the generators, 5..8 inverses."""
        c = self._codes.get(i)
        if c is None:
            c = tuple(g + 1 if sign > 0 else g + 5
                      for g, sign in self.words[i].letters)
            self._codes[i] = c
        return c

    def image_table(self, G, images):
        """Letter code -> group element, built from ``G.inv``."""
        inv = G.inv
        return [0] + [int(g) for g in images] + [int(inv[g]) for g in images]

    def rows(self, G):
        rows = self._rows.get(id(G))
        if rows is None:
            rows = (G, G.table.tolist())
            self._rows[id(G)] = rows
        return rows[1]

    def fold(self, G, image, codes):
        rows = self.rows(G)
        g = 0
        for c in codes:
            g = rows[g][image[c]]
        return g

    def first_identity(self, G, images, upto=None):
        """Scan index of the first word mapped to the identity, or -1."""
        image = self.image_table(G, images)
        stop = len(self.words) if upto is None else min(upto,
                                                        len(self.words))
        for i in range(stop):
            if self.fold(G, image, self.codes(i)) == 0:
                return i
        return -1

    def check_witness_index(self, G, images, idx):
        """``idx`` is the first scan-order word killed by ``images``."""
        if idx < 0:
            require(self.first_identity(G, images) < 0,
                    "no witness reported but one exists")
            return
        require(idx < len(self.words), "witness index %d out of range" % idx)
        require(self.first_identity(G, images, upto=idx + 1) == idx,
                "index %d is not the first identity word" % idx)

    def check_path(self, w, path):
        """``w`` is in the set with provenance ``path``, which replays to
        it."""
        found, own = hb.contains(self.s, w)
        require(found, "word not in the orbit set")
        require(own == path, "path %r differs from the set's %r"
                % (path, own))
        if path == "base":
            require(w in self._bases, "base path on a non-base word")
        else:
            require(hb.replay_path(path) == w, "path does not replay")


class CheckStream:
    """Warm ``check``: witness scan, then B0 status and verdict, for seeded
    random thetas onto a fixed pool of groups."""

    name = "check_stream"
    workload_id = 1
    thetas_per_group = 4

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def setup(self):
        self.s = hb.generate_c0(DEPTH)
        groups = [hb.semidirect_pq(*pqr) for pqr in TABLE1]
        groups += [hb.heisenberg(3), hb.heisenberg(5)]
        self.overrides = [None] * len(groups)
        for name in ("order243_presented", "order243_obstructed_standin"):
            cfg = hb.load_config(os.path.join(self.root, "configs",
                                              name + ".cfg"))
            groups.append(cfg.group)
            self.overrides.append(
                {None: None, "zero": "Zero", "nonzero": "NonZero"}[
                    cfg.known_b0])
        rng = stream_rng(self.seed, self.workload_id, 0)
        self.pool = [[random_epimorphism(G, rng)
                      for _ in range(self.thetas_per_group)] for G in groups]
        self.cycle = len(groups)

    def prepare_checks(self):
        self.ref = OrbitCheck(self.s)
        self.recorded = load_recorded(self.name)

    def op_input(self, i):
        c, slot = divmod(i, self.cycle)
        perm = stream_rng(self.seed, self.workload_id, 1, c).permutation(
            self.cycle)
        g = int(perm[slot])
        return self.pool[g][c % self.thetas_per_group], self.overrides[g]

    def describe(self, x):
        return theta_key(x[0])

    def run_op(self, x):
        theta, override = x
        verdict = hb.handlebody_witness(theta, self.s)
        status = hb.b0_status(theta.group, override)
        return verdict, status, hb.samperton_verdict(theta.group, status)

    @staticmethod
    def answer(verdict, status, line):
        report = verdict.report
        return {
            "verdict": verdict.value,
            "witness": word_text(report.witness) if report else None,
            "path": path_value(report.sigma_path) if report else None,
            "b0": status.value, "b0_reason": status.reason,
            "samperton": line.value, "basis": line.basis,
        }

    def check(self, x, result):
        theta, _ = x
        G = theta.group
        verdict, status, line = result
        idx = -1
        if verdict.value == EXTENDS:
            w = verdict.report.witness
            self.ref.check_path(w, verdict.report.sigma_path)
            idx = self.ref.index[w]
        else:
            require(verdict.value == NO_WITNESS,
                    "unknown verdict %r" % verdict.value)
        self.ref.check_witness_index(G, theta.images, idx)
        got = self.answer(verdict, status, line)
        group = self.recorded.get("groups", {}).get(G.name)
        if group is not None:
            for key, want in group.items():
                require(got[key] == want, "%s: %s=%r, recorded %r"
                        % (G.name, key, got[key], want))
        want = self.recorded.get("answers", {}).get(theta_key(theta))
        if want is not None:
            require(got == want, "%s: %r, recorded %r"
                    % (theta_key(theta), got, want))
        return {"witness_index": idx}


def pairs_digest(pairs):
    return hashlib.sha256(json.dumps([list(p) for p in pairs])
                          .encode()).hexdigest()


class PairCensus:
    """``batch_pair_witnesses`` on fixed-size blocks of the filtered
    partner pairs of order243_presented's theta, in seeded order."""

    name = "pair_census"
    workload_id = 2
    block = 64
    cycle = 1

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self._epochs = {}

    def setup(self):
        self.s = hb.generate_c0(DEPTH)
        cfg = hb.load_config(os.path.join(self.root, "configs",
                                          "order243_presented.cfg"))
        self.G = cfg.group
        theta = cfg.theta()
        self.a, self.b = theta.images[0], theta.images[1]
        self.pairs = hb.partner_pairs(self.G, self.a, self.b,
                                      filter_quick=True)
        self._epochs = {}

    def prepare_checks(self):
        self.ref = OrbitCheck(self.s)
        recorded = load_recorded(self.name)
        self.recorded_index = None
        if recorded:
            require(pairs_digest(self.pairs) == recorded["pairs_sha256"],
                    "partner pairs differ from the recorded list")
            self.recorded_index = recorded["index"]

    def _epoch(self, e):
        perm = self._epochs.get(e)
        if perm is None:
            perm = stream_rng(self.seed, self.workload_id, e).permutation(
                len(self.pairs))
            self._epochs[e] = perm
        return perm

    def op_input(self, i):
        """Pair indices [64 i, 64 i + 64) of the stream of seeded
        permutations of the pair list."""
        n = len(self.pairs)
        out = []
        for pos in range(i * self.block, (i + 1) * self.block):
            e, k = divmod(pos, n)
            out.append(int(self._epoch(e)[k]))
        return out, [self.pairs[j] for j in out]

    def describe(self, x):
        return [list(p) for p in x[1]]

    def run_op(self, x):
        return hb.batch_pair_witnesses(self.G, self.a, self.b, x[1], self.s)

    def check(self, x, result):
        ids, block = x
        require(len(result) == len(block), "one index per pair expected")
        for j, (r, t), idx in zip(ids, block, result):
            idx = int(idx)
            if self.recorded_index is not None:
                require(idx == self.recorded_index[j],
                        "pair %d,%d: index %d, recorded %d"
                        % (r, t, idx, self.recorded_index[j]))
            self.ref.check_witness_index(self.G, (self.a, self.b, r, t), idx)
        return {}


class KernelCensus:
    """Kernel-orbit report (BFS, intersection scan, fiber closure) for
    seeded random thetas onto four groups, r = 40 to 1,120 classes."""

    name = "kernel_census"
    workload_id = 3
    thetas_per_group = 3

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def setup(self):
        self.s = hb.generate_c0(DEPTH)
        groups = [hb.heisenberg(3), hb.cyclic(3), hb.semidirect_pq(7, 3, 2),
                  hb.semidirect_pq(13, 3, 3)]
        rng = stream_rng(self.seed, self.workload_id, 0)
        self.pool = [[random_epimorphism(G, rng)
                      for _ in range(self.thetas_per_group)] for G in groups]
        self.cycle = len(groups)

    def prepare_checks(self):
        self.ref = OrbitCheck(self.s)
        self.recorded = load_recorded(self.name)

    def op_input(self, i):
        c, slot = divmod(i, self.cycle)
        perm = stream_rng(self.seed, self.workload_id, 1, c).permutation(
            self.cycle)
        return self.pool[int(perm[slot])][c % self.thetas_per_group]

    def describe(self, theta):
        return theta_key(theta)

    def run_op(self, theta):
        reps, _ = hb.kernel_orbit(theta, pres=theta.group.presentation)
        report = hb.intersection_avoids_c0(reps, self.s)
        return reps, report, hb.fiber_group_order(reps)

    @staticmethod
    def answer(reps, report, fiber):
        return {"r": len(reps), "avoids": bool(report.avoids),
                "counterexample": word_text(report.counterexample),
                "path": path_value(report.counterexample_path),
                "fiber": fiber}

    def check(self, theta, result):
        reps, report, fiber = result
        G = theta.group
        require(reps and tuple(reps[0].images) == tuple(theta.images),
                "orbit does not start at theta")
        for rep in reps:
            a, b, c, d = rep.images
            require(G.mult(G.commutator(a, b), G.commutator(c, d)) == 0,
                    "representative %r breaks the surface relation"
                    % (rep.images,))
        if not report.avoids:
            w = report.counterexample
            self.ref.check_path(w, report.counterexample_path)
            codes = self.ref.codes(self.ref.index[w])
            for rep in reps:
                image = self.ref.image_table(G, rep.images)
                require(self.ref.fold(G, image, codes) == 0,
                        "counterexample outside a kernel")
        if fiber is not None:
            require((G.order ** len(reps)) % fiber == 0,
                    "fiber order %d does not divide |G|^r" % fiber)
        want = self.recorded.get(theta_key(theta))
        if want is not None:
            got = self.answer(reps, report, fiber)
            require(got == want, "%s: %r, recorded %r"
                    % (theta_key(theta), got, want))
        return {}


def _configs(*names):
    return [os.path.join("configs", n + ".cfg") for n in names]


CLI_COMMANDS = tuple(
    [("orbit",)]
    + [("check", "--config", c) for c in _configs(
        "cyclic_3", "heisenberg_3", "order243_obstructed_standin",
        "order243_presented", "semidirect_11_5_3")]
    + [("table1",)]
    + [("counts", "--config", c) for c in _configs(
        "heisenberg_3", "cyclic_3", "semidirect_11_5_3")]
    + [("quadruple", "--config", c) for c in _configs(
        "heisenberg_3", "cyclic_3", "semidirect_11_5_3",
        "order243_obstructed_standin")]
    + [("kernel-orbit", "--config", c) for c in _configs(
        "heisenberg_3", "cyclic_3")])


class CliCycle:
    """In-process ``handlebody.cli.main(argv)`` over 16 commands in seeded
    order, stdout captured and compared with recorded transcripts."""

    name = "cli_cycle"
    workload_id = 4
    # Two passes: one pass holds a single sample of each command, too few
    # for a steady median over 16 commands of very different lengths.
    cycle = 2 * len(CLI_COMMANDS)

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def setup(self):
        for argv in CLI_COMMANDS:
            if "--config" in argv:
                path = os.path.join(self.root, argv[-1])
                require(os.path.exists(path), "missing config %s" % path)

    def prepare_checks(self):
        self.recorded = load_recorded(self.name)

    def op_input(self, i):
        c, slot = divmod(i, len(CLI_COMMANDS))
        perm = stream_rng(self.seed, self.workload_id, c).permutation(
            len(CLI_COMMANDS))
        return CLI_COMMANDS[int(perm[slot])]

    def describe(self, argv):
        return " ".join(argv)

    def run_op(self, argv):
        args = [os.path.join(self.root, a) if a.startswith("configs" + os.sep)
                else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = handlebody.cli.main(args)
        return code, out.getvalue()

    def check(self, argv, result):
        code, out = result
        want = self.recorded.get(" ".join(argv))
        require(want is not None, "no transcript for %s" % " ".join(argv))
        require(code == want["exit"], "exit %r, recorded %r"
                % (code, want["exit"]))
        require(out == want["stdout"], "stdout differs from the transcript")
        return {}


WORKLOADS = {w.name: w for w in (CheckStream, PairCensus, KernelCensus,
                                  CliCycle)}
