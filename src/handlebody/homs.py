"""Surface-group homomorphisms onto finite groups and the witness search.

An epimorphism assigns group elements (a, b, c, d) to the surface generators
(x1, y1, x2, y2) subject to the surface relation [a,b][c,d] = 1 and to
generating the group; it presents a free action of the group on a closed
orientable surface of genus 1 + |G| with genus-2 quotient.

The central question — does the action extend over a handlebody — is decided
positively by finding a word of the twist orbit of [x1,y1] that dies in the
group.  A negative scan result is only "no witness in the searched set":
the full orbit is infinite, so callers must treat it as inconclusive.
"""

from __future__ import annotations

import numpy as np

from .words import Word, parse_word, print_word
from .twists import apply, compose_path, commutator_base
from .backend import get_backend, letter_image_table
from .orbit import BASE_PATH

EXTENDS = "ExtendsToHandlebody"
NO_WITNESS = "NoWitnessInSearchedSet"
IMMEDIATE = "ImmediateWitness"


class RelationViolated(ValueError):
    """[a,b][c,d] != identity; carries the offending element index."""

    def __init__(self, element):
        super().__init__(
            "surface relation violated: [a,b][c,d] evaluates to element %d"
            % element)
        self.element = element


class NotGenerating(ValueError):
    """The four images generate a proper subgroup; carries its size."""

    def __init__(self, closure_size, order):
        super().__init__("images generate a subgroup of size %d < %d"
                         % (closure_size, order))
        self.closure_size = closure_size


class QuadrupleCapExceeded(RuntimeError):
    """quadruple_search node cap hit; distinct from search exhaustion."""


class Epimorphism:
    """A validated surjection of the genus-2 surface group onto ``group``."""

    def __init__(self, group, images):
        images = tuple(int(g) for g in images)
        if len(images) != 4:
            raise ValueError("need 4 generator images")
        a, b, c, d = images
        rel = group.mult(group.commutator(a, b), group.commutator(c, d))
        if rel != 0:
            raise RelationViolated(rel)
        closure = group.subgroup_closure(images)
        if len(closure) != group.order:
            raise NotGenerating(len(closure), group.order)
        self.group = group
        self.images = images

    @property
    def genus_of_total_space(self):
        return 1 + self.group.order

    def letter_images(self):
        """Letter-byte -> element table for the batch kernels."""
        return letter_image_table(self.images, self.group.inv, rank=4)

    def __eq__(self, other):
        return (isinstance(other, Epimorphism) and self.group is other.group
                and self.images == other.images)

    def __hash__(self):
        return hash((id(self.group), self.images))

    def __repr__(self):
        return "Epimorphism(%s; images=%s)" % (self.group.name, self.images)


def make_epimorphism(G, a, b, c, d):
    return Epimorphism(G, (a, b, c, d))


def evaluate(theta, w):
    """Image of a rank-4 word under the epimorphism."""
    if w.rank != 4:
        raise ValueError("expected a rank-4 word")
    G = theta.group
    out = 0
    table = theta.letter_images()
    for byte in w.data:
        out = int(G.table[out, table[byte]])
    return out


# The nine short products whose triviality immediately certifies an
# extension (each corresponds to a separating or non-separating simple loop
# construction on the quotient surface).  (u, v, r, t) = images of
# (x1, y1, x2, y2).
_QUICK_PRODUCTS = (
    ("commutator [u,v] trivial", lambda G, u, v, r, t: G.commutator(u, v)),
    ("ur trivial", lambda G, u, v, r, t: G.mult(u, r)),
    ("uv trivial", lambda G, u, v, r, t: G.mult(u, v)),
    ("uv^-1 trivial", lambda G, u, v, r, t: G.mult(u, G.inverse(v))),
    ("ut^-1 trivial", lambda G, u, v, r, t: G.mult(u, G.inverse(t))),
    ("rt trivial", lambda G, u, v, r, t: G.mult(r, t)),
    ("rt^-1 trivial", lambda G, u, v, r, t: G.mult(r, G.inverse(t))),
    ("rv^-1 trivial", lambda G, u, v, r, t: G.mult(r, G.inverse(v))),
    ("tv trivial", lambda G, u, v, r, t: G.mult(t, v)),
)


def quick_witness(theta):
    """Name of the first trivial product in the nine-element quick set, or
    None when all nine are nontrivial."""
    G = theta.group
    u, v, r, t = theta.images
    for kind, product in _QUICK_PRODUCTS:
        if product(G, u, v, r, t) == 0:
            return kind
    return None


class WitnessReport:
    def __init__(self, witness, sigma_path, verification):
        self.witness = witness
        self.sigma_path = sigma_path
        self.verification = verification

    def __repr__(self):
        return "WitnessReport(%s, path=%s)" % (print_word(self.witness),
                                               self.sigma_path)


class Verdict:
    """Search outcome: EXTENDS (with a WitnessReport), NO_WITNESS (orbit
    exhausted at its depth — inconclusive), or IMMEDIATE (quick product)."""

    def __init__(self, value, report=None, kind=None, searched_depth=None):
        self.value = value
        self.report = report
        self.kind = kind
        self.searched_depth = searched_depth

    def __repr__(self):
        extra = self.report if self.report is not None else self.kind
        return "Verdict(%s, %r)" % (self.value, extra)


def quick_verdict(theta):
    """IMMEDIATE verdict if a quick product fires, else None."""
    kind = quick_witness(theta)
    if kind is None:
        return None
    return Verdict(IMMEDIATE, kind=kind)


def handlebody_witness(theta, s, backend=None):
    """Scan the orbit set (bases first, then by provenance depth, paths in
    lexicographic order) for a word that evaluates to the identity."""
    if backend is None:
        backend = get_backend()
    words, enc, offsets = s.scan_view()
    idx = backend.find_identity_word(enc, offsets, theta.letter_images(),
                                     theta.group.table)
    if idx < 0:
        return Verdict(NO_WITNESS, searched_depth=s.depth)
    w = words[idx]
    image = evaluate(theta, w)
    if image != 0 or w not in s:
        raise AssertionError("witness failed re-verification")
    return Verdict(EXTENDS, report=WitnessReport(w, s.paths[w], image),
                   searched_depth=s.depth)


def standard_metacyclic_images(G):
    """The canonical generator assignment (a, b, b^-1, b a^-1) used for
    the split metacyclic family; satisfies [a,b][c,d] = 1 there."""
    a, b = G.generators
    return (a, b, G.inverse(b), G.mult(b, G.inverse(a)))


def r3_criterion_word():
    """The orbit word whose kernel membership, for the metacyclic family
    semidirect_pq(p, q, r), is equivalent to r^3 = 1 mod p."""
    w = apply(compose_path([3, 4, 5]), commutator_base())
    display = parse_word("y2 x2^-2 y1 x1 y1 x1^-1 y1^-1 x2^2 y2^-1 y1^-1")
    if w != display:
        raise AssertionError("composed witness word differs from its "
                             "recorded reduced form")
    return w


def r_cubed_criterion(p, r):
    """Kernel test for r3_criterion_word under the metacyclic epimorphism."""
    return pow(r, 3, p) == 1


def noncommuting_pair_count(G):
    """|{(u,v): [u,v] != 1}| via the class-count identity."""
    return G.order ** 2 - G.order * G.conjugacy_class_count()


def _closure_reaches(G, seed_mask, gens, frontier):
    """Vectorized subgroup closure from a seed; returns True iff it is G."""
    n = G.order
    seen = seed_mask.copy()
    count = int(seen.sum())
    step = np.array(sorted({int(g) for g in gens}
                           | {int(G.inv[g]) for g in gens}), dtype=np.int64)
    frontier = np.array(frontier, dtype=np.int64)
    while frontier.size:
        prods = G.table[np.repeat(frontier, step.size),
                        np.tile(step, frontier.size)]
        prods = np.unique(prods)
        new = prods[~seen[prods]]
        seen[new] = True
        count += new.size
        if count == n:
            return True
        frontier = new
    return count == n


def partner_pairs(G, a, b, filter_quick=False):
    """Ordered pairs (r, t) with [a,b][r,t] = 1 and <a,b,r,t> = G.

    With ``filter_quick``, pairs where any of the nine quick products is
    trivial are dropped.  Deterministic: ascending (r, t).
    """
    n = G.order
    target = G.inverse(G.commutator(a, b))
    base = G.subgroup_closure([a, b])
    base_mask = np.zeros(n, dtype=bool)
    base_mask[base] = True
    base_is_all = len(base) == n

    # Vectorized commutator: comm[r, t] = r t r^-1 t^-1.
    pairs = []
    inv_all = G.inv[np.arange(n)]
    for r in range(n):
        rt = G.table[r]                        # r*t for all t
        rtr = G.table[rt, inv_all[r]]          # r t r^-1
        comm = G.table[rtr, inv_all]           # r t r^-1 t^-1
        for t in np.nonzero(comm == target)[0]:
            t = int(t)
            if base_is_all or _closure_reaches(
                    G, base_mask, [a, b, r, t],
                    [g for g in (r, t) if not base_mask[g]] + base):
                pairs.append((r, t))
    if filter_quick:
        kept = []
        for r, t in pairs:
            u, v = a, b
            if any(product(G, u, v, r, t) == 0 for _, product in _QUICK_PRODUCTS):
                continue
            kept.append((r, t))
        pairs = kept
    return pairs


def batch_pair_witnesses(G, a, b, pairs, s, backend=None):
    """First-witness word index in scan order for each pair (r, t) mapped to
    (x2, y2) alongside (a, b); -1 where the searched set has no witness."""
    if backend is None:
        backend = get_backend()
    _, enc, offsets = s.scan_view()
    out = np.empty(len(pairs), dtype=np.int64)
    table = G.table
    inv = G.inv
    letters = np.zeros(9, dtype=np.int32)
    letters[1], letters[5] = a, inv[a]
    letters[2], letters[6] = b, inv[b]
    for i, (r, t) in enumerate(pairs):
        letters[3], letters[7] = r, inv[r]
        letters[4], letters[8] = t, inv[t]
        out[i] = backend.find_identity_word(enc, offsets, letters, table)
    return out


def quadruple_search(G, node_cap=2000000):
    """A generating quadruple (s1, s2, s3, s4) with [s1,s2] = 1 = [s3,s4],
    in deterministic ascending order; None if the search space is exhausted.

    Raises QuadrupleCapExceeded past ``node_cap`` candidate visits (a capped
    run says nothing about existence).
    """
    n = G.order
    nodes = 0
    closure_memo = {}

    def closure_of(elements):
        key = elements
        result = closure_memo.get(key)
        if result is None:
            result = tuple(G.subgroup_closure(list(elements)))
            closure_memo[key] = result
        return result

    centralizers = {}

    def centralizer_of(g):
        if g not in centralizers:
            centralizers[g] = G.centralizer(g)
        return centralizers[g]

    for s1 in range(n):
        for s2 in centralizer_of(s1):
            h12 = closure_of((s1, s2))
            for s3 in range(n):
                h123 = closure_of(tuple(sorted(set(h12) | {s3})))
                # The s4 loop cannot help if even the whole centralizer of
                # s3 cannot complete the generation.
                best = closure_of(tuple(sorted(set(h123)
                                               | set(centralizer_of(s3)))))
                if len(best) < n:
                    nodes += 1
                    if nodes > node_cap:
                        raise QuadrupleCapExceeded(
                            "quadruple search exceeded node cap %d" % node_cap)
                    continue
                for s4 in centralizer_of(s3):
                    nodes += 1
                    if nodes > node_cap:
                        raise QuadrupleCapExceeded(
                            "quadruple search exceeded node cap %d" % node_cap)
                    if len(closure_of(tuple(sorted(set(h123) | {s4})))) == n:
                        return (s1, s2, s3, int(s4))
    return None
