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

from .words import parse_word, print_word
from .twists import apply, commutator_base
from .groups import _as_elements, evaluate_in_group, evaluate_rows
from .orbit import first_zero

EXTENDS = "ExtendsToHandlebody"
NO_WITNESS = "NoWitnessInSearchedSet"


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


# Default cap on quadruple_search's candidate visits.  Z2^5 is exhausted
# only after 32^4 = 1,048,576 of them.
QUADRUPLE_NODE_CAP = 2_000_000


class QuadrupleCapExceeded(RuntimeError):
    """quadruple_search node cap hit; distinct from search exhaustion."""


class Epimorphism:
    """A validated surjection of the genus-2 surface group onto ``group``."""

    def __init__(self, group, images):
        images = _as_elements(images, group.order, "generator images")
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

    @classmethod
    def _unchecked(cls, group, images):
        """theta o s_j for an epimorphism theta, from its images (Python
        ints); the kernel-orbit BFS's fast path.  Neither check of
        ``__init__`` can fail: the twist s_j is an automorphism of the
        surface group, so theta o s_j satisfies the surface relation and is
        onto G, and ``kernel_keys`` has raised NotGenerating for any row
        that does not generate G."""
        theta = cls.__new__(cls)
        theta.group = group
        theta.images = tuple(images)
        return theta

    def __eq__(self, other):
        return (isinstance(other, Epimorphism) and self.group is other.group
                and self.images == other.images)

    def __hash__(self):
        return hash((id(self.group), self.images))

    def __repr__(self):
        return "Epimorphism(%s; images=%s)" % (self.group.name, self.images)


def evaluate(theta, w):
    """Image of a rank-4 word under the epimorphism."""
    if w.rank != 4:
        raise ValueError("expected a rank-4 word")
    return evaluate_in_group(theta.group, w, theta.images)


# The nine short products whose triviality immediately certifies an
# extension (each corresponds to a separating or non-separating simple loop
# construction on the quotient surface), as words in (x1, y1, x2, y2); each
# kind names its product by the images (u, v, r, t).
_QUICK_PRODUCTS = tuple((kind, parse_word(text)) for kind, text in (
    ("commutator [u,v] trivial", "[x1,y1]"),
    ("ur trivial", "x1 x2"),
    ("uv trivial", "x1 y1"),
    ("uv^-1 trivial", "x1 y1^-1"),
    ("ut^-1 trivial", "x1 y2^-1"),
    ("rt trivial", "x2 y2"),
    ("rt^-1 trivial", "x2 y2^-1"),
    ("rv^-1 trivial", "x2 y1^-1"),
    ("tv trivial", "y2 y1"),
))


class WitnessReport:
    __slots__ = ("witness", "sigma_path")

    def __init__(self, witness, sigma_path):
        self.witness = witness
        self.sigma_path = sigma_path

    def __repr__(self):
        return "WitnessReport(%s, path=%s)" % (print_word(self.witness),
                                               self.sigma_path)


class Verdict:
    """Search outcome: EXTENDS (with a WitnessReport) or NO_WITNESS (orbit
    exhausted at its depth — inconclusive)."""

    __slots__ = ("value", "report", "searched_depth")

    def __init__(self, value, report=None, searched_depth=None):
        self.value = value
        self.report = report
        self.searched_depth = searched_depth

    def __repr__(self):
        return "Verdict(%s, %r)" % (self.value, self.report)


def handlebody_witness(theta, s):
    """Scan the orbit set (bases first, then by provenance depth, paths in
    lexicographic order) for a word that evaluates to the identity.

    The scan reads one level trie at a time (``orbit.first_zero``): a
    partial set is grown only as far as the witness's level, and a scan
    that finds none has finished it.  The witness is re-verified on its
    letters."""
    idx = first_zero(s, theta.group, theta.images)
    if idx < 0:
        return Verdict(NO_WITNESS, searched_depth=s.depth)
    w = s.word_at(idx)
    path = s.path(w)
    if evaluate(theta, w) != 0 or path is None:
        raise AssertionError("witness failed re-verification")
    return Verdict(EXTENDS, report=WitnessReport(w, path),
                   searched_depth=s.depth)


def standard_metacyclic_images(G):
    """The canonical generator assignment (a, b, b^-1, b a^-1) used for
    the split metacyclic family; satisfies [a,b][c,d] = 1 there."""
    a, b = G.generators
    return (a, b, G.inverse(b), G.mult(b, G.inverse(a)))


def r3_criterion_word():
    """The orbit word whose kernel membership, for the metacyclic family
    semidirect_pq(p, q, r), is equivalent to r^3 = 1 mod p."""
    w = commutator_base()
    for j in (3, 4, 5):
        w = apply(j, w)
    display = parse_word("y2 x2^-2 y1 x1 y1 x1^-1 y1^-1 x2^2 y2^-1 y1^-1")
    if w != display:
        raise AssertionError("witness word differs from its "
                             "recorded reduced form")
    return w


def r_cubed_criterion(p, r):
    """Kernel test for r3_criterion_word under the metacyclic epimorphism."""
    return pow(r, 3, p) == 1


class _Joins:
    """Subgroups <H, g> of G, closed once per right coset H g.

    <H, g> = <H, h g> for every h in H, so the join depends on g only
    through its right coset (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005), named here by its least element.
    A subgroup is a sorted element tuple, closed from the generators it
    was first reached by.  ``coset(H)`` gives the least element of H g for
    each g, so it is 0 exactly on H."""

    def __init__(self, G):
        self.G = G
        self.gens, self.cosets, self.joins = {}, {}, {}

    def subgroup(self, gens):
        H = tuple(self.G.subgroup_closure(gens))
        self.gens.setdefault(H, list(gens))
        return H

    def coset(self, H):
        if H not in self.cosets:
            self.cosets[H] = self.G.table[list(H)].min(axis=0)
        return self.cosets[H]

    def join(self, H, g):
        c = int(self.coset(H)[g])
        if (H, c) not in self.joins:
            self.joins[H, c] = self.subgroup(self.gens[H] + [c])
        return self.joins[H, c]

    def span(self, H, gs):
        """<H, gs>, joining one element of ``gs`` outside it at a time."""
        outside = gs[self.coset(H)[gs] != 0]
        while outside.size:
            H = self.join(H, outside[0])
            outside = outside[self.coset(H)[outside] != 0]
        return H

    def generates(self, H, gs):
        """Whether <H, g> = G, for each g of ``gs``."""
        if len(H) == self.G.order:
            return np.ones(len(gs), dtype=bool)
        cosets, back = np.unique(self.coset(H)[gs], return_inverse=True)
        return np.array([len(self.join(H, c)) == self.G.order
                         for c in cosets.tolist()], dtype=bool)[back]


def partner_pairs(G, a, b, filter_quick=False):
    """Ordered pairs (r, t) with [a,b][r,t] = 1 and <a,b,r,t> = G.

    With ``filter_quick``, pairs where any of the nine quick products is
    trivial are dropped.  Deterministic: ascending (r, t).
    """
    target = G.inverse(G.commutator(a, b))
    rs, ts = np.nonzero(G.conjugation_table() == G.table[target])
    joins = _Joins(G)
    K = joins.subgroup([a, b])
    if len(K) < G.order:
        # <a,b,r,t> = <<K, r>, t>: one join per coset K r, then per coset of t
        keep = np.empty(rs.size, dtype=bool)
        r_cosets = joins.coset(K)[rs]
        for r in np.unique(r_cosets).tolist():
            sel = r_cosets == r
            keep[sel] = joins.generates(joins.join(K, r), ts[sel])
        rs, ts = rs[keep], ts[keep]
    if filter_quick:
        keep = ~_quick_mask(G, a, b, rs, ts)
        rs, ts = rs[keep], ts[keep]
    return list(zip(rs.tolist(), ts.tolist()))


def _quick_mask(G, a, b, rs, ts):
    """Whether any quick product is trivial, for each pair of rs, ts."""
    trivial = np.zeros(len(rs), dtype=bool)
    for _, word in _QUICK_PRODUCTS:
        trivial |= evaluate_rows(G, word, (a, b, rs, ts)) == 0
    return trivial


def batch_pair_witnesses(G, a, b, pairs, s):
    """First-witness word index in scan order for each pair (r, t) mapped to
    (x2, y2) alongside (a, b); -1 where the searched set has no witness.
    Each pair is its own ``orbit.first_zero`` scan, so a partial set is
    grown only as far as the deepest witness needs, or finished by a pair
    with none."""
    return np.array([first_zero(s, G, (a, b, r, t)) for r, t in pairs],
                    dtype=np.int64)


def quadruple_search(G, node_cap=QUADRUPLE_NODE_CAP):
    """A generating quadruple (s1, s2, s3, s4) with [s1,s2] = 1 = [s3,s4],
    in deterministic ascending order; None if the search space is exhausted.

    Raises QuadrupleCapExceeded past ``node_cap`` candidate visits (a capped
    run says nothing about existence).  The s3 loop depends on (s1, s2)
    only through H = <s1, s2>, so it runs once per H.
    """
    n = G.order
    commute = G.table == G.table.T
    joins = _Joins(G)
    visits = {}         # H = <s1, s2> -> the visits its s3 loop makes

    def s3_loop(H):
        nodes = 0
        for s3 in range(n):
            centralizer = np.flatnonzero(commute[s3])
            # No s4 can help if even the whole centralizer of s3 cannot
            # complete the generation; that s3 counts as one visit.
            if len(joins.span(H, centralizer)) < n:
                nodes += 1
                continue
            hits = joins.generates(joins.join(H, s3), centralizer)
            if hits.any():
                k = int(hits.argmax())
                return nodes + k + 1, (s3, int(centralizer[k]))
            nodes += centralizer.size
        return nodes, None

    nodes = 0
    for s1 in range(n):
        powers = joins.subgroup([s1])
        for s2 in np.flatnonzero(commute[s1]).tolist():
            H = joins.join(powers, s2)
            hit = None
            if H not in visits:
                visits[H], hit = s3_loop(H)
            nodes += visits[H]
            if nodes > node_cap:
                raise QuadrupleCapExceeded(
                    "quadruple search exceeded node cap %d" % node_cap)
            if hit is not None:
                return (s1, s2) + hit
    return None
