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

import operator

import numpy as np

from .words import parse_word, print_word
from .twists import apply, compose_path, commutator_base
from .groups import evaluate_in_group, evaluate_rows
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


class QuadrupleCapExceeded(RuntimeError):
    """quadruple_search node cap hit; distinct from search exhaustion."""


class Epimorphism:
    """A validated surjection of the genus-2 surface group onto ``group``."""

    def __init__(self, group, images):
        try:
            images = tuple(map(operator.index, images))
        except TypeError:   # a float or string names no element
            images = tuple(images)
            in_range = False
        else:
            in_range = all(0 <= g < group.order for g in images)
        if len(images) != 4:
            raise ValueError("need 4 generator images")
        if not in_range:
            raise ValueError("generator images must be elements 0..%d, got %s"
                             % (group.order - 1, images))
        a, b, c, d = images
        rel = group.mult(group.commutator(a, b), group.commutator(c, d))
        if rel != 0:
            raise RelationViolated(rel)
        closure = group.subgroup_closure(images)
        if len(closure) != group.order:
            raise NotGenerating(len(closure), group.order)
        self.group = group
        self.images = images

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


def quick_witness(theta):
    """Name of the first trivial product in the nine-element quick set, or
    None when all nine are nontrivial."""
    for kind, word in _QUICK_PRODUCTS:
        if evaluate_rows(theta.group, word, theta.images) == 0:
            return kind
    return None


class WitnessReport:
    __slots__ = ("witness", "sigma_path", "verification")

    def __init__(self, witness, sigma_path, verification):
        self.witness = witness
        self.sigma_path = sigma_path
        self.verification = verification

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
    image = evaluate(theta, w)
    path = s.path(w)
    if image != 0 or path is None:
        raise AssertionError("witness failed re-verification")
    return Verdict(EXTENDS, report=WitnessReport(w, path, image),
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


def partner_pairs(G, a, b, filter_quick=False):
    """Ordered pairs (r, t) with [a,b][r,t] = 1 and <a,b,r,t> = G.

    With ``filter_quick``, pairs where any of the nine quick products is
    trivial are dropped.  Deterministic: ascending (r, t).
    """
    target = G.inverse(G.commutator(a, b))
    rs, ts = np.nonzero(G.conjugation_table() == G.table[target])
    K = G.subgroup_closure([a, b])
    if len(K) < G.order:
        keep = _generating_mask(G, K, a, b, rs, ts)
        rs, ts = rs[keep], ts[keep]
    if filter_quick:
        keep = ~_quick_mask(G, a, b, rs, ts)
        rs, ts = rs[keep], ts[keep]
    return list(zip(rs.tolist(), ts.tolist()))


def _least_in_cosets(G, H):
    """For every element g, the least element of its right coset H g."""
    return G.table[H].min(axis=0)


def _generating_mask(G, K, a, b, rs, ts):
    """Whether <a,b,r,t> = G for each pair of rs, ts; K = <a,b>.

    <X, g> = <X, x g> for every x in the subgroup <X>, so <a,b,r> = H
    depends only on the right coset K r, and <a,b,r,t> = <H, t> only on H
    and the right coset H t.  Each coset is named by its least element, and
    one closure is made per distinct (H, coset of t)."""
    n = G.order
    keep = np.ones(rs.size, dtype=bool)
    decided = {}
    r_cosets = _least_in_cosets(G, K)[rs]
    for r in np.unique(r_cosets).tolist():     # r stands for its coset K r
        H = G.subgroup_closure([a, b, r])
        if len(H) == n:
            continue
        sel = r_cosets == r
        t_cosets, back = np.unique(_least_in_cosets(G, H)[ts[sel]],
                                   return_inverse=True)
        key = tuple(H)
        generates = []
        for t in t_cosets.tolist():
            if (key, t) not in decided:
                decided[key, t] = len(G.subgroup_closure([a, b, r, t])) == n
            generates.append(decided[key, t])
        keep[sel] = np.array(generates)[back]
    return keep


def _quick_mask(G, a, b, rs, ts):
    """Whether any quick product is trivial, for each pair of rs, ts."""
    trivial = np.zeros(len(rs), dtype=bool)
    for _, word in _QUICK_PRODUCTS:
        trivial |= evaluate_rows(G, word, (a, b, rs, ts)) == 0
    return trivial


def drop_quick_pairs(G, a, b, pairs):
    """``pairs`` less those (r, t) with a trivial quick product."""
    rs, ts = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    keep = ~_quick_mask(G, a, b, rs, ts)
    return [pair for pair, k in zip(pairs, keep.tolist()) if k]


def batch_pair_witnesses(G, a, b, pairs, s):
    """First-witness word index in scan order for each pair (r, t) mapped to
    (x2, y2) alongside (a, b); -1 where the searched set has no witness.
    Each pair is its own ``orbit.first_zero`` scan, so a partial set is
    grown only as far as the deepest witness needs, or finished by a pair
    with none."""
    return np.array([first_zero(s, G, (a, b, r, t)) for r, t in pairs],
                    dtype=np.int64)


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
