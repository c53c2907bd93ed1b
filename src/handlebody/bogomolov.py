"""Conservative rule engine for vanishing of the Bogomolov multiplier B0(G),
plus the extendability verdict it supports.

The engine never computes B0 itself; it applies structural sufficient
conditions for B0(G) = 0 in a fixed order and reports Zero with the rule
that fired, or Unknown with the list of rules attempted.  NonZero is never
derived — it can only be asserted externally (the ``known_b0`` override in
run config files), matching how such facts enter from the literature.

The verdict layer: if B0(G) = 0 every free genus-2-quotient action of G on a
surface extends over some compact 3-manifold without singular points; if
B0(G) != 0 and G has at most one involution, some free action admits no such
extension; anything else is Unknown.
"""

from __future__ import annotations

import warnings

import numpy as np

from .groups import _factorization

ZERO = "Zero"
NONZERO = "NonZero"
UNKNOWN = "Unknown"

ALL_EXTEND = "AllFreeActionsExtend"
EXISTS_NON_EXTENDABLE = "ExistsNonExtendableFreeAction"
VERDICT_UNKNOWN = "Unknown"

# recognize_direct_product stops saturating at this many candidates.
_CANDIDATE_CAP = 128


class B0Status:
    """Outcome of the rule chain: value Zero/NonZero/Unknown, a reason,
    and the rules ``attempted`` when the value is Unknown."""

    __slots__ = ("value", "reason", "attempted")

    def __init__(self, value, reason, attempted=()):
        self.value = value
        self.reason = reason
        self.attempted = tuple(attempted)

    def __eq__(self, other):
        return (isinstance(other, B0Status) and self.value == other.value
                and self.reason == other.reason)

    def __repr__(self):
        return "B0Status(%s, %r)" % (self.value, self.reason)


class ExtendVerdict:
    """Extendability verdict, with the B0 status it rests on and, for a
    NonZero status, the number of involutions that decided it.

    ``basis`` explains the verdict in words.  It is formatted when read, so
    a verdict that callers keep holds no string of its own.
    """

    __slots__ = ("value", "status", "involutions")

    def __init__(self, value, status, involutions=None):
        self.value = value
        self.status = status
        self.involutions = involutions

    @property
    def basis(self):
        if self.value == ALL_EXTEND:
            return "B0(G)=0 (%s)" % self.status.reason
        if self.value == EXISTS_NON_EXTENDABLE:
            return ("B0(G)!=0 (%s) and %d involution(s) <= 1"
                    % (self.status.reason, self.involutions))
        if self.status.value == NONZERO:
            return "B0(G)!=0 but %d involutions > 1" % self.involutions
        return "B0 status unknown"

    def __eq__(self, other):
        return isinstance(other, ExtendVerdict) and self.value == other.value

    def __repr__(self):
        return "ExtendVerdict(%s, %r)" % (self.value, self.basis)


def _prime_power(n):
    """(p, k) if n = p**k with k >= 1, else None."""
    factors = _factorization(n)
    return factors[0] if len(factors) == 1 else None


def is_extraspecial(G):
    """Center of prime order p, all commutators central, all p-th powers
    central (so G/Z is elementary abelian of exponent p)."""
    center = G.center()
    pk = _prime_power(len(center))
    if pk is None or pk[1] != 1 or len(center) == G.order:
        return False
    in_center = np.zeros(G.order, dtype=bool)
    in_center[center] = True
    allg = np.arange(G.order)
    powers = allg
    for _ in range(pk[0] - 1):
        powers = G.table[powers, allg]
    # Z is a subgroup, so every commutator lies in it iff [G, G] does.
    return bool(in_center[powers].all()
                and in_center[G.derived_subgroup()].all())


def _quotient_is_cyclic(G, normal_elements):
    """Whether G/N is cyclic, for N given as an element set.

    G/N of order m is cyclic iff some g has g^k outside N for all 0 < k < m;
    the powers of all still-candidate g advance together.
    """
    in_normal = np.zeros(G.order, dtype=bool)
    in_normal[normal_elements] = True
    quotient_order = G.order // len(normal_elements)
    alive = np.arange(G.order)
    powers = alive
    for _ in range(1, quotient_order):
        keep = ~in_normal[powers]
        alive, powers = alive[keep], powers[keep]
        if not alive.size:
            return False
        powers = G.table[powers, alive]
    return True


def recognize_direct_product(G):
    """An internal direct decomposition (N1, N2) as element tuples, or None.

    Candidate normal subgroups: normal closures of single elements, the
    center and the derived subgroup, saturated under pairwise joins (the
    join of two normal subgroups is normal).  Sound — any returned pair is a
    genuine decomposition (trivial intersection, orders multiply to |G|) —
    but not complete if the candidate cap truncates saturation.
    """
    candidates = {}  # sorted elements tuple -> (element array, membership mask)

    def add(elems):
        key = tuple(elems)
        if 1 < len(key) < G.order and key not in candidates:
            elems = np.array(key, dtype=np.intp)
            mask = np.zeros(G.order, dtype=bool)
            mask[elems] = True
            candidates[key] = elems, mask
            return True
        return False

    # One normal closure per conjugacy class: the subgroup a class generates
    # is the normal closure of each of its elements.
    for cls in G.conjugacy_classes():
        if cls[0] != 0:
            add(G.subgroup_closure(cls))
    add(G.center())
    add(G.derived_subgroup())

    # Saturate under joins until fixpoint or cap.  The join of two normal
    # subgroups is their product set N1 N2, read off the table in one gather.
    # A pair is joined only in the first round that holds both members, and
    # a pair with N1 inside N2 is skipped (its join is N2): either way the
    # join is already a candidate.
    joined = set()  # candidates whose pairs with each other are all joined
    grew = True
    while grew and len(candidates) < _CANDIDATE_CAP:
        grew = False
        ordered = sorted(candidates.items(), key=lambda kv: (len(kv[0]), kv[0]))
        old = [key in joined for key, _ in ordered]
        joined.update(candidates)
        for i, (_, (e1, _)) in enumerate(ordered):
            for j in range(i + 1, len(ordered)):
                if len(candidates) >= _CANDIDATE_CAP:
                    break
                e2, m2 = ordered[j][1]
                if (old[i] and old[j]) or m2[e1].all():
                    continue
                join = np.zeros(G.order, dtype=bool)
                join[G.table[e1[:, None], e2]] = True
                if add(join.nonzero()[0].tolist()):
                    grew = True

    ordered = sorted(candidates.items(), key=lambda kv: (len(kv[0]), kv[0]))
    for i, (n1, (_, m1)) in enumerate(ordered):
        for n2, (e2, _) in ordered[i:]:
            if len(n1) * len(n2) != G.order:
                continue
            if np.count_nonzero(m1[e2]) == 1:  # N1 ∩ N2 = {identity}
                return n1, n2
    return None


# Every rule, in order.  An Unknown status has tried them all, and lists
# them all: R5 too, although it passes over p-groups.
_RULES = ("R1:abelian", "R2:p-group order<=p^4", "R3:extraspecial",
          "R4:derived-abelian-with-cyclic-quotient", "R5:all-Sylow-Zero",
          "R6:direct-product")


def _apply_rules(G):
    if G.is_abelian():
        return B0Status(ZERO, "R1: abelian")

    pk = _prime_power(G.order)
    if pk is not None and pk[1] <= 4:
        return B0Status(ZERO, "R2: group of order %d^%d (<= %d^4)"
                        % (pk[0], pk[1], pk[0]))

    if is_extraspecial(G):
        return B0Status(ZERO, "R3: extraspecial (center of prime order, "
                              "central commutators and p-th powers)")

    derived = G.derived_subgroup()
    if G.is_abelian(derived) and _quotient_is_cyclic(G, derived):
        return B0Status(ZERO, "R4: derived subgroup abelian and G/[G,G] cyclic")

    if pk is None:  # for a p-group this rule would just recurse into G itself
        reasons = []
        all_zero = True
        for p, _ in _factorization(G.order):
            syl = G.subgroup_as_group(G.sylow_subgroup(p))
            sub_status = _apply_rules(syl)
            if sub_status.value != ZERO:
                all_zero = False
                break
            reasons.append("p=%d: %s" % (p, sub_status.reason))
        if all_zero:
            return B0Status(ZERO, "R5: every Sylow subgroup has Zero status "
                                  "(%s)" % "; ".join(reasons))

    decomposition = recognize_direct_product(G)
    if decomposition is not None:
        n1, n2 = decomposition
        s1 = _apply_rules(G.subgroup_as_group(n1))
        s2 = _apply_rules(G.subgroup_as_group(n2))
        if s1.value == ZERO and s2.value == ZERO:
            return B0Status(ZERO, "R6: direct product of orders %d x %d, "
                                  "both factors Zero (%s | %s)"
                            % (len(n1), len(n2), s1.reason, s2.reason))

    return B0Status(UNKNOWN, "no rule applied", attempted=_RULES)


def b0_status(G, override=None):
    """Classify B0(G) by the rule chain; ``override`` (Zero/NonZero) applies
    only when the rules are inconclusive."""
    status = _apply_rules(G)
    if override is None:
        return status
    if override not in (ZERO, NONZERO):
        raise ValueError("override must be %r or %r" % (ZERO, NONZERO))
    if status.value == UNKNOWN:
        return B0Status(override, "asserted", attempted=status.attempted)
    if status.value != override:
        warnings.warn("override %s conflicts with derived %s (%s); "
                      "keeping the derived value"
                      % (override, status.value, status.reason))
    return status


def all_sylows_abelian(G):
    """True when every Sylow subgroup of G is abelian.

    A Sylow subgroup of any subgroup of any finite power of G embeds in a
    power of a Sylow subgroup of G, so this condition propagates Zero
    status to all of those groups at once.
    """
    return all(G.is_abelian(G.sylow_subgroup(p))
               for p, _ in _factorization(G.order))


def samperton_verdict(G, status):
    """Extendability-over-3-manifolds verdict from a B0 status."""
    if status.value == ZERO:
        return ExtendVerdict(ALL_EXTEND, status)
    if status.value == NONZERO:
        involutions = G.count_involutions()
        if involutions <= 1:
            return ExtendVerdict(EXISTS_NON_EXTENDABLE, status, involutions)
        return ExtendVerdict(VERDICT_UNKNOWN, status, involutions)
    return ExtendVerdict(VERDICT_UNKNOWN, status)
