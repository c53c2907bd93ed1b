"""Obstruction-rule chain, overrides, and the extendability verdict."""

import functools
import os
import warnings

import pytest

from handlebody import bogomolov
from handlebody.bogomolov import (ALL_EXTEND, B0Status, EXISTS_NON_EXTENDABLE,
                                  NONZERO, UNKNOWN, VERDICT_UNKNOWN, ZERO,
                                  _prime_power, _quotient_is_cyclic,
                                  all_sylows_abelian, b0_status,
                                  is_extraspecial, recognize_direct_product,
                                  samperton_verdict)
from handlebody.config import load_config
from handlebody.groups import (FiniteGroup, Presentation, _factorization,
                               _is_prime, coset_enumerate, cyclic,
                               heisenberg, semidirect_pq)
from handlebody.reference import RECORDED_WITNESS_ROWS

from group_helpers import direct_product, power

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_factorization_answers_match_brute_force():
    # Primality, the prime-power test and the prime factors (the Sylow
    # primes) all come from one trial division, groups._factorization.
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, p))]
    powers = {p ** k: (p, k) for p in primes for k in range(1, 11)}
    for n in range(2001):
        factors = []
        for p in primes if n > 0 else ():
            k = 0
            while n % p ** (k + 1) == 0:
                k += 1
            if k:
                factors.append((p, k))
        assert _factorization(n) == factors
        assert _is_prime(n) == (n in primes)
        assert _prime_power(n) == powers.get(n)


def _standin_243():
    # Z27 x| Z9 (conjugation a -> a^4): rules R1-R6 are all inconclusive.
    pres = Presentation(["a", "b"], ["a^27", "b^9", "b a b^-1 a^-4"])
    return coset_enumerate(pres, coset_cap=5000)


def test_rule_r1_abelian():
    status = b0_status(cyclic(12))
    assert status.value == ZERO
    assert status.reason.startswith("R1")


def test_rule_r2_small_p_group(heis3):
    status = b0_status(heis3)
    assert status.value == ZERO
    assert status.reason.startswith("R2")


def test_rule_r3_extraspecial_large(order243):
    # Order 3^5 > 3^4 bypasses R2; the group is extraspecial.
    status = b0_status(order243)
    assert status.value == ZERO
    assert status.reason.startswith("R3")


def test_rule_r4_metacyclic():
    status = b0_status(semidirect_pq(11, 5, 3))
    assert status.value == ZERO
    assert status.reason.startswith("R4")


def _sym3():
    return coset_enumerate(Presentation(["a", "b"], ["a^3", "b^2", "(a b)^2"]))


def test_rule_r5_abelian_sylows():
    G = direct_product(cyclic(2), _sym3())
    status = b0_status(G)
    assert status.value == ZERO
    assert status.reason.startswith("R5")


def test_rule_r6_direct_product():
    G = direct_product(heisenberg(3), cyclic(27))
    status = b0_status(G)
    assert status.value == ZERO
    assert status.reason.startswith("R6")


def test_rules_inconclusive_leaves_unknown():
    status = b0_status(_standin_243())
    assert status.value == UNKNOWN


def test_override_applies_only_when_unknown():
    G = _standin_243()
    status = b0_status(G, override=NONZERO)
    assert status.value == NONZERO
    assert status.reason == "asserted"

    with pytest.raises(ValueError):
        b0_status(G, override="maybe")

    # A conflicting override never beats a derived value.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = b0_status(cyclic(4), override=NONZERO)
    assert kept.value == ZERO
    assert any("conflicts" in str(w.message) for w in caught)

    # An agreeing override is a no-op.
    same = b0_status(cyclic(4), override=ZERO)
    assert same.value == ZERO and same.reason.startswith("R1")


def test_samperton_verdicts(heis3):
    zero = b0_status(heis3)
    v = samperton_verdict(heis3, zero)
    assert v.value == ALL_EXTEND
    assert v.basis == "B0(G)=0 (R2: group of order 3^3 (<= 3^4))"

    G = _standin_243()
    nonzero = b0_status(G, override=NONZERO)
    v = samperton_verdict(G, nonzero)
    assert v.value == EXISTS_NON_EXTENDABLE
    assert v.basis == "B0(G)!=0 (asserted) and 0 involution(s) <= 1"

    klein = coset_enumerate(Presentation(["a", "b"], ["a^2", "b^2", "[a,b]"]))
    asserted = B0Status(NONZERO, "asserted")
    v = samperton_verdict(klein, asserted)
    assert v.value == VERDICT_UNKNOWN  # three involutions block the criterion
    assert v.basis == "B0(G)!=0 but 3 involutions > 1"

    v = samperton_verdict(G, B0Status(UNKNOWN, "none of the rules applied"))
    assert v.value == VERDICT_UNKNOWN
    assert v.basis == "B0 status unknown"


def test_is_extraspecial(heis3, order243):
    assert is_extraspecial(heis3)
    assert is_extraspecial(order243)
    assert not is_extraspecial(cyclic(27))
    assert not is_extraspecial(semidirect_pq(11, 5, 3))
    assert not is_extraspecial(_standin_243())


def test_recognize_direct_product(heis3):
    got = recognize_direct_product(cyclic(6))
    assert got is not None
    n1, n2 = got
    assert sorted((len(n1), len(n2))) == [2, 3]
    assert recognize_direct_product(heis3) is None
    assert recognize_direct_product(_standin_243()) is None


def test_all_sylows_abelian(heis3, order243):
    assert all_sylows_abelian(semidirect_pq(11, 5, 3))
    assert all_sylows_abelian(cyclic(12))
    assert not all_sylows_abelian(heis3)
    assert not all_sylows_abelian(order243)
    assert all_sylows_abelian(direct_product(cyclic(2), _sym3()))


# -- pinned rule-chain answers ----------------------------------------------

_R4 = "R4: derived subgroup abelian and G/[G,G] cyclic"
_H3 = "R2: group of order 3^3 (<= 3^4)"
_SYLOW_H3 = ("R5: every Sylow subgroup has Zero status (p=2: R1: abelian; "
             "p=3: %s)" % _H3)
_ALL_RULES = ("R1:abelian", "R2:p-group order<=p^4", "R3:extraspecial",
              "R4:derived-abelian-with-cyclic-quotient", "R5:all-Sylow-Zero",
              "R6:direct-product")


def _config_group(name):
    return load_config(os.path.join(CONFIG_DIR, name + ".cfg")).group


# Group builder and (value, reason, attempted) of b0_status without
# override, as the set-based rule implementations computed them.
_PINNED = {
    "config:cyclic_3": (lambda: _config_group("cyclic_3"),
                        (ZERO, "R1: abelian", ())),
    "config:heisenberg_3": (lambda: _config_group("heisenberg_3"),
                            (ZERO, _H3, ())),
    "config:order243_obstructed_standin": (
        lambda: _config_group("order243_obstructed_standin"),
        (UNKNOWN, "no rule applied", _ALL_RULES)),
    "config:order243_presented": (
        lambda: _config_group("order243_presented"),
        (ZERO, "R3: extraspecial (center of prime order, central "
               "commutators and p-th powers)", ())),
    "config:semidirect_11_5_3": (lambda: _config_group("semidirect_11_5_3"),
                                 (ZERO, _R4, ())),
    "heisenberg(3)": (lambda: heisenberg(3), (ZERO, _H3, ())),
    "heisenberg(5)": (lambda: heisenberg(5),
                      (ZERO, "R2: group of order 5^3 (<= 5^4)", ())),
    "cyclic(3) x cyclic(5)": (
        lambda: direct_product(cyclic(3), cyclic(5)),
        (ZERO, "R1: abelian", ())),
    "cyclic(4) x cyclic(3)": (
        lambda: direct_product(cyclic(4), cyclic(3)),
        (ZERO, "R1: abelian", ())),
    "heisenberg(3) x cyclic(2)": (
        lambda: direct_product(heisenberg(3), cyclic(2)),
        (ZERO, _SYLOW_H3, ())),
    "cyclic(4) x heisenberg(3)": (
        lambda: direct_product(cyclic(4), heisenberg(3)),
        (ZERO, _SYLOW_H3, ())),
    "cyclic(2) x sym(3)": (
        lambda: direct_product(cyclic(2), _sym3()),
        (ZERO, "R5: every Sylow subgroup has Zero status (p=2: R1: "
               "abelian; p=3: R1: abelian)", ())),
    # [G, G] = Q8 is not abelian though G/[G, G] = C3 is cyclic: R4 must
    # not fire.
    "SL(2,3)": (
        lambda: coset_enumerate(Presentation(
            ["s", "t"], ["s^3 t^-3", "(s t)^2 s^-3"])),
        (ZERO, "R5: every Sylow subgroup has Zero status (p=2: R2: group "
               "of order 2^3 (<= 2^4); p=3: R1: abelian)", ())),
    "heisenberg(3) x cyclic(27)": (
        lambda: direct_product(heisenberg(3), cyclic(27)),
        (ZERO, "R6: direct product of orders 27 x 27, both factors Zero "
               "(R1: abelian | %s)" % _H3, ())),
}
_PINNED.update({"semidirect_pq(%d,%d,%d)" % pqr:
                (functools.partial(semidirect_pq, *pqr), (ZERO, _R4, ()))
                for pqr, _ in RECORDED_WITNESS_ROWS})


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_b0_status_is_pinned(name):
    build, expected = _PINNED[name]
    status = b0_status(build())
    assert (status.value, status.reason, status.attempted) == expected


# -- fast paths against their definitions -----------------------------------

_ORACLE_GROUPS = {
    "cyclic(1)": lambda: cyclic(1),
    "cyclic(6)": lambda: cyclic(6),
    "cyclic(27)": lambda: cyclic(27),
    "semidirect_pq(7,3,2)": lambda: semidirect_pq(7, 3, 2),
    "semidirect_pq(11,5,3)": lambda: semidirect_pq(11, 5, 3),
    "heisenberg(3)": lambda: heisenberg(3),
    "heisenberg(5)": lambda: heisenberg(5),
    "sym(3)": _sym3,
    "alternating(4)": lambda: coset_enumerate(
        Presentation(["a", "b"], ["a^3", "b^2", "(a b)^3"])),
    "cyclic(2) x sym(3)": lambda: direct_product(cyclic(2), _sym3()),
    "cyclic(3) x cyclic(5)": lambda: direct_product(cyclic(3), cyclic(5)),
    "heisenberg(3) x cyclic(2)": lambda: direct_product(heisenberg(3),
                                                        cyclic(2)),
    "cyclic(3) x heisenberg(3)": lambda: direct_product(cyclic(3),
                                                        heisenberg(3)),
    "cyclic(3) x semidirect_pq(7,3,2)": lambda: direct_product(
        cyclic(3), semidirect_pq(7, 3, 2)),
    # Center of order 3 and every cube central, but class 3: not
    # extraspecial, because [G, G] is not central.
    "cyclic(3) wr cyclic(3)": lambda: coset_enumerate(Presentation(
        ["a", "t"], ["a^3", "t^3", "[a, t a t^-1]", "[a, t^-1 a t]"])),
    "heisenberg(3), no generators": lambda: FiniteGroup(heisenberg(3).table,
                                                        ()),
    "sym(3) x sym(3), no generators": lambda: FiniteGroup(
        direct_product(_sym3(), _sym3()).table, ()),
}


@functools.lru_cache(maxsize=None)
def _oracle_group(name):
    return _ORACLE_GROUPS[name]()


def _brute_extraspecial(G):
    """The definition, element by element and pair by pair."""
    center = set(G.center())
    pk = _prime_power(len(center))
    if pk is None or pk[1] != 1 or len(center) == G.order:
        return False
    return all(power(G, g, pk[0]) in center and G.commutator(g, h) in center
               for g in range(G.order) for h in range(G.order))


def _brute_quotient_is_cyclic(G, normal):
    """Some coset gN has order |G/N| in G/N."""
    nset = set(normal)
    m = G.order // len(normal)

    def order_mod_n(g):
        k, acc = 1, g
        while acc not in nset:
            acc, k = G.mult(acc, g), k + 1
        return k

    return max(order_mod_n(g) for g in range(G.order)) == m


def _normal_subgroups(G):
    """Normal subgroups to test quotients against: the trivial group, G,
    the center, the derived subgroup and each class's normal closure."""
    subs = {(0,), tuple(range(G.order)), tuple(G.center()),
            tuple(G.derived_subgroup())}
    subs.update(tuple(G.normal_closure([cls[0]]))
                for cls in G.conjugacy_classes())
    return sorted(subs)


def _reference_direct_product(G, candidate_cap):
    """recognize_direct_product with every join the normal closure of the
    joined generators and every subset and intersection test on sets."""
    candidates = {}

    def add(elems, gens):
        key = tuple(elems)
        if 1 < len(elems) < G.order and key not in candidates:
            candidates[key] = list(gens)
            return True
        return False

    for cls in G.conjugacy_classes():
        if cls[0] != 0:
            add(G.normal_closure([cls[0]]), [cls[0]])
    for sub in (G.center(), G.derived_subgroup()):
        add(sub, sub)
    grew = True
    while grew and len(candidates) < candidate_cap:
        grew = False
        ordered = sorted(candidates.items(), key=lambda kv: (len(kv[0]), kv[0]))
        for i, (k1, gens1) in enumerate(ordered):
            for k2, gens2 in ordered[i + 1:]:
                if len(candidates) >= candidate_cap:
                    break
                if set(k2) <= set(k1):
                    continue
                join_gens = gens1 + gens2
                if add(G.normal_closure(join_gens), join_gens):
                    grew = True
    ordered = sorted(candidates, key=lambda k: (len(k), k))
    for i, n1 in enumerate(ordered):
        for n2 in ordered[i:]:
            if len(n1) * len(n2) == G.order and set(n1) & set(n2) == {0}:
                return n1, n2
    return None


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_is_extraspecial_matches_definition(name):
    G = _oracle_group(name)
    assert is_extraspecial(G) == _brute_extraspecial(G)


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_quotient_is_cyclic_matches_element_orders(name):
    G = _oracle_group(name)
    for normal in _normal_subgroups(G):
        assert _quotient_is_cyclic(G, list(normal)) == \
            _brute_quotient_is_cyclic(G, normal), normal


@pytest.mark.parametrize("cap", [2, 3, 5, 128])
@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_direct_product_matches_normal_closure_joins(name, cap,
                                                    monkeypatch):
    # Small caps stop the saturation part-way, so the candidate order and
    # the cap accounting are compared too, not only the fixpoint.
    G = _oracle_group(name)
    monkeypatch.setattr(bogomolov, "_CANDIDATE_CAP", cap)
    assert recognize_direct_product(G) == _reference_direct_product(G, cap)
