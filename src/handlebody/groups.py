"""Finite groups with explicit arithmetic.

Groups are realized by their regular representation: elements are integers
0..n-1 with 0 the identity, and a dense n x n multiplication table drives
every query (center, conjugacy classes, Sylow subgroups, automorphisms).
Groups come from built-in constructors (cyclic, the order-pq metacyclic
family, Heisenberg mod p) or from a finite presentation via Todd-Coxeter
coset enumeration over the trivial subgroup.

Scale: everything here is desk scale (orders up to a few thousand); the
dense-table representation is chosen for uniformity and determinism, not
asymptotics.
"""

from __future__ import annotations

import copy
import operator
from functools import lru_cache

import numpy as np

from .words import Word, parse_word, print_word

SENTINEL = -1

# The largest group order a dense table is built for: 4,096 elements make
# a 64 MB int32 table.  Past it a group is refused with ValueError.
MAX_ORDER = 4096

# A coset enumeration defines at most this many cosets (table rows) per
# unit of its cap on live cosets, so its memory and time follow the cap.
COSET_ROWS_PER_CAP = 8


class PresentationError(ValueError):
    """Malformed presentation (bad names, empty or out-of-rank relators)."""


# Default cap on live cosets in a coset enumeration (``--coset-cap``).
COSET_CAP = 50_000


class CosetCapExceeded(RuntimeError):
    """Coset enumeration hit its cap; the presentation may define a larger
    or infinite group.  Never produces a wrong group."""


# Default cap on the rows an automorphism search tries (``--aut-cap``).
AUT_NODE_CAP = 200_000


class AutCapExceeded(RuntimeError):
    """Automorphism search hit its node cap; partial results unusable."""


class Presentation:
    """Generator names plus relator words (rank = number of generators)."""

    def __init__(self, gen_names, relators):
        self.gen_names = tuple(gen_names)
        if not self.gen_names:
            raise PresentationError("need at least one generator")
        if len(set(self.gen_names)) != len(self.gen_names):
            raise PresentationError("duplicate generator names")
        rels = []
        for rel in relators:
            if isinstance(rel, str):
                rel = parse_word(rel, self.gen_names)
            if not isinstance(rel, Word) or rel.rank != len(self.gen_names):
                raise PresentationError(
                    "relator %r does not match the declared generators" % (rel,))
            if rel.is_identity():
                raise PresentationError("relators must be nonempty")
            rels.append(rel)
        self.relators = tuple(rels)

    @property
    def gen_count(self):
        return len(self.gen_names)

    def __repr__(self):
        return "Presentation(%s | %s)" % (
            " ".join(self.gen_names),
            ", ".join(print_word(r, self.gen_names) for r in self.relators))


def _as_elements(values, order, what):
    """``values`` as a tuple of elements 0..order-1, refusing (ValueError
    naming ``what``) any value out of range or not an integer: a float or
    a string names no element, even one that truncates to an element."""
    try:
        values = tuple(map(operator.index, values))
    except TypeError:
        values, in_range = tuple(values), False
    else:
        in_range = all(0 <= g < order for g in values)
    if not in_range:
        raise ValueError("%s must be elements 0..%d, got %s"
                         % (what, order - 1, values))
    return values


def _is_latin_square(table):
    """True when each row and each column of the square ``table``, sorted,
    reads 0..n-1 (a sort per axis: on fresh tables it beats a scatter)."""
    perm = np.arange(len(table), dtype=table.dtype)
    return bool((np.sort(table, axis=1) == perm).all()
                and (np.sort(table, axis=0) == perm[:, None]).all())


class FiniteGroup:
    """A finite group as a dense multiplication table over 0..n-1.

    ``table[g, h]`` is the product g*h; element 0 is the identity.
    ``generators`` are the distinguished generator elements (matching the
    source presentation or constructor).  Every row and column of the table
    must be a permutation of 0..n-1; associativity is not checked.
    ``table`` and ``inv`` are read-only views: ``coset_enumerate`` shares
    a table between groups, and the cached element orders and classes
    are read from it.
    """

    def __init__(self, table, generators, gen_names=None, name="",
                 presentation=None):
        table = np.ascontiguousarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if not _is_latin_square(table):
            raise ValueError("multiplication table rows and columns must be "
                             "permutations of 0..n-1")
        if not (np.array_equal(table[0], np.arange(n)) and
                np.array_equal(table[:, 0], np.arange(n))):
            raise ValueError("element 0 must be the identity")
        self.table = table.view()
        self.table.flags.writeable = False
        self.order = n
        self.generators = _as_elements(generators, n, "generators")
        self.gen_names = tuple(gen_names if gen_names is not None else (
            "g%d" % i for i in range(1, len(self.generators) + 1)))
        if len(self.gen_names) != len(self.generators):
            raise ValueError("one name per generator: %r" % (self.gen_names,))
        self.name = name or "group(order=%d)" % n
        self.presentation = presentation
        # Each row holds 0 once, at the inverse's column.
        self.inv = table.argmin(axis=1).astype(np.int32)
        self.inv.flags.writeable = False
        if self.generators:
            if len(self.subgroup_closure(self.generators)) != n:
                raise ValueError("declared generators do not generate")
        self._orders = None
        self._classes = None

    # -- element arithmetic -------------------------------------------

    def mult(self, g, h):
        return int(self.table[g, h])

    def inverse(self, g):
        return int(self.inv[g])

    def conjugation_table(self):
        """The n x n array of g h g^-1 at [g, h], in one gather.

        [g, h] = x exactly when g h g^-1 = x h, so one comparison against
        it finds every pair with a given commutator."""
        return self.table[self.table, self.inv[:, None]]

    def commutator(self, g, h):
        """g h g^-1 h^-1."""
        gh = self.table[g, h]
        return int(self.table[self.table[gh, self.inv[g]], self.inv[h]])

    def element_orders(self):
        """Every element's order, the powers of all elements walked at once."""
        if self._orders is None:
            orders = np.ones(self.order, dtype=np.int64)
            allg = powers = np.arange(self.order)
            while powers.any():
                orders += powers != 0
                powers = np.where(powers != 0, self.table[powers, allg], 0)
            self._orders = orders
        return self._orders

    # -- subgroup machinery -------------------------------------------

    def subgroup_closure(self, gens):
        """Sorted element list of the subgroup generated by ``gens``.

        Breadth-first over ``table``: each level multiplies the newly
        reached elements by the generators and their inverses at once.
        """
        gens = [int(g) for g in gens]
        step = np.array(gens + [int(self.inv[g]) for g in gens], dtype=np.intp)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            new = np.zeros(self.order, dtype=bool)
            new[self.table[frontier[:, None], step]] = True
            new &= ~seen
            seen |= new
            frontier = new.nonzero()[0]
        elements = seen.nonzero()[0]
        if self.order % elements.size:
            raise AssertionError("closure size %d does not divide group order %d"
                                 % (elements.size, self.order))
        return elements.tolist()

    def normal_closure(self, gens):
        """Smallest normal subgroup containing ``gens``.

        The subgroup generated by a conjugation-closed set is normal, so one
        closure over every conjugate h g h^-1 of every g in ``gens`` (taken
        in one gather) suffices.
        """
        gens = np.asarray(gens, dtype=np.intp)
        allg = np.arange(self.order)
        conj = self.table[self.table[allg[:, None], gens], self.inv[:, None]]
        return self.subgroup_closure(np.unique(conj))

    def center(self):
        mask = (self.table == self.table.T).all(axis=1)
        return [int(g) for g in np.nonzero(mask)[0]]

    def is_abelian(self, elements=None):
        """Whether G, or the subgroup on ``elements``, is abelian."""
        block = (self.table if elements is None
                 else self.table[np.ix_(elements, elements)])
        return bool((block == block.T).all())

    def conjugacy_classes(self):
        """The classes, ordered by least element, each sorted: column h of
        ``conjugation_table()`` is h's class, so its minimum names it."""
        if self._classes is None:
            least = self.conjugation_table().min(axis=0)
            by_class = np.argsort(least, kind="stable")
            cuts = np.flatnonzero(np.diff(least[by_class])) + 1
            self._classes = [c.tolist() for c in np.split(by_class, cuts)]
        return self._classes

    def count_involutions(self):
        return int(np.count_nonzero(self.element_orders() == 2))

    def derived_subgroup(self):
        """[G, G] as the normal closure of the commutators [s, t] of a
        generating set (G.generators, or every element when there are none):
        G modulo that closure is abelian, since its generators commute.
        """
        gens = np.asarray(self.generators or range(self.order), dtype=np.intp)
        st = self.table[gens[:, None], gens]
        comms = self.table[self.table[st, self.inv[gens][:, None]],
                           self.inv[gens]]
        return self.normal_closure(np.unique(comms))

    def sylow_subgroup(self, p):
        """A Sylow p-subgroup, by greedy normalizer extension: each step
        joins the least p-element outside the subgroup that normalizes it."""
        n = self.order
        target = 1
        while n % p == 0:
            target *= p
            n //= p
        # An element order divides |G|, so it is a power of p exactly when
        # it divides the p-part of |G|.
        p_elements = target % self.element_orders() == 0
        sub = [0]
        while len(sub) < target:
            inside = np.zeros(self.order, dtype=bool)
            inside[sub] = True
            conjugates = self.table[self.table[:, sub], self.inv[:, None]]
            normalizes = inside[conjugates].all(axis=1)
            candidates = np.flatnonzero(normalizes & p_elements & ~inside)
            if not candidates.size:  # cannot happen for correct tables
                raise AssertionError("Sylow extension stuck at order %d" % len(sub))
            sub = self.subgroup_closure(sub + [int(candidates[0])])
        return sub

    def subgroup_as_group(self, elements):
        """Reindex a closed element subset as its own FiniteGroup, with no
        generators: the rules that read it use its table alone."""
        elements = np.sort(np.asarray(elements, dtype=np.intp))
        if not elements.size or elements[0] != 0:
            raise ValueError("subgroup must contain the identity")
        position = np.full(self.order, SENTINEL, dtype=np.int32)
        position[elements] = np.arange(elements.size)
        table = position[self.table[elements[:, None], elements]]
        if (table == SENTINEL).any():
            raise ValueError("element set is not closed under product")
        return FiniteGroup(table, (), name="subgroup(order=%d) of %s"
                           % (elements.size, self.name))

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


# --- Todd-Coxeter coset enumeration ------------------------------------


def coset_enumerate(pres, coset_cap=COSET_CAP):
    """The group ``pres`` presents, in its regular representation, by
    coset enumeration over the trivial subgroup (``_coset_enumerate``).

    Each process keeps its last eight enumerations (``_enumeration``, least
    recently used evicted), keyed by the generator names, each relator's
    letter bytes in order and ``coset_cap``, since success is not monotone
    in the cap.  An entry holds the one FiniteGroup of its key, validated
    and its relators checked once; a run that raises is not kept.  Each
    call returns its own shallow copy of it, over the shared read-only
    arrays, carrying the caller's ``pres`` and its own lazy caches.
    """
    G = copy.copy(_enumeration(
        pres.gen_names, tuple(rel.data for rel in pres.relators), coset_cap))
    G.presentation = pres
    return G


@lru_cache(maxsize=8)
def _enumeration(gen_names, relators, coset_cap):
    """The FiniteGroup of ``_coset_enumerate`` of one key, kept per
    process, each relator checked to read the identity."""
    table, generators = _coset_enumerate(gen_names, relators, coset_cap)
    G = FiniteGroup(table, generators, gen_names=gen_names,
                    name="presented(%s)" % ",".join(gen_names))
    for rel in relators:
        word = Word.from_bytes(rel, len(gen_names))
        if evaluate_rows(G, word, generators) != 0:
            raise AssertionError("relator %r violated in enumerated group"
                                 % print_word(word, gen_names))
    return G


def _coset_enumerate(gen_names, relators, coset_cap):
    """Enumerate the cosets of the trivial subgroup (HLT with lookahead),
    uncached, for the generator names and relator letter bytes of a
    ``coset_enumerate`` key: the group's multiplication table in its
    regular representation and its generators' elements.

    HLT (Sims 1994, *Computation with Finitely Presented Groups*): each
    live coset in turn scans every relator, defining cosets to fill the
    gaps, then defines its missing neighbours.  A scan closed by a
    deduction writes it; a scan that meets itself merges the two cosets,
    and the coincidences that follow are merged in turn (the higher coset
    number dies, the last queued first).  The table is one flat list,
    ``table[c * L + x]`` the coset c times letter code x (L = two codes per
    generator), entries possibly naming a dead coset, read through the
    union-find ``labels``.

    ``coset_cap`` bounds the live cosets at any one time.  When a
    definition would pass it, a lookahead pass deduces and merges without
    defining; the enumeration resumes if that freed a coset and otherwise
    raises CosetCapExceeded.  So success is not monotone in the cap: for
    the stand-in's a^27, b^9, b a b^-1 a^-4 (order 243) caps 243, 291 and
    364 raise, 244, 486 and 4,093 succeed, and the uncapped run peaks at
    4,094 live cosets.  The table's rows (every coset defined, live or
    dead) are bounded by COSET_ROWS_PER_CAP times ``coset_cap``; past that
    the run raises CosetCapExceeded with no lookahead, so a run whose
    lookahead passes keep freeing a few cosets still stops.  A successful
    run of the stand-in holds at most 2.01 rows per unit of cap (977 at
    cap 486).  A group of order past MAX_ORDER raises ValueError before
    its multiplication table is built.
    """
    rank = len(gen_names)
    L = 2 * rank
    # Letter code 2 g for generator g (byte g + 1) and 2 g + 1 for its
    # inverse (byte g + 1 + rank), so code x ^ 1 is the inverse of code x.
    code = [SENTINEL, *range(0, L, 2), *range(1, L, 2)]
    # Each relator's codes, and the inverse code of each for the scan from
    # the relator's end.
    scans = [([code[b] for b in rel], [code[b] ^ 1 for b in rel])
             for rel in relators]
    blank = [SENTINEL] * L
    table = list(blank)
    parent = [(SENTINEL, SENTINEL)]     # (coset, code) it was defined from
    labels = [0]                        # union-find: labels[c] == c if live
    live = 1
    max_rows = COSET_ROWS_PER_CAP * coset_cap
    queue = []                          # dead cosets whose entries move

    def rep(c):
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def define(c, x):
        nonlocal live
        if live >= coset_cap:
            raise CosetCapExceeded(
                "coset cap %d exceeded (presentation may define a larger or "
                "infinite group)" % coset_cap)
        new = len(labels)
        if new >= max_rows:
            raise CosetCapExceeded(
                "coset cap %d exceeded: the table reached %d rows "
                "(presentation may define a larger or infinite group)"
                % (coset_cap, new))
        table.extend(blank)
        table[c * L + x] = new
        table[new * L + (x ^ 1)] = c
        parent.append((c, x))
        labels.append(new)
        live += 1

    def merge(a, b):
        """Merge coset a's class with live coset b: the higher root dies."""
        nonlocal live
        a = a if labels[a] == a else rep(a)
        if a != b:
            keep, drop = (a, b) if a < b else (b, a)
            labels[drop] = keep
            live -= 1
            queue.append(drop)

    def coincidence(a, b):
        """Merge a and b, then the coincidences that follow: each entry of a
        dead coset (last queued first) moves to the survivors, or merges."""
        merge(a, rep(b))
        while queue:
            dead = queue.pop()
            base = dead * L
            for x in range(L):
                t = table[base + x]
                if t == SENTINEL:
                    continue
                table[base + x] = SENTINEL
                a, b = rep(dead), t if labels[t] == t else rep(t)
                ax = table[a * L + x]
                if ax == SENTINEL:
                    bx = table[b * L + (x ^ 1)]
                    if bx == SENTINEL:
                        table[a * L + x] = b
                        table[b * L + (x ^ 1)] = a
                        continue
                    ax, b = bx, a
                merge(ax, b)

    def scan(c, rel, inv, fill):
        """Scan ``rel`` from coset ``c``; fill gaps if ``fill``."""
        f, i = c, 0
        b, j = c, len(rel) - 1
        while True:
            while i <= j:
                t = table[f * L + rel[i]]
                if t == SENTINEL:
                    break
                f = t if labels[t] == t else rep(t)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                t = table[b * L + inv[j]]
                if t == SENTINEL:
                    break
                b = t if labels[t] == t else rep(t)
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f * L + rel[i]] = b
                table[b * L + inv[i]] = f
                return
            if not fill:
                return
            define(f, rel[i])

    c = 0
    while c < len(labels):
        if labels[c] != c:
            c += 1
            continue
        try:
            for rel, inv in scans:
                if labels[c] != c:
                    break
                scan(c, rel, inv, True)
            if labels[c] == c:
                for x in range(L):
                    if table[c * L + x] == SENTINEL:
                        define(c, x)
        except CosetCapExceeded:
            # Lookahead: deduce and merge without defining, and retry the
            # coset while a pass frees one; no pass frees a table row.
            if len(labels) >= max_rows:
                raise
            before = live
            for d in [d for d in range(len(labels)) if labels[d] == d]:
                if labels[d] != d:
                    continue
                for rel, inv in scans:
                    scan(d, rel, inv, False)
            if live >= before:
                raise
            continue  # retry the same coset index
        c += 1

    # Letter action on the live cosets, renumbered 0..n-1 in coset order.
    reps = np.fromiter(map(rep, range(len(labels))), np.intp, len(labels))
    cosets = np.flatnonzero(reps == np.arange(len(labels)))
    n = len(cosets)
    _check_order(n, "presented(%s)" % ",".join(gen_names))
    entries = np.asarray(table, dtype=np.intp).reshape(-1, L)[cosets]
    if (entries == SENTINEL).any():
        raise AssertionError("incomplete coset table after enumeration")
    index = np.empty(len(labels), dtype=np.intp)
    index[cosets] = np.arange(n)
    action = index[reps[entries]].T

    # Multiplication table column by column along the definition tree:
    # coset 0 is the identity, and a coset defined as parent * letter has
    # the column of the letter's action on its parent's column (the
    # parent's survivor, numbered lower, so its column is filled).
    columns = np.empty((n, n), dtype=np.intp)
    columns[0] = np.arange(n)
    for k, old in enumerate(cosets[1:].tolist(), 1):
        p, x = parent[old]
        columns[k] = action[x][columns[index[rep(p)]]]
    return columns.T, [int(action[2 * i, 0]) for i in range(rank)]


def evaluate_in_group(G, word, images):
    """Image of a word under generator assignments ``images``, checked to
    be elements: ``evaluate_rows`` as a Python int, 0 for the empty word.
    """
    images = _as_elements(images[:word.rank], G.order, "generator images")
    if len(images) < word.rank:
        raise ValueError("need %d generator images, got %d"
                         % (word.rank, len(images)))
    return int(evaluate_rows(G, word, images)) if word.data else 0


def evaluate_rows(G, word, gens):
    """Image of the nonempty ``word`` when generator i maps to ``gens[i]``.

    Each ``gens[i]`` is an element or an array of elements, and all of
    them broadcast together, so one call evaluates the word under a batch
    of assignments.  The fold starts from the first letter's column and
    reads only the generators the word uses.
    """
    rank = word.rank
    cols = [gens[b - 1] if b <= rank else G.inv[gens[b - 1 - rank]]
            for b in word.data]
    out = cols[0]
    for col in cols[1:]:
        out = G.table[out, col]
    return out


# --- built-in constructors ----------------------------------------------


def _factorization(n):
    """The prime factorization of n by trial division: [(p, k), ...] with
    n = prod p**k, primes ascending; [] for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n):
    return _factorization(n) == [(n, 1)]


def _check_order(n, what):
    """Refuse (ValueError) an order past MAX_ORDER, before a table of that
    order is built or a trial division runs on a number that large."""
    if n > MAX_ORDER:
        raise ValueError("%s: order %d exceeds the bound %d on dense tables"
                         % (what, n, MAX_ORDER))


def cyclic(n):
    """The cyclic group of order n, generator at index 1."""
    if n < 1:
        raise ValueError("order must be positive")
    _check_order(n, "cyclic(%d)" % n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    pres = Presentation(("a",), ("a^%d" % n,)) if n > 1 else None
    gens = [1] if n > 1 else []
    return FiniteGroup(table, gens, gen_names=("a",) if n > 1 else (),
                       name="cyclic(%d)" % n, presentation=pres)


def semidirect_pq(p, q, r):
    """The metacyclic group <a,b | a^p, b^q, b a b^-1 = a^r> of order p*q.

    Conditions: p, q prime with 3 <= q < p, 2 <= r < p, and r^q = 1 mod p.
    Violations raise ValueError naming the failed condition.
    """
    # The larger of p and q, when the other is not positive, is bounded too.
    _check_order(max(p, q, p * q), "semidirect_pq(%d,%d,%d)" % (p, q, r))
    if not (_is_prime(p) and _is_prime(q)):
        raise ValueError("p=%d and q=%d must both be prime" % (p, q))
    if not 3 <= q < p:
        raise ValueError("need 3 <= q < p, got q=%d, p=%d" % (q, p))
    if not 2 <= r < p:
        raise ValueError("need 2 <= r < p, got r=%d, p=%d" % (r, p))
    if pow(r, q, p) != 1:
        raise ValueError("need r^q = 1 mod p: %d^%d = %d mod %d"
                         % (r, q, pow(r, q, p), p))
    n = p * q
    # Element a^i b^j sits at index i*q + j, and
    # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2 r^j1) b^(j1 + j2).
    rpow = np.array([pow(r, j, p) for j in range(q)])
    i1, j1, i2, j2 = np.ix_(range(p), range(q), range(p), range(q))
    table = (((i1 + i2 * rpow[j1]) % p) * q + (j1 + j2) % q).reshape(n, n)
    pres = Presentation(("a", "b"),
                        ("a^%d" % p, "b^%d" % q, "b a b^-1 a^-%d" % r))
    return FiniteGroup(table, [q, 1], gen_names=("a", "b"),
                       name="semidirect_pq(%d,%d,%d)" % (p, q, r),
                       presentation=pres)


def heisenberg_presentation(p):
    return Presentation(("x", "y"),
                        ("x^%d" % p, "y^%d" % p, "[x,y]^%d" % p,
                         "[x,[x,y]]", "[y,[x,y]]"))


def heisenberg(p):
    """Upper unitriangular 3x3 matrices over Z/p; order p^3.

    Triples (i,j,k) with (i,j,k)*(m,n,l) = (i+m, j+n, k+l+i*n);
    generators x = (1,0,0), y = (0,1,0); [x,y] = (0,0,1) is central.
    """
    _check_order(p ** 3, "heisenberg(%d)" % p)
    if not _is_prime(p):
        raise ValueError("p=%d must be prime" % p)
    n = p ** 3
    # (i, j, k) sits at index (i*p + j)*p + k.
    i, j, k, m, nn, l = np.ix_(*[range(p)] * 6)
    table = (((i + m) % p * p + (j + nn) % p) * p
             + (k + l + i * nn) % p).reshape(n, n)
    x, y = p * p, p
    return FiniteGroup(table, [x, y], gen_names=("x", "y"),
                       name="heisenberg(%d)" % p,
                       presentation=heisenberg_presentation(p))


# --- automorphisms -------------------------------------------------------


def automorphisms(G, *, node_cap=AUT_NODE_CAP, fixed=None):
    """Automorphisms of G as tuples of images of ``G.generators``.

    The images are assigned one presentation generator at a time, in
    decreasing element order, over one array of partial assignments: each
    level repeats the surviving rows once per candidate image (an element
    of the generator's order), and each relator drops the rows it fails at
    the level of its last generator.  A full row that passes every relator
    is an endomorphism, hence an automorphism exactly when it is
    injective.  The rows stay in lexicographic order of the assignment.

    ``fixed`` optionally pins the images of some generators (a dict mapping
    generator index to element; ValueError for either out of range).
    Raises AutCapExceeded when the rows tried, summed over the levels,
    exceed ``node_cap``: the node count of a depth-first search over the
    same candidates, so an unpinned search raises exactly when that tree
    exceeds the cap.  A pinned search counts
    its levels whole, even when only one automorphism is wanted: 6,778
    rows for each of order243_presented's certificate queries, against
    486-1,212 nodes for a depth-first search stopping at the first
    automorphism, both far below the default cap.
    """
    pres = G.presentation
    if pres is None:
        raise ValueError("no presentation available for %s" % G.name)
    k = pres.gen_count
    if len(G.generators) != k:
        raise ValueError("group generators do not match the presentation")
    fixed = dict(fixed or {})
    if not set(fixed) <= set(range(k)):
        raise ValueError("fixed generator indices must be in 0..%d, got %s"
                         % (k - 1, tuple(fixed)))
    fixed = dict(zip(fixed, _as_elements(fixed.values(), G.order,
                                         "fixed images")))
    orders = G.element_orders()
    gen_orders = [int(orders[g]) for g in G.generators]
    assign_order = sorted(range(k), key=lambda i: (-gen_orders[i], i))
    check_after = [[] for _ in range(k)]
    for rel in pres.relators:
        check_after[max(assign_order.index(g) for g, _ in rel.letters)
                    ].append(rel)

    rows = np.zeros((1, k), dtype=G.table.dtype)
    nodes = 0
    for pos, gi in enumerate(assign_order):
        cands = np.flatnonzero(orders == gen_orders[gi])
        if gi in fixed:
            cands = cands[cands == fixed[gi]]
        nodes += len(rows) * len(cands)
        if nodes > node_cap:
            raise AutCapExceeded(
                "automorphism search exceeded node cap %d" % node_cap)
        rows = np.repeat(rows, len(cands), axis=0)
        rows[:, gi] = np.resize(cands, len(rows))
        for rel in check_after[pos]:
            rows = rows[evaluate_rows(G, rel, rows.T) == 0]
    # The leaves are homomorphisms, injective when only the identity maps
    # to 0; their permutations are built in blocks of about 2^20 entries.
    keep = np.ones(len(rows), dtype=bool)
    block = max(1, (1 << 20) // G.order)
    for i in range(0, len(rows), block):
        perms = automorphism_permutations(G, rows[i:i + block])
        keep[i:i + block] = (perms[:, 1:] != 0).all(axis=1)
    return [tuple(row) for row in rows[keep].tolist()]


def automorphism_permutations(G, auts):
    """The permutations of G induced by the automorphisms ``auts`` (image
    tuples of ``G.generators``), one row each: each map is extended along
    the breadth-first tree of G from the identity under right
    multiplication by the generators and then their inverses.  The tree
    does not depend on the images, so each level is one gather."""
    gens = np.asarray(G.generators, dtype=np.int64)
    images = np.asarray(auts, dtype=np.int64).reshape(len(auts), len(gens))
    moves = np.concatenate([gens, G.inv[gens]])
    targets = np.concatenate([images, G.inv[images]], axis=1)
    perms = np.empty((len(images), G.order), dtype=np.int32)
    perms[:, 0] = 0
    seen = np.zeros(G.order, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        prods = G.table[frontier[:, None], moves].ravel()
        fresh = np.flatnonzero(~seen[prods])
        _, first = np.unique(prods[fresh], return_index=True)
        pos = fresh[np.sort(first)]
        parents, steps = np.divmod(pos, len(moves))
        level = prods[pos]
        perms[:, level] = G.table[perms[:, frontier[parents]],
                                  targets[:, steps]]
        seen[level] = True
        frontier = level
    if not seen.all():
        raise ValueError("%s has no generators to extend along" % G.name)
    return perms


def pair_orbit_count(G, pairs, auts):
    """Orbits of the diagonal Aut(G) action on an explicit pair list.

    ``auts`` is the whole automorphism group (``automorphisms(G)``), so
    the orbit of a pair is its image set under every listed map; the
    minimum image code is a canonical orbit label, computed vectorized
    over all pairs at once.
    """
    perms = automorphism_permutations(G, auts)
    n = G.order
    first = np.array([g for g, _ in pairs], dtype=np.int64)
    second = np.array([h for _, h in pairs], dtype=np.int64)
    codes = first * n + second
    canon = codes.copy()
    valid = np.zeros(n * n, dtype=bool)
    valid[codes] = True
    for perm in perms:
        mapped = perm[first].astype(np.int64) * n + perm[second]
        if not valid[mapped].all():
            raise ValueError("pair list is not Aut-invariant")
        np.minimum(canon, mapped, out=canon)
    return len(np.unique(canon))


def single_aut_orbit_certificate(G, pairs, *, node_cap=AUT_NODE_CAP):
    """Best-effort proof that an Aut-closed pair list is one Aut(G) orbit.

    The orbit algorithm over a growing generating set (Holt, Eick &
    O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1):
    the orbit of a noncommuting pair of presentation generators is closed
    under conjugation by each generator of G (G is finite, so no inverses
    are needed), vectorized over the pair codes u*|G| + v.  While a listed
    pair lies outside the orbit, one pinned ``automorphisms`` query looks
    for an automorphism sending the generator pair onto it.  None means
    that pair lies in another orbit; otherwise the automorphism joins the
    generating set and the orbit, closed again, strictly grows.  Without a
    cap the answer is therefore True exactly when every listed pair lies
    in the generator pair's orbit.

    Returns True (certified single orbit), False (some listed pair admits
    no automorphism, so there are at least two orbits), or None when no
    presentation or no noncommuting generator pair is available.  Raises
    AutCapExceeded if an existence query hits the node cap.  The single-
    orbit reading requires ``pairs`` to be closed under the diagonal
    Aut(G) action (e.g. all noncommuting pairs).
    """
    if G.presentation is None or not pairs:
        return None
    gens = G.generators
    source = next(((i, j) for i in range(len(gens)) for j in range(len(gens))
                   if i != j and G.commutator(gens[i], gens[j]) != 0), None)
    if source is None:
        return None

    n = G.order
    listed = np.zeros(n * n, dtype=bool)
    codes = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    listed[codes[:, 0] * n + codes[:, 1]] = True
    x = np.arange(n)
    perms = [G.table[G.table[g, x], G.inv[g]].astype(np.int64) for g in gens]
    gi, gj = source
    orbit = np.zeros(n * n, dtype=bool)
    frontier = np.array([gens[gi] * n + gens[gj]], dtype=np.int64)
    orbit[frontier] = True
    while True:
        while frontier.size:
            us, vs = np.divmod(frontier, n)
            images = np.concatenate([perm[us] * n + perm[vs]
                                     for perm in perms])
            frontier = np.unique(images[~orbit[images]])
            orbit[frontier] = True
        outside = np.flatnonzero(listed & ~orbit)
        if not outside.size:
            return True
        a, b = divmod(int(outside[0]), n)
        found = automorphisms(G, node_cap=node_cap, fixed={gi: a, gj: b})
        if not found:
            return False
        perms.append(automorphism_permutations(G, found[:1])[0]
                     .astype(np.int64))
        frontier = np.flatnonzero(orbit)
