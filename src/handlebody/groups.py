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

import operator

import numpy as np

from .words import Word, parse_word, print_word

SENTINEL = -1


class PresentationError(ValueError):
    """Malformed presentation (bad names, empty or out-of-rank relators)."""


class CosetCapExceeded(RuntimeError):
    """Coset enumeration hit its cap; the presentation may define a larger
    or infinite group.  Never produces a wrong group."""


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
        self.table = table
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

    def element_order(self, g):
        k, acc = 1, g
        while acc != 0:
            acc = int(self.table[acc, g])
            k += 1
        return k

    def element_orders(self):
        if self._orders is None:
            self._orders = np.array([self.element_order(g)
                                     for g in range(self.order)])
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

    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def conjugacy_classes(self):
        if self._classes is None:
            n = self.order
            seen = np.zeros(n, dtype=bool)
            classes = []
            allg = np.arange(n)
            inv_all = self.inv[allg]
            for g in range(n):
                if seen[g]:
                    continue
                orbit = np.unique(self.table[self.table[allg, g], inv_all])
                seen[orbit] = True
                classes.append([int(x) for x in orbit])
            self._classes = classes
        return self._classes

    def count_involutions(self):
        diag = self.table[np.arange(self.order), np.arange(self.order)]
        return int(np.count_nonzero(diag == 0)) - 1  # exclude the identity

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


def _relator_letters(rel):
    out = []
    for gen, sign in rel.letters:
        out.append(2 * gen if sign > 0 else 2 * gen + 1)
    return out


class _CosetTable:
    def __init__(self, nletters, cap):
        self.nletters = nletters
        self.cap = cap
        self.rows = [[SENTINEL] * nletters]
        self.parent = [(SENTINEL, SENTINEL)]  # (parent coset, letter)
        self.labels = [0]  # union-find
        self.dead = 0

    def rep(self, c):
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def entry(self, c, x):
        t = self.rows[c][x]
        return SENTINEL if t == SENTINEL else self.rep(t)

    def define(self, c, x):
        if len(self.rows) - self.dead >= self.cap:
            raise CosetCapExceeded(
                "coset cap %d exceeded (presentation may define a larger or "
                "infinite group)" % self.cap)
        new = len(self.rows)
        self.rows.append([SENTINEL] * self.nletters)
        self.parent.append((c, x))
        self.labels.append(new)
        self.rows[c][x] = new
        self.rows[new][x ^ 1] = c
        return new

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        keep, drop = (a, b) if a < b else (b, a)
        self.labels[drop] = keep
        self.dead += 1
        queue.append(drop)

    def process_coincidences(self, queue):
        while queue:
            dead_coset = queue.pop()
            row = self.rows[dead_coset]
            for x in range(self.nletters):
                t = row[x]
                if t == SENTINEL:
                    continue
                row[x] = SENTINEL
                # transfer the fact dead*x = t to the surviving labels
                a, b = self.rep(dead_coset), self.rep(t)
                ax = self.rows[a][x]
                if ax != SENTINEL:
                    self.merge(self.rep(ax), b, queue)
                else:
                    bx = self.rows[b][x ^ 1]
                    if bx != SENTINEL:
                        self.merge(self.rep(bx), a, queue)
                    else:
                        self.rows[a][x] = b
                        self.rows[b][x ^ 1] = a

    def scan(self, c, rel, fill):
        """Scan relator ``rel`` from coset ``c``; fill gaps if ``fill``."""
        queue = []
        f, i = c, 0
        b, j = c, len(rel) - 1
        while True:
            while i <= j:
                t = self.entry(f, rel[i])
                if t == SENTINEL:
                    break
                f, i = t, i + 1
            if i > j:
                if f != b:
                    self.merge(f, b, queue)
                    self.process_coincidences(queue)
                return
            while j >= i:
                t = self.entry(b, rel[j] ^ 1)
                if t == SENTINEL:
                    break
                b, j = t, j - 1
            if j < i:
                self.merge(f, b, queue)
                self.process_coincidences(queue)
                return
            if j == i:
                self.rows[f][rel[i]] = b
                self.rows[b][rel[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, rel[i])


def coset_enumerate(pres, coset_cap=50000):
    """Enumerate the cosets of the trivial subgroup (HLT with lookahead) and
    return the group in its regular representation.

    ``coset_cap`` bounds the live cosets at any one time.  When a
    definition would pass it, a lookahead pass deduces and merges without
    defining; the enumeration resumes if that freed a coset and otherwise
    raises CosetCapExceeded.  So success is not monotone in the cap: for
    the stand-in's a^27, b^9, b a b^-1 a^-4 (order 243) caps 243, 291 and
    364 raise, 244, 486 and 4,093 succeed, and the uncapped run peaks at
    4,094 live cosets.
    """
    nletters = 2 * pres.gen_count
    rels = [_relator_letters(r) for r in pres.relators]
    ct = _CosetTable(nletters, coset_cap)

    def live_cosets():
        return [c for c in range(len(ct.rows)) if ct.rep(c) == c]

    c = 0
    while c < len(ct.rows):
        if ct.rep(c) != c:
            c += 1
            continue
        try:
            for rel in rels:
                if ct.rep(c) != c:
                    break
                ct.scan(c, rel, fill=True)
            if ct.rep(c) == c:
                for x in range(nletters):
                    if ct.entry(c, x) == SENTINEL:
                        ct.define(c, x)
        except CosetCapExceeded:
            # Lookahead: deduce and merge without defining, then retry once.
            before = len(ct.rows) - ct.dead
            for d in live_cosets():
                if ct.rep(d) != d:
                    continue
                for rel in rels:
                    ct.scan(d, rel, fill=False)
            if len(ct.rows) - ct.dead >= before:
                raise
            continue  # retry the same coset index
        c += 1

    live = live_cosets()
    index = {old: i for i, old in enumerate(live)}
    n = len(live)
    # Letter action on compacted cosets.
    action = np.empty((nletters, n), dtype=np.int32)
    for i, old in enumerate(live):
        for x in range(nletters):
            t = ct.entry(old, x)
            if t == SENTINEL:
                raise AssertionError("incomplete coset table after enumeration")
            action[x, i] = index[t]

    # Multiplication table column-by-column along the definition tree:
    # coset 0 is the identity; a coset defined as parent*letter has
    # column = letter action applied to the parent's column.
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    order_of_def = sorted(live[1:])  # definition order = coset numbers
    for old in order_of_def:
        p, x = ct.parent[old]
        # The parent may itself have been merged; its representative's
        # column is already filled iff rep(parent) was defined earlier.
        p = ct.rep(p)
        table[:, index[old]] = action[x, table[:, index[p]]]
    generators = [int(action[2 * i, 0]) for i in range(pres.gen_count)]
    g = FiniteGroup(table, generators, gen_names=pres.gen_names,
                    name="presented(%s)" % ",".join(pres.gen_names),
                    presentation=pres)
    # Safety: all relators must evaluate to the identity.
    for rel in pres.relators:
        if evaluate_in_group(g, rel, g.generators) != 0:
            raise AssertionError("relator %r violated in enumerated group"
                                 % print_word(rel, pres.gen_names))
    return g


def evaluate_in_group(G, word, images):
    """Image of a word under generator assignments ``images``.

    The scalar fold: letter byte b maps to ``letters[b]`` (the images, then
    their inverses), folded left to right through ``G.table``.
    """
    images = _as_elements(images[:word.rank], G.order, "generator images")
    if len(images) < word.rank:
        raise ValueError("need %d generator images, got %d"
                         % (word.rank, len(images)))
    letters = [0, *images] + [int(G.inv[g]) for g in images]
    table = G.table
    out = 0
    for byte in word.data:
        out = int(table[out, letters[byte]])
    return out


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


def cyclic(n):
    """The cyclic group of order n, generator at index 1."""
    if n < 1:
        raise ValueError("order must be positive")
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


def automorphisms(G, *, node_cap=200000, fixed=None):
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


def single_aut_orbit_certificate(G, pairs, *, node_cap=200000):
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
