"""Group builders, scalar element arithmetic and a reference coset
enumerator for the tests.

The package needs neither the builders nor the scalar arithmetic: no
command builds a direct product, and the engine works on whole rows of
the multiplication table.  The oracles here spell the definitions out one
product at a time: ``_fold_over_table`` checks the package's one letter
fold, ``groups.evaluate_rows``.  ``_reference_coset_enumerate`` makes the
same enumeration as ``groups.coset_enumerate``, one method per step over
a table object, for the tests to compare tables against.
"""

import numpy as np

from handlebody.groups import CosetCapExceeded, FiniteGroup

SENTINEL = -1


def direct_product(G1, G2, name=""):
    """External direct product; element (g1, g2) at index g1*|G2| + g2."""
    n1, n2 = G1.order, G2.order
    t1 = G1.table.astype(np.int64)
    t2 = G2.table.astype(np.int64)
    # table[(a1,a2),(b1,b2)] = (t1[a1,b1], t2[a2,b2])
    block = (t1[:, None, :, None] * n2 + t2[None, :, None, :])
    table = block.reshape(n1 * n2, n1 * n2)
    gens = [g * n2 for g in G1.generators] + list(G2.generators)
    names = tuple("l_%s" % s for s in G1.gen_names) + \
        tuple("r_%s" % s for s in G2.gen_names)
    return FiniteGroup(table, gens, gen_names=names,
                       name=name or "%s x %s" % (G1.name, G2.name))


def power(G, g, k):
    """g^k in G, for any integer k (negative powers invert)."""
    if k < 0:
        g, k = G.inverse(g), -k
    out = 0
    for _ in range(k):
        out = G.mult(out, g)
    return out


def conjugate(G, g, h):
    """h g h^-1 in G."""
    return G.mult(G.mult(h, g), G.inverse(h))


def classes_by_definition(G):
    """The conjugacy classes of G, each the sorted set of h g h^-1 over
    all h, ordered by least element: one product at a time."""
    table, inv = G.table.tolist(), G.inv.tolist()
    classes = {}
    for g in range(G.order):
        cls = sorted({table[table[h][g]][inv[h]] for h in range(G.order)})
        classes[cls[0]] = cls
    return [classes[least] for least in sorted(classes)]


def order_by_powers(G, g):
    """The least k >= 1 with g^k = 1, one product at a time."""
    k, acc = 1, g
    while acc != 0:
        acc = G.mult(acc, g)
        k += 1
    return k


def _fold_over_table(G, images, w):
    """Image of ``w``: each letter's element (an image, or the inverse found
    by searching its row for the identity) multiplied on from the right."""
    out = 0
    for gen, sign in w.letters:
        g = images[gen]
        if sign < 0:
            g = int(np.nonzero(G.table[g] == 0)[0][0])
        out = int(G.table[out, g])
    return out


# --- reference Todd-Coxeter coset enumeration ---------------------------


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


def _reference_coset_enumerate(pres, coset_cap=50000):
    """HLT with lookahead over a ``_CosetTable``, step for step the
    strategy of ``groups.coset_enumerate``: its multiplication table and
    generator elements, or CosetCapExceeded where it raises."""
    nletters = 2 * pres.gen_count
    # Code 2 g for generator g and 2 g + 1 for its inverse, read from the
    # relators' letters rather than their bytes.
    rels = [[2 * gen + (sign < 0) for gen, sign in r.letters]
            for r in pres.relators]
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
    return table, generators
