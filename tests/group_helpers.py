"""Group builders and scalar element arithmetic for the tests.

The package needs neither: no command builds a direct product, and the
engine works on whole rows of the multiplication table.  The oracles here
spell the definitions out one product at a time.
"""

import numpy as np

from handlebody.groups import FiniteGroup


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
