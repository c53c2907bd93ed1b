"""Orbits of epimorphism kernels under the twist substitutions.

Precomposing an epimorphism with the twist automorphisms moves its kernel
through finitely many normal subgroups of the surface group.  Two
epimorphisms share a kernel exactly when an automorphism of the target
carries one image tuple to the other, so kernels are represented as
image tuples modulo the target's automorphism group.

The intersection N of a kernel orbit is the kernel of the diagonal map
into G^r; the quotient acts freely on a surface, and whether that action
can extend over a handlebody is probed by intersecting N with the
commutator orbit set.
"""

from __future__ import annotations

import numpy as np

from .twists import sigma
from .backend import get_backend
from .homs import Epimorphism, evaluate
from .groups import automorphisms, automorphism_permutations


class ClosureCapExceeded(RuntimeError):
    """Tuple-subgroup closure grew past its cap; order unknown."""


class KernelClassCapExceeded(RuntimeError):
    """Kernel-orbit BFS found more classes than its cap; orbit unknown."""


def precompose(theta, f):
    """theta o f for a rank-4 substitution automorphism f."""
    images = tuple(evaluate(theta, w) for w in f.images)
    return Epimorphism(theta.group, images)


def _aut_perms(G, pres=None, aut_cap=200000):
    auts = automorphisms(G, pres, node_cap=aut_cap)
    return automorphism_permutations(G, auts)


def _canonical_images(images, perms):
    """Pointwise-minimal automorphism translate; a kernel invariant."""
    arr = np.array(images, dtype=np.int64)
    best = None
    for p in perms:
        cand = tuple(int(v) for v in p[arr])
        if best is None or cand < best:
            best = cand
    return best


def kernel_equal(th1, th2, perms):
    """True when some target automorphism maps one image tuple to the
    other, i.e. the two epimorphisms have the same kernel."""
    want = np.array(th2.images, dtype=np.int64)
    have = np.array(th1.images, dtype=np.int64)
    return any(bool(np.array_equal(p[have], want)) for p in perms)


def kernel_orbit(theta, pres=None, aut_cap=200000, class_cap=10000):
    """BFS of ker(theta) under the ten twist substitutions.

    Returns (representatives, perms): one epimorphism per distinct kernel,
    in discovery order (seed first), plus the automorphism permutations
    used for canonical forms.
    """
    perms = _aut_perms(theta.group, pres, aut_cap)
    seen = {_canonical_images(theta.images, perms)}
    reps = [theta]
    frontier = [theta]
    gens = [sigma(j) for j in range(1, 11)]
    while frontier:
        new_frontier = []
        for th in frontier:
            for f in gens:
                cand = precompose(th, f)
                key = _canonical_images(cand.images, perms)
                if key in seen:
                    continue
                if len(reps) >= class_cap:
                    raise KernelClassCapExceeded(
                        "kernel orbit exceeded class cap %d" % class_cap)
                seen.add(key)
                reps.append(cand)
                new_frontier.append(cand)
        frontier = new_frontier
    return reps, perms


class IntersectionReport:
    """Outcome of scanning the orbit set against a kernel intersection.

    avoids        True iff no scanned word lies in every kernel.
    counterexample  first scan-order word inside the intersection (if any).
    survivors     per-class counts of words still inside all kernels so far.
    """

    def __init__(self, avoids, counterexample, counterexample_path, survivors,
                 depth):
        self.avoids = avoids
        self.counterexample = counterexample
        self.counterexample_path = counterexample_path
        self.survivors = survivors
        self.depth = depth


def intersection_avoids_c0(reps, s, backend=None):
    """Does the kernel intersection miss every word of the orbit set?

    Evaluates the whole set under each kernel class in turn, keeping only
    words trivial so far; empty survivors certify avoidance.
    """
    if backend is None:
        backend = get_backend()
    words, enc, offsets = s.scan_view()
    table = reps[0].group.table
    alive = np.ones(len(words), dtype=bool)
    survivors = []
    for th in reps:
        values = backend.evaluate_words(enc, offsets, th.letter_images(),
                                        table)
        alive &= (values == 0)
        survivors.append(int(alive.sum()))
        if not alive.any():
            return IntersectionReport(True, None, None, survivors, s.depth)
    idx = int(np.nonzero(alive)[0][0])
    w = words[idx]
    for th in reps:
        if evaluate(th, w) != 0:
            raise AssertionError("counterexample failed re-verification")
    return IntersectionReport(False, w, s.paths[w], survivors, s.depth)


# Working-set budget for the fiber closure, in int32 entries (~256 MB):
# elements are length-r vectors, so the admissible element count shrinks
# as the kernel orbit grows.
_FIBER_INT_BUDGET = 64000000


def fiber_group_order(reps, closure_cap=1000000):
    """Order of the image of the diagonal map into G^r — the group whose
    free action the kernel intersection defines.  None when the closure
    exceeds ``closure_cap`` elements, or the memory-scaled equivalent for
    wide orbits (order unknown, not infinite)."""
    G = reps[0].group
    r = len(reps)
    cap = min(closure_cap, max(1, _FIBER_INT_BUDGET // max(r, 1)))
    gens = np.empty((8, r), dtype=np.int32)
    for i in range(4):
        tup = np.array([th.images[i] for th in reps], dtype=np.int32)
        gens[2 * i] = tup
        gens[2 * i + 1] = G.inv[tup]
    table = G.table
    identity = np.zeros(r, dtype=np.int32)
    seen = {identity.tobytes()}
    frontier = identity[None, :]
    chunk = max(1, 4000000 // (8 * r))
    while frontier.shape[0]:
        fresh = []
        for lo in range(0, frontier.shape[0], chunk):
            block = frontier[lo:lo + chunk]
            prods = table[block[:, None, :], gens[None, :, :]]
            prods = prods.reshape(-1, r).astype(np.int32, copy=False)
            for row in prods:
                key = row.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(key)
                    fresh.append(row.copy())
        frontier = (np.stack(fresh) if fresh
                    else np.empty((0, r), dtype=np.int32))
    return len(seen)
