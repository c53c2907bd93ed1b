"""Orbits of epimorphism kernels under the twist substitutions.

Precomposing an epimorphism with the twist automorphisms moves its kernel
through finitely many normal subgroups of the surface group.  A kernel is
keyed by its standardized coset table (Sims, *Computation with Finitely
Presented Groups*, 1994): the Cayley table of the four images in a
breadth-first numbering of G.  Keys are equal exactly when kernels are.

The intersection N of a kernel orbit is the kernel of the diagonal map
into G^r; the quotient acts freely on a surface, and whether that action
can extend over a handlebody is probed by intersecting N with the
commutator orbit set.  That scan reads the set one level trie at a time
(``OrbitSet.trie_blocks``) and stops at the first level holding a word in
every kernel, so it generates or reads the whole set only when N avoids it.

On a complete kernel orbit the two seeds decide the scan.  The BFS uses
s1..s5 only: each theta o s_j is an epimorphism onto G with kernel
s_j^-1(ker theta), and s_j is injective on subgroups, so each move
permutes the finite set of such kernels.  An orbit of a finite set under
permutations is closed under their inverses (Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, 2005, 4.1), and s_{j+5} is
s_j^-1, so the orbit holds ker(theta_k o s_j) for every class k and all
ten twists: each twist permutes its kernels and fixes N.  Every other
word is s_p(s3([x1,y1])) for a product s_p of twists, so it lies in N
exactly when [x1,y1] does, at every depth.  The precondition is the
closure: for a list of maps that is not a whole twist orbit (one class
alone, say) N need not be twist-invariant; only the level scan answers.
"""

from __future__ import annotations

import numpy as np

from .orbit import MOVES, _letter_rows, _precompose, trie_values
from .homs import Epimorphism, NotGenerating, evaluate


# Cap on the kernel classes a kernel-orbit BFS finds (no CLI flag).
CLASS_CAP = 10_000


class KernelClassCapExceeded(RuntimeError):
    """Kernel-orbit BFS found more classes than its cap; orbit unknown."""


# Maps precomposed per block: 1,280 candidates.  At |G| = 243 kernel_keys
# then holds 1.2 MB of uint8 keys [972, 1,280] and 2.5 MB each of intp
# label and order [243, 1,280]: about 6.2 MB of work arrays.
_BLOCK = 256


def kernel_keys(G, images):
    """Kernel keys [K, 4n] of the image rows [K, 4]: entry 4i + j numbers
    g_i * images[j], with G numbered by first appearance from g_0 = 1 on.
    Raises NotGenerating if a row's images do not generate G."""
    images = np.asarray(images, dtype=np.intp).reshape(-1, 4)
    K, n = images.shape[0], G.order
    rows = np.arange(K)
    label = np.full((n, K), -1, dtype=np.intp)  # [element, row] -> number
    label[0] = 0
    order = np.zeros((n, K), dtype=np.intp)     # [number, row] -> element
    count = np.ones(K, dtype=np.intp)
    keys = np.empty((4 * n, K), dtype=np.min_scalar_type(n - 1))
    for i in range(n):
        for j in range(4):
            h = G.table[order[i], images[:, j]]
            num = label[h, rows]
            new = num < 0
            num[new] = count[new]
            label[h, rows] = num
            order[num, rows] = h
            count += new
            keys[4 * i + j] = num
    if (count < n).any():
        raise NotGenerating(int(count.min()), n)
    return keys.T


def kernel_orbit(theta, pres=None, class_cap=CLASS_CAP):
    """BFS of ker(theta) under the moves s1..s5 (``orbit.MOVES``).

    Returns (representatives, keys): one epimorphism per distinct kernel
    in (map, move) discovery order, seed first, and their keys as bytes.
    The classes are closed under the ten twists (see the module
    docstring): every representative precomposed with any of s1..s10 has
    one of the returned keys.  ``pres`` is accepted and unused.
    """
    G = theta.group
    reps = [theta]
    seen = {kernel_keys(G, [theta.images])[0].tobytes(): 0}  # key -> rep index
    done = 0
    while done < len(reps):
        block = reps[done:done + _BLOCK]
        done += len(block)
        # Candidates in (map, move) order: each row once per move.
        cands = _precompose(G, _letter_rows(G, [th.images for th in block]),
                            np.arange(len(block)).repeat(len(MOVES)),
                            np.tile(MOVES, len(block)))
        for images, key in zip(cands.tolist(), kernel_keys(G, cands)):
            key = key.tobytes()
            if key in seen:
                continue
            if len(reps) >= class_cap:
                raise KernelClassCapExceeded(
                    "kernel orbit exceeded class cap %d" % class_cap)
            seen[key] = len(reps)
            reps.append(Epimorphism._unchecked(G, images))
    return reps, list(seen)


class IntersectionReport:
    """Outcome of scanning the orbit set against a kernel intersection.

    avoids        True iff no word of the set lies in every kernel.
    counterexample  first scan-order word inside the intersection (if any).
    survivors     survivors[k] counts the words inside the kernels of
                  classes 0..k, among the words up to the counterexample's
                  scan index (all words when there is none); the list ends
                  at its first 0.  With a counterexample it counts a
                  prefix of the set, the words the scan has read.
    """

    def __init__(self, avoids, counterexample, counterexample_path, survivors):
        self.avoids = avoids
        self.counterexample = counterexample
        self.counterexample_path = counterexample_path
        self.survivors = survivors


def intersection_avoids_c0(reps, s):
    """Does the kernel intersection miss every word of the orbit set?

    Reads ``s.trie_blocks()`` level by level and stops at the first level
    that holds a word in every kernel, on a partial set (which grows only
    that far) and a finished one alike: only a set that the intersection
    avoids is read in full.  Within a level each kernel class in turn
    keeps only the words trivial so far (``trie_values``), until none is
    left.  The values are read off provenance paths, not letters; every
    path of ``s`` replays to its word by construction (see OrbitSet), and
    no call changes a stored path, so the cached tries cannot go stale.  A
    counterexample is re-verified on the scalar path.

    When ``reps`` is a complete ``kernel_orbit``, level 0 decides: the
    intersection is twist-invariant (see the module docstring), so a set
    of depth 0 gives the answer of every depth.
    """
    # died[d]: words counted so far whose first class with a nonzero value
    # is d (len(reps) for a word in every kernel).
    died = np.zeros(len(reps) + 1, dtype=np.int64)
    w = None
    for start, trie in s.trie_blocks():
        first = np.full(len(trie.node), len(reps))
        alive = np.ones(len(trie.node), dtype=bool)
        for k, th in enumerate(reps):
            dies = alive & (trie_values(th.group, th.images, trie) != 0)
            first[dies] = k
            alive ^= dies
            if not alive.any():
                break
        hits = np.flatnonzero(alive)
        end = int(hits[0]) + 1 if len(hits) else len(first)
        died += np.bincount(first[:end], minlength=len(died))
        if len(hits):
            w = s.word_at(start + end - 1)
            break
    survivors = np.cumsum(died[::-1])[-2::-1].tolist()
    if 0 in survivors:
        survivors = survivors[:survivors.index(0) + 1]
    if w is None:
        return IntersectionReport(True, None, None, survivors)
    for th in reps:
        if evaluate(th, w) != 0:
            raise AssertionError("counterexample failed re-verification")
    return IntersectionReport(False, w, s.path(w), survivors)


# Default cap on the elements a fiber closure holds (``--closure-cap``,
# which also caps the quadruple search's visits).  Past it the order is
# reported absent, not raised.
CLOSURE_CAP = 1_000_000

# Coordinate budget for the fiber closure: elements are length-r vectors,
# so at most budget // r of them are held, once in the element array (one
# byte a coordinate while |G| <= 256, so 64 MB) and once as set keys.
_FIBER_INT_BUDGET = 64000000


def fiber_group_order(reps, closure_cap=CLOSURE_CAP):
    """Order of the image of the diagonal map into G^r — the group whose
    free action the kernel intersection defines.  None when the closure
    exceeds ``closure_cap`` elements, or the memory-scaled equivalent for
    wide orbits (order unknown, not infinite).

    Dimino's algorithm (Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991): the images s1..s4 of the generators are added in turn,
    and while s_i lies outside K = <s1..s_{i-1}>, the group <K, s_i> is
    closed by whole right cosets K e, each one gather of the table.  K is
    always the prefix of the element array, and only a candidate coset
    representative is looked up in the set of element bytes."""
    G = reps[0].group
    r = len(reps)
    cap = min(closure_cap, max(1, _FIBER_INT_BUDGET // max(r, 1)))
    dtype = np.min_scalar_type(G.order - 1)
    row = np.dtype((np.void, r * dtype.itemsize))
    table = G.table.astype(dtype)
    gens = np.array([th.images for th in reps], dtype=dtype).T
    elts = np.zeros((max(cap, 1), r), dtype=dtype)
    seen = {elts[0].tobytes()}
    size = 1
    for i, s in enumerate(gens):
        sub = size
        cosets = [s]
        for rep in cosets:
            if rep.tobytes() in seen:
                continue
            if size + sub > cap:
                return None
            coset = table[elts[:sub], rep]
            elts[size:size + sub] = coset
            seen.update(coset.view(row).ravel().tolist())
            size += sub
            cosets.extend(table[rep, gens[:i + 1]])
    return size
