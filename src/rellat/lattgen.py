"""Small-lattice corpora: exhaustive enumeration up to isomorphism and
seeded random lattices built from intersection-closed set families.

The exhaustive enumerator walks partial orders on the m = k-2 elements
strictly between bottom and top, since any isomorphism fixes those two;
candidates that fail to have all meets and joins are dropped by the
lattice validator. A strict order is an m-by-m boolean matrix. The
3^C(m,2) orientations of the point pairs are filled as a stack of such
matrices, a bounded block at a time in `itertools.product` order, and the
transitive ones (no pair in r∘r outside r) are kept.

The canonical key of an order is the largest m*m-bit row-major word of its
matrix over all m! relabelings, with pair (a, b) at bit a*m + b counted from
the top. Its set bits, read in index order, are the lexicographically least
sorted pair tuple, and the isomorphism classes are returned sorted by that
tuple (a shorter tuple that is a prefix of a longer one comes first, which
the numeric order of the words does not give).

Each class is represented by its first member in the iteration order of the
set of kept orders (frozensets of pairs, added in orientation order). That
order fixes which labelled lattice stands for each class, and the census
digests the benchmark checks against pin it, so it must not change.
"""
from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from .errors import DEFAULT_CAPS, Caps, EnumerationCapExceeded, NotALattice
from .lattice import FiniteLattice, _closure, build_from_closed_family, \
    build_from_leq, make_closed_family


def _inner_posets(m: int, caps: Caps = DEFAULT_CAPS) -> set[frozenset]:
    """All partial orders on m labeled points, as a set of frozensets of
    strict pairs added in orientation order.

    Fills the 3^C(m,2) orientations of the point pairs as strict-order
    matrices, 4096 at a time; raises EnumerationCapExceeded before filling
    when their count exceeds caps.max_enum."""
    a, b = np.triu_indices(m, 1)
    total = 3 ** len(a)
    if total > caps.max_enum:
        raise EnumerationCapExceeded(total, caps.max_enum)
    place = 3 ** np.arange(len(a) - 1, -1, -1)   # the first pair varies slowest
    # choice 1 orients a pair upward, 2 downward; each pair tuple is made
    # once and shared by every order that holds it, which keeps the set small
    sides = ((), tuple(zip(a.tolist(), b.tolist())),
             tuple(zip(b.tolist(), a.tolist())))
    seen = set()
    for lo in range(0, total, 4096):
        choice = np.arange(lo, min(lo + 4096, total))[:, None] // place % 3
        r = np.zeros((len(choice), m, m), dtype=bool)
        r[:, a, b] = choice == 1
        r[:, b, a] = choice == 2
        for row in choice[~((r @ r) & ~r).any(axis=(1, 2))].tolist():
            seen.add(frozenset(sides[c][j] for j, c in enumerate(row) if c))
    return seen


def _canon_words(m: int, rels: Sequence[frozenset]) -> np.ndarray:
    """Entry i: the canonical key of the strict order rels[i] on m points, the
    largest row-major word of its matrix over all relabelings, with pair
    (a, b) at bit a*m + b counted from the top."""
    flat = np.zeros((len(rels), m * m), dtype=np.int64)
    for i, rel in enumerate(rels):
        flat[i, [a * m + b for a, b in rel]] = 1
    bit = 1 << np.arange(m * m - 1, -1, -1, dtype=np.int64)
    words = np.zeros(len(rels), dtype=np.int64)
    weight = np.empty_like(bit)
    for perm in itertools.permutations(range(m)):
        p = np.array(perm, dtype=np.intp)
        # pair (p[a], p[b]) weighs what (a, b) does in the relabeled word
        weight[(p[:, None] * m + p).ravel()] = bit
        np.maximum(words, flat @ weight, out=words)
    return words


def _word_indices(m: int, word: int) -> list[int]:
    """The set bits of a canonical word in index order: the indices a*m + b
    of its order's least sorted pair tuple, by which the classes sort."""
    return [j for j in range(m * m) if word >> (m * m - 1 - j) & 1]


def _leq_from_inner(k: int, rel: frozenset) -> np.ndarray:
    """Bounded order on k elements: 0 is bottom, k-1 is top, inner elements
    are 1..k-2 carrying the given strict order."""
    leq = np.eye(k, dtype=bool)
    leq[0, :] = True
    leq[:, k - 1] = True
    for a, b in rel:
        leq[a + 1, b + 1] = True
    return leq


def lattices_of_order(k: int, caps: Caps = DEFAULT_CAPS) -> list[FiniteLattice]:
    """All lattices with exactly k elements, one per isomorphism class.

    Raises EnumerationCapExceeded for k >= 8 under the default caps."""
    if k < 1:
        return []
    if k == 1:
        return [build_from_leq(1, np.eye(1, dtype=bool), caps=caps)]
    m = k - 2
    rels = list(_inner_posets(m, caps))
    first = {}
    for word, rel in zip(_canon_words(m, rels).tolist(), rels):
        # the first member in set order; the census references pin this choice
        first.setdefault(word, rel)
    out = []
    for word in sorted(first, key=lambda w: _word_indices(m, w)):
        try:
            out.append(build_from_leq(k, _leq_from_inner(k, first[word]),
                                      caps=caps))
        except NotALattice:
            continue
    return out


def all_lattices_upto(n: int, caps: Caps = DEFAULT_CAPS) -> list[FiniteLattice]:
    """Every lattice with at most n elements, up to isomorphism."""
    out = []
    for k in range(1, n + 1):
        out.extend(lattices_of_order(k, caps=caps))
    return out


def random_lattice(seed: int, max_size: int = 12,
                   caps: Caps = DEFAULT_CAPS) -> FiniteLattice:
    """A seeded lattice of at most max_size elements: close a few random
    subsets of a small universe under intersection. The closure's values,
    each the intersection of the drawn sets above a subset, are exactly
    the intersections of drawn sets, the universe included."""
    rng = random.Random(seed)
    while True:
        bits = rng.randint(3, 6)
        universe = (1 << bits) - 1
        count = rng.randint(2, 6)
        drawn = np.zeros(1 << bits, dtype=bool)
        drawn[universe] = True
        for _ in range(count):
            drawn[rng.randint(0, universe)] = True
        masks = np.zeros(1 << bits, dtype=bool)
        masks[_closure(bits, drawn)] = True
        size = int(masks.sum())
        if 2 <= size <= max_size:
            fam = make_closed_family([f"u{i}" for i in range(bits)],
                                     np.flatnonzero(masks).tolist())
            return build_from_closed_family(fam, caps=caps)
