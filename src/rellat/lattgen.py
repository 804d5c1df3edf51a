"""Small-lattice corpora: exhaustive enumeration up to isomorphism and
seeded random lattices built from intersection-closed set families.

The exhaustive enumerator walks partial orders on the elements strictly
between bottom and top, since any isomorphism fixes those two; candidates
that fail to have all meets and joins are dropped by the lattice validator.
"""
from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from .errors import DEFAULT_CAPS, Caps, EnumerationCapExceeded, NotALattice
from .lattice import FiniteLattice, build_from_closed_family, build_from_leq, \
    make_closed_family


def _inner_posets(m: int, caps: Caps = DEFAULT_CAPS):
    """All partial orders on m labeled points, as frozensets of strict pairs.

    Walks all 3^C(m,2) orientations of the point pairs; raises
    EnumerationCapExceeded before walking when that exceeds caps.max_enum."""
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    if 3 ** len(pairs) > caps.max_enum:
        raise EnumerationCapExceeded(3 ** len(pairs), caps.max_enum)
    seen = set()
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                rel.add((a, b))
            elif c == 2:
                rel.add((b, a))
        ok = True
        for a, b in rel:
            for c in range(m):
                if (b, c) in rel and (a, c) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            seen.add(frozenset(rel))
    return seen


def _canon_keys(m: int, rels: Sequence[frozenset]) -> np.ndarray:
    """Row i: the canonical key of the strict order rels[i] on m points, the
    lexicographically least sorted pair tuple over all relabelings.

    A pair (a, b) is the index a*m + b, so sorted pair tuples compare as
    sorted index vectors. Rows are padded at the end with m*m, and every
    relabeling of one order pads alike. Each relabeling is applied to all
    orders at once; decode a row with `_key_pairs`."""
    pad = m * m
    width = 1 + max((len(rel) for rel in rels), default=0)   # >= one pad
    pairs = np.full((len(rels), width), pad, dtype=np.int16)
    for i, rel in enumerate(rels):
        pairs[i, :len(rel)] = [a * m + b for a, b in rel]
    relabels = []
    for perm in itertools.permutations(range(m)):
        p = np.array(perm, dtype=np.int16)
        relabels.append(np.append((p[:, None] * m + p).ravel(), pad))
    best = np.full_like(pairs, pad)
    for r0 in range(0, len(rels), 512):   # 512 orders at a time bound memory
        block, least = pairs[r0:r0 + 512], best[r0:r0 + 512]
        rows = np.arange(len(block))
        for relabel in relabels:
            img = np.sort(relabel[block], axis=1)
            differ = img != least
            first = differ.argmax(axis=1)
            less = differ.any(axis=1) & (img[rows, first] < least[rows, first])
            least[less] = img[less]
    return best


def _key_pairs(m: int, row: np.ndarray) -> tuple:
    """A row of `_canon_keys` as its sorted tuple of pairs."""
    return tuple(divmod(d, m) for d in row.tolist() if d != m * m)


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
    for row, rel in zip(_canon_keys(m, rels), rels):
        first.setdefault(row.tobytes(), (row, rel))
    reps = {_key_pairs(m, row): rel for row, rel in first.values()}
    out = []
    for key in sorted(reps):
        rel = reps[key]
        try:
            out.append(build_from_leq(k, _leq_from_inner(k, rel), caps=caps))
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
    subsets of a small universe under intersection."""
    rng = random.Random(seed)
    while True:
        bits = rng.randint(3, 6)
        universe = (1 << bits) - 1
        count = rng.randint(2, 6)
        masks = {universe}
        for _ in range(count):
            masks.add(rng.randint(0, universe))
        work = list(masks)
        while work:
            a = work.pop()
            for b in list(masks):
                c = a & b
                if c not in masks:
                    masks.add(c)
                    work.append(c)
        if 2 <= len(masks) <= max_size:
            fam = make_closed_family([f"u{i}" for i in range(bits)],
                                     sorted(masks))
            return build_from_closed_family(fam, caps=caps)
