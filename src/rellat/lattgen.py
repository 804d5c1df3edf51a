"""Small-lattice corpora: exhaustive enumeration up to isomorphism and
seeded random lattices built from intersection-closed set families.

The exhaustive enumerator walks partial orders on the m = k-2 elements
strictly between bottom and top, since any isomorphism fixes those two;
candidates that fail to have all meets and joins are dropped by the
lattice validator. The 3^C(m,2) orientations of the point pairs are
numbered in `itertools.product` order (the first pair varies slowest);
an orientation's number is its code. For each orientation the enumerator
holds every point's strict up-set as a bitmask, built pair by pair in
tables of at most 3^10 orientations, and keeps the transitive ones: those
in which every up-set lies inside the up-set of each point below it.

The canonical key of an order is the largest m*m-bit row-major word of its
matrix over all m! relabelings, with pair (a, b) at bit a*m + b counted from
the top. Its set bits, read in index order, are the lexicographically least
sorted pair tuple, and the isomorphism classes are returned sorted by that
tuple (a shorter tuple that is a prefix of a longer one comes first, which
the numeric order of the words does not give). Keys are computed once per
class, by an orbit walk: the kept orders are visited in set iteration order,
and an order whose code no earlier orbit has marked starts a new class. Its
m! relabelings give the class's key and mark the codes of every order in
the class.

Each class is represented by its first member in the iteration order of the
set of kept orders (frozensets of pairs, added in orientation order). That
order fixes which labelled lattice stands for each class, and the census
digests the benchmark checks against pin it, so it must not change.
"""
from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .errors import DEFAULT_CAPS, Caps, EnumerationCapExceeded, NotALattice
from .lattice import FiniteLattice, _closure, build_from_closed_family, \
    build_from_leq, make_closed_family

_BLOCK_PAIRS = 10        # an up-set table holds at most 3^10 orientations


def _up_sets(m: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Column c: each point's strict up-set, as a bitmask, under the c-th
    orientation of pairs (choice 1 puts a below b, choice 2 b below a).
    Pair j is axis j + 1 of the table while it is filled in place."""
    up = np.zeros((m,) + (3,) * len(pairs), dtype=np.min_scalar_type((1 << m) - 1))
    for j, (a, b) in enumerate(pairs):
        up[(a,) + (slice(None),) * j + (1,)] |= 1 << b
        up[(b,) + (slice(None),) * j + (2,)] |= 1 << a
    return up.reshape(m, 3 ** len(pairs))


def _transitive(up: np.ndarray) -> np.ndarray:
    """Flags the columns of an up-set table in which every point's up-set
    lies inside the up-set of each point below it."""
    bad = np.zeros(up.shape[1], dtype=up.dtype)
    for x, y in itertools.permutations(range(len(up)), 2):
        # y's up-set outside x's, where y lies above x
        bad |= (up[y] & ~up[x]) * ((up[x] >> y) & 1)
    return bad == 0


def _transitive_codes(m: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The codes of the transitive orientations of pairs, ascending. Each
    orientation of the pairs before the last ten ORs its up-sets into one
    table of the last ten's."""
    split = len(pairs) - min(len(pairs), _BLOCK_PAIRS)
    tail = _up_sets(m, pairs[split:])
    return np.concatenate([
        np.flatnonzero(_transitive(tail | col[:, None])) + i * tail.shape[1]
        for i, col in enumerate(_up_sets(m, pairs[:split]).T)])


def _pair_sets(sides: list[tuple]) -> list[frozenset]:
    """Entry c: the strict pairs of the c-th orientation of the given pairs,
    each side a pair (a, b) and its reverse."""
    out = [frozenset()]
    for up, down in sides:
        options = (frozenset(), frozenset([up]), frozenset([down]))
        out = [s | o for s in out for o in options]
    return out


def _coded_posets(m: int, caps: Caps = DEFAULT_CAPS
                  ) -> tuple[set[frozenset], dict[frozenset, int]]:
    """All partial orders on m labeled points as frozensets of strict pairs:
    a set of them added in orientation order, and each one's code.

    Raises EnumerationCapExceeded before filling when the 3^C(m,2)
    orientations exceed caps.max_enum."""
    pairs = list(itertools.combinations(range(m), 2))
    total = 3 ** len(pairs)
    if total > caps.max_enum:
        raise EnumerationCapExceeded(total, caps.max_enum)
    kept = _transitive_codes(m, pairs)
    # each order is the union of the sets of its first and last pairs; each
    # pair tuple is made once and shared by every order that holds it
    sides = [(p, p[::-1]) for p in pairs]
    half = len(pairs) // 2
    width = 3 ** (len(pairs) - half)
    head, rest = _pair_sets(sides[:half]), _pair_sets(sides[half:])
    seen, code = set(), {}
    for c in kept.tolist():
        rel = head[c // width] | rest[c % width]
        seen.add(rel)
        code[rel] = c
    return seen, code


@functools.cache
def _relabelings(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m! relabelings of m points as rows, and what each ordered pair
    (a, b) adds to an orientation's code and to its row-major word."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    a, b = np.triu_indices(m, 1)
    place = 3 ** np.arange(len(a) - 1, -1, -1, dtype=np.int64)
    code = np.zeros((m, m), dtype=np.int64)
    code[a, b] = place
    code[b, a] = 2 * place
    bit = 1 << np.arange(m * m - 1, -1, -1, dtype=np.int64)
    return perms, code, bit.reshape(m, m)


def _orbit(m: int, rel: frozenset) -> tuple[np.ndarray, int]:
    """The codes of the m! relabelings of the strict order rel (repeats
    included), and its canonical key: the largest row-major word among
    them, with pair (a, b) at bit a*m + b counted from the top."""
    perms, code, bit = _relabelings(m)
    ab = np.array(list(rel), dtype=np.intp).reshape(-1, 2)
    pa, pb = perms[:, ab[:, 0]], perms[:, ab[:, 1]]
    return code[pa, pb].sum(axis=1), int(bit[pa, pb].sum(axis=1).max())


def _classes(m: int, caps: Caps = DEFAULT_CAPS) -> dict[int, frozenset]:
    """Each isomorphism class of orders on m points, from its canonical key
    to its first member in set iteration order."""
    seen, code = _coded_posets(m, caps)
    marked = np.zeros(3 ** (m * (m - 1) // 2), dtype=bool)
    first = {}
    for rel in seen:
        if not marked[code[rel]]:
            codes, word = _orbit(m, rel)
            marked[codes] = True
            first[word] = rel
    return first


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
    # the first member in set order; the census references pin this choice
    first = _classes(m, caps)
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
