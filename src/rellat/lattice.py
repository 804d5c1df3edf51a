"""Finite lattices: integer-indexed orders with eager meet/join tables.

Elements are dense indices 0..n-1; the order is an n-by-n boolean matrix;
meet/join are n-by-n int32 element tables computed (and validated) at build
time. The covering relation that construction finds is kept as two index
arrays, lo[k] < hi[k]; lower covers, atoms and join-irreducibles (elements
with exactly one lower cover) are read off it.

Construction (`build_from_leq`) works on whole matrices:

1. Reflexivity and antisymmetry are read off the diagonal and leq & leq.T.
2. One float32 product d @ d of the 0/1 order counts, for each c and a, the
   elements x with c <= x <= a. A positive count where c <= a fails breaks
   transitivity; a count of two where c <= a holds is a cover.
3. Meets, with joins as meets of the transposed order: the candidate meet
   of a and b is their common lower bound latest in a linear extension
   (elements sorted by height). Over the covers it is b when b <= a, else
   the latest of the candidates of a with the lower covers of b, filled
   one height at a time, upwards, as elementwise maxima over all a. A
   product counts the common lower bounds, and the candidate is the meet
   iff that count equals the size of its down-set. A finite poset with a
   top in which every pair has a meet is a lattice, and then each join
   candidate is the join; so the join counts are computed only when some
   meet fails or there is no top.
4. Failures are reported with the same witnesses as a per-pair check: the
   least non-reflexive i, the first i != j in row-major order with i <= j
   and j <= i, the transitivity witness (c, b, a) with least a, then least b, then
   least c, and else the first (a, b) with a < b in row-major order that has
   no meet, or else no join. When the joins were not counted, no join
   fails, so the witness is the same.

A sublattice (`sublattice_closure`) is not rebuilt: its meet and join are
its parent's tables restricted to it, and only its covers are computed.

Memory: besides leq and the two int32 tables, a build holds one n-by-n
float32 copy of the order at a time. Every other n-by-n computation, and the
order matrices of the closed-family, relational and semidirect builds, runs
in blocks of rows of at most about _BLOCK (2^20) entries, so temporaries
stay within a few times 8 MB whatever n is. Float32 counts are exact for n
below 2^24, far beyond any size whose tables fit in memory.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import stats
from .errors import (
    DEFAULT_CAPS,
    BadDocument,
    Caps,
    NotALattice,
    NotAPartialOrder,
    NotIntersectionClosed,
    SearchBudgetExceeded,
    SizeCapExceeded,
    document_field,
    document_list,
)


class FiniteLattice:
    """Immutable finite lattice; use build_from_leq / build_from_closed_family."""

    __slots__ = ("n", "leq", "meet", "join", "bottom", "top", "labels",
                 "lo", "hi", "_cache")

    def __init__(self, n, leq, meet, join, bottom, top, labels, lo, hi):
        self.n = n
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.labels = labels
        self.lo = lo          # the covers lo[k] < hi[k], lo ascending,
        self.hi = hi          # then hi ascending
        self._cache = {}
        for table in (leq, meet, join, lo, hi):
            table.setflags(write=False)

    # -- element-level helpers -------------------------------------------

    def join_all(self, xs: Iterable[int]) -> int:
        acc = self.bottom
        for x in xs:
            acc = int(self.join[acc, x])
        return acc

    def meet_all(self, xs: Iterable[int]) -> int:
        acc = self.top
        for x in xs:
            acc = int(self.meet[acc, x])
        return acc

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    # -- structure queries (read off the covers; primes are cached) ------

    def lower_covers(self, j: int) -> tuple[int, ...]:
        """Elements i < j with nothing strictly between, ascending."""
        return tuple(self.lo[self.hi == j].tolist())

    def atoms(self) -> tuple[int, ...]:
        """The upper covers of bottom, ascending."""
        return tuple(self.hi[self.lo == self.bottom].tolist())

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover (equivalently, j != bottom
        and j is not the join of its strict down-set), ascending."""
        return tuple(np.flatnonzero(
            np.bincount(self.hi, minlength=self.n) == 1).tolist())

    def join_primes(self) -> tuple[int, ...]:
        """Join-irreducibles j with j <= a v b implying j <= a or j <= b.

        By the ideal test: j is join-prime iff j is not below the join of
        {x : j not <= x}. That set is a down-set; if j is below its join,
        a join of elements none above j reaches j, and if not, every join
        reaching j has a member outside the set, that is, above j.
        """
        if "jp" not in self._cache:
            self._cache["jp"] = tuple(
                j for j in self.join_irreducibles()
                if not self.leq[j, self.join_all(np.flatnonzero(~self.leq[j]))])
        return self._cache["jp"]

    def is_atomistic(self) -> bool:
        atom_set = set(self.atoms())
        return all(j in atom_set for j in self.join_irreducibles())


def structure_query(L: FiniteLattice) -> dict:
    """Join-irreducibles, join-primes, atoms, and the atomistic flag."""
    return {
        "join_irreducibles": L.join_irreducibles(),
        "join_primes": L.join_primes(),
        "atoms": L.atoms(),
        "is_atomistic": L.is_atomistic(),
    }


# -- construction ---------------------------------------------------------

# Every n-by-n computation below runs in blocks of rows, so that no
# temporary holds more than about this many entries.
_BLOCK = 1 << 20


def _row_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """(start, stop) ranges covering n rows of `width` entries, at most
    _BLOCK entries (but at least one row) per block."""
    step = max(1, _BLOCK // max(1, width))
    return [(r, min(n, r + step)) for r in range(0, n, step)]


def _subset_table(m: int, seed, step: Callable) -> np.ndarray:
    """t[mask] for every subset mask of m items: t[0] = seed and
    t[mask] = step(i, t[mask - 2^i]) with i the highest bit of mask. A seed
    array makes each t[mask] an array of its shape.

    Filled by doubling: step(i, t[:2^i]) gives t[2^i : 2^(i+1)] in one numpy
    call, so there is no Python loop over masks. The duality uses it for
    joins and antichain flags over subsets of J(L) and for down-closures
    over a graph's elements; the relational and frame actions use it to
    extend an action from single points to every point set.
    """
    stats.add("subset_entries", 1 << m)
    t = np.empty((1 << m, *np.shape(seed)), dtype=np.int64)
    t[0] = seed
    for i in range(m):
        t[1 << i:2 << i] = step(i, t[:1 << i])
    return t


def _containment(masks: Sequence[int]) -> np.ndarray:
    """leq[i, j] = masks[i] is a subset of masks[j], for non-negative plain-int
    bitmasks of any width (compared as 64-bit words)."""
    n = len(masks)
    words = max(1, -(-max(m.bit_length() for m in masks) // 64))
    w = np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in masks),
                      dtype="<u8").reshape(n, words)
    leq = np.empty((n, n), dtype=bool)
    for r0, r1 in _row_blocks(n, n * words):
        leq[r0:r1] = ~(w[r0:r1, None, :] & ~w[None, :, :]).any(axis=2)
    return leq


def _as_bool_matrix(n: int, leq) -> np.ndarray:
    arr = np.asarray(leq, dtype=bool)
    if arr.shape != (n, n):
        raise ValueError(f"leq must be {n}x{n}, got {arr.shape}")
    return arr


def build_from_leq(
    n: int,
    leq,
    labels: Sequence[str] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> FiniteLattice:
    """Validate a partial order and compute meet/join tables, bottom, top.

    Raises NotAPartialOrder / NotALattice with witnesses, SizeCapExceeded.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n > caps.max_lattice:
        raise SizeCapExceeded(n, caps.max_lattice)
    arr = _as_bool_matrix(n, leq)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels length mismatch")

    diagonal = arr.diagonal()
    if not diagonal.all():
        raise NotAPartialOrder("not reflexive", (int(np.argmin(diagonal)),))
    both = arr & arr.T
    np.fill_diagonal(both, False)
    if both.any():
        i, j = map(int, np.argwhere(both)[0])
        raise NotAPartialOrder("not antisymmetric", (i, j))

    lo, hi = _cover_edges(arr)
    meet, meet_fails = _meet_table(arr, lo, hi)
    tops = arr.all(axis=0)
    # a finite poset with a top in which every pair has a meet is a lattice,
    # and then the join candidates are the joins; count them only otherwise
    is_lattice = tops.any() and not (meet_fails < n).any()
    join, join_fails = _meet_table(arr.T, hi, lo, count=not is_lattice)
    fails = np.minimum(meet_fails, join_fails)
    if (fails < n).any():
        a = int(np.argmax(fails < n))
        b = int(fails[a])
        raise NotALattice("meet" if meet_fails[a] == b else "join", (a, b))
    return FiniteLattice(n, arr, meet, join, int(np.argmax(arr.all(axis=1))),
                         int(np.argmax(tops)), labels, lo, hi)


def _cover_edges(le: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covers lo[k] < hi[k] of a reflexive antisymmetric relation, with
    lo ascending; raises NotAPartialOrder if it is not transitive.

    (d @ d)[c, a] counts the x with c <= x <= a. A positive count where
    c <= a fails breaks transitivity; a count of exactly two (c and a) where
    c <= a holds is a cover.
    """
    n = len(le)
    d = le.astype(np.float32)
    broken = np.zeros(n, dtype=bool)   # a with some c <= b <= a, not c <= a
    lo, hi = [], []
    for r0, r1 in _row_blocks(n, n):
        between = d[r0:r1] @ d
        broken |= ((between > 0) & ~le[r0:r1]).any(axis=0)
        c, a = np.nonzero((between == 2) & le[r0:r1])
        lo.append(c + r0)
        hi.append(a)
    if broken.any():
        # the witness (c, b, a): least a, then least b <= a, then least c <= b
        # outside the down-set of a
        a = int(np.argmax(broken))
        outside = ~le[:, a]
        b = int(np.argmax(le[:, a] & (outside.astype(np.float32) @ d > 0)))
        c = int(np.argmax(le[:, b] & outside))
        raise NotAPartialOrder("not transitive", (c, b, a))
    return np.concatenate(lo), np.concatenate(hi)


def _meet_table(le: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                count: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The meet table of a partial order with covers lo[k] < hi[k], and for
    each a the least b > a without a meet (n if every such b has one, or
    if `count` is false: the caller knows every meet exists).

    The table's entries are meets only where they exist. Sorting by height
    (the longest chain below) is a linear extension. The candidate meet of
    (a, b) is the common lower bound latest in it: b itself when b <= a,
    else the latest of the candidates of a with the lower covers of b, since
    every common lower bound lies below one of those covers. The candidates
    are filled one height at a time, upwards, each a few elementwise maxima
    over all a at once. A candidate is the meet iff the common lower bounds
    are exactly as many as the elements of its down-set, and one product
    counts them. Called on the transposed order with the covers reversed,
    this computes joins.
    """
    n = len(le)
    size = le.sum(axis=0)                        # down-set sizes
    covers = [[] for _ in range(n)]              # lower covers per element
    for c, b in zip(lo.tolist(), hi.tolist()):
        covers[b].append(c)
    # heights, visiting elements by down-set size, so covers come first
    height = [0] * n
    for b in np.argsort(size, kind="stable").tolist():
        if covers[b]:
            height[b] = 1 + max(height[c] for c in covers[b])
    order = np.argsort(height, kind="stable")    # rank -> element
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    # down-set size per rank; rank -1 (no common lower bound) has size -1
    rank_size = np.append(size[order], -1).astype(np.float32)
    by_height = [[] for _ in range(max(height) + 1)]
    for b in order.tolist():
        by_height[height[b]].append(b)
    minimal = np.array(by_height[0])
    # per height above 0: its elements, most covers first, and slots[k], the
    # k-th lower covers of those that have one (a prefix, by that order)
    levels = []
    for upper in by_height[1:]:
        upper.sort(key=lambda b: -len(covers[b]))
        slots = [np.array([covers[b][k] for b in upper if len(covers[b]) > k])
                 for k in range(len(covers[upper[0]]))]
        levels.append((np.array(upper), slots))
    # x[a] = down-set of a
    x = np.ascontiguousarray(le.T, dtype=np.float32) if count else None

    table = np.empty((n, n), dtype=np.int32)
    fails = np.full(n, n, dtype=np.intp)
    for r0, r1 in _row_blocks(n, n):
        # cand[b, a - r0]: rank of the candidate meet of a and b
        below = le[:, r0:r1]
        cand = np.empty((n, r1 - r0), dtype=np.int32)
        cand[minimal] = np.where(below[minimal], rank[minimal, None], -1)
        for upper, slots in levels:
            best = cand[slots[0]]
            for lower in slots[1:]:
                k = len(lower)
                np.maximum(best[:k], cand[lower], out=best[:k])
            cand[upper] = np.where(below[upper], rank[upper, None], best)
        table[:, r0:r1] = order[cand]
        if count:
            # meets are symmetric, so only the pairs b > a are checked
            common = x[r0:] @ x[r0:r1].T
            bad = ((common != rank_size[cand[r0:]])
                   & (np.arange(n - r0)[:, None] > np.arange(r1 - r0)))
            fails[r0:r1] = np.where(bad.any(axis=0), bad.argmax(axis=0) + r0, n)
    return table, fails


@dataclass(frozen=True)
class ClosedFamily:
    """A family of subsets of a labeled universe, as bitmasks."""

    universe: tuple[str, ...]
    members: tuple[int, ...]


def make_closed_family(universe: Sequence[str], member_masks: Iterable[int]) -> ClosedFamily:
    """Normalize: dedupe and sort members by (size, mask)."""
    members = sorted(set(int(m) for m in member_masks),
                     key=lambda m: (bin(m).count("1"), m))
    return ClosedFamily(tuple(universe), tuple(members))


def set_label(names: Sequence[str], mask: int) -> str:
    return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"


def build_from_closed_family(
    fam: ClosedFamily, caps: Caps = DEFAULT_CAPS
) -> FiniteLattice:
    """Lattice of an intersection-closed family ordered by inclusion.

    Meet is intersection; join is the least member containing the union.
    Raises NotIntersectionClosed with a witness pair of members.
    """
    members = fam.members
    n = len(members)
    if n < 1:
        raise ValueError("family must be nonempty")
    if n > caps.max_lattice:
        raise SizeCapExceeded(n, caps.max_lattice)
    mset = set(members)
    universe_mask = (1 << len(fam.universe)) - 1
    if universe_mask not in mset:
        raise NotIntersectionClosed((universe_mask, universe_mask))
    for a, b in itertools.combinations(members, 2):
        if a & b not in mset:
            raise NotIntersectionClosed((a, b))
    labels = [set_label(fam.universe, m) for m in members]
    return build_from_leq(n, _containment(members), labels=labels, caps=caps)


# -- sublattices -----------------------------------------------------------

def sublattice_closure(
    L: FiniteLattice, seed: Iterable[int], caps: Caps = DEFAULT_CAPS
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """Smallest meet/join-closed subset containing seed, as a lattice.

    Returns (sublattice, inclusion) where inclusion[i] is the element of L
    that position i of the sublattice stands for. The seed gains the meets
    and joins of all its pairs until it stops growing; it keeps its own
    elements, as a ^ a = a. A sublattice's meet and join are L's tables
    restricted to it, so they are re-indexed, not recomputed; only the
    covers are computed, from the restricted order. Raises ValueError for an
    empty seed or an element outside 0..n-1, and SizeCapExceeded for a
    closure past caps.max_lattice.
    """
    elems = sorted({int(x) for x in seed})
    if not elems:
        raise ValueError("seed must be nonempty")
    if elems[0] < 0 or elems[-1] >= L.n:
        raise ValueError(f"seed elements must be in 0..{L.n - 1}, got {elems}")
    idx = np.array(elems)
    ix = np.ix_(idx, idx)
    while (grown := np.union1d(L.meet[ix], L.join[ix])).size > idx.size:
        idx = grown
        ix = np.ix_(idx, idx)
    if len(idx) > caps.max_lattice:
        raise SizeCapExceeded(len(idx), caps.max_lattice)
    pos = np.empty(L.n, dtype=L.meet.dtype)     # element of L -> position
    pos[idx] = np.arange(len(idx))
    leq = L.leq[ix]
    inclusion = tuple(idx.tolist())
    return FiniteLattice(
        len(idx), leq, pos[L.meet[ix]], pos[L.join[ix]],
        int(np.argmax(leq.all(axis=1))), int(np.argmax(leq.all(axis=0))),
        tuple(map(L.label, inclusion)), *_cover_edges(leq)), inclusion


# -- isomorphism and embedding search ------------------------------------------

def find_isomorphism(
    L1: FiniteLattice, L2: FiniteLattice, caps: Caps = DEFAULT_CAPS
) -> list[int] | None:
    """A meet/join-preserving bijection L1 -> L2, or None.

    An isomorphism maps bottom to bottom and J(L1) onto J(L2), so only those
    images are searched. Returns the least isomorphism in `_search` order,
    which is the identity for L against itself. Raises SearchBudgetExceeded
    (inconclusive) if the node cap is hit.
    """
    ji2 = L2.join_irreducibles()
    if L1.n != L2.n or len(L1.join_irreducibles()) != len(ji2):
        return None
    return _search(L1, L2, [[L2.bottom]] + [ji2] * len(ji2), caps)[0]


def find_embedding(
    L1: FiniteLattice, L2: FiniteLattice, caps: Caps = DEFAULT_CAPS
) -> list[int] | None:
    """An injective meet/join-preserving map L1 -> L2, or None.

    Returns the least embedding in `_search` order. Raises
    SearchBudgetExceeded (inconclusive) if the node cap is hit.
    """
    if L1.n > L2.n:
        return None
    gens = 1 + len(L1.join_irreducibles())
    return _search(L1, L2, [range(L2.n)] * gens, caps)[0]


def orbit_minima(L: FiniteLattice) -> np.ndarray:
    """The elements of L that are least in their orbit under the
    automorphisms found, ascending; computed once per lattice.

    For each join-irreducible j, ascending, and each later one j2 with the
    same down-set and up-set sizes that no map found so far has joined to
    j, `_search` looks for an automorphism sending j to j2 (the least one).
    The orbits are the components of x ~ phi(x) over the maps found, which
    pass `_search`'s full meet/join check and so are automorphisms; the
    orbits of the group they generate (as in McKay, "Practical graph
    isomorphism", 1981). All these searches share one budget of
    n + |J|^2 nodes: at most |J| - 1 maps join two orbits, each taking
    |J| + 1 nodes when nothing backtracks, and n nodes are left for
    backtracking and failed searches. When the budget runs out the orbits
    found so far are kept. Every element that is not returned is moved
    below itself by some automorphism.
    """
    if "orbits" not in L._cache:
        ji = L.join_irreducibles()
        down, up = L.leq.sum(0), L.leq.sum(1)
        least = list(range(L.n))            # union-find, rooted at minima

        def root(x: int) -> int:
            while least[x] != x:
                least[x] = x = least[least[x]]
            return x

        pools = [[L.bottom]] + [ji] * len(ji)
        budget = L.n + len(ji) ** 2
        try:
            for a, j in enumerate(ji, 1):
                for j2 in ji[a:]:
                    if (down[j2] != down[j] or up[j2] != up[j]
                            or root(j2) == root(j)):
                        continue
                    phi, nodes = _search(
                        L, L, [*pools[:a], [j2], *pools[a + 1:]],
                        Caps(search_nodes=budget))
                    budget -= nodes
                    for x, y in enumerate(phi or ()):
                        x, y = sorted((root(x), root(y)))
                        least[y] = x
        except SearchBudgetExceeded:
            pass
        minima = np.array([x for x in range(L.n) if root(x) == x],
                          dtype=np.intp)
        minima.setflags(write=False)            # shared by every caller
        L._cache["orbits"] = minima
    return L._cache["orbits"]


def _search(
    L1: FiniteLattice,
    L2: FiniteLattice,
    pools: Sequence[Sequence[int]],
    caps: Caps,
) -> tuple[list[int] | None, int]:
    """(phi, nodes): the least embedding L1 -> L2 that sends the generators,
    bottom and then J(L1) ascending, into their ascending `pools`, or None;
    and the search nodes it took.

    By the duality a map is fixed by its values on the generators: x goes
    to the join of the images of the generators below it. Generators take
    images in that order, each trying its candidates in ascending order, so
    the first map found is least by (image of bottom, images of J(L1) in
    index order). Before the search starts, each level's pool keeps only
    the images y with |down-set of y| >= |down-set of g| and |up-set of y|
    >= |up-set of g|, since an embedding maps both sets of g injectively
    into those of its image. Each level then keeps the candidates y for its
    generator a that compare with every assigned image as their generators
    compare; whose joins and meets with each assigned image phi(b) have
    down-sets and up-sets at least as large as those of a v b and a ^ b
    (the same count argument, as phi(a v b) = y v phi(b)); and that keep
    join-dominance c <= a v b among irreducibles. All these filters are
    necessary, and the order test alone rules out reusing an image. A
    complete assignment is extended and verified against the full meet and
    join tables. One search node is one image given to one generator,
    counted after the filters. The stack is explicit, so depth costs no
    recursion.
    """
    gens = np.array([L1.bottom, *L1.join_irreducibles()], dtype=np.intp)
    # down-set and up-set sizes: column and row sums of the order matrix
    down1, up1 = L1.leq.sum(0), L1.leq.sum(1)
    down2, up2 = L2.leq.sum(0), L2.leq.sum(1)
    pools = [np.asarray(p, dtype=np.intp) for p in pools]
    pools = [p[(down2[p] >= down1[g]) & (up2[p] >= up1[g])]
             for p, g in zip(pools, gens)]
    le1 = L1.leq[np.ix_(gens, gens)]
    incomparable = ~(le1 | le1.T)
    # per pair of generators, the down-set and up-set sizes of a v b and
    # a ^ b, with the table that gives the images' join and meet
    ix = np.ix_(gens, gens)
    pair = [(down1[t1[ix]], up1[t1[ix]], t2)
            for t1, t2 in ((L1.join, L2.join), (L1.meet, L2.meet))]
    # incomparable level pairs (p, q), p < q, sorted by q: the pairs whose
    # levels are all assigned before level i form a prefix
    qs, ps = np.nonzero(np.tril(incomparable, -1))
    # L2's order rows as bitsets: a level tests every candidate against
    # every assigned image in one pass over n/8 bytes per candidate
    below2 = np.packbits(L2.leq.T, axis=1)
    above2 = np.packbits(L2.leq, axis=1)
    img = np.zeros(len(gens), dtype=np.intp)

    def bits(ys: np.ndarray) -> np.ndarray:
        v = np.zeros(L2.n, dtype=bool)
        v[ys] = True
        return np.packbits(v)

    def candidates(i: int) -> np.ndarray:
        g, Y, pool = gens[i], img[:i], pools[i]
        seen = bits(Y)
        ok = (((below2[pool] & seen) == bits(Y[le1[:i, i]])).all(1)
              & ((above2[pool] & seen) == bits(Y[le1[i, :i]])).all(1))
        pool = pool[ok]
        for down, up, table in pair:
            z = table[np.ix_(pool, Y)]
            pool = pool[((down2[z] >= down[i, :i]) & (up2[z] >= up[i, :i])).all(1)]
        # c <= a v b with the new generator as c, a and b assigned; when a
        # and b compare, a v b is one of them and the order test decides
        k = int(np.searchsorted(qs, i))
        if k and pool.size:
            a, b = ps[:k], qs[:k]
            want = L1.leq[g, L1.join[gens[a], gens[b]]]
            pool = pool[(L2.leq[np.ix_(pool, L2.join[Y[a], Y[b]])] == want).all(1)]
        # ... and with the new generator as a, b assigned, c assigned
        b = np.flatnonzero(incomparable[i, :i])
        if b.size and pool.size:
            want = L1.leq[np.ix_(gens[:i], L1.join[g, gens[b]])]
            got = L2.leq[Y[:, None, None], L2.join[np.ix_(pool, Y[b])][None]]
            pool = pool[(got == want[:, None, :]).all(axis=(0, 2))]
        return pool

    stack = [candidates(0)]
    nodes = 0
    while stack:
        i = len(stack) - 1
        if not stack[i].size:
            stack.pop()
            continue
        img[i], stack[i] = stack[i][0], stack[i][1:]
        nodes += 1
        if nodes > caps.search_nodes:
            stats.add("search_nodes", nodes)
            raise SearchBudgetExceeded(nodes, caps.search_nodes)
        if i + 1 < len(gens):
            stack.append(candidates(i + 1))
            continue
        phi = np.full(L1.n, img[0], dtype=np.intp)
        for g, y in zip(gens[1:], img[1:]):
            below = L1.leq[g]
            phi[below] = L2.join[phi[below], y]
        if (len(set(phi.tolist())) == L1.n
                and (phi[L1.meet] == L2.meet[np.ix_(phi, phi)]).all()
                and (phi[L1.join] == L2.join[np.ix_(phi, phi)]).all()):
            stats.add("search_nodes", nodes)
            return phi.tolist(), nodes
    stats.add("search_nodes", nodes)
    return None, nodes


# -- JSON ------------------------------------------------------------------

def lattice_document(L: FiniteLattice) -> dict:
    """The saved shape of a lattice, {"n", "leq", "labels"?}, with `leq`
    the boolean order matrix itself, for a writer that formats its rows
    directly; `lattice_to_json` gives the same document as plain data."""
    out = {"n": L.n, "leq": L.leq}
    if L.labels is not None:
        out["labels"] = list(L.labels)
    return out


def lattice_to_json(L: FiniteLattice) -> dict:
    return {**lattice_document(L), "leq": L.leq.astype(np.uint8).tolist()}


def lattice_from_json(data: dict, caps: Caps = DEFAULT_CAPS) -> FiniteLattice:
    """Rebuild from {"n", "leq", "labels"?}; tables are recomputed, never
    trusted. A document of another shape raises BadDocument."""
    n = document_field(data, "n", "lattice")
    if type(n) is not int:
        raise BadDocument("n must be an integer")
    leq = _document_order(document_field(data, "leq", "lattice"), n)
    labels = data.get("labels")
    if labels is not None and len(document_list(labels, str, "labels")) != n:
        raise BadDocument(f"labels must name all {n} elements")
    return build_from_leq(n, leq, labels=labels, caps=caps)


def _document_order(rows, n: int) -> np.ndarray:
    """A document's leq rows as an n-by-n boolean matrix; every entry must
    be 0, 1, true or false. A boolean matrix is taken as it is, not copied."""
    try:
        arr = np.asarray(rows)
    except ValueError:                      # rows of different lengths
        raise BadDocument(f"leq must be {n} rows of {n} entries") from None
    if arr.shape != (n, n):
        raise BadDocument(f"leq must be {n} rows of {n} entries")
    if arr.dtype == bool:
        return arr
    if arr.dtype.kind not in "iu" or arr.size and (arr.min() < 0 or arr.max() > 1):
        raise BadDocument("leq entries must be 0, 1, true or false")
    return arr.astype(bool)
