"""Finite lattices: integer-indexed orders with eager meet/join tables.

Elements are dense indices 0..n-1; the order is an n-by-n boolean matrix;
meet/join are n-by-n element tables computed (and validated) at build time.
Down-sets and up-sets are kept as int bitmasks, which makes glb/lub checks,
transitivity, and sublattice closures cheap word operations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DEFAULT_CAPS,
    Caps,
    NotALattice,
    NotAPartialOrder,
    NotIntersectionClosed,
    SearchBudgetExceeded,
    SizeCapExceeded,
)


class FiniteLattice:
    """Immutable finite lattice; use build_from_leq / build_from_closed_family."""

    __slots__ = ("n", "leq", "meet", "join", "bottom", "top", "labels",
                 "down", "up", "_cache")

    def __init__(self, n, leq, meet, join, bottom, top, labels, down, up):
        self.n = n
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top
        self.labels = labels
        self.down = down      # down[a] = bitmask of {b : b <= a}
        self.up = up          # up[a]   = bitmask of {b : a <= b}
        self._cache = {}
        leq.setflags(write=False)
        meet.setflags(write=False)
        join.setflags(write=False)

    # -- element-level helpers -------------------------------------------

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

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

    def lower_covers(self, j: int) -> tuple[int, ...]:
        """Elements i < j with nothing strictly between."""
        out = []
        bit_j = 1 << j
        strict = self.down[j] & ~bit_j
        m = strict
        while m:
            b = m & -m
            i = b.bit_length() - 1
            m ^= b
            if self.up[i] & self.down[j] == b | bit_j:
                out.append(i)
        return tuple(out)

    # -- structure queries (cached; the object is immutable) -------------

    def atoms(self) -> tuple[int, ...]:
        if "atoms" not in self._cache:
            bb = 1 << self.bottom
            self._cache["atoms"] = tuple(
                i for i in range(self.n)
                if i != self.bottom and self.down[i] == (1 << i) | bb
            )
        return self._cache["atoms"]

    def coatoms(self) -> tuple[int, ...]:
        if "coatoms" not in self._cache:
            self._cache["coatoms"] = tuple(
                i for i in range(self.n)
                if i != self.top and self.up[i] == (1 << i) | (1 << self.top)
            )
        return self._cache["coatoms"]

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover (equivalently, j != bottom
        and j is not the join of its strict down-set)."""
        if "ji" not in self._cache:
            self._cache["ji"] = tuple(
                j for j in range(self.n) if len(self.lower_covers(j)) == 1
            )
        return self._cache["ji"]

    def join_primes(self) -> tuple[int, ...]:
        """Join-irreducibles j with j <= a v b implying j <= a or j <= b.

        The binary test suffices: splitting a finite join argument-by-argument
        extends it to all finite joins by induction.
        """
        if "jp" not in self._cache:
            out = []
            for j in self.join_irreducibles():
                jle = self.leq[j]                      # j <= x, per x
                covered = jle[self.join]               # j <= x v y
                direct = jle[:, None] | jle[None, :]   # j <= x or j <= y
                if not (covered & ~direct).any():
                    out.append(j)
            self._cache["jp"] = tuple(out)
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

    for i in range(n):
        if not arr[i, i]:
            raise NotAPartialOrder("not reflexive", (i,))
    both = arr & arr.T
    np.fill_diagonal(both, False)
    if both.any():
        i, j = map(int, np.argwhere(both)[0])
        raise NotAPartialOrder("not antisymmetric", (i, j))

    down = [0] * n
    up = [0] * n
    for a in range(n):
        col = arr[:, a]
        row = arr[a, :]
        # plain-int shifts: numpy ints would overflow past bit 63
        down[a] = sum(1 << int(b) for b in np.flatnonzero(col))
        up[a] = sum(1 << int(b) for b in np.flatnonzero(row))
    for a in range(n):
        m = down[a] & ~(1 << a)
        while m:
            bbit = m & -m
            b = bbit.bit_length() - 1
            m ^= bbit
            if down[b] | down[a] != down[a]:
                # b <= a but some c <= b is not <= a
                c = ((down[b] & ~down[a]) & -(down[b] & ~down[a])).bit_length() - 1
                raise NotAPartialOrder("not transitive", (c, b, a))

    by_down = {down[a]: a for a in range(n)}
    by_up = {up[a]: a for a in range(n)}
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        meet[a, a] = join[a, a] = a
        for b in range(a + 1, n):
            m = by_down.get(down[a] & down[b])
            if m is None:
                raise NotALattice("meet", (a, b))
            meet[a, b] = meet[b, a] = m
            j = by_up.get(up[a] & up[b])
            if j is None:
                raise NotALattice("join", (a, b))
            join[a, b] = join[b, a] = j

    full = (1 << n) - 1
    bottom = by_up[full]
    top = by_down[full]
    return FiniteLattice(n, arr, meet, join, bottom, top, labels,
                         tuple(down), tuple(up))


@dataclass(frozen=True)
class ClosedFamily:
    """A family of subsets of a labeled universe, as bitmasks."""

    universe: tuple[str, ...]
    members: tuple[int, ...]

    def member_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.universe[i] for i in range(len(self.universe))
                     if mask >> i & 1)


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
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            leq[i, j] = a & b == a
    labels = [set_label(fam.universe, m) for m in members]
    return build_from_leq(n, leq, labels=labels, caps=caps)


# -- sublattices -----------------------------------------------------------

def sublattice_closure(
    L: FiniteLattice, seed: Iterable[int], caps: Caps = DEFAULT_CAPS
) -> tuple[FiniteLattice, tuple[int, ...]]:
    """Smallest meet/join-closed subset containing seed, as a lattice.

    Returns (sublattice, inclusion) where inclusion[i] is the element of L
    that position i of the sublattice stands for.
    """
    elems = sorted(set(int(x) for x in seed))
    if not elems:
        raise ValueError("seed must be nonempty")
    current = set(elems)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(current):
                for c in (int(L.meet[a, b]), int(L.join[a, b])):
                    if c not in current:
                        current.add(c)
                        nxt.append(c)
        frontier = nxt
    inclusion = tuple(sorted(current))
    idx = np.array(inclusion)
    sub_leq = L.leq[np.ix_(idx, idx)]
    labels = [L.label(x) for x in inclusion]
    sub = build_from_leq(len(inclusion), sub_leq, labels=labels, caps=caps)
    return sub, inclusion


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
    return _search(L1, L2, [L2.bottom], ji2, caps)


def find_embedding(
    L1: FiniteLattice, L2: FiniteLattice, caps: Caps = DEFAULT_CAPS
) -> list[int] | None:
    """An injective meet/join-preserving map L1 -> L2, or None.

    Returns the least embedding in `_search` order. Raises
    SearchBudgetExceeded (inconclusive) if the node cap is hit.
    """
    if L1.n > L2.n:
        return None
    return _search(L1, L2, range(L2.n), range(L2.n), caps)


def _search(
    L1: FiniteLattice,
    L2: FiniteLattice,
    bottoms: Sequence[int],
    irreducibles: Sequence[int],
    caps: Caps,
) -> list[int] | None:
    """The least embedding L1 -> L2 that sends bottom into `bottoms` and
    J(L1) into `irreducibles` (both ascending), or None.

    By the duality a map is fixed by its values on the generators, bottom
    and J(L1): x goes to the join of the images of the generators below it.
    Generators take images in that order, each trying its candidates in
    ascending order, so the first map found is least by (image of bottom,
    images of J(L1) in index order). Each level keeps the candidates that
    compare with every assigned image as their generators compare, and that
    keep join-dominance c <= a v b among irreducibles; both are necessary,
    and the order test alone rules out reusing an image. A complete
    assignment is extended and verified against the full meet and join
    tables. One search node is one image given to one generator. The stack
    is explicit, so depth costs no recursion.
    """
    gens = np.array([L1.bottom, *L1.join_irreducibles()], dtype=np.intp)
    pools = [np.asarray(bottoms, dtype=np.intp)]
    pools += [np.asarray(irreducibles, dtype=np.intp)] * (len(gens) - 1)
    le1 = L1.leq[np.ix_(gens, gens)]
    incomparable = ~(le1 | le1.T)
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
            return phi.tolist()
    return None


# -- JSON ------------------------------------------------------------------

def lattice_to_json(L: FiniteLattice) -> dict:
    out = {"n": L.n, "leq": [[int(b) for b in row] for row in L.leq]}
    if L.labels is not None:
        out["labels"] = list(L.labels)
    return out


def lattice_from_json(data: dict, caps: Caps = DEFAULT_CAPS) -> FiniteLattice:
    """Rebuild from {"n", "leq", "labels"?}; tables are recomputed, never trusted."""
    n = int(data["n"])
    labels = data.get("labels")
    return build_from_leq(n, data["leq"], labels=labels, caps=caps)
