"""Join-irreducible duality data: minimal join-covers, graph extraction,
reconstruction as a closure system, cover-step tests, and the combinatorial
property checkers that correspond to the equation catalog.

Conventions: a graph on n elements indexes them 0..n-1; covers are sorted
tuples of indices; the cover list always carries the trivial cover (j, (j,))
for every element, and join-prime elements carry nothing else.

Both directions of the duality work on one kind of table, indexed by the
2^m subsets of m items and filled by doubling (`_subset_table`).
Extraction tabulates, over subsets of J(L), the join and the irreducibles
strictly below some member (so antichains are the subsets that miss it),
and keeps an antichain cover C of j iff the local test holds: for every
c in C, j is not below V(C - {c}) v c_, where c_ is the unique lower cover
of c. The test is sound because (C - {c}) together with the irreducibles
below c_ refines C and misses c; it is complete because any cover that
refines C and misses c joins below V(C - {c}) v c_. Reconstruction
tabulates, over subsets of the graph's elements, the union of the members'
downsets: a subset is a downset iff the table maps it to itself, and each
cover rule is then tested over all subsets at once. `Caps.max_ji` bounds m
for both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DEFAULT_CAPS,
    BadODGraph,
    Caps,
    CoverEnumerationCapExceeded,
    PartitionEnumerationCapExceeded,
    SizeCapExceeded,
    UnknownProperty,
)
from .lattice import FiniteLattice, build_from_closed_family, make_closed_family
from .relational import UltraSpace, make_space


# -- subset tables --------------------------------------------------------------


def _subset_table(m: int, seed: int, step: Callable) -> np.ndarray:
    """t[mask] for every subset mask of m items: t[0] = seed and
    t[mask] = step(i, t[mask - 2^i]) with i the highest bit of mask.

    Filled by doubling: step(i, t[:2^i]) gives t[2^i : 2^(i+1)] in one numpy
    call, so there is no Python loop over masks. Both directions of the
    duality use it: extraction for joins and antichain flags over subsets
    of J(L), reconstruction for down-closures over the graph's elements.
    """
    t = np.empty(1 << m, dtype=np.int64)
    t[0] = seed
    for i in range(m):
        t[1 << i:2 << i] = step(i, t[:1 << i])
    return t


# -- minimal join-covers -----------------------------------------------------


def _all_minimal_covers(L: FiniteLattice, caps: Caps) -> dict[int, list[tuple[int, ...]]]:
    """Minimal join-covers of every join-irreducible, as sorted tuples of
    lattice elements, in order of size, then subset mask.

    A cover C of j is minimal when every antichain cover refining C (each
    member below some member of C) contains C. The local test (Freese,
    Jezek and Nation, Free Lattices, ch. 2) decides this without comparing
    covers: an antichain C of irreducibles with j <= V C is minimal iff
    j is not below V(C - {c}) v c_ for any c in C, where c_ is the unique
    lower cover of c. It is sound because (C - {c}) together with the
    irreducibles below c_ refines C and misses c, and complete because a
    refining cover that misses c has its members below c under c_, so it
    joins below V(C - {c}) v c_. c_ is the join of the irreducibles strictly
    below c, so every join the test needs is one lookup in the subset table.
    """
    key = ("mjc", caps.max_ji)
    if key in L._cache:
        return L._cache[key]
    ji = L.join_irreducibles()
    m = len(ji)
    if m > caps.max_ji:
        raise CoverEnumerationCapExceeded(m, caps.max_ji)
    idx = np.array(ji, dtype=np.intp)
    rows = L.leq[idx]                         # rows[t, x]: ji[t] <= x
    bit = np.int64(1) << np.arange(m, dtype=np.int64)
    strict = rows[:, idx] & ~np.eye(m, dtype=bool)
    under = bit @ strict                      # irreducibles strictly below each
    joinv = _subset_table(m, L.bottom, lambda i, t: L.join[t, ji[i]])
    below = _subset_table(m, 0, lambda i, t: t | under[i])
    size = _subset_table(m, 0, lambda i, t: t + 1)
    masks = np.arange(1 << m, dtype=np.int64)
    anti = masks[(below & masks) == 0]
    anti = anti[np.argsort(size[anti], kind="stable")]
    keep = rows[:, joinv[anti]]               # keep[t, a]: ji[t] <= V anti[a]
    for i in range(m):
        has = (anti & bit[i]) != 0
        keep[:, has] &= ~rows[:, joinv[(anti[has] ^ bit[i]) | under[i]]]
    out = {j: [tuple(ji[a] for a in range(m) if mask >> a & 1)
               for mask in anti[keep[t]].tolist()]
           for t, j in enumerate(ji)}
    L._cache[key] = out
    return out


def minimal_join_covers(L: FiniteLattice, j: int,
                        caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """All minimal join-covers of a join-irreducible, sorted by size then
    element order. The trivial cover (j,) is always present."""
    covers = _all_minimal_covers(L, caps)
    if j not in covers:
        raise ValueError(f"element {j} is not join-irreducible")
    return covers[j]


# -- the graph ----------------------------------------------------------------


@dataclass(frozen=True)
class ODGraph:
    """Join-irreducibles with their order, primeness flags, and cover lists."""

    elems: tuple[str, ...]
    leq_pairs: tuple[tuple[int, int], ...]
    jp: tuple[bool, ...]
    mjc: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def n(self) -> int:
        return len(self.elems)

    @cached_property
    def leq_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.leq_pairs)

    @cached_property
    def mjc_set(self) -> frozenset[tuple[int, tuple[int, ...]]]:
        return frozenset(self.mjc)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bitmask of each element's downset."""
        down = [1 << i for i in range(self.n)]
        for a, b in self.leq_pairs:
            down[b] |= 1 << a
        return tuple(down)

    @cached_property
    def cover_rules(self) -> tuple[tuple[int, int], ...]:
        """(element, bitmask of the cover) for every non-trivial cover."""
        return tuple((k, sum(1 << c for c in cov)) for k, cov in self.nontrivial())

    def le(self, a: int, b: int) -> bool:
        return a == b or (a, b) in self.leq_set

    def leq_matrix(self) -> np.ndarray:
        leq = np.eye(self.n, dtype=bool)
        for a, b in self.leq_pairs:
            leq[a, b] = True
        return leq

    def covers_of(self, j: int) -> tuple[tuple[int, ...], ...]:
        return tuple(c for k, c in self.mjc if k == j)

    def nontrivial(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(k, c) for k, c in self.mjc if c != (k,)]


def make_od_graph(elems: Sequence[str], leq_pairs: Iterable[tuple[int, int]],
                  jp: Sequence[bool], mjc: Iterable[tuple[int, Sequence[int]]]) -> ODGraph:
    """Normalize, then validate the graph invariants; raise BadODGraph."""
    n = len(elems)
    if len(set(elems)) != n:
        raise BadODGraph("duplicate element labels")
    pairs = set()
    for a, b in leq_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise BadODGraph(f"order pair ({a},{b}) out of range")
        if a != b:
            pairs.add((a, b))
    for a, b in pairs:
        if (b, a) in pairs:
            raise BadODGraph(f"order not antisymmetric at ({a},{b})")
    for a, b in pairs:
        for c in range(n):
            if (b, c) in pairs and (a, c) not in pairs and a != c:
                raise BadODGraph(f"order not transitive at ({a},{b},{c})")
    if len(jp) != n:
        raise BadODGraph("jp flag count does not match element count")
    leq = {(a, b) for a, b in pairs} | {(i, i) for i in range(n)}
    entries = set()
    for k, cov in mjc:
        c = tuple(sorted(set(cov)))
        if not 0 <= k < n or any(not 0 <= x < n for x in c):
            raise BadODGraph(f"cover entry ({k},{c}) out of range")
        if not c:
            raise BadODGraph(f"empty cover for element {k}")
        for a in c:
            for b in c:
                if a != b and (a, b) in leq:
                    raise BadODGraph(f"cover {c} of {k} is not an antichain")
        entries.add((k, c))
    for j in range(n):
        own = [c for k, c in entries if k == j]
        if (j,) not in own:
            raise BadODGraph(f"element {j} is missing its trivial cover")
        if jp[j] and len(own) != 1:
            raise BadODGraph(f"join-prime element {j} has a non-trivial cover")
        if not jp[j] and len(own) == 1:
            raise BadODGraph(f"element {j} is flagged non-prime but has only "
                             "the trivial cover")
    return ODGraph(
        elems=tuple(str(e) for e in elems),
        leq_pairs=tuple(sorted(pairs)),
        jp=tuple(bool(x) for x in jp),
        mjc=tuple(sorted(entries)),
    )


def extract_od_graph(L: FiniteLattice, caps: Caps = DEFAULT_CAPS) -> ODGraph:
    """Join-irreducibles, their induced order, primeness, and all minimal
    join-covers, with cover members renamed to graph positions."""
    ji = L.join_irreducibles()
    jp_set = set(L.join_primes())
    pos = {j: t for t, j in enumerate(ji)}
    covers = _all_minimal_covers(L, caps)
    pairs = [(pos[a], pos[b]) for a in ji for b in ji
             if a != b and L.leq[a, b]]
    mjc = [(pos[j], tuple(pos[c] for c in cov))
           for j in ji for cov in covers[j]]
    return make_od_graph(
        [L.label(j) for j in ji], pairs, [j in jp_set for j in ji], mjc)


def od_graph_to_json(g: ODGraph) -> dict:
    return {
        "elems": list(g.elems),
        "leq_pairs": [list(p) for p in g.leq_pairs],
        "jp": list(g.jp),
        "mjc": [[k, list(c)] for k, c in g.mjc],
    }


def od_graph_from_json(doc: dict) -> ODGraph:
    return make_od_graph(
        [str(e) for e in doc["elems"]],
        [(int(a), int(b)) for a, b in doc["leq_pairs"]],
        [bool(x) for x in doc["jp"]],
        [(int(k), [int(x) for x in c]) for k, c in doc["mjc"]],
    )


# -- reconstruction ------------------------------------------------------------


def closed_mask(g: ODGraph, mask: int) -> int:
    """Least set above mask that is a downset closed under the cover rules."""
    down = g.down_masks
    s = 0
    for i in range(g.n):
        if mask >> i & 1:
            s |= down[i]
    rules = g.cover_rules
    changed = True
    while changed:
        changed = False
        for k, cm in rules:
            if not s >> k & 1 and cm & ~s == 0:
                s |= down[k]
                changed = True
    return s


def reconstruct(g: ODGraph, caps: Caps = DEFAULT_CAPS) -> FiniteLattice:
    """The lattice of downsets closed under every cover rule."""
    n = g.n
    if n > caps.max_ji:
        raise CoverEnumerationCapExceeded(n, caps.max_ji)
    masks = np.arange(1 << n, dtype=np.int64)
    down = g.down_masks
    # a set is a downset iff it holds the downsets of its members
    closed = _subset_table(n, 0, lambda i, t: t | down[i]) == masks
    for k, cm in g.cover_rules:
        closed &= ((masks & cm) != cm) | ((masks >> k & 1) == 1)
    count = int(closed.sum())
    if count > caps.max_lattice:
        raise SizeCapExceeded(count, caps.max_lattice)
    members = masks[closed].tolist()
    fam = make_closed_family(list(g.elems), members)
    return build_from_closed_family(fam, caps=caps)


# -- cover steps and properties -------------------------------------------------


def dstep(g: ODGraph, k0: int, c: Iterable[int], k1: int) -> bool:
    """k1 is non-prime, sits outside c, and c plus k1 minimally covers k0."""
    cset = tuple(sorted(set(c)))
    if g.jp[k1] or k1 in cset:
        return False
    merged = tuple(sorted(set(cset) | {k1}))
    return (k0, merged) in g.mjc_set


@dataclass(frozen=True)
class CoverWitness:
    """A failed quantifier instance: element, its cover, and what failed."""

    j: int
    cover: tuple[int, ...]
    context: str


PROPERTY_IDS = (
    "unjp",
    "exactly-one-nonjp",
    "pi-VarRL1",
    "pi-RMod",
    "pi-Sym",
    "pi-SymPC",
    "pi-StrongSymPC",
    "pi-JP",
    "atomistic-ii",
    "atomistic-iii",
    "prop-last",
)


class _Checker:
    """Shared quantifier plumbing: dstep instances, splits, and join tests.

    Joins are decided by closure membership in the reconstruction unless a
    source lattice is supplied, in which case they are computed there; the
    two routes agree for extracted graphs and tests exercise both.
    """

    def __init__(self, g: ODGraph, lattice: FiniteLattice | None, caps: Caps):
        self.g = g
        self.caps = caps
        self.lattice = lattice
        if lattice is not None:
            ji = lattice.join_irreducibles()
            if len(ji) != g.n:
                raise ValueError("companion lattice does not match the graph")
            jp_set = set(lattice.join_primes())
            for t, j in enumerate(ji):
                if (j in jp_set) != g.jp[t]:
                    raise ValueError("companion lattice disagrees on primeness")
            self.ji = ji

    def join_le(self, k: int, parts: Iterable[int]) -> bool:
        """k is below the join of parts."""
        parts = list(parts)
        if self.lattice is not None:
            L = self.lattice
            v = L.join_all([self.ji[p] for p in parts])
            return bool(L.leq[self.ji[k], v])
        return bool(closed_mask(self.g, sum(1 << p for p in parts)) >> k & 1)

    def dstep_instances(self):
        """All (k0, rest, k1) with rest plus k1 a minimal cover of k0."""
        for k0, cov in self.g.mjc:
            for k1 in cov:
                if not self.g.jp[k1]:
                    rest = tuple(x for x in cov if x != k1)
                    yield k0, rest, k1, cov

    def splits(self, c: tuple[int, ...]):
        """All ordered (c0, c1) with both parts nonempty partitioning c."""
        k = len(c)
        if 1 << k > self.caps.max_enum:
            raise PartitionEnumerationCapExceeded(1 << k, self.caps.max_enum)
        for mask in range(1, (1 << k) - 1):
            c0 = tuple(c[i] for i in range(k) if mask >> i & 1)
            c1 = tuple(c[i] for i in range(k) if not mask >> i & 1)
            yield c0, c1


def check_property(g: ODGraph, name: str, lattice: FiniteLattice | None = None,
                   caps: Caps = DEFAULT_CAPS) -> CoverWitness | None:
    """None when the property holds; otherwise the first failing instance
    in (element, cover, split) order."""
    if name not in PROPERTY_IDS:
        raise UnknownProperty(name)
    ctx = _Checker(g, lattice, caps)
    return _PROPERTY_FUNCS[name](ctx)


def _nonjp_count(g: ODGraph, cov: tuple[int, ...]) -> int:
    return sum(1 for c in cov if not g.jp[c])


def _check_unjp(ctx: _Checker) -> CoverWitness | None:
    for k, cov in ctx.g.mjc:
        if _nonjp_count(ctx.g, cov) > 1:
            return CoverWitness(k, cov, "cover has two non-prime members")
    return None


def _check_exactly_one(ctx: _Checker) -> CoverWitness | None:
    for k, cov in ctx.g.mjc:
        if cov == (k,):
            continue
        if _nonjp_count(ctx.g, cov) != 1:
            return CoverWitness(
                k, cov, "non-trivial cover without exactly one non-prime member")
    return None


def _check_varrl1(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k, cov in g.mjc:
        low = [c for c in cov if g.le(c, k)]
        if len(low) > 1:
            return CoverWitness(k, cov, f"two cover members below {k}")
    return None


def _check_rmod(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k0, rest, k1, cov in ctx.dstep_instances():
        low = [c for c in rest if g.le(c, k0)]
        if low:
            return CoverWitness(
                k0, cov, f"step to {k1} leaves member {low[0]} below {k0}")
    return None


def _check_sym(ctx: _Checker) -> CoverWitness | None:
    for k0, rest, k1, cov in ctx.dstep_instances():
        if not ctx.join_le(k1, rest + (k0,)):
            return CoverWitness(
                k0, cov, f"step target {k1} not below join of rest and {k0}")
    return None


def _check_sympc(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k0, rest, k2, cov in ctx.dstep_instances():
        for c0, c1 in ctx.splits(rest):
            found = False
            for k1 in range(g.n):
                if dstep(g, k0, c0, k1) and dstep(g, k1, c1, k2) \
                        and ctx.join_le(k1, c0 + (k0,)):
                    found = True
                    break
            if not found:
                return CoverWitness(
                    k0, cov,
                    f"no midpoint from {k0} to {k2} through split "
                    f"{c0} / {c1}")
    return None


def _check_strong_sympc(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    mjc_set = ctx.g.mjc_set
    for k, cov in g.mjc:
        for c0, c1 in ctx.splits(cov):
            found = False
            for kp in range(g.n):
                first = (
                    kp not in c1
                    and (k, tuple(sorted(set(c1) | {kp}))) in mjc_set
                    and (kp, c0) in mjc_set
                    and ctx.join_le(kp, c1 + (k,))
                )
                second = (
                    kp not in c0
                    and (k, tuple(sorted(set(c0) | {kp}))) in mjc_set
                    and (kp, c1) in mjc_set
                    and ctx.join_le(kp, c0 + (k,))
                )
                if first or second:
                    found = True
                    break
            if not found:
                return CoverWitness(
                    k, cov, f"no pivot for split {c0} / {c1}")
    return None


def _check_pjp(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k, cov in g.mjc:
        if all(g.jp[c] for c in cov):
            if not any(g.le(c, k) for c in cov):
                return CoverWitness(k, cov, "all-prime cover with no member "
                                            f"below {k}")
    return None


def _check_atomistic_ii(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k0, rest, k1, cov in ctx.dstep_instances():
        if not dstep(g, k1, rest, k0):
            return CoverWitness(k0, cov, f"step to {k1} does not reverse")
    return None


def _check_atomistic_iii(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    for k0, rest, k2, cov in ctx.dstep_instances():
        for c0, c1 in ctx.splits(rest):
            found = any(
                dstep(g, k0, c0, k1) and dstep(g, k1, c1, k2)
                for k1 in range(g.n)
            )
            if not found:
                return CoverWitness(
                    k0, cov,
                    f"no midpoint from {k0} to {k2} through split "
                    f"{c0} / {c1} (join-free)")
    return None


def _check_prop_last(ctx: _Checker) -> CoverWitness | None:
    g = ctx.g
    mjc_set = ctx.g.mjc_set
    for k0, cov in g.mjc:
        for k2 in cov:
            if not g.le(k2, k0):
                continue
            rest = tuple(x for x in cov if x != k2)
            for c0, c1 in ctx.splits(rest):
                found = False
                for k1 in range(g.n):
                    if dstep(g, k0, c0, k1) \
                            and (k1, tuple(sorted(set(c1) | {k2}))) in mjc_set \
                            and ctx.join_le(k1, c0 + (k0,)):
                        found = True
                        break
                if not found:
                    return CoverWitness(
                        k0, cov,
                        f"no pivot past {k2} through split {c0} / {c1}")
    return None


_PROPERTY_FUNCS: dict[str, Callable[[_Checker], CoverWitness | None]] = {
    "unjp": _check_unjp,
    "exactly-one-nonjp": _check_exactly_one,
    "pi-VarRL1": _check_varrl1,
    "pi-RMod": _check_rmod,
    "pi-Sym": _check_sym,
    "pi-SymPC": _check_sympc,
    "pi-StrongSymPC": _check_strong_sympc,
    "pi-JP": _check_pjp,
    "atomistic-ii": _check_atomistic_ii,
    "atomistic-iii": _check_atomistic_iii,
    "prop-last": _check_prop_last,
}


# -- ultrametric representability ---------------------------------------------


@dataclass(frozen=True)
class IllDefined:
    """Two distinct cover contexts for the same pair of points."""

    k0: int
    k1: int
    c: tuple[int, ...]
    d: tuple[int, ...]


@dataclass(frozen=True)
class NotAtomistic:
    """The graph order is not trivial; witness pair is strictly related."""

    pair: tuple[int, int]


def ultrametric_representability(g: ODGraph,
                                 caps: Caps = DEFAULT_CAPS):
    """Try to read the graph as the semidirect product data of a space whose
    points are the non-prime elements and whose attributes are the primes.

    Returns the recovered UltraSpace, or IllDefined when some pair of points
    gets two different distances, or NotAtomistic when the order is not
    trivial. Degenerate axiom failures (for example a missing distance)
    propagate as NotAnUltraSpace."""
    if g.leq_pairs:
        return NotAtomistic(g.leq_pairs[0])
    points = [i for i in range(g.n) if not g.jp[i]]
    attrs = [i for i in range(g.n) if g.jp[i]]
    apos = {a: t for t, a in enumerate(attrs)}
    ppos = {p: t for t, p in enumerate(points)}
    dists: dict[tuple[int, int], tuple[int, ...]] = {}
    ctx = _Checker(g, None, caps)
    for k0, rest, k1, _cov in ctx.dstep_instances():
        if k0 == k1:
            continue
        prev = dists.get((k0, k1))
        if prev is not None and prev != rest:
            c, d = sorted([prev, rest])
            return IllDefined(k0, k1, c, d)
        dists[(k0, k1)] = rest
    p = len(points)
    dist = [[0] * p for _ in range(p)]
    for (k0, k1), rest in dists.items():
        mask = 0
        for c in rest:
            if c in apos:
                mask |= 1 << apos[c]
            else:
                # a non-prime member cannot act as an attribute; report the
                # clash against the all-prime reading of the same pair
                return IllDefined(k0, k1, rest, tuple(x for x in rest
                                                      if x in apos))
        dist[ppos[k0]][ppos[k1]] = mask
    return make_space([g.elems[a] for a in attrs],
                      [g.elems[p_] for p_ in points], dist)


# -- the countermodel fixture ---------------------------------------------------


def build_countermodel() -> ODGraph:
    """An atomistic graph on eight elements whose reconstruction satisfies
    the weaker cover laws but fails the one-non-prime-per-cover law."""
    elems = ["k0", "k1", "k2", "p", "p11", "p12", "p21", "p22"]
    k0, k1, k2, p, p11, p12, p21, p22 = range(8)
    jp = [False, False, False, True, True, True, True, True]
    mjc: list[tuple[int, tuple[int, ...]]] = [(i, (i,)) for i in range(8)]
    for a in (k1, p11, p12):
        for b in (k2, p21, p22):
            mjc.append((k0, tuple(sorted((a, p, b)))))
    mjc.append((k1, (p11, p12)))
    mjc.append((k2, (p21, p22)))
    return make_od_graph(elems, [], jp, mjc)
