"""Join-irreducible duality data: minimal join-covers, graph extraction,
reconstruction as a closure system, cover-step tests, and the combinatorial
property checkers.

What the checkers are known to say about the equation catalog, over the 78
lattices of at most 7 elements and `random_lattice(s, max_size=12)` for
s = 0..299: Unjp holds iff `unjp` does, and Sym iff `pi-Sym`; VarRL1
implies `pi-VarRL1` and RMod implies `pi-RMod`, but neither converse holds
(VarRL1 fails under `pi-VarRL1` on seeds 0 and 114, RMod under `pi-RMod`
on seeds 71, 114 and 235 and on lattice 73 of `all_lattices_upto(7)`).
SymPC and `pi-SymPC` disagree both ways (SymPC without `pi-SymPC` on 3
lattices, the reverse on 20), so nothing is claimed for them.

Conventions: a graph on n elements indexes them 0..n-1; covers are sorted
tuples of indices; the cover list always carries the trivial cover (j, (j,))
for every element, and join-prime elements carry nothing else.

Both directions of the duality work on tables indexed by the 2^m subsets
of m items. Extraction flags L's masks J(x) among the subsets of J(L);
their `lattice._closure` is cl[S] = J(V S), whose entries decide the
local test of `_all_minimal_covers` for every subset at once. The graph
is read off J(x) and that closure alone: the masks J(j) of the
irreducibles are its down-sets, the kept sets its covers, and j is
join-prime iff its only minimal cover is the trivial one. So extraction
builds the graph without checking it again; `make_od_graph` validates
graphs from outside (documents, fixtures). Reconstruction reads the graph
as rules over subsets of its elements: {a} forces the downset of a, and a
cover C of k forces k. `lattice._closed_under` flags the subsets closed
under every rule at once, and `lattice._closure` turns the flags into the
closure table cl[S], the least closed set above S. Each graph builds that
table once, when it is first read: `closed_sets` returns its fixed points,
`reconstruct` builds their lattice, and `closed_mask` and the joins of the
cover properties read single entries. For a lattice L with graph g,
x -> J(x) (the irreducibles below x) maps L onto `closed_sets(g)` (Davey
and Priestley, Introduction to Lattices and Order, ch. 5 and 7), so
`rellat check nation` compares those masks and needs no second lattice.
`Caps.max_ji` bounds m for both directions and for the closure table, so
a property that asks a join (pi-Sym, pi-SymPC, pi-StrongSymPC, prop-last)
raises on a graph wider than that when it reaches one; the seven others
read no table.

The cover properties quantify over cover steps: dstep(g, k0, c, k1) holds
when the non-prime k1 completes c to a minimal cover of k0. Each graph
indexes its cover list once (`ODGraph.completions`: (k, C - {x}) -> every
such x, ascending), so a step test is one lookup, and the midpoint searches
(pi-SymPC, atomistic-iii, prop-last) and the pivot search (pi-StrongSymPC)
walk the completions of the smaller cover instead of every element. Each
checker yields its failing instances in (element, cover, split) order, and
`check_property` returns the first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import stats
from .errors import (
    DEFAULT_CAPS,
    BadDocument,
    BadODGraph,
    Caps,
    CoverEnumerationCapExceeded,
    NotAPartialOrder,
    PartitionEnumerationCapExceeded,
    SizeCapExceeded,
    UnknownProperty,
    document_field,
    document_list,
)
from .lattice import (
    FiniteLattice,
    _bitsets,
    _closed_under,
    _closure,
    _cover_edges,
    _ji_masks,
    build_from_closed_family,
    make_closed_family,
)
from .relational import make_space


# -- minimal join-covers -----------------------------------------------------


def _all_minimal_covers(L: FiniteLattice, caps: Caps) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The join-irreducibles ji, ascending, their J-masks (bit a of the t-th
    set iff ji[a] <= ji[t]), and per position t the minimal join-covers of
    ji[t] as sorted position tuples, by size, then subset mask.

    A cover C of j is minimal when every antichain cover refining C (each
    member below some member of C) contains C. The local test (Freese,
    Jezek and Nation, Free Lattices, ch. 2) decides this without comparing
    covers: an antichain C of irreducibles with j <= V C is minimal iff
    j is not below V(C - {c}) v c_ for any c in C, where c_ is the unique
    lower cover of c. It is sound because (C - {c}) together with the
    irreducibles below c_ refines C and misses c, and complete because a
    refining cover that misses c has its members below c under c_, so it
    joins below V(C - {c}) v c_. A set that is no antichain fails the test
    at a member c below another, as then V(C - {c}) = V C, so every subset
    of J is tested. c_ is the join of the irreducibles strictly below c, so
    every join the test needs is one mask cl[S] = J(V S).
    """
    key = ("mjc", caps.max_ji)
    if key in L._cache:
        return L._cache[key]
    ji = L.join_irreducibles()
    m = len(ji)
    if m > caps.max_ji:
        raise CoverEnumerationCapExceeded(m, caps.max_ji)
    stats.add("subset_entries", 1 << m)
    masks = _ji_masks(L.leq, ji)
    cl = _closure(m, np.bincount(masks, minlength=1 << m) > 0)   # J(V S)
    bit = 1 << np.arange(m, dtype=masks.dtype)
    down = masks[list(ji)]
    under = down ^ bit                        # those strictly below each
    sets = np.arange(1 << m)
    sets = sets[np.argsort(np.bitwise_count(sets), kind="stable")]
    keep = cl[sets]                           # bit t: ji[t] <= V sets[a]
    for i in range(m):
        has = (sets & bit[i]) != 0
        keep[has] &= ~cl[(sets[has] ^ bit[i]) | under[i]]
    covers = tuple(tuple(tuple(a for a in range(m) if mask >> a & 1)
                         for mask in sets[(keep >> t & 1).astype(bool)].tolist())
                   for t in range(m))
    out = L._cache[key] = (ji, tuple(down.tolist()), covers)
    return out


def minimal_join_covers(L: FiniteLattice, j: int,
                        caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """All minimal join-covers of a join-irreducible, sorted by size, then
    subset mask (colex element order). The trivial cover (j,) is present."""
    ji, _, covers = _all_minimal_covers(L, caps)
    if j not in ji:
        raise ValueError(f"element {j} is not join-irreducible")
    return [tuple(ji[a] for a in cov) for cov in covers[ji.index(j)]]


# -- the graph ----------------------------------------------------------------


@dataclass(frozen=True)
class ODGraph:
    """Join-irreducibles with their order, primeness flags, and cover lists.

    The order is stored once, as `down_masks`: bit a of down_masks[b] is set
    iff a <= b (so bit b too). `leq_pairs`, the strict order as (a, b) pairs
    in row-major order, is derived from it. Equality and hashing compare
    elems, down_masks, jp and mjc; two graphs on the same elements have the
    same down_masks iff they have the same leq_pairs.
    """

    elems: tuple[str, ...]
    down_masks: tuple[int, ...]
    jp: tuple[bool, ...]
    mjc: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def n(self) -> int:
        return len(self.elems)

    @cached_property
    def mjc_set(self) -> frozenset[tuple[int, tuple[int, ...]]]:
        return frozenset(self.mjc)

    @cached_property
    def leq_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every (a, b) with a < b, ordered by a, then b."""
        n, width = self.n, (self.n + 7) // 8
        raw = b"".join(m.to_bytes(width, "little") for m in self.down_masks)
        down = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n, width),
                             axis=1, count=n, bitorder="little")
        lt = down.T.astype(bool) & ~np.eye(n, dtype=bool)
        return tuple(zip(*(x.tolist() for x in np.nonzero(lt))))

    @cached_property
    def completions(self) -> dict[tuple[int, tuple[int, ...]], tuple[int, ...]]:
        """(k, C - {x}) -> every such x, ascending, over the covers C of k."""
        index: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for k, cov in self.mjc:
            for i, x in enumerate(cov):
                index.setdefault((k, cov[:i] + cov[i + 1:]), []).append(x)
        return {key: tuple(sorted(xs)) for key, xs in index.items()}

    @cached_property
    def dsteps(self) -> tuple[tuple[int, tuple[int, ...], int, tuple[int, ...]], ...]:
        """Every (k0, rest, k1, cover) in cover-list order where the cover of
        k0 is rest plus its non-prime member k1."""
        return tuple((k0, tuple(x for x in cov if x != k1), k1, cov)
                     for k0, cov in self.mjc for k1 in cov if not self.jp[k1])

    @cached_property
    def _table(self) -> np.ndarray:
        """cl[S] for every subset mask S: the least downset above S closed
        under every cover rule, from the rules {a} forces down(a) and C
        forces k for each cover C of k. Read it through `_closure_table`,
        which checks the cap first."""
        n = self.n
        stats.add("subset_entries", 1 << n)
        rules = [*((1 << a, down) for a, down in enumerate(self.down_masks)),
                 *((sum(1 << c for c in cov), 1 << k) for k, cov in self.mjc)]
        return _closure(n, _closed_under(n, rules))

    def le(self, a: int, b: int) -> bool:
        return bool(self.down_masks[b] >> a & 1)

    def covers_of(self, j: int) -> tuple[tuple[int, ...], ...]:
        return tuple(c for k, c in self.mjc if k == j)

    def nontrivial(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(k, c) for k, c in self.mjc if c != (k,)]


def make_od_graph(elems: Sequence[str], leq_pairs: Iterable[tuple[int, int]],
                  jp: Sequence[bool],
                  mjc: Iterable[tuple[int, Sequence[int]]]) -> ODGraph:
    """Normalize, then validate the graph invariants; raise BadODGraph."""
    n = len(elems)
    if len(set(elems)) != n:
        raise BadODGraph("duplicate element labels")
    # one array of the pairs and one range check; an index too large for
    # the array is out of range too, and only then are the pairs scanned
    # for the first one out of range
    pairs = list(leq_pairs)
    try:
        at = np.fromiter(itertools.chain.from_iterable(pairs),
                         dtype=np.intp).reshape(len(pairs), 2)
        in_range = not pairs or 0 <= at.min() <= at.max() < n
    except OverflowError:
        in_range = False
    if not in_range:
        a, b = next((a, b) for a, b in pairs if not (0 <= a < n and 0 <= b < n))
        raise BadODGraph(f"order pair ({a},{b}) out of range")
    lt = np.zeros((n, n), dtype=bool)
    lt[at[:, 0], at[:, 1]] = True
    np.fill_diagonal(lt, False)
    both = lt & lt.T
    if both.any():
        a, b = map(int, np.argwhere(both)[0])
        raise BadODGraph(f"order not antisymmetric at ({a},{b})")
    # row b of `down` is the down-set of b. As an order it is the reverse,
    # whose down-sets are the up-sets here, so for the least a < b < c
    # without a < c (least a, then b, then c) the covers' transitivity
    # witness is (c, b, a)
    down = np.ascontiguousarray((lt | np.eye(n, dtype=bool)).T)
    try:
        _cover_edges(down)
    except NotAPartialOrder as e:
        c, b, a = e.witness
        raise BadODGraph(f"order not transitive at ({a},{b},{c})") from None
    if len(jp) != n:
        raise BadODGraph("jp flag count does not match element count")
    down_masks = tuple(_bitsets(down))
    entries = set()
    for k, cov in mjc:
        c = tuple(sorted(set(cov)))
        if not 0 <= k < n or any(not 0 <= x < n for x in c):
            raise BadODGraph(f"cover entry ({k},{c}) out of range")
        if not c:
            raise BadODGraph(f"empty cover for element {k}")
        # an antichain: no other member lies in any member's down-set
        members = sum(1 << x for x in c)
        if any(down_masks[x] & members != 1 << x for x in c):
            raise BadODGraph(f"cover {c} of {k} is not an antichain")
        entries.add((k, c))
    covers: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for k, c in entries:
        covers[k].append(c)
    for j, own in enumerate(covers):
        if (j,) not in own:
            raise BadODGraph(f"element {j} is missing its trivial cover")
        if jp[j] and len(own) != 1:
            raise BadODGraph(f"join-prime element {j} has a non-trivial cover")
        if not jp[j] and len(own) == 1:
            raise BadODGraph(f"element {j} is flagged non-prime but has only "
                             "the trivial cover")
    return ODGraph(
        elems=tuple(str(e) for e in elems),
        down_masks=down_masks,
        jp=tuple(bool(x) for x in jp),
        mjc=tuple(sorted(entries)),
    )


def extract_od_graph(L: FiniteLattice, caps: Caps = DEFAULT_CAPS) -> ODGraph:
    """The graph of L read off `_all_minimal_covers`: its J-masks are the
    down-sets, and j is join-prime iff its only minimal cover is (j,).
    Labels come from outside, so repeated ones raise BadODGraph."""
    ji, down, covers = _all_minimal_covers(L, caps)
    elems = tuple(str(L.label(j)) for j in ji)
    if len(set(elems)) != len(elems):
        raise BadODGraph("duplicate element labels")
    mjc = tuple(sorted((t, c) for t, own in enumerate(covers) for c in own))
    return ODGraph(elems=elems, down_masks=down,
                   jp=tuple(len(own) == 1 for own in covers), mjc=mjc)


def od_graph_to_json(g: ODGraph) -> dict:
    return {
        "elems": list(g.elems),
        "leq_pairs": [list(p) for p in g.leq_pairs],
        "jp": list(g.jp),
        "mjc": [[k, list(c)] for k, c in g.mjc],
    }


def od_graph_from_json(doc: dict) -> ODGraph:
    """Read {"elems", "leq_pairs", "jp", "mjc"}; a document of another shape
    raises BadDocument, a graph breaking an invariant BadODGraph."""
    def field(key):
        return document_field(doc, key, "od-graph")

    elems = document_list(field("elems"), str, "elems")
    pairs = document_list(field("leq_pairs"), list, "leq_pairs")
    for p in pairs:
        if len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            document_list(p, int, "an order pair")     # raises for a non-int
            raise BadDocument("an order pair must hold two element indices")
    jp = document_list(field("jp"), bool, "jp")
    mjc = []
    for entry in document_list(field("mjc"), list, "mjc"):
        if len(entry) != 2 or type(entry[0]) is not int:
            raise BadDocument("an mjc entry must be [element, cover]")
        mjc.append((entry[0], document_list(entry[1], int, "a cover")))
    return make_od_graph(elems, pairs, jp, mjc)


# -- reconstruction ------------------------------------------------------------


def _closure_table(g: ODGraph, caps: Caps) -> np.ndarray:
    """The graph's closure table, built the first time it is asked for;
    raises past `caps.max_ji` elements, whether built or not."""
    if g.n > caps.max_ji:
        raise CoverEnumerationCapExceeded(g.n, caps.max_ji)
    return g._table


def closed_mask(g: ODGraph, mask: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Least set above mask that is a downset closed under the cover rules,
    read off the graph's closure table. Raises ValueError for a mask
    outside 0..2^n - 1."""
    if not 0 <= mask < 1 << g.n:
        raise ValueError(f"mask {mask} is not a subset of the {g.n} elements")
    return int(_closure_table(g, caps)[mask])


def closed_sets(g: ODGraph, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """The masks of the downsets closed under every cover rule, ascending.

    By the duality they are the sets J(x) of the lattice the graph was
    extracted from, and x -> J(x) orders that lattice as they are ordered
    by inclusion. They are the fixed points of the closure table. Raises
    past `caps.max_ji` elements or `caps.max_lattice` closed sets."""
    table = _closure_table(g, caps)
    closed = np.flatnonzero(table == np.arange(len(table), dtype=table.dtype))
    if len(closed) > caps.max_lattice:
        raise SizeCapExceeded(len(closed), caps.max_lattice)
    return closed


def reconstruct(g: ODGraph, caps: Caps = DEFAULT_CAPS) -> FiniteLattice:
    """The lattice of the graph's `closed_sets`, ordered by inclusion."""
    fam = make_closed_family(list(g.elems), closed_sets(g, caps).tolist())
    return build_from_closed_family(fam, caps=caps)


# -- cover steps and properties -------------------------------------------------


def dstep(g: ODGraph, k0: int, c: Iterable[int], k1: int) -> bool:
    """k1 is non-prime, sits outside c, and c plus k1 minimally covers k0."""
    return not g.jp[k1] and k1 in g.completions.get((k0, tuple(sorted(set(c)))), ())


@dataclass(frozen=True)
class CoverWitness:
    """A failed quantifier instance: element, its cover, and what failed."""

    j: int
    cover: tuple[int, ...]
    context: str


def _join_le(g: ODGraph, k: int, parts: Iterable[int], caps: Caps) -> bool:
    """k is below the join of parts: k lies in the closure of parts, since
    by the duality the graph determines its lattice."""
    return bool(_closure_table(g, caps)[sum(1 << p for p in parts)] >> k & 1)


def _midpoints(g: ODGraph, k0: int, c0: tuple[int, ...], c1: tuple[int, ...],
               k2: int) -> list[int]:
    """Every k1, ascending, with dstep(g, k0, c0, k1) and c1 plus k2 a cover
    of k1; c0 and c1 are sorted, c1 is nonempty and k2 is outside c1. A
    prime k1 has only its trivial cover, so no cover holding c1 and k2."""
    comp = g.completions
    return [k1 for k1 in comp.get((k0, c0), ())
            if k2 in comp.get((k1, c1), ())]


def _splits(c: tuple[int, ...], caps: Caps):
    """All ordered (c0, c1) with both parts nonempty partitioning c."""
    k = len(c)
    if 1 << k > caps.max_enum:
        raise PartitionEnumerationCapExceeded(1 << k, caps.max_enum)
    for mask in range(1, (1 << k) - 1):
        c0 = tuple(c[i] for i in range(k) if mask >> i & 1)
        c1 = tuple(c[i] for i in range(k) if not mask >> i & 1)
        yield c0, c1


def check_property(g: ODGraph, name: str,
                   caps: Caps = DEFAULT_CAPS) -> CoverWitness | None:
    """None when the property holds; otherwise the first failing instance
    in (element, cover, split) order. Joins are decided on the graph's
    closure table, so asking one raises past `caps.max_ji` elements."""
    if name not in PROPERTY_IDS:
        raise UnknownProperty(name)
    return next(_PROPERTY_FUNCS[name](g, caps), None)


def _nonjp_count(g: ODGraph, cov: tuple[int, ...]) -> int:
    return sum(1 for c in cov if not g.jp[c])


def _check_unjp(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k, cov in g.mjc:
        if _nonjp_count(g, cov) > 1:
            yield CoverWitness(k, cov, "cover has two non-prime members")


def _check_exactly_one(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k, cov in g.mjc:
        if cov != (k,) and _nonjp_count(g, cov) != 1:
            yield CoverWitness(
                k, cov, "non-trivial cover without exactly one non-prime member")


def _check_varrl1(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k, cov in g.mjc:
        if sum(1 for c in cov if g.le(c, k)) > 1:
            yield CoverWitness(k, cov, f"two cover members below {k}")


def _check_rmod(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, rest, k1, cov in g.dsteps:
        low = [c for c in rest if g.le(c, k0)]
        if low:
            yield CoverWitness(
                k0, cov, f"step to {k1} leaves member {low[0]} below {k0}")


def _check_sym(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, rest, k1, cov in g.dsteps:
        if not _join_le(g, k1, rest + (k0,), caps):
            yield CoverWitness(
                k0, cov, f"step target {k1} not below join of rest and {k0}")


def _check_sympc(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, rest, k2, cov in g.dsteps:
        for c0, c1 in _splits(rest, caps):
            if not any(_join_le(g, k1, c0 + (k0,), caps)
                       for k1 in _midpoints(g, k0, c0, c1, k2)):
                yield CoverWitness(
                    k0, cov,
                    f"no midpoint from {k0} to {k2} through split {c0} / {c1}")


def _check_strong_sympc(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    comp, mjc_set = g.completions, g.mjc_set
    for k, cov in g.mjc:
        for c0, c1 in _splits(cov, caps):
            via1, via0 = comp.get((k, c1), ()), comp.get((k, c0), ())
            # each pivot once, ascending, "first" before "second": the joins
            # are then closed in the order of a scan over every element
            if not any(
                    kp in via1 and (kp, c0) in mjc_set
                    and _join_le(g, kp, c1 + (k,), caps)
                    or kp in via0 and (kp, c1) in mjc_set
                    and _join_le(g, kp, c0 + (k,), caps)
                    for kp in sorted({*via1, *via0})):
                yield CoverWitness(k, cov, f"no pivot for split {c0} / {c1}")


def _check_pjp(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k, cov in g.mjc:
        if all(g.jp[c] for c in cov) and not any(g.le(c, k) for c in cov):
            yield CoverWitness(k, cov, f"all-prime cover with no member below {k}")


def _check_atomistic_ii(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, rest, k1, cov in g.dsteps:
        if not dstep(g, k1, rest, k0):
            yield CoverWitness(k0, cov, f"step to {k1} does not reverse")


def _check_atomistic_iii(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, rest, k2, cov in g.dsteps:
        for c0, c1 in _splits(rest, caps):
            if not _midpoints(g, k0, c0, c1, k2):
                yield CoverWitness(
                    k0, cov,
                    f"no midpoint from {k0} to {k2} through split "
                    f"{c0} / {c1} (join-free)")


def _check_prop_last(g: ODGraph, caps: Caps) -> Iterator[CoverWitness]:
    for k0, cov in g.mjc:
        for k2 in cov:
            if not g.le(k2, k0):
                continue
            rest = tuple(x for x in cov if x != k2)
            for c0, c1 in _splits(rest, caps):
                if not any(_join_le(g, k1, c0 + (k0,), caps)
                           for k1 in _midpoints(g, k0, c0, c1, k2)):
                    yield CoverWitness(
                        k0, cov, f"no pivot past {k2} through split {c0} / {c1}")


_PROPERTY_FUNCS: dict[str, Callable[[ODGraph, Caps], Iterator[CoverWitness]]] = {
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

PROPERTY_IDS = tuple(_PROPERTY_FUNCS)


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


def ultrametric_representability(g: ODGraph):
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
    for k0, rest, k1, _cov in g.dsteps:
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
