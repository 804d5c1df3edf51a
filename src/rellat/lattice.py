"""Finite lattices: integer-indexed orders with eager meet/join tables.

Elements are dense indices 0..n-1; the order is an n-by-n boolean matrix;
meet/join are n-by-n element tables computed (and validated) at build
time, int16 up to 2^15 elements and int32 past that (`_element_dtype`).
The covering relation that construction finds is kept as two index
arrays, lo[k] < hi[k]; lower covers, atoms and join-irreducibles (elements
with exactly one lower cover) are read off it.

Construction (`build_from_leq`) works on whole matrices and bitsets, with
no matrix product:

1. Reflexivity and antisymmetry are read off the diagonal and leq & leq.T,
   a block of rows at a time.
2. Covers and transitivity come from each element's down-set, a bitset
   over ranks in stable down-set-size order. The highest rank left in the
   strict down-set of a is a lower cover c of a; the down-set of c must lie
   inside that of a, and is then cleared, until nothing is left: one step
   per cover. If every such check passes the relation is transitive, by
   induction on the size of the down-set.
3. J, the elements with exactly one lower cover, is read off the covers.
   When its 2^|J| subsets fit caps.max_enum, element x stands for its
   mask J(x) = {j in J : j <= x}, and the masks are built as a lattice of
   closed sets (below). Its tables are taken if the masks hold all of J,
   are closed under intersection and are ordered by inclusion as the
   input is, compared a block of rows at a time. That is sound whatever J
   is, and every lattice whose J fits passes, as J(x) determines x and
   J(a ^ b) = J(a) & J(b) (Birkhoff; Davey and Priestley, ch. 5 and 7).
   A long chain, whose irreducibles are all but its bottom, does not fit.
4. Meets, with joins as meets of the transposed order: the candidate meet
   of a and b is their common lower bound latest in a linear extension
   (elements sorted by height). Over the covers it is b when b <= a, else
   the latest of the candidates of a with the lower covers of b, filled
   one height at a time, upwards, as elementwise maxima over all a. If
   there is a bottom and meet(a, c) <= meet(a, b) for every a and every
   cover c < b, every candidate is the meet, by induction on b; this reads
   one entry of the order per a and cover. A finite poset with a top in
   which every pair has a meet is a lattice (Davey and Priestley,
   Introduction to Lattices and Order, ch. 2), and then each join
   candidate is the join, so joins are never checked. Every order that
   step 3 does not take comes this way.
5. Only a rejected order reaches the witness code, which gives the same
   witnesses as a per-pair check: the least non-reflexive i, the first
   i != j in row-major order with i <= j and j <= i, the transitivity
   witness (c, b, a) with least a, then least b, then least c, from the
   down-set bitsets, and else the first (a, b) with a < b in row-major
   order that has no meet, or else no join. The same check along the
   covers, one column a at a time, on both tables, finds the first row
   that has such a pair; only that row's pairs are then counted.

Lattices of closed sets (`_closure_lattice`) skip all but step 2. Every
lattice the package constructs, except the `lattgen` enumeration, is a
family of subsets of a u-point universe closed under intersection: the
closed families of `build_from_closed_family` (closure systems,
reconstructions, random lattices), the rule-closed pairs of
`relational.semidirect_core` (typed, semidirect and frame lattices) and the
tables of `relational.build_R`, each standing for its closed set. The
members are flagged among all 2^u masks, and the operator cl[S], the
intersection of the closed supersets of S, is filled in u in-place passes
over the masks (`_closure`). The family is accepted only if the universe
and every cl[S] are flagged, which holds iff it is closed under
intersection, as cl(a & b) lies inside a and b; else NotIntersectionClosed
names a pair. Then meet is a & b and join is cl[a | b] (Davey and
Priestley, Introduction to Lattices and Order, ch. 7), both gathers through
the mask -> element table, and a <= b iff their meet is a. Only the covers are
computed from the order, as above. The sweep (`_closure_tables`) returns
nothing on a family it refuses, so that `build_from_leq` can fall back
where `_closure_lattice` raises. A closed family too wide for 2^u
entries is checked by the intersection scan (`_open_pair`) and built by
`build_from_leq`, through the masks of its own irreducibles.

Every table over all 2^u subsets comes from two in-place passes of u
rounds: `_or_subsets` ORs each entry up to every superset (the zeta
transform; Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007) and
`_closure` ANDs each flag down from every superset. `_closed_under` flags
a family given by rules, a premise P inside S forcing a conclusion C
inside S, by ORing each conclusion into its premise's entry and up: S is
closed iff what it forces lies inside it, at O(u 2^u) whatever the number
of rules. The constructions flag their closed sets so, and an od-graph's
closure operator is `_closure` of its flags. Extraction (`odgraph`) reads
its joins off `_closure` of the flagged masks J(x) (`_ji_masks`), and
`check bc` (`relational._act_table`) ORs the action on single points up
over the attribute sets, then over the point sets.

A sublattice (`sublattice_closure`) is not rebuilt: its meet and join are
its parent's tables restricted to it, and only its covers are computed.

Every search of the package runs on one backtracking core,
`_least_assignment`: isomorphism and embedding search (`_search`, behind
`find_isomorphism`, `find_embedding` and `orbit_minima`) and
`frames.p_morphism_search`. Positions take values in order, each level's
candidates are computed from the values already assigned, and the first
full assignment accepted is the answer. The core alone keeps the stack,
counts the nodes against caps.search_nodes and adds the count to the
search's stats counter. `_search` gives a level's candidates as its pool
ANDed with bitset rows of the target lattice, one per test against an
image already assigned.

Memory: besides leq, n^2 bytes, and the two tables, 2n^2 bytes each up
to 2^15 elements, a build holds the down-set bitsets, n^2/8 bytes, while
it finds the covers. Every other n-by-n computation, and the order matrix
of a wide closed family, runs in blocks of rows of at most about _BLOCK
(2^20) entries, so temporaries stay within a few times 8 MB whatever n
is; the meet check reads the order in blocks of columns of about
_BLOCK / 4 entries. A build of closed sets holds cl, 2^u int32 masks, and
the mask -> element table `pos`, 2^u int16 ids: 4 MB and 2 MB at u = 20,
the most the default Caps.max_enum allows for closed families and action
tables (for `build_R` 2^u is at most n^2). It gathers its tables in
blocks of rows of about _BLOCK / 4 entries, so each temporary holds about
1 MB of masks. On the J-mask route of `build_from_leq` the same holds
with u = |J|, and the order is compared in those blocks, so no second
order matrix is made.

Table values are element ids, so arithmetic on them stays in the table's
type: NumPy 2 keeps an int16 array int16 against a Python int. Every
offset into a flattened table, and every key packed from table values, is
therefore taken in np.intp or np.int64 (`_first_fault`,
`equations._lookup`, `equations._classes`).
"""
from __future__ import annotations

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


def _mask_words(masks: Sequence[int]) -> np.ndarray:
    """Non-negative plain-int bitmasks of any width as the rows of 64-bit
    words of an n-by-words array."""
    width = max((m.bit_length() for m in masks), default=0)
    words = max(1, -(-width // 64))
    return np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in masks),
                         dtype="<u8").reshape(len(masks), words)


def _containment(masks: Sequence[int]) -> np.ndarray:
    """leq[i, j] = masks[i] is a subset of masks[j], for non-negative plain-int
    bitmasks of any width (compared as 64-bit words)."""
    w = _mask_words(masks)
    n, words = w.shape
    leq = np.empty((n, n), dtype=bool)
    for r0, r1 in _row_blocks(n, n * words):
        leq[r0:r1] = ~(w[r0:r1, None, :] & ~w[None, :, :]).any(axis=2)
    return leq


def _open_pair(masks: Sequence[int]) -> tuple[int, int] | None:
    """The first pair (a, b) of itertools.combinations(masks, 2) whose
    intersection is not one of masks, or None. Each row's intersections
    with the later masks are looked up at once in the sorted masks, as
    integers when they fit one word, else as byte records. The lookups
    make several temporaries per word, so a block of rows holds about
    _BLOCK / 8 words."""
    w = _mask_words(masks)
    n, words = w.shape
    key = np.dtype("<u8") if words == 1 else np.dtype((np.void, 8 * words))
    members = np.sort(w.view(key)[:, 0])
    for r0, r1 in _row_blocks(n, 8 * n * words):
        both = (w[r0:r1, None, :] & w[None, r0 + 1:, :]).view(key)[..., 0]
        at = np.minimum(np.searchsorted(members, both), n - 1)
        open_ = members[at] != both
        open_ &= np.arange(r0 + 1, n) > np.arange(r0, r1)[:, None]
        if open_.any():
            i = int(np.argmax(open_.any(axis=1)))
            return masks[r0 + i], masks[r0 + 1 + int(np.argmax(open_[i]))]
    return None


def _as_bool_matrix(n: int, leq) -> np.ndarray:
    """leq as a C-contiguous boolean matrix (the meet check reads it at
    flat offsets); one that already is one is not copied."""
    arr = np.asarray(leq, dtype=bool)
    if arr.shape != (n, n):
        raise ValueError(f"leq must be {n}x{n}, got {arr.shape}")
    return np.ascontiguousarray(arr)


def build_from_leq(
    n: int,
    leq,
    labels: Sequence[str] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> FiniteLattice:
    """Validate a partial order and compute meet/join tables, bottom, top.

    After the reflexivity, antisymmetry and cover checks, an order whose
    join-irreducibles J have 2^|J| <= caps.max_enum is built by the closure
    sweep of `_closure_tables` on its masks J(x), element order kept, if
    that accepts it; any other order takes the candidate meets
    (`_meet_table`, `_first_fault`). Both give the same tables, and only
    the second raises. The module docstring gives the steps.

    Raises NotAPartialOrder / NotALattice with witnesses, SizeCapExceeded.
    """
    stats.add("order_builds", 1)
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
    for r0, r1 in _row_blocks(n, n):
        both = arr[r0:r1] & arr[:, r0:r1].T
        both[np.arange(r1 - r0), np.arange(r0, r1)] = False
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise NotAPartialOrder("not antisymmetric", (r0 + i, j))

    lo, hi = _cover_edges(arr)
    ji = np.flatnonzero(np.bincount(hi, minlength=n) == 1)
    u = len(ji)
    if 1 << u <= caps.max_enum:
        if (tables := _closure_tables(u, _ji_masks(arr, ji), arr)) is not None:
            return FiniteLattice(n, *tables, labels, lo, hi)
    meet = _meet_table(arr, lo, hi)
    join = _meet_table(arr.T, hi, lo)
    bottoms, tops = arr.all(axis=1), arr.all(axis=0)
    # a finite poset with a bottom, a top and every meet is a lattice, and
    # then the join candidates are the joins
    unmet = _first_fault(arr, meet, lo, hi, n)
    if unmet < n or not (bottoms.any() and tops.any()):
        raise _lattice_witness(arr, meet, join, lo, hi, unmet)
    return FiniteLattice(n, arr, meet, join, int(np.argmax(bottoms)),
                         int(np.argmax(tops)), labels, lo, hi)


def _cover_edges(le: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covers lo[k] < hi[k] of a reflexive antisymmetric relation, with
    lo ascending. Raises NotAPartialOrder if the relation is not transitive.

    The down-sets are bitsets: row a holds the x <= a, bit r standing for
    the element of rank r in stable down-set-size order. For each a, the
    highest rank left in the strict down-set of a is a lower cover c; its
    down-set must lie inside that of a, and it is then cleared, until
    nothing is left. When every such check passes the
    relation is transitive, by induction on |down-set of a|: every b < a
    lies below a cover found, whose smaller down-set is closed and inside
    that of a. In an order, every c < x < a has a larger down-set than c,
    so it is found or cleared before c, and c with it: the elements found
    are exactly the lower covers. Each step is a few operations on the
    down-sets as Python integers, one step per cover.
    """
    n = len(le)
    order = np.argsort(le.sum(axis=0), kind="stable")    # rank -> element
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    down = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    for r0, r1 in _row_blocks(n, n):
        down[r0:r1] = np.packbits(le[:, r0:r1][order].T, axis=1,
                                  bitorder="little")
    sets = _bitsets(down)
    element = order.tolist()
    lo, hi = [], []
    for a, r in enumerate(rank.tolist()):
        below = sets[a]
        rest = below ^ (1 << r)                 # the strict down-set of a
        while rest:
            c = element[rest.bit_length() - 1]
            if sets[c] & ~below:
                raise _transitivity_witness(le, down)
            rest &= ~sets[c]
            lo.append(c)
            hi.append(a)
    lo, hi = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)
    by_lo = np.lexsort((hi, lo))
    return lo[by_lo], hi[by_lo]


def _transitivity_witness(le: np.ndarray, down: np.ndarray) -> NotAPartialOrder:
    """The witness (c, b, a) of a relation that is not transitive: least a,
    then least b <= a, then least c <= b outside the down-set of a."""
    for a in range(len(le)):
        bs = np.flatnonzero(le[:, a])
        outside = (down[bs] & ~down[a]).any(axis=1)
        if outside.any():
            b = int(bs[np.argmax(outside)])
            c = int(np.argmax(le[:, b] & ~le[:, a]))
            return NotAPartialOrder("not transitive", (c, b, a))
    raise AssertionError("the relation is transitive")


def _lattice_witness(le: np.ndarray, meet: np.ndarray, join: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray, unmet: int) -> NotALattice:
    """The first (a, b), a < b, in row-major order of a partial order that
    has no meet, or else no join, given the candidate tables and `unmet`,
    the first column with a fault in the meets. The meets of a with every
    b exist iff every minimal element lies below a and the candidates have
    no fault in column a (`_first_fault`, whose induction runs for one a
    at a time), and dually for joins. So the witness lies in the least row
    a that fails either test. There a candidate, a common lower bound, is
    the meet iff its down-set is as large as the common down-set of a and
    b, counted in blocks of columns b (dually, up-sets for joins)."""
    n = len(le)
    down, up = le.sum(axis=0), le.sum(axis=1)
    bounded = np.append(le[down == 1].all(axis=0) & le[:, up == 1].all(axis=1),
                        False)
    a = _first_fault(le, join, lo, hi, min(unmet, int(np.argmin(bounded))))
    fails = np.zeros((2, n), dtype=bool)
    if a < n:
        for r0, r1 in _row_blocks(n, n):
            fails[0, r0:r1] = ((le[:, r0:r1] & le[:, a, None]).sum(axis=0)
                               != down[meet[a, r0:r1]])
            fails[1, r0:r1] = ((le[r0:r1] & le[a]).sum(axis=1)
                               != up[join[a, r0:r1]])
        fails[:, :a + 1] = False
    if not fails.any():
        raise AssertionError("every pair has a meet and a join")
    b = int(np.argmax(fails.any(axis=0)))
    return NotALattice("meet" if fails[0, b] else "join", (a, b))


def _meet_table(le: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The candidate meet table of a partial order with covers
    lo[k] < hi[k]: table[b, a] is the candidate meet of a and b, which is
    their meet where they have one. Sorting by height (the longest chain
    below) is a linear extension. The candidate meet of (a, b) is the
    common lower bound latest in it: b itself when b <= a,
    else the latest of the candidates of a with the lower covers of b, since
    every common lower bound lies below one of those covers. The candidates
    are filled one height at a time, upwards, each a few elementwise maxima
    over all a at once. Called on the transposed order with the covers
    reversed, this computes the candidate joins.
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
    # rank -> element, in the element type of the table it fills
    dtype = _element_dtype(n)
    order = np.argsort(height, kind="stable").astype(dtype)
    rank = np.empty(n, dtype=dtype)
    rank[order] = np.arange(n, dtype=dtype)
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

    table = np.empty((n, n), dtype=dtype)
    for r0, r1 in _row_blocks(n, n):
        # cand[b, a - r0]: rank of the candidate meet of a and b
        below = le[:, r0:r1]
        cand = np.empty((n, r1 - r0), dtype=dtype)
        cand[minimal] = np.where(below[minimal], rank[minimal, None], -1)
        for upper, slots in levels:
            best = cand[slots[0]]
            for lower in slots[1:]:
                k = len(lower)
                np.maximum(best[:k], cand[lower], out=best[:k])
            cand[upper] = np.where(below[upper], rank[upper, None], best)
        table[:, r0:r1] = order[cand]
    return table


def _first_fault(le: np.ndarray, table: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, stop: int) -> int:
    """The least column a < stop in which table[c, a] <= table[b, a] fails
    in the order le for some cover c < b, or stop if there is none, given
    the candidate meets (`_meet_table`) of a partial order, or its
    candidate joins. If there is no fault in column a and every minimal
    element lies below a, every candidate meet of a is the meet, by
    induction on b: it is b when b <= a, else one of those of a with the
    lower covers of b, which are meets, and lies above all of them. Where
    a has every meet, meets are monotone and there is no fault. The order
    is read at flat offsets, one entry per a and cover, in blocks of
    columns a of about _BLOCK / 4 entries."""
    n, flat = len(le), le.ravel()
    step = max(1, (_BLOCK >> 2) // max(1, len(lo)))
    for s0 in range(0, stop, step):
        cols = slice(s0, min(stop, s0 + step))
        at = table[lo, cols].astype(np.intp)
        at *= n
        at += table[hi, cols]
        holds = flat.take(at)
        if not holds.all():
            return s0 + int(np.argmin(holds.all(axis=0)))
    return stop


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
    Raises NotIntersectionClosed with a witness pair of members: the
    universe twice when it is missing, else the first pair of
    `_open_pair`; and ValueError for members that repeat or are not masks
    of the universe, which `make_closed_family` never gives. When the
    universe's 2^u subsets fit caps.max_enum, the family is checked and
    built by `_closure_lattice`; a wider family is checked by `_open_pair`
    and built by `build_from_leq`, from the masks of its own
    join-irreducibles when 2^|J| fits.
    """
    members = fam.members
    n = len(members)
    if n < 1:
        raise ValueError("family must be nonempty")
    if n > caps.max_lattice:
        raise SizeCapExceeded(n, caps.max_lattice)
    u = len(fam.universe)
    universe_mask = (1 << u) - 1
    if universe_mask not in members:
        raise NotIntersectionClosed((universe_mask, universe_mask))
    if len(set(members)) != n or min(members) < 0 or max(members) > universe_mask:
        raise ValueError(f"members must be distinct masks in 0..{universe_mask}")
    labels = [set_label(fam.universe, m) for m in members]
    if 1 << u <= caps.max_enum:
        return _closure_lattice(u, members, labels)
    if (pair := _open_pair(members)) is not None:
        raise NotIntersectionClosed(pair)
    return build_from_leq(n, _containment(members), labels=labels, caps=caps)


def _element_dtype(n: int) -> type:
    """The narrowest integer type of an n-element lattice's tables, which
    hold element ids 0..n-1 and, while they are built, -1."""
    return np.int16 if n <= 1 << 15 else np.int32


def _mask_dtype(u: int) -> type:
    """The integer type that holds every mask of a u-point universe."""
    return np.int32 if u < 32 else np.int64


def _closed_under(u: int, rules: Iterable[tuple[int, int]]) -> np.ndarray:
    """flags[S] for every subset mask S of a u-point universe: S is closed
    under every rule (premise, conclusion), that is, holds the conclusion
    whenever it holds the premise.

    forced[S], the union of the conclusions of the premises inside S, is
    the conclusions scattered to their premises and ORed up to every
    superset in u in-place passes, one per point; S is closed iff
    forced[S] lies inside S.
    """
    dtype = _mask_dtype(u)
    forced = np.zeros(1 << u, dtype=dtype)
    premise, conclusion = np.array(list(rules), dtype=dtype).reshape(-1, 2).T
    np.bitwise_or.at(forced, premise, conclusion)
    _or_subsets(forced, u)
    return (forced & ~np.arange(1 << u, dtype=dtype)) == 0


def _or_subsets(t: np.ndarray, u: int) -> np.ndarray:
    """t[S] becomes the OR of t[T] over the T inside S, for the subset masks
    S of a u-point universe along the first axis, in place, in u passes."""
    for i in range(u):
        pairs = t.reshape(-1, 2, 1 << i, *t.shape[1:])  # [:, 1] adds point i
        pairs[:, 1] |= pairs[:, 0]
    return t


def _ji_masks(leq: np.ndarray, ji) -> np.ndarray:
    """J(x) for every element x of an order: bit t set iff ji[t] <= x, in
    the narrowest mask type of `_mask_dtype`."""
    dtype = _mask_dtype(len(ji))
    rows = leq[np.asarray(ji, dtype=np.intp)].astype(dtype)
    return (rows << np.arange(len(ji), dtype=dtype)[:, None]).sum(axis=0, dtype=dtype)


def _closure(u: int, flags: np.ndarray) -> np.ndarray:
    """cl[S] for every subset mask S of a u-point universe: the
    intersection of the flagged supersets of S (the universe if there are
    none), filled in u in-place passes, one per point."""
    dtype = _mask_dtype(u)
    cl = np.where(flags, np.arange(1 << u, dtype=dtype), dtype((1 << u) - 1))
    for i in range(u):
        pairs = cl.reshape(-1, 2, 1 << i)           # [:, 1] adds point i
        pairs[:, 0] &= pairs[:, 1]
    return cl


def _closure_lattice(u: int, members, labels: Sequence[str]) -> FiniteLattice:
    """The lattice of the distinct masks `members` of a u-point universe,
    ordered by inclusion, element i being the set members[i], built by
    `_closure_tables`. Raises NotIntersectionClosed with the universe twice
    if it is not a member, else with the first pair of `_open_pair` if the
    members are not closed under intersection.
    """
    tables = _closure_tables(u, members)
    if tables is None:
        full = (1 << u) - 1
        masks = [int(m) for m in members]
        raise NotIntersectionClosed(
            _open_pair(masks) if full in masks else (full, full))
    stats.add("closure_builds", 1)
    leq = tables[0]
    return FiniteLattice(len(leq), *tables, tuple(labels), *_cover_edges(leq))


def _closure_tables(u: int, members, order: np.ndarray | None = None):
    """(leq, meet, join, bottom, top) of the distinct masks `members` of a
    u-point universe ordered by inclusion, element i being the set
    members[i], or None if the universe is not a member or the members
    are not closed under intersection. Given `order`, a reflexive order
    the caller claims for the elements, the masks may repeat: it is also
    None unless inclusion is that order, which two equal masks fail on the
    diagonal (their meet is one of them), and leq is `order` itself.

    The operator cl[S], the intersection of the members containing S
    (the universe if there are none), is `_closure` of the members' flags.
    The family is closed under intersection iff every cl[S] is a member:
    cl(a & b) lies inside a and b, so then it is a & b. It is then a
    lattice (Davey and Priestley, Introduction to Lattices and Order,
    ch. 7) with meet a & b and join cl[a | b], both read as gathers, a
    block of rows at a time; a <= b iff their meet is a, which is compared
    with `order` block by block, so no second order matrix is held.
    """
    full = (1 << u) - 1
    masks = np.asarray(members, dtype=_mask_dtype(u))
    n = len(masks)
    dtype = _element_dtype(n)
    ids = np.arange(n, dtype=dtype)
    pos = np.full(1 << u, -1, dtype=dtype)      # mask -> element
    pos[masks] = ids
    if pos[full] < 0:
        return None
    cl = _closure(u, pos >= 0)
    for b0, b1 in _row_blocks(1 << u, 4):      # in place: S -> element cl[S]
        cl[b0:b1] = pos[cl[b0:b1]]
    if (cl < 0).any():                          # cl[S] is no member
        return None
    leq = np.empty((n, n), dtype=bool) if order is None else order
    meet = np.empty((n, n), dtype=dtype)
    join = np.empty((n, n), dtype=dtype)
    for r0, r1 in _row_blocks(n, 4 * n):
        rows = masks[r0:r1, None]
        meet[r0:r1] = pos[rows & masks]
        join[r0:r1] = cl[rows | masks]
        if order is None:
            np.equal(meet[r0:r1], ids[r0:r1, None], out=leq[r0:r1])
        elif not np.array_equal(meet[r0:r1] == ids[r0:r1, None], order[r0:r1]):
            return None
    return leq, meet, join, int(cl[0]), int(pos[full])


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
    pos = np.empty(L.n, dtype=_element_dtype(len(idx)))  # element -> position
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
    are bijections mapping the covers onto the covers and so automorphisms; the
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
        down, up = _order_sets(L)
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


def _order_sets(L: FiniteLattice):
    """(down-set sizes, up-set sizes) of L; computed once per lattice."""
    if "order_sets" not in L._cache:
        sets = (L.leq.sum(0), L.leq.sum(1))
        for a in sets:
            a.setflags(write=False)             # shared by every search
        L._cache["order_sets"] = sets
    return L._cache["order_sets"]


def _bitsets(rows: np.ndarray) -> int | list[int]:
    """A boolean vector as the Python-int bitset of its true positions (bit
    y for position y), or a matrix as the list of its rows' bitsets; uint8
    rows are read as packed already (np.packbits, little bit order)."""
    if rows.dtype == bool:
        rows = np.packbits(rows, axis=-1, bitorder="little")
    if rows.ndim == 1:
        return int.from_bytes(rows, "little")
    width, raw = rows.shape[1], rows.tobytes()
    return [int.from_bytes(raw[r:r + width], "little")
            for r in range(0, len(raw), width or 1)]


def _members(s: int):
    """The members of a Python-int bitset, ascending."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


class _OrderRows(dict):
    """x -> (the y > x, the y < x, the y apart from x) in a lattice, as
    bitsets. Each triple is read off the order matrix the first time it
    is asked for and kept with the lattice (`_order_rows`)."""

    def __init__(self, leq: np.ndarray):
        super().__init__()
        self.leq = leq

    def __missing__(self, x: int) -> tuple[int, int, int]:
        up, down = _bitsets(np.stack((self.leq[x], self.leq[:, x])))
        rows = self[x] = (up ^ 1 << x, down ^ 1 << x, ~(up | down))
        return rows


def _order_rows(L: FiniteLattice) -> _OrderRows:
    if "order_rows" not in L._cache:
        L._cache["order_rows"] = _OrderRows(L.leq)
    return L._cache["order_rows"]


class _RowMemo(dict):
    """The pair-count and join-dominance rows of one search into L, each
    the set of L's elements y that pass one test, as a bitset:

        (t, x, d, u)  the y whose join (t = 0) or meet (t = 1) with x has
                      at least d elements below it and u above it
        (u, x)        the y with u <= y v x

    A row is built by numpy the first time it is asked for, and kept while
    the rows kept fit in `limit` bytes, n/8 bytes each; past that it is
    built and used each time but not kept. `built` counts the rows built.
    """

    def __init__(self, L: FiniteLattice, limit: int):
        super().__init__()
        self.leq, self.tables, self.sizes = L.leq, (L.join, L.meet), _order_sets(L)
        self.room = limit // -(-L.n // 8)
        self.built = 0

    def __missing__(self, key: tuple) -> int:
        if len(key) == 4:
            t, x, d, u = key
            (down, up), z = self.sizes, self.tables[t][x]
            row = _bitsets((down[z] >= d) & (up[z] >= u))
        else:
            u, x = key
            row = _bitsets(self.leq[u, self.tables[0][x]])
        self.built += 1
        if len(self) < self.room:
            self[key] = row
        return row


def _maxima(le: np.ndarray, size: np.ndarray) -> Callable[[int], list[int]]:
    """For an order on 0..m-1 (le[b, c]: b <= c) in which b < c implies
    size[b] < size[c], the function giving for each item a the maximal
    items among those numbered below a that lie strictly below it. Ranked
    by size, the highest-ranked item left is maximal; it is taken and its
    down-set cleared, until nothing is left: one step per maximal item, as
    in `_cover_edges`."""
    item = np.argsort(size, kind="stable")      # rank -> item
    rank = np.empty_like(item)
    rank[item] = np.arange(len(item))
    # the ranks of the items below item r, and of the items numbered below
    # a, as bitsets
    down = _bitsets(le[np.ix_(item, item)].T)
    item, rank, earlier = item.tolist(), rank.tolist(), [0]
    for r in rank:
        earlier.append(earlier[-1] | 1 << r)

    def maxima(a: int) -> list[int]:
        s, found = down[rank[a]] & earlier[a], []
        while s:
            r = s.bit_length() - 1
            found.append(item[r])
            s &= ~down[r]
        return found

    return maxima


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
    index order). Each level's pool keeps only the images y with
    |down-set of y| >= |down-set of g| and |up-set of y| >= |up-set of g|,
    since an embedding maps both sets of g injectively into those of its
    image. Each level then keeps the candidates y for its generator a that
    compare with every assigned image as their generators compare; whose
    joins and meets with each assigned image phi(b) have down-sets and
    up-sets at least as large as those of a v b and a ^ b (the same count
    argument, as phi(a v b) = y v phi(b)); and that keep join-dominance
    c <= a v b among irreducibles. All these filters are necessary, and the
    order test alone rules out reusing an image. A complete assignment is
    extended and verified by `_is_embedding`: a map onto L2 by its covers,
    a map into a larger L2 against the full meet and join tables. The
    filters are the candidates of `_least_assignment`, computed once per
    level from the images already assigned, so one search node is one
    image given to one generator, counted after them.

    Each test compares y with one assigned image, or with the join of two,
    so the y that pass it are a row: a set of L2's elements fixed by L2 and
    those images. A level's candidates are its pool ANDed with its rows, as
    Python-int bitsets, read out ascending (forward checking with cached
    constraint rows: Haralick and Elliott, Artificial Intelligence 14,
    1980). The order rows, which also serve the join-dominance test with
    the new generator as c, are kept with L2 (`_order_rows`). The other
    rows are built by numpy on first use, in a memo that lasts one search
    and keeps at most caps.max_enum bytes of them (`_RowMemo`); the rows it
    builds are added to the search_rows stat once per call. When the rows
    kept with L2 leave fewer candidates than one in 64 of L2's elements,
    the other tests are read off L2's tables for each candidate instead,
    since a row costs a pass over all of L2: the automorphism searches of
    `orbit_minima` try one pinned image or a few irreducibles of a large
    lattice. A level's
    pool and tests are listed when the search first reaches it, without
    the tests that others imply, so the candidates stay the same: against
    the generators below a only the maximal ones, as the images assigned
    keep their generators' order, and dually above; pair counts and
    join-dominance only against generators apart from a, since for
    comparable ones the order test and the pools imply them.
    """
    gens = np.array([L1.bottom, *L1.join_irreducibles()], dtype=np.intp)
    down1, up1 = _order_sets(L1)
    down2, up2 = _order_sets(L2)
    ix = np.ix_(gens, gens)
    le1, join1 = L1.leq[ix], L1.join[ix]
    # the maximal generators numbered before a and below it, and the
    # minimal ones above it
    maxima, minima = _maxima(le1, down1[gens]), _maxima(le1.T, up1[gens])
    # the pairs of generators apart, pb < pa, sorted by pa: level a's are
    # ends[a]:ends[a + 1], and those both assigned before level a are the
    # prefix :ends[a]
    pa, pb = np.nonzero(np.tril(~(le1 | le1.T), -1))
    ends = np.searchsorted(pa, np.arange(len(gens) + 1)).tolist()
    joins, meets = join1[pa, pb], L1.meet[gens[pa], gens[pb]]
    # per pair, the down-set and up-set sizes of a v b (t = 0) and a ^ b
    # (t = 1); when a and b compare, the order test and the pools imply them
    counts = [[(b, 0, d, u), (b, 1, d2, u2)] for b, d, u, d2, u2 in zip(
        pb.tolist(), down1[joins].tolist(), up1[joins].tolist(),
        down1[meets].tolist(), up1[meets].tolist())]
    pairs = list(zip(pb.tolist(), pa.tolist()))
    levels = []                 # the tests of each level reached so far

    def tests(a: int) -> tuple:
        """Level a's pool and the tests of its candidates against the
        generators before it, as Python ints; built when the search first
        reaches level a."""
        g, lo, hi = gens[a], ends[a], ends[a + 1]
        pool = np.zeros(L2.n, dtype=bool)
        pool[np.asarray(pools[a], dtype=np.intp)] = True
        pool &= (down2 >= down1[g]) & (up2 >= up1[g])
        # phi(a) must lie above phi(b) for b below a, below it for b above
        # a, and apart from it otherwise: rows 0, 1 and 2 of phi(b)
        apart = pb[lo:hi]
        order = ([(b, 0) for b in maxima(a)] + [(b, 1) for b in minima(a)]
                 + [(b, 2) for b in apart.tolist()])
        # c <= a v b with the new generator as c, and a and b assigned
        # apart; when they compare, a v b is one of them and the order
        # test decides
        first = [(b0, b1, want) for (b0, b1), want in zip(
            pairs[:lo], L1.leq[g, joins[:lo]].tolist())]
        # ... and with the new generator as a, b assigned apart from it,
        # and c assigned; when c lies below a or b, the order test decides
        second = []
        if hi > lo:
            c, k = np.nonzero(~(le1[:a, a, None] | le1[:a, apart]))
            second = list(zip(c.tolist(), apart[k].tolist(),
                              L1.leq[gens[c], join1[a, apart[k]]].tolist()))
        levels.append((_bitsets(pool), order,
                       [t for pair in counts[lo:hi] for t in pair],
                       first, second))
        return levels[a]

    img = [0] * len(gens)
    rows, memo, join2 = _order_rows(L2), _RowMemo(L2, caps.max_enum), L2.join
    leq2, tables2 = L2.leq, (L2.join, L2.meet)

    def passes(y: int, pair: list, second: list) -> bool:
        """Whether y passes the pair-count and join-dominance tests, read
        off L2's tables for y alone."""
        for b, t, d, u in pair:
            z = tables2[t][y, img[b]]
            if down2[z] < d or up2[z] < u:
                return False
        return all(leq2[img[c], join2[y, img[b]]] == want
                   for c, b, want in second)

    def candidates(i: int):
        s, order, pair, first, second = levels[i] if i < len(levels) else tests(i)
        for b, r in order:
            s &= rows[img[b]][r]
        for b0, b1, want in first:
            z = int(join2[img[b0], img[b1]])
            below = rows[z][1] | 1 << z
            s &= below if want else ~below
        # a row spans all of L2: with fewer candidates left than one in 64
        # of its elements, testing each on the tables is cheaper
        if s.bit_count() << 6 <= L2.n:
            return [y for y in _members(s) if passes(y, pair, second)]
        for b, t, d, u in pair:
            s &= memo[t, img[b], d, u]
        for c, b, want in second:
            row = memo[img[c], img[b]]
            s &= row if want else ~row
        return _members(s)

    def finish(img: list[int]) -> list[int] | None:
        phi = np.full(L1.n, img[0], dtype=np.intp)
        for g, y in zip(gens[1:], img[1:]):
            below = L1.leq[g]
            phi[below] = L2.join[phi[below], y]
        return phi.tolist() if _is_embedding(L1, L2, phi) else None

    try:
        return _least_assignment(img, candidates, finish, caps, "search_nodes")
    finally:
        stats.add("search_rows", memo.built)


def _least_assignment(img, candidates: Callable, finish: Callable, caps: Caps,
                      counter: str) -> tuple[object, int]:
    """(result, nodes): the result `finish` gives for the least full
    assignment of img it accepts, or None; and the search nodes it took.
    The backtracking core of every search: `_search` and
    `frames.p_morphism_search` differ only in their arguments.

    Position i takes each value of candidates(i) in order, and
    candidates(i) is read once positions 0..i-1 hold their values, so it
    can cut on them. One search node is one value given to one position; a
    node past caps.search_nodes raises SearchBudgetExceeded. finish(img)
    returns the result for a full assignment, or None to go on searching.
    The nodes are added to the `counter` stat once per call, also when the
    budget runs out. The stack is explicit, so depth costs no recursion.
    """
    nodes, cap, last = 0, caps.search_nodes, len(img) - 1
    try:
        stack = [iter(candidates(0))]
        while stack:
            i = len(stack) - 1
            for img[i] in stack[i]:
                nodes += 1
                if nodes > cap:
                    raise SearchBudgetExceeded(nodes, cap)
                if i < last:
                    stack.append(iter(candidates(i + 1)))
                    break
                if (result := finish(img)) is not None:
                    return result, nodes
            else:
                stack.pop()
        return None, nodes
    finally:
        stats.add(counter, nodes)


def _is_embedding(L1: FiniteLattice, L2: FiniteLattice, phi: np.ndarray) -> bool:
    """Whether phi, L2's element for each element of L1, is injective and
    preserves meets and joins. A bijection of finite lattices does iff it
    maps the covers onto the covers, as it is then an order isomorphism; a
    map into a larger lattice is checked against the full tables."""
    if len(set(phi.tolist())) < L1.n:
        return False
    if L1.n == L2.n:
        # L2's covers, as lo * n + hi, are ascending
        return np.array_equal(np.sort(phi[L1.lo] * L2.n + phi[L1.hi]),
                              L2.lo * L2.n + L2.hi)
    return bool((phi[L1.meet] == L2.meet[np.ix_(phi, phi)]).all()
                and (phi[L1.join] == L2.join[np.ix_(phi, phi)]).all())


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
