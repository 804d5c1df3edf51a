"""Frames carrying n equivalence relations: confluence checking, universal
product frames, the fixed-point lattice of path closures, p-morphism search,
and the small enumeration helpers the frame-vs-embedding tests need.

Relations are stored as partitions (block id per world), so reflexivity,
symmetry, and transitivity hold by representation; raw edge input is
validated on the way in. The same representation makes the p-morphism test
a block test: a map is a p-morphism iff, for every relation, each source
block maps onto exactly one target block (forward preservation keeps its
images inside one block, the back condition makes them fill it). The
p-morphism search runs on the backtracking core of the lattice searches,
`lattice._least_assignment`; its cuts are computed per level from the
images already assigned, so it keeps no state between levels. A target
whose relations do not commute where the source's do is refused before
the search starts, as no surjective p-morphism reaches it.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import stats
from .errors import (
    DEFAULT_CAPS,
    BadFrame,
    Caps,
    SizeCapExceeded,
    document_field,
    document_list,
)
from .lattice import _least_assignment
from .relational import SdLattice, semidirect_core


@dataclass(frozen=True)
class Frame:
    """Worlds plus one partition (block id per world) per relation."""

    worlds: tuple[str, ...]
    rels: tuple[tuple[int, ...], ...]

    @property
    def n_worlds(self) -> int:
        return len(self.worlds)

    @property
    def n_rels(self) -> int:
        return len(self.rels)


def _normalize_blocks(blocks: Sequence[int]) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    out = []
    for b in blocks:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def make_frame(worlds: Sequence[str], rels: Iterable[Sequence[int]]) -> Frame:
    """Validate and canonicalize block ids (first appearance order)."""
    w = tuple(str(x) for x in worlds)
    if not w:
        raise BadFrame("a frame needs at least one world")
    if len(set(w)) != len(w):
        raise BadFrame("duplicate world labels")
    fixed = []
    for r, blocks in enumerate(rels):
        if len(blocks) != len(w):
            raise BadFrame(f"relation {r} does not assign every world")
        fixed.append(_normalize_blocks(blocks))
    return Frame(w, tuple(fixed))


def frame_from_edges(worlds: Sequence[str],
                     edges: Iterable[Iterable[tuple[int, int]]]) -> Frame:
    """Build from explicit edge lists, verifying each is an equivalence on
    the worlds 0..n-1; an edge naming another world raises BadFrame."""
    w = tuple(str(x) for x in worlds)
    n = len(w)
    rels = []
    for r, edge_list in enumerate(edges):
        adj = {(int(a), int(b)) for a, b in edge_list}
        stray = next((e for e in sorted(adj) if not 0 <= min(e) <= max(e) < n),
                     None)
        if stray is not None:
            raise BadFrame(f"relation {r} names a world outside 0..{n - 1} "
                           f"at {stray}")
        wit = _equivalence_violation(n, adj)
        if wit is not None:
            kind, ws = wit
            raise BadFrame(f"relation {r} is not {kind} at {ws}")
        blocks = [-1] * n
        nxt = 0
        for x in range(n):
            if blocks[x] < 0:
                blocks[x] = nxt
                for y in range(n):
                    if (x, y) in adj:
                        blocks[y] = nxt
                nxt += 1
        rels.append(blocks)
    return make_frame(w, rels)


def _equivalence_violation(n: int, adj: set) -> tuple[str, tuple] | None:
    for x in range(n):
        if (x, x) not in adj:
            return "reflexive", (x,)
    for x, y in sorted(adj):
        if (y, x) not in adj:
            return "symmetric", (x, y)
    for x, y in sorted(adj):
        for z in range(n):
            if (y, z) in adj and (x, z) not in adj:
                return "transitive", (x, y, z)
    return None


@dataclass(frozen=True)
class S5Witness:
    """A failed confluence instance: its relations (i, j) and worlds."""

    kind: str
    rels: tuple[int, ...]
    worlds: tuple[int, ...]


def is_s5n_frame(f: Frame) -> S5Witness | None:
    """None when confluence holds: for i != j, x Ri y and x Rj z admit w
    with y Rj w and z Ri w, that is the composite Ri;Rj lies in Rj;Ri.

    A Frame stores partitions, so its relations are equivalences by
    construction; raw edge lists are checked by `frame_from_edges`. For
    equivalences Ri;Rj lies in Rj;Ri iff its converse Rj;Ri lies in Ri;Rj,
    so confluence fails at (i, j) iff it fails at (j, i): the pairs i < j
    decide it, and the least failing pair has i < j.
    """
    for i, j in itertools.combinations(range(f.n_rels), 2):
        if not _commute(f.rels[i], f.rels[j]):
            return S5Witness("confluence", (i, j),
                             _confluence_witness(f.rels[i], f.rels[j]))
    return None


def _commute(ri: Sequence[int], rj: Sequence[int]) -> bool:
    """Whether the equivalences Ri and Rj commute, decided on block types.

    They commute iff each block of their join is a rectangle: every Ri-block
    inside it meets every Rj-block inside it. So they commute iff any two
    Ri-blocks meet the same Rj-blocks or disjoint ones, that is iff the
    distinct sets of Rj-blocks met by an Ri-block, whose union is every
    Rj-block, add up to the Rj-block count.
    """
    met: dict[int, set[int]] = {}          # Ri-block -> Rj-blocks it meets
    for a, b in zip(ri, rj):
        met.setdefault(a, set()).add(b)
    return sum(map(len, set(map(frozenset, met.values())))) == len(set(rj))


def _confluence_witness(ri: Sequence[int], rj: Sequence[int]
                        ) -> tuple[int, int, int]:
    """The least (x, y, z) with x Ri y and x Rj z but no w with y Rj w and
    z Ri w, for relations that do not commute (`_commute`).

    meet holds the (Ri-block, Rj-block) pairs that share a world, so a w
    exists iff (Ri-block of z, Rj-block of y) is in meet. A world x of type
    (a, b) therefore fails iff some Rj-block met by a misses some Ri-block
    met by b. The type test does at most n^2 set lookups in all; the least
    failing x is then completed by scanning y and z in ascending order.
    """
    meet = set(zip(ri, rj))
    met_by_i: dict[int, set[int]] = {}     # Ri-block -> Rj-blocks it meets
    met_by_j: dict[int, set[int]] = {}     # Rj-block -> Ri-blocks it meets
    for a, b in meet:
        met_by_i.setdefault(a, set()).add(b)
        met_by_j.setdefault(b, set()).add(a)
    failing = {(a, b) for a, b in meet
               if any(not met_by_j[b] <= met_by_j[d] for d in met_by_i[a])}
    n = len(ri)
    x = next(x for x in range(n) if (ri[x], rj[x]) in failing)
    return next((x, y, z) for y in range(n) if ri[y] == ri[x]
                for z in range(n)
                if rj[z] == rj[x] and (ri[z], rj[y]) not in meet)


def universal_product(components: Sequence[str], n: int,
                      caps: Caps = DEFAULT_CAPS) -> Frame:
    """Worlds are n-tuples over the component set; relation i identifies
    tuples that agree everywhere except possibly coordinate i."""
    comps = [str(c) for c in components]
    total = len(comps) ** n
    if total > caps.max_lattice:
        raise SizeCapExceeded(total, caps.max_lattice)
    tuples = list(itertools.product(range(len(comps)), repeat=n))
    worlds = ["".join(comps[i] for i in t) for t in tuples]
    rels = []
    for i in range(n):
        blocks: dict[tuple, int] = {}
        col = []
        for t in tuples:
            key = t[:i] + t[i + 1:]
            if key not in blocks:
                blocks[key] = len(blocks)
            col.append(blocks[key])
        rels.append(col)
    return make_frame(worlds, rels)


def frame_queries(f: Frame) -> dict[str, bool]:
    """initial: some world reaches all others through the union of the
    relations; full: every relation relates two distinct worlds."""
    n = f.n_worlds
    seen = {0}
    work = [0]
    while work:
        x = work.pop()
        for rel in f.rels:
            for y in range(n):
                if rel[y] == rel[x] and y not in seen:
                    seen.add(y)
                    work.append(y)
    initial = len(seen) == n
    full = all(any(rel[a] == rel[b] for a in range(n) for b in range(a + 1, n))
               for rel in f.rels)
    return {"initial": initial, "full": full}


def _block_rules(f: Frame) -> Iterator[tuple[int, int]]:
    """The rules over the relations then the worlds: relation i together
    with world w forces w's block of i. They are generated as read, after
    the reader's cap checks."""
    r = f.n_rels
    for i, blocks in enumerate(f.rels):
        block_mask: dict[int, int] = {}
        for w, b in enumerate(blocks):
            block_mask[b] = block_mask.get(b, 0) | 1 << w
        for w, b in enumerate(blocks):
            yield 1 << i | 1 << (r + w), block_mask[b] << r


def l_of_frame(f: Frame, caps: Caps = DEFAULT_CAPS) -> SdLattice:
    """Pairs (X, T) where T is a union of blocks of the joined partitions
    indexed by X; the frame analog of the semidirect product. They are the
    sets closed under `_block_rules`: closed under the blocks of each
    partition in X is closed under the blocks of their join."""
    attr_names = [str(i + 1) for i in range(f.n_rels)]
    return semidirect_core(attr_names, f.worlds, _block_rules(f), caps=caps)


def p_morphism_search(src: Frame, dst: Frame,
                      caps: Caps = DEFAULT_CAPS) -> list[int] | None:
    """The lexicographically least surjective p-morphism, or None when no
    map exists.

    A surjective p-morphism carries commuting relations onto commuting ones
    (Blackburn, de Rijke and Venema, Modal Logic, 2001, Thm 3.14, with the
    Sahlqvist correspondent of <i><j>p -> <j><i>p), and the universal
    product frames are commutative (Gabbay, Kurucz, Wolter and
    Zakharyaschev, Many-Dimensional Modal Logics, 2003). Say y Ri x Rj z
    holds in dst: lift x to some x' through the surjection, take y' Ri x'
    and x' Rj z' over y and z by the back condition, find w with
    y' Rj w Ri z' as the source commutes, and push it forward:
    y Rj f(w) Ri z. So the search is refused, None before any node, when
    for some pair i < j the target's Ri and Rj do not commute and the
    source's do; for equivalences one inclusion of the two composites
    gives the other, so the pairs i < j suffice. The target is tested
    first, and the source only where the target fails; a refusal adds 1
    to the `pmorphism_refused` stat and none to `pmorphism_nodes`.

    Relations are partitions, so f is a p-morphism iff, for every relation,
    each source block maps onto exactly one target block. Worlds get images
    in index order, candidates in ascending order, from the backtracking
    core `lattice._least_assignment`. Each level computes its candidates
    from the images already assigned, and cuts an image v of world w when

    - surjectivity: the target worlds still missing with v exceed the
      worlds left after w;
    - then, for each relation, forward: v leaves the target block of the
      images of w's earlier block-mates;
    - back: w's later block-mates can no longer cover the rest of v's
      target block.

    Each cut removes only partial assignments with no completion, so the
    first full assignment reached is the least map, and it is a surjective
    p-morphism: a block's last world leaves no image of its target block
    missing, and the last world leaves no target world missing. Nothing
    is carried from level to level: per relation, the worlds sorted by
    source block give each world's earlier block-mates as one slice, so
    the tables take O(worlds) memory.
    """
    if src.n_rels != dst.n_rels:
        raise BadFrame("frames carry different relation counts")
    if any(not _commute(dst.rels[i], dst.rels[j])
           and _commute(src.rels[i], src.rels[j])
           for i, j in itertools.combinations(range(dst.n_rels), 2)):
        stats.add("pmorphism_refused", 1)
        return None
    ns, nd = src.n_worlds, dst.n_worlds
    # per relation: the target block of each target world, that block's
    # size and the largest size, the worlds sorted by source block, and per
    # world the (start, end) of its earlier block-mates in that order and
    # its count of later ones
    rels = []
    for s_blk, d_blk in zip(src.rels, dst.rels):
        count = Counter(d_blk)
        size = [count[t] for t in d_blk]
        order = sorted(range(ns), key=s_blk.__getitem__)
        mates = [(0, 0, 0)] * ns
        p = 0
        for _, block in itertools.groupby(order, s_blk.__getitem__):
            block = list(block)
            for k, w in enumerate(block):
                mates[w] = (p, p + k, len(block) - k - 1)
            p += len(block)
        rels.append((d_blk, size, max(size), order, mates))
    img = [0] * ns

    def candidates(w: int) -> Sequence[int]:
        # a cut that can remove no candidate is skipped: surjectivity while
        # the worlds left after w can still hit every missing target world,
        # and back while no target block is larger than w with its later
        # block-mates (an earlier block-mate puts an image in seen)
        pool = range(nd)
        if nd > ns - w - 1:
            hit = set(img[:w])
            need = nd - len(hit) - (ns - w - 1)
            if need > 0:
                pool = [v for v in pool if need <= (v not in hit)]
        for d_blk, size, biggest, order, mates in rels:
            start, end, later = mates[w]
            if start < end:
                bound = d_blk[img[order[start]]]
                pool = [v for v in pool if d_blk[v] == bound]
            if biggest > later + 1:
                seen = set(map(img.__getitem__, order[start:end]))
                room = later + len(seen)
                pool = [v for v in pool if size[v] - (v not in seen) <= room]
        return pool

    return _least_assignment(img, candidates, list, caps, "pmorphism_nodes")[0]


def all_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n worlds as a normalized block-id tuple."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(used + 1):
            rec(prefix + [b], max(used, b + 1))

    rec([], 0)
    return out


def enumerate_frames(n_worlds: int, n_rels: int) -> list[Frame]:
    """All labeled frames on the given world count: every tuple of
    partitions, worlds named w0, w1, ..."""
    worlds = [f"w{i}" for i in range(n_worlds)]
    parts = all_partitions(n_worlds)
    return [make_frame(worlds, combo)
            for combo in itertools.product(parts, repeat=n_rels)]


def frame_to_json(f: Frame) -> dict:
    return {"worlds": list(f.worlds), "rels": [list(r) for r in f.rels]}


def frame_from_json(doc: dict) -> Frame:
    """Read {"worlds", "rels"}; a document of another shape raises
    BadDocument."""
    worlds = document_list(document_field(doc, "worlds", "frame"), str, "worlds")
    rels = document_list(document_field(doc, "rels", "frame"), list, "rels")
    return make_frame(worlds, [document_list(r, int, "a relation")
                               for r in rels])
