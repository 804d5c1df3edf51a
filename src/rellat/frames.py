"""Frames carrying n equivalence relations: confluence checking, universal
product frames, the fixed-point lattice of path closures, p-morphism search,
and the small enumeration helpers the frame-vs-embedding tests need.

Relations are stored as partitions (block id per world), so reflexivity,
symmetry, and transitivity hold by representation; raw edge input is
validated on the way in. The same representation makes the p-morphism test
a block test: a map is a p-morphism iff, for every relation, each source
block maps onto exactly one target block (forward preservation keeps its
images inside one block, the back condition makes them fill it).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DEFAULT_CAPS,
    BadFrame,
    Caps,
    SearchBudgetExceeded,
    SizeCapExceeded,
)
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
    """Build from explicit edge lists, verifying each is an equivalence."""
    w = tuple(str(x) for x in worlds)
    n = len(w)
    rels = []
    for r, edge_list in enumerate(edges):
        adj = {(int(a), int(b)) for a, b in edge_list}
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
    """Which axiom failed and on which worlds (and relations)."""

    kind: str
    rels: tuple[int, ...]
    worlds: tuple[int, ...]


def is_s5n_frame(f, edges: Iterable[Iterable[tuple[int, int]]] | None = None
                 ) -> S5Witness | None:
    """None when every relation is an equivalence and confluence holds:
    for i != j, x Ri y and x Rj z admit w with y Rj w and z Ri w.

    Pass a Frame (partitions are equivalences by construction), or a world
    list plus explicit edge lists to have the equivalence axioms checked too.
    """
    if not isinstance(f, Frame):
        n = len(tuple(f))
        for r, edge_list in enumerate(edges or ()):
            adj = {(int(a), int(b)) for a, b in edge_list}
            wit = _equivalence_violation(n, adj)
            if wit is not None:
                kind, ws = wit
                return S5Witness(kind, (r,), ws)
        f = frame_from_edges(tuple(f), edges or ())
    for i in range(f.n_rels):
        for j in range(f.n_rels):
            if i != j:
                xyz = _confluence_witness(f.rels[i], f.rels[j])
                if xyz is not None:
                    return S5Witness("confluence", (i, j), xyz)
    return None


def _confluence_witness(ri: Sequence[int], rj: Sequence[int]
                        ) -> tuple[int, int, int] | None:
    """The least (x, y, z) with x Ri y and x Rj z but no w with y Rj w and
    z Ri w, decided on block types instead of worlds.

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
    if not failing:
        return None
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


def _path_closure_table(f: Frame, caps: Caps) -> list[list[int]]:
    """For every relation subset X, the block masks of the join of the
    chosen partitions; act(X, T) is the union of blocks meeting T."""
    n = f.n_worlds
    if 1 << n > caps.max_enum:
        raise SizeCapExceeded(1 << n, caps.max_enum)
    table = []
    for x_mask in range(1 << f.n_rels):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(f.n_rels):
            if x_mask >> i & 1:
                rel = f.rels[i]
                for a in range(n):
                    for b in range(a + 1, n):
                        if rel[a] == rel[b]:
                            ra, rb = find(a), find(b)
                            if ra != rb:
                                parent[ra] = rb
        block_mask = [0] * n
        for a in range(n):
            block_mask[find(a)] |= 1 << a
        single = [block_mask[find(a)] for a in range(n)]
        row = [0] * (1 << n)
        for t in range(1, 1 << n):
            low = t & -t
            row[t] = row[t ^ low] | single[low.bit_length() - 1]
        table.append(row)
    return table


def l_of_frame(f: Frame, caps: Caps = DEFAULT_CAPS) -> SdLattice:
    """Fixed pairs (X, T) where T is a union of blocks of the joined
    partitions indexed by X; the frame analog of the semidirect product."""
    table = _path_closure_table(f, caps)
    attr_names = [str(i + 1) for i in range(f.n_rels)]
    return semidirect_core(attr_names, f.worlds,
                           lambda x, t: table[x][t], caps=caps)


def p_morphism_search(src: Frame, dst: Frame,
                      caps: Caps = DEFAULT_CAPS) -> list[int] | None:
    """The lexicographically least surjective p-morphism, or None when the
    exhaustive search finishes empty.

    Relations are partitions, so f is a p-morphism iff, for every relation,
    each source block maps onto exactly one target block. Worlds get images
    in index order, candidates in ascending order, on an explicit stack.
    Per relation and source block the search keeps the target block the
    block is bound to, the multiset of its images so far and its count of
    unassigned worlds, and cuts a partial assignment as soon as

    - forward: an image leaves its block's bound target block,
    - back: a block's unassigned worlds can no longer cover the rest of its
      target block,
    - surjectivity: the missing images exceed the worlds left.

    Each cut removes only partial assignments with no completion, so the
    first full assignment reached is the least map, and it is a surjective
    p-morphism: a block's last world leaves no image of its target block
    missing, and the last world leaves no target world missing.
    """
    if src.n_rels != dst.n_rels:
        raise BadFrame("frames carry different relation counts")
    ns, nd = src.n_worlds, dst.n_worlds
    # per relation: source block per world, target block per world, target
    # block sizes, and per source block its bound target block (-1 when no
    # world of it is assigned), image counts and unassigned-world count
    rels = []
    for s_blk, d_blk in zip(src.rels, dst.rels):
        n_sblk = max(s_blk) + 1
        left = [0] * n_sblk
        for b in s_blk:
            left[b] += 1
        size = [0] * (max(d_blk) + 1)
        for t in d_blk:
            size[t] += 1
        rels.append((s_blk, d_blk, size, [-1] * n_sblk,
                     [{} for _ in range(n_sblk)], left))
    hits = [0] * nd          # worlds mapped to each target world
    covered = 0              # target worlds hit so far
    assign: list[int] = []   # images of worlds 0 .. len(assign) - 1
    v = 0                    # next candidate for world len(assign)
    nodes = 0
    while True:
        w = len(assign)
        if w == ns:
            return assign
        for v in range(v, nd):
            if nd - covered - (hits[v] == 0) > ns - w - 1:
                continue
            for s_blk, d_blk, size, bound, images, left in rels:
                b, t = s_blk[w], d_blk[v]
                if bound[b] >= 0 and bound[b] != t:
                    break
                seen = len(images[b]) + (v not in images[b])
                if size[t] - seen > left[b] - 1:
                    break
            else:
                break  # every relation admits v
        else:
            # no candidate fits world w: undo world w - 1, try its next image
            if not assign:
                return None
            w -= 1
            v = assign.pop()
            hits[v] -= 1
            covered -= hits[v] == 0
            for s_blk, d_blk, size, bound, images, left in rels:
                b = s_blk[w]
                left[b] += 1
                images[b][v] -= 1
                if not images[b][v]:
                    del images[b][v]
                    if not images[b]:
                        bound[b] = -1
            v += 1
            continue
        nodes += 1
        if nodes > caps.search_nodes:
            raise SearchBudgetExceeded(nodes, caps.search_nodes)
        covered += hits[v] == 0
        hits[v] += 1
        for s_blk, d_blk, size, bound, images, left in rels:
            b = s_blk[w]
            bound[b] = d_blk[v]
            images[b][v] = images[b].get(v, 0) + 1
            left[b] -= 1
        assign.append(v)
        v = 0


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
    return make_frame([str(w) for w in doc["worlds"]],
                      [[int(b) for b in r] for r in doc["rels"]])
