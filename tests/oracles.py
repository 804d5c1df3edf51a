"""Brute-force reference implementations used to cross-check the package.

Everything here works from first definitions (order matrices, row dicts,
set comprehensions) and deliberately avoids the package's meet/join tables,
bitmask tricks, and caching, so a bug in those cannot hide from the tests.
Sizes are expected to be tiny; nothing here is clever. The exceptions are
`plain_scan`, which folds terms through a lattice's own tables, and
`sublattice_closure`, which closes a seed over them.
"""
from __future__ import annotations

import itertools
from math import comb

import numpy as np

from rellat import Meet, NotALattice, NotAPartialOrder, Var


# -- order-theoretic oracles (input: n and a leq predicate or matrix) -----------


def _le(leq):
    if callable(leq):
        return leq
    rows = np.asarray(leq, dtype=bool).tolist()
    return lambda a, b: rows[a][b]


def upper_bounds(n, leq, xs):
    le = _le(leq)
    return [u for u in range(n) if all(le(x, u) for x in xs)]


def least_upper_bound(n, leq, xs):
    """The minimum of the upper bounds, or None if there is no least one."""
    le = _le(leq)
    ubs = upper_bounds(n, le, xs)
    for u in ubs:
        if all(le(u, v) for v in ubs):
            return u
    return None


def greatest_lower_bound(n, leq, xs):
    le = _le(leq)
    lbs = [u for u in range(n) if all(le(u, x) for x in xs)]
    for u in lbs:
        if all(le(v, u) for v in lbs):
            return u
    return None


def is_lattice(n, leq):
    le = _le(leq)
    for a in range(n):
        for b in range(n):
            if least_upper_bound(n, le, [a, b]) is None:
                return False
            if greatest_lower_bound(n, le, [a, b]) is None:
                return False
    return True


def join_irreducibles(n, leq):
    """j that is not the least upper bound of its strict downset.

    j bounds its strict downset, so it is the least bound iff every upper
    bound of the strict downset is above j. The bottom element is the lub
    of the empty set, so it is excluded without a special case.
    """
    up = np.asarray(leq, dtype=bool)
    out = []
    for j in range(n):
        strict = up[:, j].copy()
        strict[j] = False
        bounds = up[strict].all(axis=0)
        if (bounds & ~up[j]).any():
            out.append(j)
    return out


def join_primes(n, leq):
    """Irreducibles below a join of any set only by being below a member.

    Up to 10 elements it quantifies over every subset, not just pairs, so
    it also certifies that a pairwise test is enough. Larger lattices get
    that pairwise test from the order matrix alone: j <= a v b iff every
    common upper bound of a and b is above j.
    """
    le = _le(leq)
    jis = join_irreducibles(n, leq)
    out = []
    if n > 10:
        up = np.asarray(leq, dtype=bool)
        for j in jis:
            rest = ~up[j]
            # per pair of elements not above j: common upper bounds not above j
            common = up[np.ix_(rest, rest)].astype(np.float32)
            if (common @ common.T).all():
                out.append(j)
        return out
    for j in jis:
        prime = True
        for r in range(1, n + 1):
            for xs in itertools.combinations(range(n), r):
                v = least_upper_bound(n, le, list(xs))
                if le(j, v) and not any(le(j, x) for x in xs):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(j)
    return out


def lattice_tables(n, leq):
    """Meet and join tables (lists of lists), bottom, top and the covering
    pairs (c, a) of a lattice order, by per-pair down-set lookups.

    Raises NotAPartialOrder or NotALattice with the package's witnesses:
    the least non-reflexive i; the first (i, j) in row-major order with
    i <= j <= i; for transitivity the least a, then the least b <= a, then
    the least c <= b with c not <= a, as (c, b, a); else the first (a, b),
    a < b, in row-major order with no meet, or else no join.
    """
    le = _le(leq)
    for i in range(n):
        if not le(i, i):
            raise NotAPartialOrder("not reflexive", (i,))
    for i in range(n):
        for j in range(n):
            if i != j and le(i, j) and le(j, i):
                raise NotAPartialOrder("not antisymmetric", (i, j))
    down = [frozenset(x for x in range(n) if le(x, a)) for a in range(n)]
    up = [frozenset(x for x in range(n) if le(a, x)) for a in range(n)]
    for a in range(n):
        for b in sorted(down[a]):
            for c in sorted(down[b]):
                if c not in down[a]:
                    raise NotAPartialOrder("not transitive", (c, b, a))
    by_down = {d: a for a, d in enumerate(down)}
    by_up = {u: a for a, u in enumerate(up)}
    meet = [[a if a == b else None for b in range(n)] for a in range(n)]
    join = [[a if a == b else None for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if down[a] & down[b] not in by_down:
                raise NotALattice("meet", (a, b))
            if up[a] & up[b] not in by_up:
                raise NotALattice("join", (a, b))
            meet[a][b] = meet[b][a] = by_down[down[a] & down[b]]
            join[a][b] = join[b][a] = by_up[up[a] & up[b]]
    everything = frozenset(range(n))
    return {
        "meet": meet, "join": join,
        "bottom": by_up[everything], "top": by_down[everything],
        # c < a with nothing between: only c and a lie above c and below a
        "covers": [(c, a) for c in range(n) for a in range(n)
                   if up[c] & down[a] == {c, a} and c != a],
    }


def sublattice_closure(L, seed):
    """The least subset of L containing seed and closed under L.meet and
    L.join, ascending, by a breadth-first walk over pairs."""
    current = set(int(x) for x in seed)
    frontier = list(current)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(current):
                for c in (int(L.meet[a, b]), int(L.join[a, b])):
                    if c not in current:
                        current.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(current))


def inner_posets(m):
    """Every strict order on m points as a frozenset of pairs, in a set
    filled in itertools.product order of the pair orientations (none, a<b,
    b<a), with transitivity tested pair by pair."""
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    seen = set()
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rel = set()
        for (a, b), c in zip(pairs, choice):
            if c == 1:
                rel.add((a, b))
            elif c == 2:
                rel.add((b, a))
        if all((a, c) in rel for a, b in rel for b2, c in rel if b2 == b):
            seen.add(frozenset(rel))
    return seen


def canon_key(m, rel):
    """Lexicographically least sorted strict-pair tuple of an order on m
    points over all relabelings."""
    best = None
    for perm in itertools.permutations(range(m)):
        img = tuple(sorted((perm[a], perm[b]) for a, b in rel))
        if best is None or img < best:
            best = img
    return best


def least_embedding(n1, leq1, n2, leq2):
    """The least injective meet/join-preserving map, or None.

    Walks every injective map and keeps the embedding whose (image of
    bottom, images of the join-irreducibles in index order) is least.
    """
    def tables(n, leq):
        le = _le(leq)
        pairs = itertools.product(range(n), repeat=2)
        return {(a, b): (least_upper_bound(n, le, [a, b]),
                         greatest_lower_bound(n, le, [a, b]))
                for a, b in pairs}

    ops1, ops2 = tables(n1, leq1), tables(n2, leq2)
    gens = [greatest_lower_bound(n1, leq1, range(n1))] + join_irreducibles(n1, leq1)
    best = None
    for phi in itertools.permutations(range(n2), n1):
        if all((phi[j], phi[m]) == ops2[phi[a], phi[b]]
               for (a, b), (j, m) in ops1.items()):
            key = [phi[g] for g in gens]
            if best is None or key < best[0]:
                best = (key, list(phi))
    return None if best is None else best[1]


def plain_scan(L, inc, chunk=1 << 16):
    """(verdict, witness, evaluations) of an exhaustive check of inc on L.

    A numpy scan of the raw valuations in lexicographic order, `chunk` at a
    time, each term folded through L.meet and L.join over whole columns. It
    reads the tables (the tests check them against the order) so that it
    stays fast enough for every small lattice, and shares no code with the
    package's scan: no blocks, no broadcasting over axes. Per chunk, each
    distinct subterm is folded once; values are the narrowest unsigned type
    that holds a pair index a * n + b, looked up in the flattened tables.
    """
    names = sorted(set(inc.variables))
    k, n = len(names), L.n
    dtype = np.min_scalar_type(n * n - 1)
    width = dtype.type(n)
    meet, join = L.meet.astype(dtype).ravel(), L.join.astype(dtype).ravel()
    leq = L.leq.ravel()

    def fold(t, cols, seen):
        if t not in seen:
            if isinstance(t, Var):
                seen[t] = cols[names.index(t.name)]
            else:
                table = meet if isinstance(t, Meet) else join
                acc = fold(t.args[0], cols, seen)
                for a in t.args[1:]:
                    acc = np.take(table, acc * width + fold(a, cols, seen))
                seen[t] = acc
        return seen[t]

    def digits(start, stop):
        """Column i: digit i, most significant first, of start..stop-1 in
        base n. It runs through 0..n-1 (cyclically) in runs of n^(k-1-i)."""
        out = []
        for i in range(k):
            run = n ** (k - 1 - i)
            first, last = start // run, (stop - 1) // run
            counts = np.full(last - first + 1, run)
            counts[0] -= start % run
            counts[-1] -= run - 1 - (stop - 1) % run
            values = (np.arange(first, last + 1) % n).astype(dtype)
            out.append(np.repeat(values, counts))
        return out

    for start in range(0, n**k, chunk):
        cols = digits(start, min(start + chunk, n**k))
        seen = {}
        viol = ~np.take(leq, fold(inc.lhs, cols, seen) * width
                        + fold(inc.rhs, cols, seen))
        if viol.any():
            first = start + int(np.argmax(viol))
            witness = {name: first // n ** (k - 1 - i) % n
                       for i, name in enumerate(names)}
            return "counterexample", witness, first + 1
    return "holds", None, n**k


def refines(n, leq, xs, ys):
    le = _le(leq)
    return all(any(le(x, y) for y in ys) for x in xs)


def minimal_join_covers(n, leq, j):
    """All C with j <= lub C such that every refining cover contains C.

    C and the rival covers D both range over arbitrary subsets of the
    lattice; that the survivors end up as antichains of irreducibles is a
    theorem the caller may assert, not an assumption baked in here.
    Exponential twice over; keep n at 10 or so.
    """
    le = _le(leq)
    elems = range(n)
    covers = []
    for r in range(1, n + 1):
        for c in itertools.combinations(elems, r):
            v = least_upper_bound(n, le, list(c))
            if v is None or not le(j, v):
                continue
            covers.append(set(c))
    out = []
    for c in covers:
        ok = True
        for d in covers:
            if refines(n, le, d, c) and not c <= d:
                ok = False
                break
        if ok:
            out.append(frozenset(c))
    return set(out)


# -- relational oracles (input: tables as lists of attr->value dicts) -----------


def rows_as_dicts(table):
    """Decode a package Table into a list of {attr: value} dicts."""
    names = table.schema.header_names(table.header)
    out = []
    for code in sorted(table.rows):
        vals = table.schema.decode_row(table.header, code)
        out.append(dict(zip(names, vals)))
    return out


def dict_natural_join(header1, rows1, header2, rows2):
    """Glue all compatible row pairs over the union header."""
    header = sorted(set(header1) | set(header2))
    shared = set(header1) & set(header2)
    out = []
    for r1 in rows1:
        for r2 in rows2:
            if all(r1[a] == r2[a] for a in shared):
                merged = dict(r1)
                merged.update(r2)
                if merged not in out:
                    out.append(merged)
    return header, out


def dict_inner_union(header1, rows1, header2, rows2):
    """Project both sides to the shared header and union the rows."""
    header = sorted(set(header1) & set(header2))
    out = []
    for r in itertools.chain(rows1, rows2):
        proj = {a: r[a] for a in header}
        if proj not in out:
            out.append(proj)
    return header, out


def r_size(n_attrs, n_dom):
    """Sum over headers X of 2^(|D|^|X|)."""
    total = 0
    for k in range(n_attrs + 1):
        total += comb(n_attrs, k) * 2 ** (n_dom ** k)
    return total


def act_points(space, attr_set, point_set):
    """{f : some g in T has dist(f, g) inside X}, straight from the text."""
    out = set()
    for f in range(len(space.points)):
        for g in point_set:
            if space.dist[f][g] & ~attr_set == 0:
                out.add(f)
                break
    return out


def space_violation(d):
    """(axiom, witness) of the first space axiom that the distance matrix d
    breaks, in the order identity, symmetry, separation, triangle, with the
    lexicographically least witness; None if d is an ultrametric."""
    p = len(d)
    for f in range(p):
        if d[f][f] != 0:
            return "identity", (f,)
    for f in range(p):
        for g in range(p):
            if d[f][g] != d[g][f]:
                return "symmetry", (f, g)
            if f != g and d[f][g] == 0:
                return "separation", (f, g)
    for f in range(p):
        for g in range(p):
            for h in range(p):
                if d[f][g] & ~(d[f][h] | d[h][g]):
                    return "triangle", (f, g, h)
    return None


def pairwise_complete_witness(space):
    """The first (f, g, X1, X2), scanning f, g, X1, X2 in ascending order,
    where X1 | X2 contains d(f, g) but no h has d(f, h) inside X1 and
    d(h, g) inside X2; None if there is none."""
    p = len(space.points)
    for f in range(p):
        for g in range(p):
            if f == g:
                continue
            d = space.dist[f][g]
            for x1 in range(1 << len(space.attrs)):
                for x2 in range(1 << len(space.attrs)):
                    if d & ~(x1 | x2):
                        continue
                    if not any(space.dist[f][h] & ~x1 == 0 and
                               space.dist[h][g] & ~x2 == 0 for h in range(p)):
                        return f, g, x1, x2
    return None


# -- frame oracles ----------------------------------------------------------------


def edges_of_partition(blocks):
    n = len(blocks)
    return {(i, j) for i in range(n) for j in range(n) if blocks[i] == blocks[j]}


def confluent(blocks_i, blocks_j):
    """R_i ; R_j contained in R_j ; R_i, computed on edge sets."""
    ri = edges_of_partition(blocks_i)
    rj = edges_of_partition(blocks_j)
    comp_ij = {(y, z) for (y, x1) in ri for (x2, z) in rj if x1 == x2}
    comp_ji = {(y, z) for (y, w1) in rj for (w2, z) in ri if w1 == w2}
    return comp_ij <= comp_ji


def confluence_witness(rels):
    """The least (i, j, x, y, z) with x Ri y and x Rj z but no w with
    y Rj w and z Ri w, by the n^4 world loop; None when confluent."""
    n = len(rels[0]) if rels else 0
    for i, ri in enumerate(rels):
        for j, rj in enumerate(rels):
            if i == j:
                continue
            for x in range(n):
                for y in range(n):
                    if ri[x] != ri[y]:
                        continue
                    for z in range(n):
                        if rj[x] != rj[z]:
                            continue
                        if not any(rj[y] == rj[w] and ri[z] == ri[w]
                                   for w in range(n)):
                            return i, j, x, y, z
    return None


def _pmorphism_test(src, dst):
    """A predicate on maps (image per source world): surjective, forward
    (w Ri w' gives f(w) Ri f(w')) and back (f(w) Ri v gives some w' with
    w Ri w' and f(w') = v), checked on edge sets."""
    rels = [(edges_of_partition(rs), edges_of_partition(rd))
            for rs, rd in zip(src.rels, dst.rels)]

    def ok(f):
        if len(set(f)) != dst.n_worlds:
            return False
        for es, ed in rels:
            if any((f[a], f[b]) not in ed for a, b in es):
                return False
            reach = {(a, f[b]) for a, b in es}
            if any((w, v) not in reach
                   for w in range(len(f)) for x, v in ed if x == f[w]):
                return False
        return True

    return ok


def is_pmorphism(src, dst, f):
    return _pmorphism_test(src, dst)(f)


def least_pmorphism(src, dst):
    """The lexicographically least surjective p-morphism, or None, by
    walking all maps in lexicographic order."""
    ok = _pmorphism_test(src, dst)
    for f in itertools.product(range(dst.n_worlds), repeat=src.n_worlds):
        if ok(f):
            return list(f)
    return None


def bell_number(n):
    """Partition count by the triangle recurrence."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


# -- lattice census oracle ---------------------------------------------------------


def count_lattices(k):
    """Lattices on k elements up to isomorphism, counted the slow way.

    Orients every unordered pair (below / above / incomparable) with no
    designated bottom or top, keeps the transitive antisymmetric ones,
    tests the lattice property with lub/glb scans, and canonicalizes by
    minimizing the relation over all k! relabelings.
    """
    if k == 1:
        return 1
    pairs = list(itertools.combinations(range(k), 2))
    seen = set()
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        le = [[i == j for j in range(k)] for i in range(k)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                le[i][j] = True
            elif c == 2:
                le[j][i] = True
        ok = True
        for a in range(k):
            for b in range(k):
                if not le[a][b]:
                    continue
                for c in range(k):
                    if le[b][c] and not le[a][c]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok or not is_lattice(k, le):
            continue
        rel = min(
            tuple(sorted((p[i], p[j]) for i in range(k) for j in range(k)
                         if i != j and le[i][j]))
            for p in itertools.permutations(range(k))
        )
        seen.add(rel)
    return len(seen)
