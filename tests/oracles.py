"""Brute-force reference implementations used to cross-check the package.

Everything here works from first definitions (order matrices, row dicts,
set comprehensions) and deliberately avoids the package's meet/join tables,
bitmask tricks, and caching, so a bug in those cannot hide from the tests.
Sizes are expected to be tiny; nothing here is clever. The exceptions are
`plain_scan`, which folds terms through a lattice's own tables,
`sublattice_closure`, which closes a seed over them, `sampled_scan`,
which folds sampled valuations through them,
`automorphism_orbit_minima`, which checks maps against them,
`bc_identity_witness`, which reads a space's action table, and
`reference_search`, the numpy candidate filters of lattice search, which
runs on the package's own backtracking core.
"""
from __future__ import annotations

import itertools
import random
from math import comb

import numpy as np

from rellat import Meet, NotALattice, NotAPartialOrder, Var, lattice


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


def intersection_witness(members):
    """The first pair (a, b) of members, in itertools.combinations order,
    whose intersection is not a member, or None."""
    present = set(members)
    for a, b in itertools.combinations(members, 2):
        if a & b not in present:
            return a, b
    return None


def closed_under_rules(u, rules):
    """For every subset S of u points, as a mask in order: S holds the
    conclusion of each (premise, conclusion) rule whose premise it holds."""
    return [all(c & ~s == 0 for p, c in rules if p & ~s == 0)
            for s in range(1 << u)]


def closure_of_flags(u, flags):
    """For every subset S of u points, as a mask in order: the intersection
    of the flagged supersets of S, the universe if there are none."""
    out = []
    for s in range(1 << u):
        cl = (1 << u) - 1
        for t in range(1 << u):
            if flags[t] and s & ~t == 0:
                cl &= t
        out.append(cl)
    return out


def random_family(seed, max_size=12):
    """(universe size, members) of the family random_lattice(seed,
    max_size) is built from: the same draws from the same stream, closed
    under intersection by a worklist of pairwise intersections."""
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
            return bits, sorted(masks)


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


def automorphism_orbit_minima(L):
    """The elements of L that no automorphism moves below themselves.

    Every permutation of the join-irreducibles is extended by joins (x goes
    to the join of the images of the irreducibles below it) and kept when
    the extension is a bijection that L.meet and L.join agree with.
    """
    n, leq = L.n, L.leq.tolist()
    meet, join = L.meet.tolist(), L.join.tolist()
    bottom = greatest_lower_bound(n, leq, range(n))
    ji = join_irreducibles(n, leq)
    least = list(range(n))
    for perm in itertools.permutations(ji):
        phi = []
        for x in range(n):
            y = bottom
            for j, image in zip(ji, perm):
                if leq[j][x]:
                    y = join[y][image]
            phi.append(y)
        if len(set(phi)) == n and all(
                phi[meet[a][b]] == meet[phi[a]][phi[b]]
                and phi[join[a][b]] == join[phi[a]][phi[b]]
                for a in range(n) for b in range(n)):
            least = [min(m, y) for m, y in zip(least, phi)]
    return [x for x in range(n) if least[x] == x]


def reference_search(L1, L2, pools, caps):
    """(phi, nodes) of `lattice._search` by the array filters it replaced:
    each level tests every candidate of its pool against every assigned
    image with numpy calls on the pool, the order test through L2's
    packed down-set and up-set rows. It runs on the same core,
    `lattice._least_assignment`, with the same `finish`, so the least map,
    the node count and any SearchBudgetExceeded must agree with
    `_search` exactly."""
    gens = np.array([L1.bottom, *L1.join_irreducibles()], dtype=np.intp)
    down1, up1 = L1.leq.sum(0), L1.leq.sum(1)
    # L2's order rows as bitsets: a level tests every candidate against
    # every assigned image in one pass over n/8 bytes per candidate
    down2, up2 = L2.leq.sum(0), L2.leq.sum(1)
    below2, above2 = np.packbits(L2.leq.T, axis=1), np.packbits(L2.leq, axis=1)
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
    img = np.zeros(len(gens), dtype=np.intp)

    def bits(ys):
        v = np.zeros(L2.n, dtype=bool)
        v[ys] = True
        return np.packbits(v)

    def candidates(i):
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

    def finish(img):
        phi = np.full(L1.n, img[0], dtype=np.intp)
        for g, y in zip(gens[1:], img[1:]):
            below = L1.leq[g]
            phi[below] = L2.join[phi[below], y]
        return phi.tolist() if lattice._is_embedding(L1, L2, phi) else None

    return lattice._least_assignment(img, candidates, finish, caps,
                                     "search_nodes")


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


def sampled_scan(L, inc, samples, seed, chunk=1 << 16):
    """(verdict, witness, evaluations) of a sampled check of inc on L.

    The package's draws: per round, k columns of `chunk` values (fewer in
    the last round) from numpy's default_rng(seed), k the number of
    variables in sorted order. Each side is folded through L.meet and
    L.join on its own, sharing nothing with the other.
    """
    names = sorted(set(inc.variables))
    k, n = len(names), L.n

    def fold(t, cols):
        if isinstance(t, Var):
            return cols[names.index(t.name)]
        table = L.meet if isinstance(t, Meet) else L.join
        acc = fold(t.args[0], cols)
        for a in t.args[1:]:
            acc = table[acc, fold(a, cols)]
        return acc

    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        cols = rng.integers(0, n, size=(k, min(chunk, samples - done)),
                            dtype=np.int64)
        viol = ~L.leq[fold(inc.lhs, cols), fold(inc.rhs, cols)]
        if viol.any():
            pos = int(np.argmax(viol))
            witness = {name: int(cols[i, pos]) for i, name in enumerate(names)}
            return "counterexample", witness, done + pos + 1
        done += cols.shape[1]
    return "no_counterexample_found", None, samples


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


# -- cover-graph oracles (input: an ODGraph's cover list, flags and order) -------


def cover_step(covers, jp, k0, c, k1):
    """k1 is non-prime, outside c, and c plus k1 is a listed cover of k0;
    covers is the set of (element, sorted cover) entries."""
    return (not jp[k1] and k1 not in c
            and (k0, tuple(sorted({*c, k1}))) in covers)


def cover_completions(g):
    """(k, C - {x}) -> every y, ascending, that completes C - {x} to a
    listed cover of k, for each listed cover C of k and member x, found by
    trying every element as y."""
    covers = set(g.mjc)
    out = {}
    for k, cov in g.mjc:
        for x in cov:
            rest = tuple(y for y in cov if y != x)
            out[(k, rest)] = tuple(
                y for y in range(g.n)
                if y not in rest and (k, tuple(sorted((*rest, y)))) in covers)
    return out


def graph_join_le(g, k, parts):
    """k lies in the least down-set that holds parts and is closed under
    every cover rule, that is, below the join of parts in the lattice the
    graph determines."""
    s = {a for p in parts for a in range(g.n) if g.le(a, p)}
    grown = True
    while grown:
        grown = False
        for j, cov in g.mjc:
            if j not in s and set(cov) <= s:
                s |= {a for a in range(g.n) if g.le(a, j)}
                grown = True
    return k in s


def cover_search_witness(g, name):
    """The first failing instance of pi-SymPC, pi-StrongSymPC,
    atomistic-iii or prop-last as (element, cover, context), in (element,
    cover, split) order, trying every element of the graph as the midpoint
    or pivot; None when the property holds."""
    covers, n = set(g.mjc), g.n

    def step(k0, c, k1):
        return cover_step(covers, g.jp, k0, c, k1)

    def covered(k, c, x):
        return (k, tuple(sorted({*c, x}))) in covers

    def splits(c):
        for mask in range(1, (1 << len(c)) - 1):
            yield (tuple(x for i, x in enumerate(c) if mask >> i & 1),
                   tuple(x for i, x in enumerate(c) if not mask >> i & 1))

    steps = [(k0, tuple(x for x in cov if x != k1), k1, cov)
             for k0, cov in g.mjc for k1 in cov if not g.jp[k1]]
    if name in ("pi-SymPC", "atomistic-iii"):
        joins = name == "pi-SymPC"
        for k0, rest, k2, cov in steps:
            for c0, c1 in splits(rest):
                if not any(step(k0, c0, k1) and step(k1, c1, k2)
                           and (not joins or graph_join_le(g, k1, c0 + (k0,)))
                           for k1 in range(n)):
                    tail = "" if joins else " (join-free)"
                    return k0, cov, (f"no midpoint from {k0} to {k2} through "
                                     f"split {c0} / {c1}{tail}")
    elif name == "pi-StrongSymPC":
        for k, cov in g.mjc:
            for c0, c1 in splits(cov):
                if not any(kp not in b and covered(k, b, kp) and (kp, a) in covers
                           and graph_join_le(g, kp, b + (k,))
                           for kp in range(n) for a, b in ((c0, c1), (c1, c0))):
                    return k, cov, f"no pivot for split {c0} / {c1}"
    elif name == "prop-last":
        for k0, cov in g.mjc:
            for k2 in cov:
                if not g.le(k2, k0):
                    continue
                rest = tuple(x for x in cov if x != k2)
                for c0, c1 in splits(rest):
                    if not any(step(k0, c0, k1) and covered(k1, c1, k2)
                               and graph_join_le(g, k1, c0 + (k0,))
                               for k1 in range(n)):
                        return k0, cov, (f"no pivot past {k2} through split "
                                         f"{c0} / {c1}")
    else:
        raise ValueError(name)
    return None


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


def bc_identity_witness(table):
    """The first (X1, X2, T), scanning X1, X2 in ascending order, where
    table[X1 | X2][T] != table[X1][table[X2][T]], one X2 row at a time;
    None if there is none. table[x, t] is the action of attribute set x on
    point set t."""
    for x1 in range(len(table)):
        for x2 in range(len(table)):
            bad = np.flatnonzero(table[x1 | x2] != table[x1][table[x2]])
            if bad.size:
                return x1, x2, int(bad[0])
    return None


# -- frame oracles ----------------------------------------------------------------


def path_closure_table(f):
    """table[x, t] for every relation mask x and world mask t: the union of
    the blocks of the join of the partitions in x that meet t, as a
    (2^rels, 2^worlds) array, from a union-find over the worlds per x."""
    n = f.n_worlds
    rows = []
    for x_mask in range(1 << f.n_rels):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(f.n_rels):
            if x_mask >> i & 1:
                first = {}
                for a, b in enumerate(f.rels[i]):
                    parent[find(a)] = find(first.setdefault(b, a))
        block_mask = [0] * n
        for a in range(n):
            block_mask[find(a)] |= 1 << a
        rows.append([0] * (1 << n))
        for t in range(1, 1 << n):
            a = t.bit_length() - 1
            rows[-1][t] = rows[-1][t ^ 1 << a] | block_mask[find(a)]
    return np.array(rows)


def fixed_pairs(table):
    """The pairs (x, t) with table[x, t] == t, in x-then-t order."""
    return [(x, t) for x, row in enumerate(np.asarray(table).tolist())
            for t, v in enumerate(row) if v == t]


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
