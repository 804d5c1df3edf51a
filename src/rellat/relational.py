"""Relational lattices three ways: tables, ultrametric actions, closure systems.

Headers are bitmasks over the schema's attribute list; a row over a header is
a fixed-radix integer whose most significant digit belongs to the smallest
attribute index present. All three constructions order elements
deterministically, so cross-construction tests can rely on positions, and
all three build their lattices as families of closed sets
(`lattice._closure_lattice`). The semidirect product and the closure
system take theirs from one rule list over attributes and points, the
ultrametric rule of `_distance_rules`, flagged by `lattice._closed_under`;
the action itself is tabulated only for `bc_identity_check`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import stats
from .errors import (
    DEFAULT_CAPS,
    BadDocument,
    Caps,
    EnumerationCapExceeded,
    NotAnUltraSpace,
    NotSurjective,
    RellatError,
    SchemaMismatch,
    SizeCapExceeded,
    document_field,
    document_list,
)
from .lattice import (
    ClosedFamily,
    FiniteLattice,
    _closed_under,
    _closure_lattice,
    _mask_dtype,
    _or_subsets,
    make_closed_family,
    set_label,
)


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names and ordered domain value names."""

    attrs: tuple[str, ...]
    dom: tuple[str, ...]

    def __post_init__(self):
        if not self.attrs or not self.dom:
            raise ValueError("attrs and dom must be nonempty")
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError("duplicate attribute names")
        if len(set(self.dom)) != len(self.dom):
            raise ValueError("duplicate domain values")

    # -- headers ---------------------------------------------------------

    @property
    def full_header(self) -> int:
        return (1 << len(self.attrs)) - 1

    def header_mask(self, names: Iterable[str]) -> int:
        idx = {a: i for i, a in enumerate(self.attrs)}
        mask = 0
        for name in names:
            mask |= 1 << idx[name]
        return mask

    def header_names(self, mask: int) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.attrs) if mask >> i & 1)

    def header_size(self, mask: int) -> int:
        return bin(mask).count("1")

    def n_rows(self, mask: int) -> int:
        return len(self.dom) ** self.header_size(mask)

    # -- rows --------------------------------------------------------------

    def encode_row(self, mask: int, values: Sequence[int]) -> int:
        if len(values) != self.header_size(mask):
            raise ValueError("value count does not match header")
        base = len(self.dom)
        code = 0
        for v in values:
            code = code * base + v
        return code

    def decode_row(self, mask: int, code: int) -> tuple[int, ...]:
        base = len(self.dom)
        k = self.header_size(mask)
        out = [0] * k
        for i in range(k - 1, -1, -1):
            out[i] = code % base
            code //= base
        return tuple(out)

    def row_from_names(self, mask: int, assignment: Mapping[str, str]) -> int:
        vidx = {d: i for i, d in enumerate(self.dom)}
        values = [vidx[assignment[a]] for a in self.header_names(mask)]
        return self.encode_row(mask, values)

    def restrict_code(self, mask_from: int, code: int, mask_to: int) -> int:
        values = self.decode_row(mask_from, code)
        attrs_from = [i for i in range(len(self.attrs)) if mask_from >> i & 1]
        kept = [v for i, v in zip(attrs_from, values) if mask_to >> i & 1]
        return self.encode_row(mask_to, kept)

    def row_label(self, mask: int, code: int) -> str:
        values = self.decode_row(mask, code)
        names = [self.dom[v] for v in values]
        if not names:
            return "()"
        if all(len(s) == 1 for s in names):
            return "".join(names)
        return "(" + ",".join(names) + ")"

    def delta(self, f: int, g: int) -> int:
        """Attr mask where two full-header rows disagree."""
        fv = self.decode_row(self.full_header, f)
        gv = self.decode_row(self.full_header, g)
        mask = 0
        for i, (a, b) in enumerate(zip(fv, gv)):
            if a != b:
                mask |= 1 << i
        return mask


@dataclass(frozen=True)
class Table:
    """A relation instance: header mask plus a set of row codes."""

    schema: Schema
    header: int
    rows: frozenset[int]


def make_table(schema: Schema, attr_names: Sequence[str],
               row_tuples: Iterable[Sequence[str]]) -> Table:
    """Build from attribute names and rows of domain value names."""
    mask = schema.header_mask(attr_names)
    order = schema.header_names(mask)
    rows = set()
    for tup in row_tuples:
        if len(tup) != len(attr_names):
            raise ValueError("row width does not match header")
        assignment = dict(zip(attr_names, tup))
        rows.add(schema.row_from_names(mask, {a: assignment[a] for a in order}))
    return Table(schema, mask, frozenset(rows))


def table_label(t: Table) -> str:
    s = t.schema
    names = s.header_names(t.header)
    head = ("".join(names) if all(len(x) == 1 for x in names)
            else ",".join(names)) or "·"
    rows = ",".join(s.row_label(t.header, c) for c in sorted(t.rows))
    return f"({head}|{{{rows}}})"


def _same_schema(t1: Table, t2: Table) -> Schema:
    if t1.schema != t2.schema:
        raise SchemaMismatch("tables live over different schemas")
    return t1.schema


def restrict(t: Table, mask_to: int) -> Table:
    """Project rows onto a smaller header."""
    if mask_to & ~t.header:
        raise ValueError("can only restrict to a sub-header")
    s = t.schema
    rows = frozenset(s.restrict_code(t.header, c, mask_to) for c in t.rows)
    return Table(s, mask_to, rows)


def cylindrify(t: Table, mask_to: int) -> Table:
    """All rows over the larger header whose restriction lies in t."""
    if t.header & ~mask_to:
        raise ValueError("can only cylindrify to a super-header")
    s = t.schema
    attrs_to = [i for i in range(len(s.attrs)) if mask_to >> i & 1]
    rows = set()
    base = range(len(s.dom))
    new_positions = [p for p, i in enumerate(attrs_to) if not t.header >> i & 1]
    old_positions = [p for p, i in enumerate(attrs_to) if t.header >> i & 1]
    for c in t.rows:
        old_vals = s.decode_row(t.header, c)
        template = [0] * len(attrs_to)
        for p, v in zip(old_positions, old_vals):
            template[p] = v
        for fill in itertools.product(base, repeat=len(new_positions)):
            row = list(template)
            for p, v in zip(new_positions, fill):
                row[p] = v
            rows.add(s.encode_row(mask_to, row))
    return Table(s, mask_to, frozenset(rows))


def natural_join(t1: Table, t2: Table) -> Table:
    """Meet: union header, rows whose restrictions land in both tables."""
    s = _same_schema(t1, t2)
    h = t1.header | t2.header
    r1 = cylindrify(t1, h).rows
    r2 = cylindrify(t2, h).rows
    return Table(s, h, r1 & r2)


def inner_union(t1: Table, t2: Table) -> Table:
    """Join: shared header, union of both projections."""
    s = _same_schema(t1, t2)
    h = t1.header & t2.header
    return Table(s, h, restrict(t1, h).rows | restrict(t2, h).rows)


def table_leq(t1: Table, t2: Table) -> bool:
    """Header containment plus projected row containment."""
    _same_schema(t1, t2)
    if t2.header & ~t1.header:
        return False
    return restrict(t1, t2.header).rows <= t2.rows


# -- the direct construction ---------------------------------------------------


class RLattice:
    """The lattice of all tables over a schema, with its element list."""

    def __init__(self, schema: Schema, lattice: FiniteLattice,
                 elems: tuple[Table, ...]):
        self.schema = schema
        self.lattice = lattice
        self.elems = elems
        self._index = {t: i for i, t in enumerate(elems)}

    def index_of(self, t: Table) -> int:
        return self._index[t]


def r_size(schema: Schema) -> int:
    """Sum over headers X of 2^(|D|^|X|)."""
    total = 0
    for mask in range(schema.full_header + 1):
        total += 1 << schema.n_rows(mask)
    return total


def build_R(schema: Schema, caps: Caps = DEFAULT_CAPS) -> RLattice:
    """Every (header, row set) pair, by header, then by row set as a bitmask
    over the row codes, ordered by table_leq.

    t1 <= t2 iff the closed set of t1 (`_closed_sets`) lies inside that of
    t2, so `lattice._closure_lattice` builds the lattice from those sets.
    The size cap bounds the 2^(|A| + |D|^|A|) masks it holds too: for n
    tables they number at most n^2, as 2^|A| <= n (a table per header at
    least) and 2^(|D|^|A|) <= n (the full-header tables alone).
    """
    total = r_size(schema)
    if total > caps.max_lattice:
        raise SizeCapExceeded(total, caps.max_lattice)
    elems = [Table(schema, mask, frozenset(i for i in range(nr) if rowset >> i & 1))
             for mask in range(schema.full_header + 1)
             for nr in (schema.n_rows(mask),) for rowset in range(1 << nr)]
    n_attrs = len(schema.attrs)
    lattice = _closure_lattice(n_attrs + len(schema.dom) ** n_attrs,
                               _closed_sets(schema),
                               [table_label(t) for t in elems])
    return RLattice(schema, lattice, tuple(elems))


def _closed_sets(schema: Schema) -> np.ndarray:
    """The closed set of `closure_system_R` that each table stands for, in
    `build_R`'s element order: the attributes outside its header, and at
    bit |A| + f each full row f (its code) whose projection to the header
    is one of its rows. One numpy pass per header over its row sets and
    the full rows, whose projections are read once per header."""
    n_attrs, full = len(schema.attrs), schema.full_header
    rows = np.arange(len(schema.dom) ** n_attrs, dtype=np.int64)
    out = []
    for mask in range(full + 1):
        code = np.array([schema.restrict_code(full, f, mask) for f in rows.tolist()])
        rowsets = np.arange(1 << schema.n_rows(mask), dtype=np.int64)
        inside = rowsets[:, None] >> code & 1
        out.append((inside << rows + n_attrs).sum(axis=1) | full & ~mask)
    return np.concatenate(out)


# -- ultrametric spaces ----------------------------------------------------------


@dataclass(frozen=True)
class UltraSpace:
    """Points with a P(attrs)-valued distance; axioms hold by construction."""

    attrs: tuple[str, ...]
    points: tuple[str, ...]
    dist: tuple[tuple[int, ...], ...]


def make_space(attrs: Sequence[str], points: Sequence[str],
               dist: Sequence[Sequence[int]]) -> UltraSpace:
    """Validate identity, symmetry, separation and triangle, in that order;
    raise NotAnUltraSpace with the lexicographically least witness of the
    first axiom that fails."""
    p = len(points)
    d = tuple(tuple(int(x) for x in row) for row in dist)
    if len(d) != p or any(len(row) != p for row in d):
        raise ValueError("dist must be points x points")
    # distances are attribute bitmasks: the narrowest unsigned type that
    # holds them keeps the triangle blocks small; negative or wider values
    # stay Python ints
    lo, hi = min(map(min, d), default=0), max(map(max, d), default=0)
    dtype = np.min_scalar_type(hi) if lo >= 0 else object
    D = np.array(d, dtype=dtype).reshape(p, p)
    bad = np.flatnonzero(np.diagonal(D) != 0)
    if bad.size:
        raise NotAnUltraSpace("identity", (int(bad[0]),))
    asym = D != D.T
    bad = np.flatnonzero(asym | (D == 0) & ~np.eye(p, dtype=bool))
    if bad.size:
        f, g = divmod(int(bad[0]), p)
        raise NotAnUltraSpace("symmetry" if asym[f, g] else "separation", (f, g))
    # d(f, g) must lie within d(f, h) | d(h, g) for every h; D is symmetric
    # by now, so f's block, rows g and columns h, is
    # D[f, g] & ~D[f, h] & ~D[g, h], written into one reused buffer
    not_d = ~D
    block = np.empty_like(D)
    for f in range(p):
        np.bitwise_and(not_d[f], not_d, out=block)
        block &= D[f, :, None]
        if block.any():
            g, h = divmod(int(np.flatnonzero(block)[0]), p)
            raise NotAnUltraSpace("triangle", (f, g, h))
    return UltraSpace(tuple(attrs), tuple(points), d)


def _product_space(schema: Schema, values: Sequence[Sequence[int]],
                   caps: Caps, points: Sequence[str] | None = None) -> UltraSpace:
    """Points are the full-header rows taking, at attribute i, a value of
    values[i], in product order; the distance is the disagreement set.
    With `points`, only the rows so labelled are kept, still in product
    order, and only their distances are computed."""
    count = 1
    for v in values:
        count *= len(v)
    if count > caps.max_enum:
        raise EnumerationCapExceeded(count, caps.max_enum)
    full = schema.full_header
    choices = itertools.product(*values)
    if points is not None:
        picks = [_choice_of(schema, values, p) for p in points]
        if None in picks:
            # a label that does not parse back: look it up among every
            # row's label, which also names the unknown ones
            choices = list(choices)
            labels = [schema.row_label(full, schema.encode_row(full, c))
                      for c in choices]
            index = {p: i for i, p in enumerate(labels)}
            missing = [p for p in points if p not in index]
            if missing:
                raise RellatError(f"unknown points: {missing}; have {labels}")
            picks = [choices[index[p]] for p in points]
        rank = [{v: r for r, v in enumerate(vs)} for vs in values]
        choices = sorted(picks, key=lambda c: [r[v] for r, v in zip(rank, c)])
    codes = [schema.encode_row(full, c) for c in choices]
    labels = [schema.row_label(full, c) for c in codes]
    d = [[schema.delta(f, g) for g in codes] for f in codes]
    return make_space(schema.attrs, labels, d)


def _choice_of(schema: Schema, values: Sequence[Sequence[int]],
               label: str) -> tuple[int, ...] | None:
    """The value choice from `values` whose full-header row is labelled
    `label`, read as one character per attribute or as "(v0,v1,...)", or
    None if that reading gives no choice that renders back to `label`."""
    parts = list(label) if len(label) == len(values) else label[1:-1].split(",")
    index = {d: i for i, d in enumerate(schema.dom)}
    choice = tuple(index.get(name, -1) for name in parts)
    if len(choice) != len(values) or \
            any(v not in vs for v, vs in zip(choice, values)):
        return None
    full = schema.full_header
    if schema.row_label(full, schema.encode_row(full, choice)) != label:
        return None
    return choice


def hamming_space(schema: Schema, caps: Caps = DEFAULT_CAPS,
                  points: Sequence[str] | None = None) -> UltraSpace:
    """All full-header rows, with the disagreement-set distance; with
    `points`, the subspace of the rows with those labels (RellatError names
    any label that is not a row's)."""
    return _product_space(
        schema, [range(len(schema.dom))] * len(schema.attrs), caps, points)


def subspace(space: UltraSpace, indices: Sequence[int]) -> UltraSpace:
    idx = list(indices)
    pts = tuple(space.points[i] for i in idx)
    d = tuple(tuple(space.dist[i][j] for j in idx) for i in idx)
    return make_space(space.attrs, pts, d)


@dataclass(frozen=True)
class TypedMap:
    """A surjection from domain values onto attributes, as attr index per value."""

    schema: Schema
    pi: tuple[int, ...]

    def __post_init__(self):
        if len(self.pi) != len(self.schema.dom):
            raise ValueError("pi must assign every domain value")
        n_attrs = len(self.schema.attrs)
        if any(not 0 <= a < n_attrs for a in self.pi):
            raise ValueError("pi hits a nonexistent attribute")
        hit = set(self.pi)
        for a in range(n_attrs):
            if a not in hit:
                raise NotSurjective(a)

    def fiber(self, attr: int) -> tuple[int, ...]:
        return tuple(v for v, a in enumerate(self.pi) if a == attr)


def typed_map_from_fibers(fiber_sizes: Sequence[int]) -> TypedMap:
    """Convenience builder: attr i gets fiber_sizes[i] fresh values."""
    if not fiber_sizes or any(s < 1 for s in fiber_sizes):
        raise ValueError("every fiber must be nonempty")
    attrs = []
    dom = []
    pi = []
    for i, size in enumerate(fiber_sizes):
        name = chr(ord("a") + i) if i < 26 else f"a{i}"
        attrs.append(name)
        for k in range(size):
            dom.append(f"{name}{k}")
            pi.append(i)
    return TypedMap(Schema(tuple(attrs), tuple(dom)), tuple(pi))


def sections_space(tm: TypedMap, caps: Caps = DEFAULT_CAPS) -> UltraSpace:
    """Points are the maps choosing one fiber value per attribute."""
    return _product_space(
        tm.schema, [tm.fiber(a) for a in range(len(tm.schema.attrs))], caps)


# -- the action and the semidirect construction ------------------------------------


def act(space: UltraSpace, x_mask: int, t_mask: int) -> int:
    """Points within distance-subset x_mask of some point of t_mask."""
    out = 0
    for f in range(len(space.points)):
        m = t_mask
        while m:
            b = m & -m
            g = b.bit_length() - 1
            m ^= b
            if space.dist[f][g] & ~x_mask == 0:
                out |= 1 << f
                break
    return out


@dataclass(frozen=True)
class PCWitness:
    f: int
    g: int
    x1: int
    x2: int


def _check_caps(check: str, n_attrs: int, n_points: int, caps: Caps) -> None:
    """Refuse past caps.max_enum, from the sizes alone and in the order the
    check meets them, the 2^points, 2^attrs and 2^(attrs + points) entries
    of `check bc`'s action table and its 4^attrs split pairs (check "bc"),
    or the split pairs and then the p^2 point pairs of `check pc` ("pc")."""
    needs = ((1 << n_points, 1 << n_attrs, 1 << (n_attrs + n_points),
              4 ** n_attrs) if check == "bc" else (4 ** n_attrs, n_points ** 2))
    for need in needs:
        if need > caps.max_enum:
            raise EnumerationCapExceeded(need, caps.max_enum)


def is_pairwise_complete(space: UltraSpace,
                         caps: Caps = DEFAULT_CAPS) -> PCWitness | None:
    """None if every split of every distance admits a midpoint; else the
    first failing (f, g, X1, X2) in ascending scan order.

    Refuses the 4^attrs split pairs, then the p^2 point pairs, beyond
    caps.max_enum. With ball[X][f, g] meaning d(f, g) is inside X, a split
    (X1, X2) fails at the pairs in ball[X1|X2] that no midpoint h links by
    ball[X1][f, h] and ball[X2][h, g]. Splits go a block of X2 values at a
    time, so memory stays O(p^2) and few points with many attributes do not
    pay one numpy round per split."""
    p = len(space.points)
    _check_caps("pc", len(space.attrs), p, caps)
    dist = np.array(space.dist, dtype=np.int64).reshape(p, p)
    xs = np.arange(1 << len(space.attrs), dtype=np.int64)
    step = max(1, (1 << 16) // max(1, p * p))   # X2 values per block

    def balls(x):
        return (dist & ~x[:, None, None]) == 0

    best = None   # (f*p + g, x1, x2) of the least failure so far
    for x1 in range(len(xs)):
        near = balls(xs[x1:x1 + 1]).astype(np.float32)
        for lo in range(0, len(xs), step):
            x2 = xs[lo:lo + step]
            linked = near @ balls(x2).astype(np.float32) > 0
            bad = (balls(x1 | x2) & ~linked).reshape(len(x2), p * p)
            hit = np.flatnonzero(bad.any(axis=0))
            if hit.size and (best is None or hit[0] < best[0]):
                best = (int(hit[0]), x1, lo + int(bad[:, hit[0]].argmax()))
    if best is None:
        return None
    return PCWitness(*divmod(best[0], p), best[1], best[2])


@dataclass(frozen=True)
class BCWitness:
    x1: int
    x2: int
    t: int


def _act_table(space: UltraSpace, caps: Caps) -> np.ndarray:
    """table[x, t] = act(space, x, t) for every attribute mask x and point
    mask t, as a (2^attrs, 2^points) array of point masks in
    `lattice._mask_dtype(points)`, refused as `check bc` is
    (`_check_caps`). Each point f ORed into single[d(f, g), g] and up over
    the attribute sets gives the points within x of g; act(x, -) distributes
    over unions, so single[:, g] ORed up from {g} is the table."""
    n_attrs, p = len(space.attrs), len(space.points)
    _check_caps("bc", n_attrs, p, caps)
    stats.add("subset_entries", 1 << p)
    dist = np.array(space.dist, dtype=np.intp).reshape(p, p)
    dtype = _mask_dtype(p)
    pts = np.arange(p, dtype=dtype)
    single = np.zeros((1 << n_attrs, p), dtype=dtype)
    np.bitwise_or.at(single, (dist, pts), dtype(1) << pts[:, None])
    table = np.zeros((1 << p, 1 << n_attrs), dtype=dtype)
    table[1 << pts] = _or_subsets(single, n_attrs).T
    return _or_subsets(table, p).T


def bc_identity_check(space: UltraSpace, caps: Caps = DEFAULT_CAPS) -> BCWitness | None:
    """Check act(X1|X2, T) == act(X1, act(X2, T)) everywhere; None if it holds,
    else the first failing (X1, X2, T) in ascending scan order.

    Both sides distribute over unions of T and send the empty set to itself,
    so they agree on every T iff they agree on every single point, and when
    (X1, X2) fails, its least failing T is its least failing single point:
    any failing T holds one, and a set's mask is at least that of each of
    its points. A round compares all X2 and all points for a block of X1
    values, at most 2^16 entries, as `is_pairwise_complete` blocks X2."""
    table = _act_table(space, caps)
    xs = np.arange(len(table))
    single = table[:, 1 << np.arange(len(space.points))]   # act(x, {g})
    step = max(1, (1 << 16) // max(1, single.size))       # X1 values per round
    for lo in range(0, len(xs), step):
        x1s = xs[lo:lo + step]
        bad = single[x1s[:, None] | xs] != table[x1s[:, None, None], single]
        if bad.any():
            x1, x2, g = np.unravel_index(bad.argmax(), bad.shape)
            return BCWitness(lo + int(x1), int(x2), 1 << int(g))
    return None


class SdLattice:
    """Semidirect product of P(attrs) with the fixed point sets of an action."""

    def __init__(self, lattice: FiniteLattice, elems: tuple[tuple[int, int], ...]):
        self.lattice = lattice
        self.elems = elems
        self._index = {e: i for i, e in enumerate(elems)}

    def index_of(self, xt: tuple[int, int]) -> int:
        return self._index[xt]


def semidirect_core(
    attr_names: Sequence[str],
    point_names: Sequence[str],
    rules: Iterable[tuple[int, int]],
    caps: Caps = DEFAULT_CAPS,
) -> SdLattice:
    """Pairs (X, T) whose set X | T << attrs is closed under `rules`,
    ordered componentwise, in X-then-T order.

    Each rule (premise, conclusion) is a pair of masks over the attributes
    then the points; `lattice._closed_under` flags the closed sets, whose
    inclusion is the componentwise order. They are closed under
    intersection and hold the full pair, so `lattice._closure_lattice`
    builds the lattice from them. 2^points, then 2^attrs, then
    2^(attrs + points) must stay within caps.max_enum before any rule is
    read.
    """
    n_attrs, n_points = len(attr_names), len(point_names)
    for m in (n_points, n_attrs, n_attrs + n_points):
        if 1 << m > caps.max_enum:
            raise EnumerationCapExceeded(1 << m, caps.max_enum)
    closed = _closed_under(n_attrs + n_points, rules)
    xs, ts = np.nonzero(closed.reshape(1 << n_points, 1 << n_attrs).T)
    if len(xs) > caps.max_lattice:
        raise SizeCapExceeded(len(xs), caps.max_lattice)
    elems = list(zip(xs.tolist(), ts.tolist()))
    x_label = {x: set_label(attr_names, x) for x in set(xs.tolist())}
    t_label = {t: set_label(point_names, t) for t in set(ts.tolist())}
    labels = [f"({x_label[x]}|{t_label[t]})" for x, t in elems]
    lattice = _closure_lattice(n_attrs + n_points, xs | ts << n_attrs, labels)
    return SdLattice(lattice, tuple(elems))


def _distance_rules(n_attrs: int, dist: Sequence[Sequence[int]]
                    ) -> Iterator[tuple[int, int]]:
    """The ultrametric rules over n_attrs attributes then the points of a
    symmetric distance matrix: for points f != g, the distance d(f, g)
    together with g forces f. They are generated as read, after the
    reader's cap checks."""
    return ((d | 1 << (n_attrs + g), 1 << (n_attrs + f))
            for g, row in enumerate(dist)
            for f, d in enumerate(row) if f != g)


def semidirect(space: UltraSpace, caps: Caps = DEFAULT_CAPS) -> SdLattice:
    """The semidirect product over an ultrametric space's action: the pairs
    (X, T) with T fixed by the action of X, the sets closed under the
    distance rules."""
    return semidirect_core(space.attrs, space.points,
                           _distance_rules(len(space.attrs), space.dist),
                           caps=caps)


def typed_R(tm: TypedMap, caps: Caps = DEFAULT_CAPS) -> SdLattice:
    """The typed relational lattice: semidirect over the sections space.
    Its 2^sections point sets are checked against caps.max_enum before
    the sections' p^2 distances are computed, as `semidirect_core` would
    check them after."""
    n_points = math.prod(len(tm.fiber(a)) for a in range(len(tm.schema.attrs)))
    if n_points <= caps.max_enum < 1 << n_points:
        raise EnumerationCapExceeded(1 << n_points, caps.max_enum)
    return semidirect(sections_space(tm, caps), caps=caps)


def rel_to_semidirect_map(rl: RLattice, sd: SdLattice) -> list[int]:
    """Position map realizing (X, T) -> (A minus X, all rows projecting into T);
    sd must be the semidirect product of the schema's full Hamming space, whose
    points are the full-header rows in code order. Each table's pair is its
    closed set (`_closed_sets`) split at bit |A|."""
    n_attrs = len(rl.schema.attrs)
    full = rl.schema.full_header
    return [sd.index_of((m & full, m >> n_attrs))
            for m in _closed_sets(rl.schema).tolist()]


# -- the closure-system construction ---------------------------------------------


def closure_system_R(schema: Schema, caps: Caps = DEFAULT_CAPS) -> ClosedFamily:
    """All subsets of attrs + full rows closed under: if delta(f,g) and g lie
    inside S then f lies in S.

    These are the distance rules (`_distance_rules`) of delta over the
    full rows in code order, and `lattice._closed_under` flags every
    subset closed under all of them at once. The size error gives the
    full number of closed sets.
    """
    n_attrs = len(schema.attrs)
    n_fun = len(schema.dom) ** n_attrs
    universe_bits = n_attrs + n_fun
    if 1 << universe_bits > caps.max_enum:
        raise EnumerationCapExceeded(1 << universe_bits, caps.max_enum)
    universe = list(schema.attrs) + [
        schema.row_label(schema.full_header, c) for c in range(n_fun)
    ]
    dist = [[schema.delta(f, g) for g in range(n_fun)] for f in range(n_fun)]
    closed = _closed_under(universe_bits, _distance_rules(n_attrs, dist))
    count = int(closed.sum())
    if count > caps.max_lattice:
        raise SizeCapExceeded(count, caps.max_lattice)
    return make_closed_family(universe, np.flatnonzero(closed).tolist())


# -- JSON interchange ----------------------------------------------------------


def space_to_json(space: UltraSpace) -> dict:
    names = list(space.attrs)
    return {
        "attrs": names,
        "points": list(space.points),
        "dist": [
            [[names[i] for i in range(len(names)) if cell >> i & 1]
             for cell in row]
            for row in space.dist
        ],
    }


def space_from_json(doc: dict) -> UltraSpace:
    """Read {"attrs", "points", "dist"}; a document of another shape raises
    BadDocument, a distance breaking an axiom NotAnUltraSpace."""
    attrs = document_list(document_field(doc, "attrs", "space"), str, "attrs")
    idx = {a: i for i, a in enumerate(attrs)}
    points = document_list(document_field(doc, "points", "space"), str, "points")
    for what, names in (("attribute", attrs), ("point", points)):
        if len(set(names)) != len(names):
            raise BadDocument(f"duplicate {what} names")
    dist = []
    for row in document_list(document_field(doc, "dist", "space"), list, "dist"):
        cells = [document_list(cell, str, "a distance") for cell in
                 document_list(row, list, "a dist row")]
        if any(a not in idx for cell in cells for a in cell):
            raise BadDocument("a distance names an attribute not in attrs")
        dist.append([sum(1 << idx[a] for a in cell) for cell in cells])
    if len(dist) != len(points) or any(len(row) != len(points) for row in dist):
        raise BadDocument(f"dist must be {len(points)} rows of {len(points)} "
                          "distances")
    return make_space(attrs, points, dist)


def table_to_json(t: Table) -> dict:
    s = t.schema
    names = s.header_names(t.header)
    return {
        "header": list(names),
        "rows": [
            [s.dom[v] for v in s.decode_row(t.header, c)]
            for c in sorted(t.rows)
        ],
    }


def table_from_json(schema: Schema, doc: dict) -> Table:
    return make_table(schema, [str(a) for a in doc["header"]],
                      [[str(v) for v in row] for row in doc["rows"]])

