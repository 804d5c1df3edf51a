"""Inclusion catalog and valuation checking over a finite lattice.

Exhaustive mode covers all |L|^k valuations in lexicographic order (first
variable in sorted-name order is the most significant digit), so a reported
counterexample is the lexicographically least one and the evaluation count,
its rank + 1 or |L|^k when the inclusion holds, is exact.

One scan, in one process, covers the space as a product of axes: one per
outer variable, with its n values, and one per block. A block is a run of
consecutive sorted variables that reaches the terms only through fewer
subterms than it has variables, as y0..y2 reach Unjp only through ld(ys)
and rd(ys). The blocks are disjoint runs taken shortest first, then
leftmost, so they are fixed per inclusion. For each lattice a block's tuples
are enumerated once and grouped into classes by the values of those
interface subterms, and its axis runs over the classes, each standing for
its lexicographically least tuple; so the first violation found is the
least raw witness. Each axis's values are shaped to broadcast along that
axis alone, so every subterm is evaluated only over the axes it depends on.

Two adjacent axes of the same kind, two outer variables or two blocks with
the same interface, merge into one triangular axis when swapping them fixes
both sides of the inclusion up to the order of meet and join arguments, as
y and z do in RL1 and the blocks y0..y2 and z0..z2 do in Unjp (the
lex-leader symmetry breaking of Crawford, Ginsberg, Luks and Roy, KR 1996).
The axis runs over the c(c+1)/2 pairs (a, b), a <= b, of the c values or
classes, in lexicographic order. The swap maps violations to violations,
and a violation whose first half exceeds its second has a smaller mirror
image; so the least violation has its first half at or before its second,
and, classes being ordered by their least tuples, lies in the triangle. The
scan finds the same witness over about half the space, and the evaluation
count stays defined on the raw space. A variable pair's triangle holds half
as many entries as a meet table.

The same argument runs over the automorphisms of the lattice. When the
first segment is one unpaired outer variable and the space holds more than
_CHUNK entries, that variable runs over `lattice.orbit_minima` only, the
elements least in their orbit. An automorphism maps violations to
violations, so a violation whose first value is not least in its orbit has
an image with a smaller first value, which is lexicographically smaller;
the least violation's first value is therefore an orbit minimum, and the
later axes are scanned for it as before. R(2,3) and typed 4,2 have 32
orbit minima each, of 530 and 278 elements. Smaller spaces keep the full
axis and search for no automorphisms.

Both sides of an inclusion are evaluated by one register program in which
equal subterms share a register: ld(ys) and ld(zs), which both sides of Unjp
contain, are computed once per valuation (20 table lookups, not 24; RL2
takes 17, not 23). Block interfaces share one program in the same way.

Sampled mode draws from a seeded generator and is reproducible from
(seed, samples). Every counterexample is re-verified by the scalar evaluator
before being reported.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import stats
from .errors import (
    DEFAULT_CAPS,
    BudgetExceeded,
    Caps,
    NotDistributivelyEqual,
    UnboundVariable,
    UnknownEquation,
)
from .lattice import FiniteLattice, orbit_minima
from .terms import (
    Inclusion,
    Meet,
    Term,
    Var,
    distributive_equal,
    mk_join,
    mk_meet,
    substitute,
    variables,
)

# -- the catalog -------------------------------------------------------------


def ld(u0: Term, u1: Term, u2: Term) -> Term:
    """u0 ^ (u1 v u2): the left side of the distributive law."""
    return mk_meet([u0, mk_join([u1, u2])])


def rd(u0: Term, u1: Term, u2: Term) -> Term:
    """(u0 ^ u1) v (u0 ^ u2)."""
    return mk_join([mk_meet([u0, u1]), mk_meet([u0, u2])])


def lcd(u0: Term, u1: Term, u2: Term) -> Term:
    """(u0 v u1) ^ (u0 v u2): the dual left side."""
    return mk_meet([mk_join([u0, u1]), mk_join([u0, u2])])


def rcd(u0: Term, u1: Term, u2: Term) -> Term:
    """u0 v (u1 ^ u2)."""
    return mk_join([u0, mk_meet([u1, u2])])


def _catalog() -> dict[str, Inclusion]:
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    ys = (Var("y0"), Var("y1"), Var("y2"))
    zs = (Var("z0"), Var("z1"), Var("z2"))
    cat = {}
    cat["Dist"] = Inclusion(ld(x, y, z), rd(x, y, z), name="Dist")
    cat["Unjp"] = Inclusion(
        mk_meet([x, mk_join([ld(*ys), ld(*zs), w])]),
        mk_join([
            mk_meet([x, mk_join([rd(*ys), ld(*zs), w])]),
            mk_meet([x, mk_join([ld(*ys), rd(*zs), w])]),
        ]),
        name="Unjp",
    )
    cat["RL1"] = Inclusion(
        mk_meet([x, mk_join([mk_meet([y, mk_join([z, x])]),
                             mk_meet([z, mk_join([y, x])])])]),
        mk_join([mk_meet([x, y]), mk_meet([x, z])]),
        name="RL1",
    )
    cat["RL2"] = Inclusion(
        mk_meet([x, mk_join([lcd(*ys), lcd(*zs)])]),
        mk_join([
            mk_meet([x, mk_join([rcd(*ys), lcd(*zs)])]),
            mk_meet([x, mk_join([lcd(*ys), rcd(*zs)])]),
        ]),
        name="RL2",
    )
    cat["RMod"] = Inclusion(
        mk_meet([x, mk_join([mk_meet([x, y]), ld(*zs)])]),
        mk_join([
            mk_meet([x, mk_join([mk_meet([x, y]), rd(*zs)])]),
            mk_meet([x, ld(*zs)]),
        ]),
        name="RMod",
    )
    cat["SymPC"] = Inclusion(
        mk_meet([x, mk_join([y, z])]),
        mk_join([
            mk_meet([x, mk_join([y, mk_meet([z, mk_join([x, y])])])]),
            mk_meet([x, mk_join([z, mk_meet([y, mk_join([x, z])])])]),
        ]),
        name="SymPC",
    )
    cat["VarRL1"] = Inclusion(
        mk_meet([x, mk_join([mk_meet([y, z]), mk_meet([y, x]), mk_meet([z, x])])]),
        mk_join([mk_meet([x, y]), mk_meet([x, z])]),
        name="VarRL1",
    )
    cat["Sym"] = Inclusion(
        mk_meet([x, mk_join([y, ld(*zs)])]),
        mk_join([
            mk_meet([x, mk_join([y, rd(*zs)])]),
            mk_meet([x, mk_join([y, mk_meet([ld(*zs), mk_join([y, x])])])]),
        ]),
        name="Sym",
    )
    return cat


CATALOG: dict[str, Inclusion] = _catalog()


def catalog_inclusion(name: str) -> Inclusion:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownEquation(f"unknown equation {name!r}; have {sorted(CATALOG)}")


# -- evaluation ---------------------------------------------------------------


def eval_term(L: FiniteLattice, t: Term, v: Mapping[str, int]) -> int:
    """Structural fold through L's meet/join tables."""
    if isinstance(t, Var):
        if t.name not in v:
            raise UnboundVariable(t.name)
        val = int(v[t.name])
        if not 0 <= val < L.n:
            raise ValueError(f"element {val} out of range for n={L.n}")
        return val
    table = L.meet if isinstance(t, Meet) else L.join
    acc = eval_term(L, t.args[0], v)
    for a in t.args[1:]:
        acc = int(table[acc, eval_term(L, a, v)])
    return acc


def verify_witness(L: FiniteLattice, inc: Inclusion, v: Mapping[str, int]) -> bool:
    """True iff the valuation is a genuine counterexample: lhs not <= rhs."""
    lv = eval_term(L, inc.lhs, v)
    rv = eval_term(L, inc.rhs, v)
    return not bool(L.leq[lv, rv])


def _compile(terms: Iterable[Term],
             var_index: dict[str, int]) -> tuple[tuple, tuple[int, ...]]:
    """One register program for all of `terms` and the register of each:
    ("var", i) / ("meet", a, b) / ("join", a, b) in postorder, an n-ary
    node folded from the left. Each distinct instruction is emitted once,
    so equal subterms share a register, within a term and across terms, as
    ld(ys) and ld(zs) do across the sides of Unjp."""
    prog: dict[tuple, int] = {}              # instruction -> its register

    def emit(op: tuple) -> int:
        return prog.setdefault(op, len(prog))

    def rec(s: Term) -> int:
        if isinstance(s, Var):
            return emit(("var", var_index[s.name]))
        op = "meet" if isinstance(s, Meet) else "join"
        acc = rec(s.args[0])
        for a in s.args[1:]:
            acc = emit((op, acc, rec(a)))
        return acc

    outs = tuple(rec(t) for t in terms)
    return tuple(prog), outs


def _lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for index arrays that broadcast against each other, taken
    from the flattened table with intp offsets (which cannot overflow)."""
    return table.take(a * np.intp(len(table)) + b)


def _run_program(prog: tuple, meet, join, cols: list[np.ndarray]) -> list[np.ndarray]:
    """The value of every register of prog."""
    regs: list[np.ndarray] = []
    for op in prog:
        if op[0] == "var":
            regs.append(cols[op[1]])
        else:
            table = meet if op[0] == "meet" else join
            regs.append(_lookup(table, regs[op[1]], regs[op[2]]))
    return regs


@dataclass(frozen=True)
class CheckResult:
    verdict: str                       # holds | counterexample | no_counterexample_found
    witness: dict[str, int] | None
    evaluations: int
    mode: str
    seed: int | None = None
    samples: int | None = None


_CHUNK = 1 << 16


def _first_violation(meet, join, leq, sides, cols):
    """Index, in C order of the broadcast columns, of the first entry where
    lhs <= rhs fails, or None. sides is the program of both sides and
    their two registers."""
    prog, (lhs, rhs) = sides
    regs = _run_program(prog, meet, join, cols)
    viol = ~_lookup(leq, regs[lhs], regs[rhs])
    return np.unravel_index(np.argmax(viol), viol.shape) if viol.any() else None


def _walk(axes):
    """The mixed-radix space of `axes`, (radix, value arrays) pairs, in
    lexicographic order, in blocks of at most _CHUNK digit tuples: leading
    axes are walked as scalars, one axis is sliced and the trailing axes are
    whole. Yields (head, cols): the digits of the block's first tuple, and
    each value array restricted to the block and shaped to broadcast along
    its own axis, so a term built from the columns is computed only over the
    axes it depends on."""
    radices = [r for r, _ in axes]
    s, tail = len(axes) - 1, 1
    while s > 0 and tail * radices[s] <= _CHUNK:
        tail *= radices[s]
        s -= 1
    step = _CHUNK // tail
    for prefix in itertools.product(*map(range, radices[:s])):
        for lo in range(0, radices[s], step):
            head = [*prefix, lo] + [0] * (len(axes) - s - 1)
            cols = []
            for d, (_, vals) in enumerate(axes):
                sel = (slice(head[d], head[d] + 1) if d < s else
                       slice(lo, lo + step) if d == s else slice(None))
                shape = [1] * len(axes)
                shape[d] = -1
                cols.extend(v[sel].reshape(shape) for v in vals)
            yield head, cols


# -- blocks ------------------------------------------------------------------


def _factor(t: Term, block: frozenset[str], faces: dict[Term, int],
            tag: str) -> Term:
    """t with every maximal subterm whose variables lie in `block` replaced by
    the placeholder variable tag + its index in `faces` (the block's interface
    subterms, numbered on first sight). The arguments of an n-ary node that
    lie in the block are first regrouped into one node, which meet and join
    allow by associativity, commutativity and idempotence."""
    if set(variables(t)) <= block:
        return Var(f"{tag}{faces.setdefault(t, len(faces))}")
    if isinstance(t, Var):
        return t
    inside, args = [], []
    for a in t.args:
        if set(variables(a)) <= block:
            inside.append(a)
        else:
            args.append(_factor(a, block, faces, tag))
    if inside:
        group = inside[0] if len(inside) == 1 else type(t)(tuple(inside))
        args.insert(0, _factor(group, block, faces, tag))
    return type(t)(tuple(args))


def _ac_form(t: Term):
    """t up to the order of meet and join arguments: a variable's name, or
    the node's type with the frozenset of its arguments' forms."""
    if isinstance(t, Var):
        return t.name
    return type(t), frozenset(map(_ac_form, t.args))


def _swap_fixes(inc: Inclusion, left, right) -> bool:
    """Whether swapping left[t] with right[t], for every t, leaves both
    sides of inc unchanged up to the order of meet and join arguments."""
    swap = {a: Var(b) for a, b in zip(left, right)}
    swap.update((b, Var(a)) for a, b in zip(left, right))
    return all(_ac_form(substitute(side, swap)) == _ac_form(side)
               for side in (inc.lhs, inc.rhs))


@functools.lru_cache(maxsize=256)
def _plan(inc: Inclusion):
    """The scan of inc: (segments, sides), one segment
    (start, stop, progs, paired) per axis of the scanned space, and the
    program of both sides with their registers.

    The blocks are disjoint runs of the sorted variables, short of all of
    them, with fewer interface subterms than variables: windows are tried
    shortest first, then leftmost, and each one that overlaps no block
    taken so far is factored out of the sides as already factored. A run
    around a smaller block would enumerate that block's tuples once per
    value of its other variables; the smaller block alone enumerates them
    once. progs is None for an outer variable and, for a block, the
    program of its interface subterms over the block's own variables, with
    their registers. A paired segment is
    two adjacent equal halves, two outer variables or two blocks with the
    same programs, that a swap of the halves maps onto each other while
    fixing both sides of inc; disjoint pairs are taken leftmost first. The
    sides read one column per outer variable and per interface subterm, in
    the order of the variables."""
    names = inc.variables
    k = len(names)
    lhs, rhs = inc.lhs, inc.rhs
    blocks: dict[int, tuple[int, tuple]] = {}
    for size in range(2, k):
        for i in range(k - size + 1):
            j = i + size
            if any(i < b and a < j for a, (b, _) in blocks.items()):
                continue
            tag = f"#{i}."
            block = frozenset(names[i:j])
            faces: dict[Term, int] = {}
            sides = [_factor(side, block, faces, tag) for side in (lhs, rhs)]
            if len(faces) < size:
                lhs, rhs = sides
                local = {name: p for p, name in enumerate(names[i:j])}
                blocks[i] = j, _compile(faces, local)
    var_index: dict[str, int] = {}
    segments = []
    i = 0
    while i < k:
        j, progs = blocks.get(i, (i + 1, None))
        if progs is None:
            var_index[names[i]] = len(var_index)
        else:
            for f in range(len(progs[1])):
                var_index[f"#{i}.{f}"] = len(var_index)
        segments.append((i, j, progs))
        i = j
    merged = []
    for i, j, progs in segments:
        if merged and not merged[-1][3]:
            h, _, before, _ = merged[-1]
            if before == progs and i - h == j - i and \
                    _swap_fixes(inc, names[h:i], names[i:j]):
                merged[-1] = (h, j, progs, True)
                continue
        merged.append((i, j, progs, False))
    return tuple(merged), _compile((lhs, rhs), var_index)


def _classes(meet, join, progs, n: int, s: int):
    """The n^s tuples of a block grouped by their interface values.

    Returns the rank of each class's first, hence lexicographically least,
    tuple, and per interface subterm the array of its value on each class,
    both in the order of those ranks."""
    prog, outs = progs
    m = len(outs)
    seen: dict[int, int] = {}            # packed interface values -> rank
    for head, cols in _walk([(n, [np.arange(n)])] * s):
        start = sum(h * n ** (s - 1 - d) for d, h in enumerate(head))
        regs = _run_program(prog, meet, join, cols)
        key = np.int64(0)
        for r in outs:
            key = key * n + regs[r]
        key = key.ravel()
        order = np.argsort(key, kind="stable")
        sk = key[order]
        firsts = np.sort(order[np.concatenate(([True], sk[1:] != sk[:-1]))])
        for pos, kk in zip(firsts.tolist(), key[firsts].tolist()):
            seen.setdefault(kk, start + pos)
    keys = np.fromiter(seen, dtype=np.int64, count=len(seen))
    ranks = np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
    return ranks, [(keys // n ** (m - 1 - f)) % n for f in range(m)]


def _scan(L: FiniteLattice, plan) -> int | None:
    """Rank of the lexicographically least violating valuation, or None.
    Scans one axis per segment of the plan: an outer variable's n values or
    a block's classes, each standing for its least tuple, so the first
    violation found is the least. A paired segment's axis is the triangle
    of entry pairs (a, b), a <= b, in lex order: its swap maps violations
    to violations, so the least one has its first half at or before its
    second. When the first segment is one unpaired outer variable and the
    space holds more than _CHUNK entries, its axis runs over the orbit
    minima of L only: an automorphism maps violations to violations, so a
    violation whose first value is not least in its orbit has a smaller
    image, and the least violation's first value is an orbit minimum."""
    meet, join, leq, n = L.meet, L.join, L.leq, L.n
    segments, sides = plan
    axes, ranks = [], []
    for i, j, progs, paired in segments:
        width = (j - i) // 2 if paired else j - i
        if progs is None:
            r, vals = np.arange(n), [np.arange(n)]
        else:
            r, vals = _classes(meet, join, progs, n, width)
            stats.add("blocks", 1 + paired)
            stats.add("block_classes", len(r) * (1 + paired))
        if paired:
            a, b = np.triu_indices(len(r))
            vals = [v[a] for v in vals] + [v[b] for v in vals]
            r = r[a] * n ** width + r[b]
        axes.append((len(r), vals))
        ranks.append(r)
    _, _, progs, paired = segments[0]
    if progs is None and not paired and math.prod(len(r) for r in ranks) > _CHUNK:
        minima = orbit_minima(L)
        axes[0], ranks[0] = (len(minima), [minima]), minima
    counting = stats.collecting()
    for head, cols in _walk(axes):
        if counting:
            stats.add("valuations_scanned",
                      math.prod(np.broadcast_shapes(*(c.shape for c in cols))))
        hit = _first_violation(meet, join, leq, sides, cols)
        if hit is not None:
            first = 0
            for (i, j, _, _), r, h, d in zip(segments, ranks, head, hit):
                first = first * n ** (j - i) + int(r[h + int(d)])
            return first
    return None


def check_inclusion(
    L: FiniteLattice,
    inc: Inclusion,
    mode: str = "exhaustive",
    samples: int = 10**6,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
) -> CheckResult:
    """Check lhs <= rhs over all (or sampled) valuations.

    Exhaustive: raises BudgetExceeded if |L|^k exceeds caps.eval_budget;
    returns the lexicographically least counterexample otherwise. One scan in
    this process covers the space, over block classes where the plan has
    blocks; the verdict, witness and evaluation count do not depend on the
    plan or on _CHUNK. Sampled: raises ValueError if samples < 1 and
    BudgetExceeded if samples exceeds caps.eval_budget.
    """
    vars_ = inc.variables
    k = len(vars_)
    n = L.n

    if mode == "exhaustive":
        total = n**k
        if total > caps.eval_budget:
            raise BudgetExceeded(total, caps.eval_budget)
        first = _scan(L, _plan(inc))
        if first is None:
            return CheckResult("holds", None, total, "exhaustive")
        witness = {name: first // n ** (k - 1 - i) % n
                   for i, name in enumerate(vars_)}
        if not verify_witness(L, inc, witness):
            raise AssertionError("counterexample failed re-verification")
        return CheckResult("counterexample", witness, first + 1, "exhaustive")

    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > caps.eval_budget:
        raise BudgetExceeded(samples, caps.eval_budget)
    sides = _compile((inc.lhs, inc.rhs),
                     {name: i for i, name in enumerate(vars_)})
    rng = np.random.default_rng(seed)
    done = 0
    while done < samples:
        b = min(_CHUNK, samples - done)
        # the int64 stream's values: below 2^32 both draw 32-bit words
        cols = [c for c in rng.integers(0, n, size=(k, b), dtype=np.int32)]
        hit = _first_violation(L.meet, L.join, L.leq, sides, cols)
        if hit is not None:
            pos = int(hit[0])
            witness = {name: int(cols[i][pos]) for i, name in enumerate(vars_)}
            if not verify_witness(L, inc, witness):
                raise AssertionError("counterexample failed re-verification")
            return CheckResult("counterexample", witness, done + pos + 1,
                               "sample", seed=seed, samples=samples)
        done += b
    return CheckResult("no_counterexample_found", None, samples, "sample",
                       seed=seed, samples=samples)


# -- the generated family ------------------------------------------------------


def _fresh(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    i = 0
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def gen_unjp_family(sl: Term, sr: Term, tl: Term, tr: Term,
                    caps: Caps = DEFAULT_CAPS) -> Inclusion:
    """(x ^ (sl v tl v w)) <= (x ^ (sr v tl v w)) v (x ^ (sl v tr v w))
    for fresh x, w; requires sl = sr and tl = tr on distributive lattices."""
    if not distributive_equal(sl, sr, caps):
        raise NotDistributivelyEqual("first pair differs on distributive lattices")
    if not distributive_equal(tl, tr, caps):
        raise NotDistributivelyEqual("second pair differs on distributive lattices")
    used = set()
    for t in (sl, sr, tl, tr):
        used.update(variables(t))
    x = Var(_fresh("x", used))
    w = Var(_fresh("w", used))
    lhs = mk_meet([x, mk_join([sl, tl, w])])
    rhs = mk_join([
        mk_meet([x, mk_join([sr, tl, w])]),
        mk_meet([x, mk_join([sl, tr, w])]),
    ])
    return Inclusion(lhs, rhs)
