"""Inclusion checking: exhaustive and sampled scans against a slow evaluator."""
from __future__ import annotations

import hashlib
import itertools
import operator
import random

import numpy as np
import pytest

from rellat import (
    BudgetExceeded,
    CATALOG,
    Caps,
    Inclusion,
    Join,
    Meet,
    NotDistributivelyEqual,
    UnboundVariable,
    UnknownEquation,
    Var,
    all_lattices_upto,
    build_from_leq,
    catalog_inclusion,
    check_inclusion,
    check_property,
    eval_term,
    extract_od_graph,
    gen_unjp_family,
    ld,
    mk_meet,
    parse,
    random_lattice,
    rd,
    verify_witness,
)
from rellat import equations, lattice, stats
from conftest import boolean_cube, chain, diamond_m3, leq_from_covers, pentagon_n5
import oracles

YS = (Var("y0"), Var("y1"), Var("y2"))


# -- slow reference evaluation -------------------------------------------------


def oracle_tables(L):
    """Meet/join tables recomputed from the order alone."""
    n = L.n
    join = [[oracles.least_upper_bound(n, L.leq, [a, b]) for b in range(n)]
            for a in range(n)]
    meet = [[oracles.greatest_lower_bound(n, L.leq, [a, b]) for b in range(n)]
            for a in range(n)]
    return meet, join


def oracle_check(L, inc):
    """(verdict, witness, rank) by a plain lexicographic python scan.

    A subterm's value depends only on its own variables, so a subterm over
    fewer than all of them keeps its values per assignment to its own; the
    rest are folded through the tables at every valuation.
    """
    meet, join = oracle_tables(L)
    names = sorted(set(inc.variables))

    def compile_term(t):
        """(positions of t's variables, t as a function of a valuation)."""
        if isinstance(t, Var):
            i = names.index(t.name)
            return {i}, operator.itemgetter(i)
        table = meet if isinstance(t, Meet) else join
        own, args = set(), []
        for a in t.args:
            vs, f = compile_term(a)
            own |= vs
            args.append(f)

        first, rest = args[0], args[1:]

        def value(vals):
            acc = first(vals)
            for f in rest:
                acc = table[acc][f(vals)]
            return acc

        if len(own) == len(names):
            return own, value
        key, memo = operator.itemgetter(*sorted(own)), {}

        def cached(vals):
            k = key(vals)
            try:
                return memo[k]
            except KeyError:
                v = memo[k] = value(vals)
                return v

        return own, cached

    lhs, rhs = compile_term(inc.lhs)[1], compile_term(inc.rhs)[1]
    for rank, vals in enumerate(itertools.product(range(L.n), repeat=len(names))):
        if not L.leq[lhs(vals), rhs(vals)]:
            return "counterexample", dict(zip(names, vals)), rank
    return "holds", None, L.n ** len(names)


# -- catalog -----------------------------------------------------------------------


def test_catalog_names():
    assert sorted(CATALOG) == ["Dist", "RL1", "RL2", "RMod",
                               "Sym", "SymPC", "Unjp", "VarRL1"]


def test_catalog_variable_counts():
    counts = {name: len(set(CATALOG[name].variables)) for name in CATALOG}
    assert counts == {"Dist": 3, "RL1": 3, "SymPC": 3, "VarRL1": 3,
                      "RMod": 5, "Sym": 5, "RL2": 7, "Unjp": 8}


def test_unknown_equation():
    with pytest.raises(UnknownEquation):
        catalog_inclusion("NoSuchLaw")


# -- scalar evaluation --------------------------------------------------------------


def test_eval_term_unbound(m3):
    with pytest.raises(UnboundVariable):
        eval_term(m3, Var("q"), {"x": 0})


def test_eval_term_range(m3):
    with pytest.raises(ValueError):
        eval_term(m3, Var("x"), {"x": 99})


def test_verify_witness_distributivity_fails_on_diamond(m3):
    # three distinct atoms: a ^ (b v c) = a but (a^b) v (a^c) = bottom
    assert verify_witness(m3, CATALOG["Dist"], {"x": 1, "y": 2, "z": 3})
    assert not verify_witness(m3, CATALOG["Dist"], {"x": 1, "y": 1, "z": 3})


# -- exhaustive mode ----------------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: boolean_cube(2), lambda: chain(3)])
def test_distributivity_holds_on_distributive_fixtures(make):
    L = make()
    res = check_inclusion(L, CATALOG["Dist"])
    assert res.verdict == "holds"
    assert res.witness is None
    assert res.evaluations == L.n ** 3
    assert res.mode == "exhaustive"


def assert_matches_slow_scan(L, inc):
    verdict, witness, rank = oracle_check(L, inc)
    res = check_inclusion(L, inc)
    assert res.verdict == verdict
    assert res.witness == witness
    if verdict == "counterexample":
        assert res.evaluations == rank + 1
        assert verify_witness(L, inc, res.witness)
    else:
        assert res.evaluations == L.n ** len(set(inc.variables))


@pytest.mark.parametrize("make", [diamond_m3, pentagon_n5,
                                  lambda: chain(3), lambda: boolean_cube(2)])
@pytest.mark.parametrize("name", ["Dist", "RL1", "SymPC", "VarRL1", "RMod", "Sym"])
def test_exhaustive_matches_slow_scan(make, name):
    assert_matches_slow_scan(make(), CATALOG[name])


@pytest.mark.parametrize("make", [lambda: chain(3), lambda: boolean_cube(2),
                                  diamond_m3, pentagon_n5])
@pytest.mark.parametrize("name", ["RL2", "Unjp"])
def test_wide_equations_match_slow_scan(make, name):
    assert_matches_slow_scan(make(), CATALOG[name])


def outcome(res):
    return res.verdict, res.witness, res.evaluations


def has_block(inc):
    """Whether the scan of inc has a block axis."""
    return any(progs is not None for _, _, progs, _ in equations._plan(inc)[0])


def relabel(L, perm):
    """L with element i renamed perm[i]."""
    inv = np.argsort(perm)
    return build_from_leq(L.n, L.leq[np.ix_(inv, inv)])


def relabel_downward(L):
    """L with bottom at the highest index."""
    return relabel(L, list(range(L.n))[::-1])


@pytest.mark.parametrize("name", ["Unjp", "RL2", "RMod", "Sym"])
def test_factored_scan_matches_plain_scan(small_lattices, name):
    inc = CATALOG[name]
    assert has_block(inc)
    lattices = [L for L in small_lattices if L.n <= 6]
    lattices += [relabel_downward(L) for L in lattices if L.n <= 5]
    for L in lattices:
        res = check_inclusion(L, inc)
        assert outcome(res) == oracles.plain_scan(L, inc)


@pytest.mark.parametrize("text", [
    "x ^ y0 ^ (y1 v y2) <= (y0 ^ y1) v (y0 ^ y2)",
    "(y0 ^ y1) v x <= (x v y0) ^ (x v y1) ^ w",
    # the runs (x, y) and (y, z) overlap
    "x ^ y ^ z <= w",
])
def test_factored_scan_under_relabeling(small_lattices, text):
    """Block classes scanned in the order of their least tuples, which under
    shuffled element labels is far from the order of their values."""
    inc = parse(text)
    assert has_block(inc)
    rng = random.Random(0)
    for L in small_lattices:
        if not 3 <= L.n <= 6:
            continue
        for _ in range(3):
            perm = list(range(L.n))
            rng.shuffle(perm)
            L2 = relabel(L, perm)
            res = check_inclusion(L2, inc)
            assert outcome(res) == oracles.plain_scan(L2, inc)


@pytest.mark.parametrize("name", ["Unjp", "RL2"])
def test_factored_scan_across_chunks(m3, n5, monkeypatch, name):
    """Block classes and the factored space spanning many chunks."""
    inc = CATALOG[name]
    lattices = [m3, n5, relabel_downward(m3), relabel_downward(n5)]
    want = [oracles.plain_scan(L, inc) for L in lattices]
    monkeypatch.setattr(equations, "_CHUNK", 7)
    for L, expected in zip(lattices, want):
        res = check_inclusion(L, inc)
        assert outcome(res) == expected


def test_catalog_blocks():
    """The runs of sorted variables each law is factored over."""
    got = {}
    for name, inc in CATALOG.items():
        segments = equations._plan(inc)[0]
        names = inc.variables
        got[name] = []
        for i, j, progs, paired in segments:
            if progs is not None:
                halves = [(i, (i + j) // 2), ((i + j) // 2, j)] if paired else [(i, j)]
                got[name] += [names[a:b] for a, b in halves]
    ys, zs = ("y0", "y1", "y2"), ("z0", "z1", "z2")
    assert got == {"Dist": [], "RL1": [], "SymPC": [], "VarRL1": [],
                   "Unjp": [ys, zs], "RL2": [ys, zs], "RMod": [zs], "Sym": [zs]}


def test_overlapping_runs_take_the_leftmost():
    # (x, y) and (y, z) each reach the sides through one meet; the block is
    # the leftmost shortest run, fixed per inclusion
    inc = parse("x ^ y ^ z <= w")
    blocks = [inc.variables[i:j]
              for i, j, progs, _ in equations._plan(inc)[0] if progs is not None]
    assert blocks == [("x", "y")]


def symmetric_pairs(inc):
    """The halves of each paired segment in the scan of inc."""
    names = inc.variables
    return [(names[i:(i + j) // 2], names[(i + j) // 2:j])
            for i, j, _, paired in equations._plan(inc)[0] if paired]


def test_catalog_symmetric_pairs():
    """The variable swaps each law's scan folds into a triangle."""
    got = {name: symmetric_pairs(inc) for name, inc in CATALOG.items()}
    ys, zs = ("y0", "y1", "y2"), ("z0", "z1", "z2")
    yz = [(("y",), ("z",))]
    assert got == {"Dist": yz, "RL1": yz, "SymPC": yz, "VarRL1": yz,
                   "Unjp": [(ys, zs)], "RL2": [(ys, zs)], "RMod": [], "Sym": []}


@pytest.mark.parametrize("chunk", [3, 7, 30])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_symmetric_scan_matches_plain_scan(small_lattices, monkeypatch,
                                           name, chunk):
    """Every law on the small lattices, their downward relabelings and
    shuffled copies (up to 7, 6 and 5 elements for laws of 3, 5 and more
    variables), with the triangle sliced across chunks."""
    inc = CATALOG[name]
    top = {3: 7, 5: 6}.get(len(inc.variables), 5)
    lattices = [L for L in small_lattices if L.n <= top]
    lattices += [relabel_downward(L) for L in lattices]
    lattices += [shuffled(L, seed) for seed, L in enumerate(lattices)]
    want = [oracles.plain_scan(L, inc) for L in lattices]
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    for L, expected in zip(lattices, want):
        assert outcome(check_inclusion(L, inc)) == expected


@pytest.mark.parametrize("name, first, second", [
    ("Dist", ("y",), ("z",)),
    ("Unjp", ("y0", "y1", "y2"), ("z0", "z1", "z2")),
])
def test_least_witness_has_first_half_strictly_lower(m3, name, first, second):
    # the least witness lies strictly inside the triangle, so a scan of the
    # other triangle (first half >= second) finds its mirror image instead
    inc = CATALOG[name]
    assert symmetric_pairs(inc) == [(first, second)]
    res = check_inclusion(m3, inc)
    assert [res.witness[v] for v in first] < [res.witness[v] for v in second]
    assert outcome(res) == oracles.plain_scan(m3, inc)


@pytest.mark.parametrize("text", [
    # RL1 with x, y, z renamed b, a, c: the symmetric a and c are not
    # adjacent in sorted order
    "b ^ ((a ^ (c v b)) v (c ^ (a v b))) <= (b ^ a) v (b ^ c)",
    # swapping y and z fixes the left side only
    "x ^ (y v z) <= (x ^ y) v z",
    # swapping the blocks y0..y2 and z0..z2 fixes both sides, but their
    # interface subterms come in opposite orders (ld, rd and rd, ld), so
    # their classes cannot serve one axis
    "(y0 ^ (y1 v y2) v (z0 ^ z1) v (z0 ^ z2))"
    " ^ ((y0 ^ y1) v (y0 ^ y2) v z0 ^ (z1 v z2)) <= x",
])
def test_unfixed_swaps_take_unreduced_scan(small_lattices, text):
    inc = parse(text)
    assert symmetric_pairs(inc) == []
    for L in small_lattices:
        if 2 <= L.n <= 6:
            assert outcome(check_inclusion(L, inc)) == oracles.plain_scan(L, inc)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_scan_counts_half_the_space_of_a_symmetric_law(monkeypatch, chunk):
    # SymPC holds on a chain; its (y, z) triangle has n(n + 1)/2 entries per
    # value of x, while evaluations counts the raw space
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    with stats.collect() as counters:
        res = check_inclusion(chain(6), CATALOG["SymPC"])
    assert outcome(res) == ("holds", None, 6**3)
    assert counters == {"valuations_scanned": 6 * 21, "order_builds": 1}


def test_scan_counts_chunks_up_to_the_witness(m3, monkeypatch):
    # Dist fails on the diamond at (1, 2, 3): past 15 triangle entries for
    # x = 0 and 10 for x = 1, one entry per chunk
    monkeypatch.setattr(equations, "_CHUNK", 1)
    with stats.collect() as counters:
        res = check_inclusion(m3, CATALOG["Dist"])
    assert outcome(res) == ("counterexample", {"x": 1, "y": 2, "z": 3},
                            25 + 2 * 5 + 3 + 1)
    # the space outgrows a chunk, so x runs over the orbit minima 0, 1, 4,
    # found by two automorphism searches of four nodes and six filter
    # rows each
    assert counters == {"valuations_scanned": 15 + 10 + 1, "search_nodes": 8,
                        "search_rows": 12}


def test_scan_counts_block_classes(m3):
    with stats.collect() as counters:
        check_inclusion(m3, CATALOG["RMod"])
    segments = equations._plan(CATALOG["RMod"])[0]
    classes = equations._classes(m3.meet, m3.join, segments[-1][2], m3.n, 3)[0]
    assert counters["blocks"] == 1
    assert counters["block_classes"] == len(classes) < m3.n ** 3


def test_interleaved_block_takes_plain_scan(m3, n5):
    # Sym with z0, z1, z2 renamed a, c, e and x, y renamed b, d: the three
    # still reach the term only through two subterms, but b and d sit
    # between them in sorted order, so no run of variables forms a block
    inc = parse("b ^ (d v (a ^ (c v e))) <= (b ^ (d v (a ^ c) v (a ^ e)))"
                " v (b ^ (d v (a ^ (c v e) ^ (d v b))))")
    assert inc.variables == ("a", "b", "c", "d", "e")
    assert not has_block(inc)
    for L in (m3, n5):
        assert_matches_slow_scan(L, inc)


def test_witness_in_later_block_class(m3):
    # y0..y2 reach the term only through ld and rd. The block's first class
    # is that of the tuple (0, 0, 0); this witness's tuple lies in another
    inc = Inclusion(mk_meet([Var("x"), ld(*YS)]), rd(*YS))
    assert has_block(inc)
    for L in (m3, relabel_downward(m3)):
        res = check_inclusion(L, inc)
        assert res.verdict == "counterexample"
        assert [res.witness[y.name] for y in YS] != [0, 0, 0]
        assert_matches_slow_scan(L, inc)


def test_budget_exceeded(m3):
    with pytest.raises(BudgetExceeded,
                       match="390625 exceeds the eval_budget cap 1000"):
        check_inclusion(m3, CATALOG["Unjp"], caps=Caps(eval_budget=1000))


def chain_under_diamond():
    """A chain 0 < ... < 60 under a diamond (atoms 61..63, top 64)."""
    return build_from_leq(65, leq_from_covers(
        65, [(i, i + 1) for i in range(60)]
        + [(60, a) for a in (61, 62, 63)] + [(a, 64) for a in (61, 62, 63)]))


def test_scan_walks_prefix_and_slices_middle_axis(monkeypatch):
    # x ^ (y v z) <= (x ^ y) v z has no block and no symmetric pair, so the
    # scan has one axis per variable; with 1000 entries per evaluated block,
    # x is walked as a scalar, y is sliced 15 values at a time and z is
    # whole. The least witness is the diamond's atoms, far into the space
    L = chain_under_diamond()
    inc = parse("x ^ (y v z) <= (x ^ y) v z")
    monkeypatch.setattr(equations, "_CHUNK", 1000)
    res = check_inclusion(L, inc)
    assert res.witness == {"x": 61, "y": 62, "z": 63}
    assert res.evaluations == 61 * 65**2 + 62 * 65 + 63 + 1
    assert outcome(res) == oracles.plain_scan(L, inc)


def test_scan_slices_triangle_of_symmetric_pair(monkeypatch):
    # RL1's (y, z) triangle has 2,145 pairs; x is walked as a scalar and the
    # triangle sliced 1000 at a time, and the witness is the same atoms
    L = chain_under_diamond()
    inc = CATALOG["RL1"]
    monkeypatch.setattr(equations, "_CHUNK", 1000)
    res = check_inclusion(L, inc)
    assert res.witness == {"x": 61, "y": 62, "z": 63}
    assert res.evaluations == 61 * 65**2 + 62 * 65 + 63 + 1
    assert outcome(res) == oracles.plain_scan(L, inc)


def shuffled(L, seed=0):
    perm = list(range(L.n))
    random.Random(seed).shuffle(perm)
    return relabel(L, perm)


@pytest.mark.parametrize("chunk", [3, 7, 30])
@pytest.mark.parametrize("text", [
    "RL1", "SymPC", "VarRL1",
    "x ^ (y v (z ^ (w v x))) <= (x ^ y) v (x ^ z) v (x ^ w)",
])
def test_no_block_scan_matches_plain_scan(m3, n5, monkeypatch, text, chunk):
    """Outer axes only, in blocks smaller than one axis (3), than two (7)
    and than three (30) at n = 5."""
    inc = CATALOG[text] if text in CATALOG else parse(text)
    lattices = [m3, n5, relabel_downward(m3), relabel_downward(n5),
                shuffled(m3), shuffled(n5)]
    assert not has_block(inc)
    want = [oracles.plain_scan(L, inc) for L in lattices]
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    for L, expected in zip(lattices, want):
        res = check_inclusion(L, inc)
        assert outcome(res) == expected


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_orbit_scan_matches_plain_scan(small_lattices, monkeypatch, name):
    """Every law on the lattices of 2 to 6 elements and shuffled copies of
    them, with chunks so small that every scan's first variable runs over
    the orbit minima alone."""
    inc = CATALOG[name]
    lattices = [L for L in small_lattices if 2 <= L.n <= 6]
    lattices += [shuffled(L, seed) for seed, L in enumerate(lattices)]
    assert any(len(lattice.orbit_minima(L)) < L.n for L in lattices)
    want = [oracles.plain_scan(L, inc) for L in lattices]
    monkeypatch.setattr(equations, "_CHUNK", 7)
    for L, expected in zip(lattices, want):
        assert outcome(check_inclusion(L, inc)) == expected


def test_scan_of_one_element_lattice(monkeypatch):
    L = build_from_leq(1, np.ones((1, 1), dtype=bool))
    inc = parse("x <= x")
    for chunk in (1, 1 << 16):
        monkeypatch.setattr(equations, "_CHUNK", chunk)
        res = check_inclusion(L, inc)
        assert outcome(res) == ("holds", None, 1)


def test_scan_finds_last_non_constant_valuation(monkeypatch):
    # on the two-element chain the last valuation (1, 1) is constant, and a
    # lattice term at a constant valuation is that constant, so no inclusion
    # fails there; x <= y fails first at (1, 0), the valuation before it
    L = chain(2)
    inc = parse("x <= y")
    assert oracle_check(L, inc) == ("counterexample", {"x": 1, "y": 0}, 2)
    for chunk in (1, 2, 1 << 16):
        monkeypatch.setattr(equations, "_CHUNK", chunk)
        res = check_inclusion(L, inc)
        assert outcome(res) == ("counterexample", {"x": 1, "y": 0}, 3)


# -- sampled mode -------------------------------------------------------------------


def test_sample_finds_diamond_counterexample(m3):
    res = check_inclusion(m3, CATALOG["Dist"], mode="sample",
                          samples=2000, seed=0)
    assert res.verdict == "counterexample"
    assert verify_witness(m3, CATALOG["Dist"], res.witness)
    assert res.mode == "sample" and res.seed == 0


def test_sample_reports_only_absence(b3):
    res = check_inclusion(b3, CATALOG["Dist"], mode="sample",
                          samples=500, seed=1)
    assert res.verdict == "no_counterexample_found"
    assert res.evaluations == 500
    assert res.samples == 500


def test_sample_is_reproducible(m3):
    a = check_inclusion(m3, CATALOG["Dist"], mode="sample", samples=300, seed=7)
    b = check_inclusion(m3, CATALOG["Dist"], mode="sample", samples=300, seed=7)
    assert a == b


def _sampled_outcomes(lattices):
    """Every catalog law sampled 3000 times at seeds 0 and 5 on each
    lattice."""
    for L in lattices:
        for name in sorted(CATALOG):
            for seed in (0, 5):
                res = check_inclusion(L, CATALOG[name], mode="sample",
                                      samples=3000, seed=seed)
                yield L, name, seed, res


@pytest.mark.parametrize("chunk", [1 << 16, 97])
def test_sample_matches_separate_folds(monkeypatch, chunk):
    """The shared program of both sides finds what folding each side on
    its own finds, from the same draws, also across rounds."""
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    lattices = all_lattices_upto(5) + [random_lattice(s) for s in range(6)]
    for L, name, seed, res in _sampled_outcomes(lattices):
        assert outcome(res) == oracles.sampled_scan(
            L, CATALOG[name], 3000, seed, chunk)


def test_int32_draws_are_the_int64_stream():
    """A sampled scan draws int32 columns; they are the values, and leave
    the generator in the state, of the int64 draws, so sampled witnesses
    and evaluation counts are those of int64 draws."""
    for n in [*range(1, 4097), 1 << 15, (1 << 16) + 1, 10**6, (1 << 31) - 1]:
        for seed in (0, n):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            wide = a.integers(0, n, size=(3, 40), dtype=np.int64)
            narrow = b.integers(0, n, size=(3, 40), dtype=np.int32)
            assert np.array_equal(wide, narrow), n
            assert a.bit_generator.state == b.bit_generator.state, n


def test_sampled_results_are_pinned(monkeypatch):
    """Verdicts, witnesses and counts on lattices of up to 6 elements and
    ten random lattices, whole and in rounds of 97 draws, digested."""
    lattices = all_lattices_upto(6) + [random_lattice(s) for s in range(10)]
    got = []
    for chunk in (1 << 16, 97):
        monkeypatch.setattr(equations, "_CHUNK", chunk)
        got += [(res.verdict, sorted((res.witness or {}).items()),
                 res.evaluations)
                for _, _, _, res in _sampled_outcomes(lattices)]
    assert sum(verdict == "counterexample" for verdict, _, _ in got) == 154
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "0faf9ffd90110d66fb3b8c036eff2cf03bfe13a587051d8add0445072b21bf5a")


@pytest.mark.parametrize("name, lookups", [("Unjp", 20), ("RL2", 17),
                                           ("Dist", 5)])
def test_sides_share_equal_subterms(name, lookups):
    """ld(ys) and ld(zs) in Unjp, lcd(ys) and lcd(zs) in RL2, are each
    computed once for both sides."""
    inc = CATALOG[name]
    prog, (lhs, rhs) = equations._compile(
        (inc.lhs, inc.rhs), {v: i for i, v in enumerate(inc.variables)})
    assert sum(op[0] != "var" for op in prog) == lookups
    assert len(set(prog)) == len(prog) and lhs != rhs


def test_sample_rejects_nonpositive_count(m3):
    with pytest.raises(ValueError, match="samples"):
        check_inclusion(m3, CATALOG["Dist"], mode="sample", samples=-5)


def test_sample_budget_exceeded(m3):
    with pytest.raises(BudgetExceeded,
                       match="1001 exceeds the eval_budget cap 1000"):
        check_inclusion(m3, CATALOG["Dist"], mode="sample", samples=1001,
                        caps=Caps(eval_budget=1000))


# -- the generated family -----------------------------------------------------------


def test_gen_family_reproduces_catalog_entry():
    ys = (Var("y0"), Var("y1"), Var("y2"))
    zs = (Var("z0"), Var("z1"), Var("z2"))
    inc = gen_unjp_family(ld(*ys), rd(*ys), ld(*zs), rd(*zs))
    assert inc.lhs == CATALOG["Unjp"].lhs
    assert inc.rhs == CATALOG["Unjp"].rhs


def test_gen_family_needs_distributive_equality():
    with pytest.raises(NotDistributivelyEqual):
        gen_unjp_family(Var("a"), Var("b"), Var("c"), Var("c"))


def test_gen_family_picks_fresh_variables():
    inc = gen_unjp_family(Var("x"), Var("x"), Var("w"), Var("w"))
    assert len(set(inc.variables)) == 4  # x, w, and two fresh ones


# -- a small derivability shadow ----------------------------------------------------


def test_three_axioms_force_rl1_on_small_lattices():
    """Wherever RMod, VarRL1, and Unjp all hold, RL1 holds too (n <= 6)."""
    checked = 0
    for L in all_lattices_upto(6):
        premise = all(
            check_inclusion(L, CATALOG[name]).verdict == "holds"
            for name in ("RMod", "VarRL1", "Unjp")
        )
        if premise:
            assert check_inclusion(L, CATALOG["RL1"]).verdict == "holds"
            checked += 1
    assert checked > 0


def test_property_and_equation_agree_on_diamond_and_pentagon(m3, n5):
    for L in (m3, n5):
        g = extract_od_graph(L)
        prop = check_property(g, "unjp") is None
        eq = check_inclusion(L, CATALOG["Unjp"]).verdict == "holds"
        assert prop == eq
