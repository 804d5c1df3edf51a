"""Inclusion checking: exhaustive and sampled scans against a slow evaluator."""
from __future__ import annotations

import itertools

import pytest

from rellat import (
    BudgetExceeded,
    CATALOG,
    Caps,
    Join,
    Meet,
    NotDistributivelyEqual,
    UnboundVariable,
    UnknownEquation,
    Var,
    all_lattices_upto,
    catalog_inclusion,
    check_inclusion,
    check_property,
    eval_term,
    extract_od_graph,
    gen_unjp_family,
    ld,
    rd,
    verify_witness,
)
from conftest import boolean_cube, chain, diamond_m3, pentagon_n5
import oracles


# -- slow reference evaluation -------------------------------------------------


def oracle_tables(L):
    """Meet/join tables recomputed from the order alone."""
    n = L.n
    join = [[oracles.least_upper_bound(n, L.leq, [a, b]) for b in range(n)]
            for a in range(n)]
    meet = [[oracles.greatest_lower_bound(n, L.leq, [a, b]) for b in range(n)]
            for a in range(n)]
    return meet, join


def oracle_eval(tables, t, v):
    meet, join = tables
    if isinstance(t, Var):
        return v[t.name]
    table = meet if isinstance(t, Meet) else join
    acc = oracle_eval(tables, t.args[0], v)
    for a in t.args[1:]:
        acc = table[acc][oracle_eval(tables, a, v)]
    return acc


def oracle_check(L, inc):
    """(verdict, witness, rank) by a plain lexicographic python scan."""
    tables = oracle_tables(L)
    names = sorted(set(inc.variables))
    for rank, vals in enumerate(itertools.product(range(L.n), repeat=len(names))):
        v = dict(zip(names, vals))
        lv = oracle_eval(tables, inc.lhs, v)
        rv = oracle_eval(tables, inc.rhs, v)
        if not L.leq[lv, rv]:
            return "counterexample", v, rank
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


@pytest.mark.parametrize("make", [diamond_m3, pentagon_n5])
@pytest.mark.parametrize("name", ["Dist", "RL1", "SymPC", "VarRL1", "RMod", "Sym"])
def test_exhaustive_matches_slow_scan(make, name):
    L = make()
    inc = CATALOG[name]
    verdict, witness, rank = oracle_check(L, inc)
    res = check_inclusion(L, inc)
    assert res.verdict == verdict
    assert res.witness == witness
    if verdict == "counterexample":
        assert res.evaluations == rank + 1
        assert verify_witness(L, inc, res.witness)
    else:
        assert res.evaluations == L.n ** len(set(inc.variables))


@pytest.mark.parametrize("make", [lambda: chain(3), lambda: boolean_cube(2)])
@pytest.mark.parametrize("name", ["RL2", "Unjp"])
def test_wide_equations_match_slow_scan(make, name):
    L = make()
    inc = CATALOG[name]
    verdict, witness, _ = oracle_check(L, inc)
    res = check_inclusion(L, inc)
    assert (res.verdict, res.witness) == (verdict, witness)


def test_budget_exceeded(m3):
    with pytest.raises(BudgetExceeded):
        check_inclusion(m3, CATALOG["Unjp"], caps=Caps(eval_budget=1000))


def test_parallel_agrees_with_serial():
    L = all_lattices_upto(7)[-1]  # 7 elements: RL2 has 7^7 valuations
    inc = CATALOG["RL2"]
    serial = check_inclusion(L, inc, jobs=1)
    parallel = check_inclusion(L, inc, jobs=2)
    assert serial == parallel


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


def test_sample_rejects_nonpositive_count(m3):
    with pytest.raises(ValueError, match="samples"):
        check_inclusion(m3, CATALOG["Dist"], mode="sample", samples=-5)


def test_sample_budget_exceeded(m3):
    with pytest.raises(BudgetExceeded):
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
        prop = check_property(g, "unjp", lattice=L) is None
        eq = check_inclusion(L, CATALOG["Unjp"]).verdict == "holds"
        assert prop == eq
