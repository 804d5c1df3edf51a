"""Duality data: irreducibles, minimal covers, reconstruction, properties."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    BadODGraph,
    Caps,
    CoverEnumerationCapExceeded,
    IllDefined,
    NotAtomistic,
    ODGraph,
    PROPERTY_IDS,
    PartitionEnumerationCapExceeded,
    SizeCapExceeded,
    UltraSpace,
    UnknownProperty,
    all_lattices_upto,
    build_countermodel,
    build_from_leq,
    check_property,
    dstep,
    extract_od_graph,
    find_isomorphism,
    make_od_graph,
    minimal_join_covers,
    od_graph_from_json,
    od_graph_to_json,
    random_lattice,
    reconstruct,
    semidirect,
    sublattice_closure,
    ultrametric_representability,
)
from rellat import lattice
from conftest import boolean_cube, chain, diamond_m3, pentagon_n5
import oracles


seeds = st.integers(min_value=0, max_value=10**6)


# -- minimal covers vs. the definition ----------------------------------------------


@pytest.mark.parametrize("make", [diamond_m3, pentagon_n5,
                                  lambda: boolean_cube(2),
                                  lambda: boolean_cube(3), lambda: chain(3)])
def test_minimal_covers_match_definition(make):
    L = make()
    for j in L.join_irreducibles():
        got = {frozenset(c) for c in minimal_join_covers(L, j)}
        assert got == oracles.minimal_join_covers(L.n, L.leq, j)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_random_minimal_covers_match_definition(seed):
    L = random_lattice(seed, max_size=9)
    for j in L.join_irreducibles():
        got = {frozenset(c) for c in minimal_join_covers(L, j)}
        assert got == oracles.minimal_join_covers(L.n, L.leq, j)


def test_census_minimal_covers_match_definition(small_lattices):
    for L in small_lattices:
        for j in L.join_irreducibles():
            got = {frozenset(c) for c in minimal_join_covers(L, j)}
            assert got == oracles.minimal_join_covers(L.n, L.leq, j)


def diamond(k):
    """M_k: bottom 0, atoms 1..k, top k + 1."""
    leq = np.eye(k + 2, dtype=bool)
    leq[0, :] = leq[:, k + 1] = True
    return build_from_leq(k + 2, leq)


@pytest.mark.parametrize("k", range(3, 17))
def test_diamond_covers_closed_form(k):
    # an atom is covered by itself and by every pair of other atoms, pairs
    # in subset-mask order; M_16 has 16 irreducibles, the default max_ji
    L = diamond(k)
    start = time.perf_counter()
    for a in range(1, k + 1):
        others = [b for b in range(1, k + 1) if b != a]
        pairs = [(b, c) for c in others for b in others if b < c]
        assert minimal_join_covers(L, a) == [(a,)] + pairs
    if k == 16:
        assert time.perf_counter() - start < 10


def test_minimal_covers_do_not_depend_on_block_size(r22, monkeypatch):
    def covers():
        L = build_from_leq(r22.lattice.n, r22.lattice.leq)   # fresh caches
        return {j: minimal_join_covers(L, j) for j in L.join_irreducibles()}

    want = covers()
    monkeypatch.setattr(lattice, "_BLOCK", 5)
    assert covers() == want


def test_trivial_cover_always_present(n5):
    for j in n5.join_irreducibles():
        assert (j,) in minimal_join_covers(n5, j)


def test_minimal_covers_rejects_reducible(n5):
    with pytest.raises(ValueError):
        minimal_join_covers(n5, n5.top)


def test_cover_cap(b3):
    with pytest.raises(CoverEnumerationCapExceeded):
        minimal_join_covers(b3, b3.atoms()[0], caps=Caps(max_ji=2))


def test_pentagon_all_prime_cover(n5):
    g = extract_od_graph(n5)
    assert g.elems == ("a", "b", "c")
    assert g.jp == (True, True, False)
    assert g.leq_pairs == ((0, 2),)
    assert g.covers_of(2) == ((0, 1), (2,))
    cover = (0, 1)
    assert all(g.jp[c] for c in cover)


def test_diamond_graph(m3):
    g = extract_od_graph(m3)
    assert g.jp == (False, False, False)
    assert g.leq_pairs == ()
    for j in range(3):
        others = tuple(sorted(set(range(3)) - {j}))
        assert set(g.covers_of(j)) == {(j,), others}


# -- graph validation ---------------------------------------------------------------


def valid_doc():
    return dict(elems=["j", "k"], leq_pairs=[], jp=[True, False],
                mjc=[[0, [0]], [1, [1]], [1, [0]]])


def test_make_od_graph_roundtrip():
    d = valid_doc()
    g = make_od_graph(d["elems"], d["leq_pairs"], d["jp"], d["mjc"])
    assert g.covers_of(1) == ((0,), (1,))


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(elems=["j", "j"]),
    lambda d: d.update(leq_pairs=[[0, 1], [1, 0]]),
    lambda d: d.update(mjc=[[0, []], [1, [1]], [1, [0]]]),
    lambda d: d.update(mjc=[[0, [5]], [1, [1]], [1, [0]]]),
    lambda d: d.update(mjc=[[1, [1]], [1, [0]]]),          # j lacks a trivial cover
    lambda d: d.update(jp=[True, True]),                   # k has two covers
    lambda d: d.update(jp=[False, False]),                 # j has only one
])
def test_make_od_graph_rejects(mangle):
    d = valid_doc()
    mangle(d)
    with pytest.raises(BadODGraph):
        make_od_graph(d["elems"], d["leq_pairs"], d["jp"], d["mjc"])


def test_cover_members_must_be_antichain(n5):
    g = extract_od_graph(n5)
    with pytest.raises(BadODGraph):
        make_od_graph(g.elems, g.leq_pairs, g.jp,
                      [(k, list(c)) for k, c in g.mjc] + [(2, [0, 2])])


def test_graph_json_round_trip(g22):
    assert od_graph_from_json(od_graph_to_json(g22)) == g22


# -- reconstruction ------------------------------------------------------------------


@pytest.mark.parametrize("make", [diamond_m3, pentagon_n5,
                                  lambda: boolean_cube(2),
                                  lambda: boolean_cube(3), lambda: chain(4)])
def test_round_trip_fixture(make):
    L = make()
    R = reconstruct(extract_od_graph(L))
    assert R.n == L.n
    assert find_isomorphism(L, R) is not None


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_round_trip_random(seed):
    L = random_lattice(seed)
    R = reconstruct(extract_od_graph(L))
    assert R.n == L.n
    assert find_isomorphism(L, R) is not None


def test_round_trip_r22(r22, g22):
    R = reconstruct(g22)
    assert R.n == 26
    assert find_isomorphism(r22.lattice, R) is not None


def test_reconstruct_cap(cm_graph):
    with pytest.raises(CoverEnumerationCapExceeded):
        reconstruct(cm_graph, caps=Caps(max_ji=4))


def test_reconstruct_size_cap_reports_the_count(cm_graph):
    with pytest.raises(SizeCapExceeded) as info:
        reconstruct(cm_graph, caps=Caps(max_lattice=100))
    assert info.value.need == 160
    assert info.value.cap == 100


# -- the countermodel ----------------------------------------------------------------


def test_countermodel_shape(cm_graph):
    g = cm_graph
    assert g.elems == ("k0", "k1", "k2", "p", "p11", "p12", "p21", "p22")
    assert g.jp == (False, False, False, True, True, True, True, True)
    assert g.leq_pairs == ()
    assert len(list(g.nontrivial())) == 11
    heads = [g.elems[k] for k, _ in g.nontrivial()]
    assert heads.count("k0") == 9
    assert heads.count("k1") == 1 and heads.count("k2") == 1


def test_countermodel_reconstructs_to_160(cm_lattice):
    assert cm_lattice.n == 160


def test_countermodel_extract_round_trip(cm_graph, cm_lattice):
    back = extract_od_graph(cm_lattice)
    assert back.elems == tuple("{%s}" % e for e in cm_graph.elems)
    assert back.jp == cm_graph.jp
    assert back.leq_pairs == cm_graph.leq_pairs
    assert back.mjc == cm_graph.mjc


def test_dstep_on_countermodel(cm_graph):
    g = cm_graph
    i = {e: k for k, e in enumerate(g.elems)}
    assert dstep(g, i["k0"], (i["p"], i["k2"]), i["k1"])
    assert dstep(g, i["k0"], (), i["k0"])               # the trivial cover
    assert not dstep(g, i["k0"], (i["k1"], i["k2"]), i["p"])   # p is prime
    assert not dstep(g, i["k0"], (i["p"],), i["k1"])


# -- property checkers ----------------------------------------------------------------


def test_property_ids():
    assert PROPERTY_IDS == (
        "unjp", "exactly-one-nonjp", "pi-VarRL1", "pi-RMod", "pi-Sym",
        "pi-SymPC", "pi-StrongSymPC", "pi-JP", "atomistic-ii",
        "atomistic-iii", "prop-last",
    )


def test_unknown_property(g22):
    with pytest.raises(UnknownProperty):
        check_property(g22, "no-such-thing")


def test_r22_satisfies_everything(g22):
    for name in PROPERTY_IDS:
        assert check_property(g22, name) is None, name


def test_countermodel_verdicts(cm_graph):
    w = check_property(cm_graph, "exactly-one-nonjp")
    assert w is not None and cm_graph.elems[w.j] == "k0"
    assert check_property(cm_graph, "unjp") is not None
    assert check_property(cm_graph, "pi-VarRL1") is None


def test_lattice_route_agrees_with_mask_route(cm_graph, cm_lattice, g22, r22):
    for g, L in ((cm_graph, cm_lattice), (g22, r22.lattice)):
        for name in PROPERTY_IDS:
            a = check_property(g, name)
            b = check_property(g, name, lattice=L)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a == b


def test_companion_lattice_must_match(n5, m3):
    g = extract_od_graph(n5)
    with pytest.raises(ValueError):
        check_property(g, "unjp", lattice=m3)


def test_sympc_implies_weakened_form():
    for L in all_lattices_upto(6):
        g = extract_od_graph(L)
        if check_property(g, "pi-SymPC") is None:
            assert check_property(g, "atomistic-iii") is None


def test_sym_equals_interchange_on_atomistic_graphs(g22, cm_graph):
    graphs = [extract_od_graph(L) for L in all_lattices_upto(6)]
    graphs += [g22, cm_graph]
    checked = 0
    for g in graphs:
        if g.leq_pairs:  # not atomistic as a graph
            continue
        a = check_property(g, "pi-Sym") is None
        b = check_property(g, "atomistic-ii") is None
        assert a == b
        checked += 1
    assert checked > 5


def test_split_enumeration_cap():
    k = 21
    elems = ["k0"] + [f"a{i}" for i in range(k)]
    jp = [False] + [True] * k
    mjc = [[i, [i]] for i in range(k + 1)]
    mjc.append([0, list(range(1, k + 1))])
    g = make_od_graph(elems, [], jp, mjc)
    with pytest.raises(PartitionEnumerationCapExceeded):
        check_property(g, "pi-StrongSymPC")


# -- representability ------------------------------------------------------------------


def test_r22_graph_recovers_the_function_space(g22, hamming22, r22):
    space = ultrametric_representability(g22)
    assert isinstance(space, UltraSpace)
    # attrs are named after the two prime elements, points after the four rows
    assert len(space.attrs) == 2
    assert len(space.points) == 4
    # distances agree with the function-space distances up to the label maps
    point_of = {p: i for i, p in enumerate(space.points)}
    order = [point_of[f"(ab|{{{r}}})"] for r in ("00", "01", "10", "11")]
    for f in range(4):
        for g in range(4):
            got = space.dist[order[f]][order[g]]
            assert bin(got).count("1") == bin(hamming22.dist[f][g]).count("1")
    sd = semidirect(space)
    assert find_isomorphism(sd.lattice, r22.lattice) is not None


def test_pentagon_graph_is_not_atomistic(n5):
    g = extract_od_graph(n5)
    got = ultrametric_representability(g)
    assert isinstance(got, NotAtomistic)
    assert got.pair == (0, 2)


def test_diamond_graph_distance_is_ill_defined(m3):
    # the only candidate distance values are non-prime elements
    got = ultrametric_representability(extract_od_graph(m3))
    assert isinstance(got, IllDefined)


def test_countermodel_is_ill_defined(cm_graph):
    got = ultrametric_representability(cm_graph)
    assert isinstance(got, IllDefined)
    assert {cm_graph.elems[x] for x in (got.k0, got.k1)} <= {"k0", "k1", "k2"}


def test_illdefined_sublattice_inside_r22(r22):
    idx = {lbl: i for i, lbl in enumerate(r22.lattice.labels)}
    seed = [idx["(b|{})"], idx["(a|{})"],
            idx["(ab|{00,11})"], idx["(ab|{01,10})"]]
    sub, _ = sublattice_closure(r22.lattice, seed)
    assert sub.n == 10
    g = extract_od_graph(sub)
    assert g.leq_pairs == ()
    got = ultrametric_representability(g)
    assert isinstance(got, IllDefined)
    # one pairing admits two genuinely different contexts
    rests = {got.c, got.d}
    assert len(rests) == 2
