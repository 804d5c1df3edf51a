"""Duality data: irreducibles, minimal covers, reconstruction, properties."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    CATALOG,
    BadODGraph,
    Caps,
    CoverEnumerationCapExceeded,
    IllDefined,
    NotAtomistic,
    ODGraph,
    PROPERTY_IDS,
    PartitionEnumerationCapExceeded,
    Schema,
    SizeCapExceeded,
    UltraSpace,
    UnknownProperty,
    all_lattices_upto,
    build_countermodel,
    build_R,
    build_from_leq,
    check_inclusion,
    check_property,
    closed_mask,
    closed_sets,
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
    typed_R,
    typed_map_from_fibers,
    ultrametric_representability,
)
from rellat import lattice, odgraph, stats
from conftest import (boolean_cube, chain, diamond, diamond_m3, pentagon_n5,
                      wide_diamond, with_int32_tables)
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
    with pytest.raises(CoverEnumerationCapExceeded,
                       match="^3 join-irreducibles exceed the max_ji cap 2$"):
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
    # a < c in N5's graph (elements a, b, c): the first entry, in the order
    # given, whose cover holds both is named, wherever it stands
    g = extract_od_graph(n5)
    good = [(k, list(c)) for k, c in g.mjc]
    for mjc, want in (
            (good + [(2, [0, 2])], "cover (0, 2) of 2"),
            (good[:2] + [(2, [2, 0])] + good[2:] + [(1, [1, 0, 2])],
             "cover (0, 2) of 2"),
            ([(1, [0, 2, 1])] + good + [(2, [0, 2])], "cover (0, 1, 2) of 1")):
        with pytest.raises(BadODGraph) as err:
            make_od_graph(g.elems, g.leq_pairs, g.jp, mjc)
        assert str(err.value) == f"{want} is not an antichain"


def chain_graph(n):
    """The od-graph of an n-element chain's irreducibles: a chain again,
    every element join-prime."""
    return ([str(i) for i in range(n)],
            [(a, b) for a in range(n) for b in range(a + 1, n)],
            [True] * n, [(j, [j]) for j in range(n)])


def test_long_chain_graph_validates():
    # 499,500 order pairs, checked as one boolean matrix
    start = time.perf_counter()
    g = make_od_graph(*chain_graph(1000))
    assert time.perf_counter() - start < 10
    assert g.leq_pairs == tuple(sorted(chain_graph(1000)[1]))


@pytest.mark.parametrize("pairs, message", [
    ([(3, 2), (2, 3), (1, 0), (0, 1)], "order not antisymmetric at (0,1)"),
    ([(3, 1), (1, 4), (2, 1), (0, 2)], "order not transitive at (0,2,1)"),
])
def test_order_witness_is_least(pairs, message):
    elems, _, jp, mjc = chain_graph(5)
    with pytest.raises(BadODGraph) as err:
        make_od_graph(elems, pairs, jp, mjc)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [-1, 5, 10 ** 30])
def test_order_pair_out_of_range_is_named(bad):
    """A document's first pair with an index outside 0..n-1 is named, also
    when the index is too large for an integer array."""
    elems, pairs, jp, mjc = chain_graph(5)
    doc = {"elems": elems,
           "leq_pairs": [list(p) for p in pairs[:3]] + [[1, bad], [bad, 0]],
           "jp": jp, "mjc": [[k, c] for k, c in mjc]}
    with pytest.raises(BadODGraph) as err:
        od_graph_from_json(doc)
    assert str(err.value) == f"order pair (1,{bad}) out of range"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=16))
def test_order_witness_matches_pair_loops(pairs):
    # the lexicographically least (a, b) with a < b < a, else the least
    # (a, b, c) with a < b < c but not a < c
    lt = {(a, b) for a, b in pairs if a != b}
    anti = [(a, b) for a, b in sorted(lt) if (b, a) in lt]
    trans = [(a, b, c) for a, b in sorted(lt) for c in range(6)
             if (b, c) in lt and (a, c) not in lt and a != c]
    elems, _, jp, mjc = chain_graph(6)
    if anti:
        want = "order not antisymmetric at ({},{})".format(*anti[0])
    elif trans:
        want = "order not transitive at ({},{},{})".format(*trans[0])
    else:
        assert make_od_graph(elems, pairs, jp, mjc).leq_pairs == tuple(sorted(lt))
        return
    with pytest.raises(BadODGraph) as err:
        make_od_graph(elems, pairs, jp, mjc)
    assert str(err.value) == want


def test_graph_json_round_trip(g22):
    assert od_graph_from_json(od_graph_to_json(g22)) == g22


@pytest.fixture(scope="module")
def extraction_corpus(small_lattices, cm_lattice):
    """The census, 300 seeded random lattices, R(2,3), typed 4,2, M_11, the
    countermodel lattice, and R(2,3) and typed 4,2 with int32 tables."""
    big = [build_R(Schema(("a", "b"), ("0", "1", "2"))).lattice,
           typed_R(typed_map_from_fibers([4, 2])).lattice]
    return [*small_lattices,
            *(random_lattice(s, max_size=12) for s in range(300)),
            *big, diamond(11), cm_lattice, *map(with_int32_tables, big)]


def test_graph_order_is_the_lattice_order(extraction_corpus):
    # le(a, b) iff ji[a] <= ji[b] in the source lattice
    for i, L in enumerate(extraction_corpus):
        g = extract_od_graph(L)
        ji = L.join_irreducibles()
        for a in range(g.n):
            for b in range(g.n):
                assert g.le(a, b) == bool(L.leq[ji[a], ji[b]]), (i, a, b)


def test_extracted_graphs_pass_the_validator(extraction_corpus):
    """Extraction builds its graph unchecked: the validator for graphs from
    outside returns it unchanged, and its primeness flags are those of the
    lattice's own ideal test."""
    for i, L in enumerate(extraction_corpus):
        g = extract_od_graph(L)
        assert make_od_graph(g.elems, g.leq_pairs, g.jp, g.mjc) == g, i
        primes = set(L.join_primes())
        assert g.jp == tuple(j in primes for j in L.join_irreducibles()), i


def test_extraction_refuses_irreducibles_sharing_a_label(b2):
    # labels come from outside, and are compared as the graph writes them,
    # so 1 and "1" are one label; bottom and top are not irreducibles, so
    # they may share one
    for labels in (["0", "a", "a", "1"], ["0", 1, "1", "1"]):
        with pytest.raises(BadODGraph, match="^duplicate element labels$"):
            extract_od_graph(build_from_leq(4, b2.leq, labels=labels))
    g = extract_od_graph(build_from_leq(4, b2.leq, labels=["e", "a", "b", "e"]))
    assert g.elems == ("a", "b") and g == make_od_graph(
        ["a", "b"], [], [True, True], [(0, (0,)), (1, (1,))])


def test_extraction_writes_int_labels_as_strings(small_lattices):
    for L in small_lattices:
        g = extract_od_graph(build_from_leq(L.n, L.leq, labels=list(range(L.n))))
        assert g.elems == tuple(map(str, L.join_irreducibles()))
        assert g == extract_od_graph(build_from_leq(L.n, L.leq))



def test_leq_pairs_are_the_strict_order_row_major(small_lattices, cm_lattice):
    """The pairs read off the stored down-sets are those a graph stored as
    its order before: every (a, b) with ji[a] < ji[b], by a, then b."""
    for L in [*small_lattices, cm_lattice]:
        g = extract_od_graph(L)
        ji = L.join_irreducibles()
        assert g.leq_pairs == tuple(
            (a, b) for a in range(g.n) for b in range(g.n)
            if a != b and L.leq[ji[a], ji[b]]), L.n
        assert g.down_masks == tuple(
            sum(1 << a for a in range(g.n) if L.leq[ji[a], ji[b]])
            for b in range(g.n))


def test_graphs_equal_when_their_orders_are():
    """Pairs given in another order, repeated or reflexive make the same
    graph, with the same hash; another order makes another graph."""
    elems, pairs, jp, mjc = chain_graph(5)
    g = make_od_graph(elems, pairs, jp, mjc)
    again = make_od_graph(elems, pairs[::-1] + pairs[:3] + [(2, 2)], jp, mjc)
    assert again == g and hash(again) == hash(g)
    assert again.leq_pairs == g.leq_pairs
    assert make_od_graph(elems, pairs[1:], jp, mjc) != g
    with pytest.raises(AttributeError):
        g.leq_pairs = ()


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


def test_closed_sets_are_the_family_reconstruct_builds(monkeypatch, g22,
                                                       cm_graph,
                                                       small_lattices):
    built = []
    real = odgraph.build_from_closed_family

    def keep(fam, caps):
        built.append(fam)
        return real(fam, caps=caps)

    monkeypatch.setattr(odgraph, "build_from_closed_family", keep)
    graphs = [cm_graph, g22] + [extract_od_graph(L) for L in small_lattices]
    for g in graphs:
        R = reconstruct(g)
        closed = closed_sets(g)
        assert (np.diff(closed) > 0).all()
        assert closed.tolist() == sorted(built.pop().members)
        assert closed.size == R.n


def test_reconstruct_cap(cm_graph):
    with pytest.raises(CoverEnumerationCapExceeded,
                       match="^8 join-irreducibles exceed the max_ji cap 4$"):
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


def test_cover_searches_match_the_definitional_scan(small_lattices, r22,
                                                    cm_graph):
    # the midpoint and pivot searches read their candidates from the graph's
    # completions index; the oracle tries every element, as the definitions
    # do, and must find the same first failing instance
    graphs = [extract_od_graph(L) for L in small_lattices]
    graphs += [extract_od_graph(random_lattice(s, max_size=12))
               for s in range(100)]
    graphs += [cm_graph, extract_od_graph(r22.lattice)]
    graphs += [extract_od_graph(diamond(k)) for k in range(3, 12)]
    for i, g in enumerate(graphs):
        want = oracles.cover_completions(g)
        assert g.completions == want, i
        covers = set(g.mjc)
        for k0, c in want:
            for k1 in range(g.n):
                assert dstep(g, k0, c, k1) == oracles.cover_step(
                    covers, g.jp, k0, c, k1), (i, k0, c, k1)
        for name in ("pi-SymPC", "pi-StrongSymPC", "atomistic-iii",
                     "prop-last"):
            w = check_property(g, name)
            got = None if w is None else (w.j, w.cover, w.context)
            assert got == oracles.cover_search_witness(g, name), (i, name)


def test_cover_checks_close_a_fixed_number_of_masks(small_lattices):
    # a graph builds its closure table, 2^n entries, once, when a check
    # first asks a join; 57 of the 78 census graphs ask one, and checking
    # the same graphs again builds nothing
    def entries(graphs):
        with stats.collect() as counters:
            for g in graphs:
                for name in PROPERTY_IDS:
                    check_property(g, name)
        return counters.get("subset_entries", 0)

    assert entries([build_countermodel()]) == 256
    assert entries([extract_od_graph(diamond(11))]) == 2048
    # an extraction counts its 2^m subsets of the m irreducibles once
    with stats.collect() as counters:
        extract_od_graph(diamond(11))
    assert counters["subset_entries"] == 2048
    census = [extract_od_graph(L) for L in small_lattices]
    assert entries(census) == 1312
    assert entries(census) == 0


def test_cover_properties_against_their_laws(small_lattices):
    # what the census and 300 seeded random lattices show; the converses of
    # the two implications fail there (VarRL1 on seeds 0 and 114, RMod on
    # census lattice 73 and seeds 71, 114 and 235), and SymPC and pi-SymPC
    # disagree both ways, so no claim is made for them
    lattices = [*small_lattices,
                *(random_lattice(s, max_size=12) for s in range(300))]
    for i, L in enumerate(lattices):
        law = {name: check_inclusion(L, CATALOG[name]).verdict == "holds"
               for name in ("Unjp", "Sym", "VarRL1", "RMod")}
        g = extract_od_graph(L)
        prop = {name: check_property(g, name) is None
                for name in ("unjp", "pi-Sym", "pi-VarRL1", "pi-RMod")}
        assert law["Unjp"] == prop["unjp"], i
        assert law["Sym"] == prop["pi-Sym"], i
        assert prop["pi-VarRL1"] or not law["VarRL1"], i
        assert prop["pi-RMod"] or not law["RMod"], i


def test_closed_mask_decides_joins(small_lattices, r22, cm_lattice):
    # k is in the closure of S iff ji[k] is below the join of ji[S], the
    # join taken straight from the definition on the source lattice
    for L in [*small_lattices, r22.lattice, cm_lattice]:
        g = extract_od_graph(L)
        ji = L.join_irreducibles()
        for mask in range(1 << g.n):
            v = oracles.least_upper_bound(
                L.n, L.leq, [ji[i] for i in range(g.n) if mask >> i & 1])
            want = sum(1 << k for k in range(g.n) if L.leq[ji[k], v])
            assert closed_mask(g, mask) == want, (L.n, mask)


def test_closed_mask_rejects_masks_outside_the_graph(cm_graph):
    # a numpy lookup would wrap a negative mask round to the table's end
    assert closed_mask(cm_graph, 0) == 0
    assert closed_mask(cm_graph, 255) == 255
    for mask in (-1, -256, 256, 1 << 70):
        with pytest.raises(ValueError, match=f"mask {mask} is not a subset"):
            closed_mask(cm_graph, mask)


def test_join_properties_refuse_graphs_wider_than_max_ji():
    # on M_17's graph pi-Sym and pi-StrongSymPC ask a join; pi-SymPC and
    # prop-last ask none, as no cover has three members or one below its
    # element, and the other seven never do
    g = wide_diamond(17)
    wide = Caps(max_ji=17)
    fails = (0, (1, 2))
    answers = {"unjp": fails, "exactly-one-nonjp": fails}
    for name in PROPERTY_IDS:
        if name in ("pi-Sym", "pi-StrongSymPC"):
            with pytest.raises(CoverEnumerationCapExceeded) as info:
                check_property(g, name)
            assert (info.value.need, info.value.cap) == (17, 16)
            assert str(info.value) == "17 join-irreducibles exceed the max_ji cap 16"
            assert check_property(g, name, wide) is None
            with pytest.raises(CoverEnumerationCapExceeded):
                check_property(g, name)     # one cap, built table or not
        else:
            w = check_property(g, name)
            got = None if w is None else (w.j, w.cover)
            assert got == answers.get(name), name


@pytest.mark.parametrize("seed, name", [(0, "prop-last"), (236, "pi-SymPC")])
def test_each_join_property_refuses_past_max_ji(seed, name):
    # of the census and random_lattice(s, 12) for s < 300, only these
    # graphs make prop-last and pi-SymPC ask a join
    g = extract_od_graph(random_lattice(seed, max_size=12))
    check_property(g, name)                     # answers under the defaults
    with pytest.raises(CoverEnumerationCapExceeded) as info:
        check_property(g, name, Caps(max_ji=g.n - 1))
    assert (info.value.need, info.value.cap) == (g.n, g.n - 1)


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
