"""Frames with n equivalence relations, products, p-morphisms, L(F)."""
from __future__ import annotations

import random

import pytest

from rellat import (
    BadFrame,
    Caps,
    SearchBudgetExceeded,
    SizeCapExceeded,
    all_partitions,
    enumerate_frames,
    find_isomorphism,
    frame_from_edges,
    frame_from_json,
    frame_queries,
    frame_to_json,
    is_s5n_frame,
    l_of_frame,
    make_frame,
    p_morphism_search,
    universal_product,
)
import oracles


# -- construction -------------------------------------------------------------------


def test_make_frame_normalizes_block_ids():
    f = make_frame(["x", "y", "z"], [[7, 7, 2]])
    assert f.rels == ((0, 0, 1),)


def test_make_frame_rejects_ragged():
    with pytest.raises(BadFrame):
        make_frame(["x", "y"], [[0, 0], [0]])


def test_make_frame_rejects_duplicate_worlds():
    with pytest.raises(BadFrame):
        make_frame(["x", "x"], [[0, 1]])


def test_frame_from_edges():
    edges = [{(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}]
    f = frame_from_edges(["x", "y", "z"], edges)
    assert f.rels == ((0, 0, 1),)


def test_frame_from_edges_reports_broken_axiom():
    worlds = ["x", "y", "z"]
    missing_refl = [{(0, 1), (1, 0), (1, 1), (2, 2)}]
    w = is_s5n_frame(worlds, edges=missing_refl)
    assert w is not None and w.kind == "reflexive"
    asym = [{(0, 0), (1, 1), (2, 2), (0, 1)}]
    w = is_s5n_frame(worlds, edges=asym)
    assert w is not None and w.kind == "symmetric"
    intrans = [{(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}]
    w = is_s5n_frame(worlds, edges=intrans)
    assert w is not None and w.kind == "transitive"


# -- confluence ---------------------------------------------------------------------


def test_confluence_witness_positions():
    # two relations whose composition order matters: x~1 via R0, x~2 via R1,
    # but nothing completes the square
    f = make_frame(["w0", "w1", "w2"], [[0, 0, 1], [0, 1, 0]])
    w = is_s5n_frame(f)
    assert w is not None
    assert w.kind == "confluence"
    assert w.rels == (0, 1)
    assert w.worlds == (0, 1, 2)


def test_confluence_matches_composition_oracle():
    for f in enumerate_frames(3, 2):
        ok = is_s5n_frame(f) is None
        want = all(
            oracles.confluent(f.rels[i], f.rels[j])
            for i in range(2) for j in range(2)
        )
        assert ok == want


def test_confluence_witness_matches_world_loop():
    # seeded frames of 1-7 worlds and 2-3 relations with few blocks, so
    # that both confluent frames and witnesses deep in the loop occur
    rng = random.Random(5)
    found = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        k = rng.randint(1, 4)
        rels = [[rng.randrange(k) for _ in range(n)]
                for _ in range(rng.randint(2, 3))]
        f = make_frame([f"w{i}" for i in range(n)], rels)
        w = is_s5n_frame(f)
        want = oracles.confluence_witness(f.rels)
        assert (w is None) == (want is None)
        if w is not None:
            found += 1
            assert w.kind == "confluence"
            assert w.rels + w.worlds == want
    assert 500 < found < 2500


def test_products_are_confluent():
    f = universal_product(["0", "1"], 2)
    assert is_s5n_frame(f) is None
    g = universal_product(["0", "1", "2"], 2)
    assert is_s5n_frame(g) is None


# -- products -----------------------------------------------------------------------


def test_universal_product_shape():
    f = universal_product(["0", "1"], 2)
    assert f.n_worlds == 4
    assert f.n_rels == 2
    assert sorted(f.worlds) == ["00", "01", "10", "11"]
    # relation i ignores coordinate i: blocks grouped by the other coordinate
    for rel in f.rels:
        assert len(set(rel)) == 2


def test_universal_product_cap():
    with pytest.raises(SizeCapExceeded):
        universal_product(["0", "1", "2", "3"], 6, caps=Caps(max_lattice=100))


def test_frame_queries():
    prod = universal_product(["0", "1"], 2)
    q = frame_queries(prod)
    assert q == {"initial": True, "full": True}
    lonely = make_frame(["x", "y"], [[0, 1], [0, 1]])
    q = frame_queries(lonely)
    assert q == {"initial": False, "full": False}
    tight = make_frame(["x", "y"], [[0, 0], [0, 1]])
    assert frame_queries(tight) == {"initial": True, "full": False}


# -- partitions and enumeration -------------------------------------------------------


def test_partition_counts_are_bell_numbers():
    for n in range(1, 6):
        assert len(all_partitions(n)) == oracles.bell_number(n)


def test_enumerate_frames_counts():
    assert len(enumerate_frames(2, 1)) == 2
    assert len(enumerate_frames(3, 2)) == 25  # 5 partitions squared


def test_census_of_full_initial_two_relation_frames():
    frames = [f for n in (1, 2, 3) for f in enumerate_frames(n, 2)]
    good = [f for f in frames
            if frame_queries(f) == {"initial": True, "full": True}]
    assert len(good) == 14
    assert sorted(f.n_worlds for f in good) == [2] + [3] * 13


# -- L(F) ----------------------------------------------------------------------------


def test_l_of_product_is_the_relational_lattice(r22):
    f = universal_product(["0", "1"], 2)
    sd = l_of_frame(f)
    assert sd.lattice.n == 26
    assert find_isomorphism(sd.lattice, r22.lattice) is not None


def test_l_of_frame_on_a_singleton():
    f = make_frame(["w"], [[0], [0]])
    sd = l_of_frame(f)
    # pairs (X, T) with T closed: X any of 4 subsets, T empty or the point
    assert sd.lattice.n == 8


# -- p-morphisms --------------------------------------------------------------------


def test_p_morphism_identity():
    f = universal_product(["0", "1"], 2)
    assert p_morphism_search(f, f) == list(range(4))


def test_p_morphism_product_onto_two_worlds():
    prod = universal_product(["0", "1"], 2)
    # both relations glue the two worlds together
    dst = make_frame(["u", "v"], [[0, 0], [0, 0]])
    m = p_morphism_search(prod, dst)
    assert m is not None
    assert set(m) == {0, 1}


def test_p_morphism_respects_relations():
    prod = universal_product(["0", "1"], 2)
    dst = make_frame(["u", "v"], [[0, 0], [0, 1]])
    m = p_morphism_search(prod, dst)
    if m is not None:
        for i, rel in enumerate(prod.rels):
            for a in range(4):
                for b in range(4):
                    if rel[a] == rel[b]:
                        assert dst.rels[i][m[a]] == dst.rels[i][m[b]]


def test_no_p_morphism_to_disconnected_shape():
    src = make_frame(["x", "y"], [[0, 0], [0, 0]])
    dst = make_frame(["u", "v", "w"], [[0, 0, 1], [0, 1, 0]])
    assert p_morphism_search(src, dst) is None  # not even surjective


def test_p_morphism_budget():
    prod = universal_product(["0", "1", "2"], 2)
    with pytest.raises(SearchBudgetExceeded):
        p_morphism_search(prod, prod, caps=Caps(search_nodes=3))


def test_p_morphism_is_least_by_brute_force():
    frames = {n: enumerate_frames(n, 2) for n in (1, 2, 3, 4)}
    found = 0
    for src in (f for n in (1, 2, 3, 4) for f in frames[n]):
        for dst in (f for n in (1, 2, 3) for f in frames[n]):
            want = oracles.least_pmorphism(src, dst)
            assert p_morphism_search(src, dst) == want, (src.rels, dst.rels)
            found += want is not None
    assert found > 1000


def test_p_morphism_is_least_on_sampled_larger_sources():
    # half the sources are preimages of the target under a random
    # surjection, some of their blocks split in two, so that maps exist
    rng = random.Random(6)
    targets = [f for n in (1, 2, 3) for f in enumerate_frames(n, 2)]
    found = 0
    for k in range(80):
        ns, dst = 5 + k % 2, rng.choice(targets)
        if k % 4 < 2:
            g = list(range(dst.n_worlds))
            g += [rng.randrange(dst.n_worlds) for _ in range(ns - len(g))]
            rng.shuffle(g)
            rels = [[2 * rel[g[w]] + (rng.random() < 0.3) for w in range(ns)]
                    for rel in dst.rels]
        else:
            rels = [rng.choice(all_partitions(ns)) for _ in range(2)]
        src = make_frame([f"w{i}" for i in range(ns)], rels)
        want = oracles.least_pmorphism(src, dst)
        assert p_morphism_search(src, dst) == want, (src.rels, dst.rels)
        found += want is not None
    assert found >= 20


def test_p_morphisms_from_product_satisfy_definition():
    prod = universal_product(["0", "1", "2"], 2)
    targets = [f for f in enumerate_frames(4, 2)
               if frame_queries(f) == {"initial": True, "full": True}]
    assert len(targets) == 117
    maps = [(f, p_morphism_search(prod, f)) for f in targets]
    assert any(m is not None for _, m in maps)
    for f, m in maps:
        assert m is None or oracles.is_pmorphism(prod, f, m), f.rels


def test_p_morphism_of_long_source_needs_no_deep_recursion():
    # one stack entry per source world
    src = make_frame([f"w{i}" for i in range(1100)], [[0] * 1100])
    assert p_morphism_search(src, make_frame(["u"], [[0]])) == [0] * 1100


# -- serialization -----------------------------------------------------------------


def test_frame_json_round_trip():
    f = universal_product(["0", "1"], 2)
    assert frame_from_json(frame_to_json(f)) == f
