"""Frames with n equivalence relations, products, p-morphisms, L(F)."""
from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from rellat import (
    BadFrame,
    Caps,
    EnumerationCapExceeded,
    SearchBudgetExceeded,
    SizeCapExceeded,
    all_partitions,
    enumerate_frames,
    find_embedding,
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
from rellat import stats
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
    with pytest.raises(BadFrame, match="reflexive"):
        frame_from_edges(worlds, missing_refl)
    asym = [{(0, 0), (1, 1), (2, 2), (0, 1)}]
    with pytest.raises(BadFrame, match="symmetric"):
        frame_from_edges(worlds, asym)
    intrans = [{(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}]
    with pytest.raises(BadFrame, match="transitive"):
        frame_from_edges(worlds, intrans)


@pytest.mark.parametrize("stray, edge", [
    ([(0, 0), (1, 1), (2, 2), (0, 5), (5, 0), (5, 5)], "(0, 5)"),
    ([(0, 0), (1, 1), (2, 2), (-1, -1)], "(-1, -1)"),
], ids=["world5", "world-1"])
def test_frame_from_edges_rejects_worlds_outside_the_frame(stray, edge):
    # the least edge in sorted order that names no world, and its relation
    identity = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(BadFrame) as err:
        frame_from_edges(["a", "b", "c"], [identity, stray])
    assert str(err.value) == f"relation 1 names a world outside 0..2 at {edge}"


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


def test_frame_lattices_embed_within_300_nodes(r22):
    # the down/up-count filter leaves each of these searches at most 257
    # nodes; without it each needs at least 519. The pair-count filter
    # brings the 14 searches from 1,570 nodes to 1,034 in all
    prod = universal_product(["0", "1"], 2)
    frames = [f for n in (1, 2, 3) for f in enumerate_frames(n, 2)
              if frame_queries(f) == {"initial": True, "full": True}]
    assert len(frames) == 14
    nodes = 0
    for f in frames:
        L = l_of_frame(f).lattice
        with stats.collect() as counters:
            got = find_embedding(L, r22.lattice, Caps(search_nodes=300))
        nodes += counters["search_nodes"]
        assert got == find_embedding(L, r22.lattice), f.rels
        assert (got is not None) == (p_morphism_search(prod, f) is not None)
    assert nodes == 1034


def test_embedding_budget_error_counts_its_nodes(r22):
    # the last three-world census frame: the third node is one past the cap
    f = [f for f in enumerate_frames(3, 2)
         if frame_queries(f) == {"initial": True, "full": True}][-1]
    L = l_of_frame(f).lattice
    with stats.collect() as counters:
        with pytest.raises(SearchBudgetExceeded) as err:
            find_embedding(L, r22.lattice, Caps(search_nodes=2))
    assert (err.value.need, err.value.budget) == (3, 2)
    assert counters["search_nodes"] == 3


def test_l_of_frame_on_a_singleton():
    f = make_frame(["w"], [[0], [0]])
    sd = l_of_frame(f)
    # pairs (X, T) with T closed: X any of 4 subsets, T empty or the point
    assert sd.lattice.n == 8


def test_l_of_frame_names_the_subset_cap():
    # 21 worlds have 2^21 world sets, past the default max_enum of 2^20
    f = make_frame([f"w{i}" for i in range(21)], [[0] * 21, list(range(21))])
    with pytest.raises(EnumerationCapExceeded,
                       match="enumeration of 2097152 subsets exceeds the max_enum cap 1048576"):
        l_of_frame(f)


def test_l_of_frame_caps_the_relation_sets():
    # one world passes; 2^21 relation sets are past the default max_enum
    f = make_frame(["w"], [[0]] * 21)
    with pytest.raises(EnumerationCapExceeded,
                       match="enumeration of 2097152 subsets exceeds the max_enum cap 1048576"):
        l_of_frame(f)


def test_l_of_frame_caps_the_whole_table():
    # 2^16 world sets and 2^6 relation sets pass one by one; the 2^22 sets
    # of relations and worlds together do not
    f = make_frame([f"w{i}" for i in range(16)],
                   [[w >> k for w in range(16)] for k in range(6)])
    with pytest.raises(EnumerationCapExceeded,
                       match="enumeration of 4194304 subsets exceeds the max_enum cap 1048576"):
        l_of_frame(f)


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
    with stats.collect() as counters:
        with pytest.raises(SearchBudgetExceeded) as err:
            p_morphism_search(prod, prod, caps=Caps(search_nodes=3))
    assert (err.value.need, err.value.budget) == (4, 3)
    assert counters["pmorphism_nodes"] == 4


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


def test_frame_census_pmorphism_nodes():
    # the benchmark's frames census: the 14 full initial frames of at most
    # three worlds from P22, the 117 four-world ones from P33. The products
    # commute, so the targets whose relations do not are refused before any
    # node: 6 of the 14 and 84 of the 117. Backtracking proved those empty
    # in 54 of the 58 nodes and 5,472 of the 5,526
    census = {n: [f for f in enumerate_frames(n, 2)
                  if frame_queries(f) == {"initial": True, "full": True}]
              for n in (1, 2, 3, 4)}
    for prod, targets, nodes, refused in (
            (universal_product(["0", "1"], 2),
             census[1] + census[2] + census[3], 4, 6),
            (universal_product(["0", "1", "2"], 2), census[4], 54, 84)):
        with stats.collect() as counters:
            for f in targets:
                p_morphism_search(prod, f)
        assert counters == {"pmorphism_nodes": nodes,
                            "pmorphism_refused": refused}


def _commuting(f, i, j):
    return oracles.confluent(f.rels[i], f.rels[j])


def _search_against_oracle(src, dst):
    """p_morphism_search(src, dst), held to the brute-force oracle; a
    search is refused, with no node, exactly when some pair of relations
    commutes in src and not in dst. Returns (map, refused)."""
    with stats.collect() as counters:
        got = p_morphism_search(src, dst)
    assert got == oracles.least_pmorphism(src, dst), (src.rels, dst.rels)
    refused = any(_commuting(src, i, j) and not _commuting(dst, i, j)
                  for i in range(dst.n_rels) for j in range(i + 1, dst.n_rels))
    assert counters.get("pmorphism_refused", 0) == refused
    assert ("pmorphism_nodes" in counters) != refused
    return got, refused


def _relabelled(f, perm):
    """f with world k of the copy being world perm[k] of f."""
    return make_frame([f.worlds[w] for w in perm],
                      [[rel[w] for w in perm] for rel in f.rels])


def test_p_morphism_refusal_on_three_relation_frames():
    # sources of 5-6 worlds: a quarter preimages of the target with blocks
    # split, a quarter three nested partitions (which commute pairwise),
    # a quarter a 2x3 grid with a third relation nested in one side (which
    # commute too), and a quarter random partitions, mostly not commuting
    rng = random.Random(40)
    targets = [f for n in (1, 2, 3) for f in enumerate_frames(n, 3)]
    found = refused = kept = 0
    for k in range(80):
        ns, dst = 5 + k % 2, rng.choice(targets)
        parts = all_partitions(ns)
        if k % 4 == 0:
            g = list(range(dst.n_worlds))
            g += [rng.randrange(dst.n_worlds) for _ in range(ns - len(g))]
            rng.shuffle(g)
            rels = [[2 * rel[g[w]] + (rng.random() < 0.1) for w in range(ns)]
                    for rel in dst.rels]
        elif k % 4 == 1:
            fine = rng.choice(parts)
            coarse = [rng.randrange(2) for _ in range(max(fine) + 1)]
            chain = [list(range(ns)), list(fine),
                     [coarse[b] for b in fine], [0] * ns]
            rels = [rng.choice(chain) for _ in range(3)]
        elif k % 4 == 2:
            cells = [(w % 2, w // 2) for w in range(6)]
            rels = [[c[1] for c in cells], [c[0] for c in cells],
                    [c[rng.randrange(2)] for c in cells]]
        else:
            rels = [rng.choice(parts) for _ in range(3)]
        src = make_frame([f"w{i}" for i in range(len(rels[0]))], rels)
        got, was_refused = _search_against_oracle(src, dst)
        found += got is not None
        refused += was_refused
        # a pair that commutes in neither frame leaves the search to run
        kept += not was_refused and any(
            not _commuting(src, i, j) and not _commuting(dst, i, j)
            for i in range(3) for j in range(i + 1, 3))
    assert found >= 5 and refused >= 10 and kept >= 10, (found, refused, kept)


def test_p_morphism_refusal_from_p22_onto_small_census_frames():
    # P22 onto every full initial frame of at most four worlds
    prod = universal_product(["0", "1"], 2)
    targets = [f for n in (1, 2, 3, 4) for f in enumerate_frames(n, 2)
               if frame_queries(f) == {"initial": True, "full": True}]
    assert len(targets) == 131
    outcomes = Counter(_search_against_oracle(prod, f)[1] for f in targets)
    assert outcomes == {True: 90, False: 41}


def test_p_morphism_existence_and_refusal_under_relabelling():
    # relabelled copies of source and target keep whether a map exists
    # and whether the search is refused; the least map itself moves
    rng = random.Random(41)
    prods = [universal_product(["0", "1"], 2),
             universal_product(["0", "1", "2"], 2)]
    targets = [f for n in (2, 3, 4) for f in enumerate_frames(n, 2)
               if frame_queries(f) == {"initial": True, "full": True}]
    for k in range(60):
        src = prods[k % 2] if k % 3 else make_frame(
            [f"w{i}" for i in range(6)],
            [rng.choice(all_partitions(6)) for _ in range(2)])
        dst = rng.choice(targets)
        answers = set()
        for _ in range(3):
            with stats.collect() as counters:
                m = p_morphism_search(src, dst)
            answers.add((m is None, counters.get("pmorphism_refused", 0)))
            src = _relabelled(src, rng.sample(range(src.n_worlds),
                                              src.n_worlds))
            dst = _relabelled(dst, rng.sample(range(dst.n_worlds),
                                              dst.n_worlds))
        assert len(answers) == 1, (src.rels, dst.rels)


def test_p_morphism_of_long_source_needs_no_deep_recursion():
    # one stack entry per source world
    src = make_frame([f"w{i}" for i in range(1100)], [[0] * 1100])
    assert p_morphism_search(src, make_frame(["u"], [[0]])) == [0] * 1100


def test_p_morphism_of_one_block_is_linear_in_its_size():
    # the back cut builds no set of block-mates' images while no target
    # block outgrows the worlds left in the source block
    src = make_frame([f"w{i}" for i in range(20000)], [[0] * 20000])
    start = time.perf_counter()
    assert p_morphism_search(src, make_frame(["u"], [[0]])) == [0] * 20000
    assert time.perf_counter() - start < 1


# -- serialization -----------------------------------------------------------------


def test_frame_json_round_trip():
    f = universal_product(["0", "1"], 2)
    assert frame_from_json(frame_to_json(f)) == f
