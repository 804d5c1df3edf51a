"""Core lattice machinery against definition-level oracles."""
from __future__ import annotations

import collections
import hashlib
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    Caps,
    EnumerationCapExceeded,
    NotALattice,
    NotAPartialOrder,
    NotIntersectionClosed,
    Schema,
    SearchBudgetExceeded,
    SizeCapExceeded,
    all_lattices_upto,
    build_R,
    build_from_closed_family,
    build_from_leq,
    enumerate_frames,
    find_embedding,
    find_isomorphism,
    lattice_from_json,
    lattice_to_json,
    l_of_frame,
    lattices_of_order,
    make_closed_family,
    random_lattice,
    set_label,
    structure_query,
    sublattice_closure,
    typed_map_from_fibers,
    typed_R,
)
from rellat import lattgen, lattice
from conftest import boolean_cube, chain, diamond_m3, leq_from_covers, pentagon_n5
import oracles


seeds = st.integers(min_value=0, max_value=10**6)


# -- validation ------------------------------------------------------------------


def test_rejects_non_reflexive():
    leq = np.eye(3, dtype=bool)
    leq[1, 1] = False
    with pytest.raises(NotAPartialOrder, match="reflexive"):
        build_from_leq(3, leq)


def test_rejects_non_antisymmetric():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 0] = True
    with pytest.raises(NotAPartialOrder, match="antisymmetric"):
        build_from_leq(3, leq)


def test_rejects_non_transitive():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    with pytest.raises(NotAPartialOrder, match="transitive"):
        build_from_leq(3, leq)


def test_rejects_poset_without_joins():
    # two maximal elements above a shared bottom: no join of the tops
    leq = leq_from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice):
        build_from_leq(3, leq)


def test_rejects_oversized():
    leq = np.eye(5, dtype=bool)
    with pytest.raises(SizeCapExceeded):
        build_from_leq(5, leq, caps=Caps(max_lattice=4))


def test_transitivity_check_past_64_elements():
    # masks are plain ints; a 70-element chain must not overflow anything
    L = chain(70)
    assert L.bottom == 0 and L.top == 69
    assert int(L.join[3, 68]) == 68


# -- tables vs. brute force --------------------------------------------------------


@pytest.mark.parametrize("make", [diamond_m3, pentagon_n5,
                                  lambda: boolean_cube(3), lambda: chain(4)])
def test_meet_join_tables_match_bounds(make):
    L = make()
    leq = L.leq
    for a in range(L.n):
        for b in range(L.n):
            assert int(L.join[a, b]) == oracles.least_upper_bound(L.n, leq, [a, b])
            assert int(L.meet[a, b]) == oracles.greatest_lower_bound(L.n, leq, [a, b])


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_random_lattice_tables_match_bounds(seed):
    L = random_lattice(seed)
    for a in range(L.n):
        for b in range(L.n):
            assert int(L.join[a, b]) == oracles.least_upper_bound(L.n, L.leq, [a, b])
            assert int(L.meet[a, b]) == oracles.greatest_lower_bound(L.n, L.leq, [a, b])


def test_bottom_top(m3, n5, b3):
    for L in (m3, n5, b3):
        assert all(L.leq[L.bottom, x] for x in range(L.n))
        assert all(L.leq[x, L.top] for x in range(L.n))


def test_join_all_meet_all(b3):
    atoms = b3.atoms()
    assert b3.join_all(atoms) == b3.top
    assert b3.meet_all(atoms) == b3.bottom
    assert b3.join_all([]) == b3.bottom
    assert b3.meet_all([]) == b3.top


def assert_build_matches_definition(n, leq):
    """build_from_leq against oracles.lattice_tables: equal tables, bottom,
    top and covers (also as lower covers and atoms), or the same exception
    type and args. Returns the outcome's name."""
    try:
        want = oracles.lattice_tables(n, leq)
    except (NotAPartialOrder, NotALattice) as e:
        with pytest.raises(type(e)) as got:
            build_from_leq(n, leq)
        assert got.value.args == e.args
        return getattr(e, "reason", getattr(e, "kind", None))
    L = build_from_leq(n, leq)
    assert L.meet.tolist() == want["meet"]
    assert L.join.tolist() == want["join"]
    assert (L.bottom, L.top) == (want["bottom"], want["top"])
    covers = want["covers"]
    assert list(zip(L.lo.tolist(), L.hi.tolist())) == covers
    for j in range(n):
        assert L.lower_covers(j) == tuple(c for c, a in covers if a == j)
    assert L.atoms() == tuple(a for c, a in covers if c == L.bottom)
    return "lattice"


# Every construction runs in blocks of rows; a block of 7 entries makes
# each block one row (or a few), so block boundaries are crossed everywhere.
small_blocks = pytest.mark.parametrize("block", [lattice._BLOCK, 7])


@small_blocks
def test_build_matches_definition_on_small_lattices(small_lattices, block,
                                                     monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK", block)
    rng = np.random.default_rng(5)
    for L in small_lattices:
        assert assert_build_matches_definition(L.n, L.leq) == "lattice"
        for _ in range(2):
            p = rng.permutation(L.n)
            assert_build_matches_definition(L.n, L.leq[np.ix_(p, p)])


def test_build_matches_definition_on_frames_and_r22(r22):
    for f in enumerate_frames(3, 2):
        L = l_of_frame(f).lattice
        assert_build_matches_definition(L.n, L.leq)
    assert_build_matches_definition(r22.lattice.n, r22.lattice.leq)


def _random_relation(rng):
    """A seeded relation on at most 8 points: a random order, sometimes
    bounded, then maybe one entry flipped, one loop dropped, or a few
    entries set."""
    n = rng.randint(1, 8)
    perm = rng.sample(range(n), n)
    leq = np.eye(n, dtype=bool)
    p = rng.random()
    for i in range(n):
        for j in range(i + 1, n):
            leq[perm[i], perm[j]] = rng.random() < p
    for k in range(n):
        leq |= leq[:, [k]] & leq[[k], :]
    kind = rng.randrange(5)
    if kind and rng.random() < 0.6:
        leq[perm[0], :] = leq[:, perm[-1]] = True
    if kind == 2:
        i, j = rng.randrange(n), rng.randrange(n)
        leq[i, j] ^= i != j
    elif kind == 3:
        leq[rng.randrange(n), rng.randrange(n)] = False
    elif kind == 4:
        for _ in range(rng.randint(1, 3)):
            leq[rng.randrange(n), rng.randrange(n)] = True
    return n, leq


@small_blocks
def test_build_matches_definition_on_random_relations(block, monkeypatch):
    monkeypatch.setattr(lattice, "_BLOCK", block)
    rng = random.Random(2024)
    seen = collections.Counter(
        assert_build_matches_definition(*_random_relation(rng))
        for _ in range(2400))
    for outcome in ("lattice", "meet", "join", "not reflexive",
                    "not antisymmetric", "not transitive"):
        assert seen[outcome] >= 50, seen


@small_blocks
def test_closed_family_past_64_bits(block, monkeypatch):
    """Member masks over a 70-point universe are compared exactly, also
    where two differ only past bit 64."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    rng = random.Random(3)
    universe = (1 << 70) - 1
    masks = {universe} | {rng.getrandbits(70) for _ in range(4)}
    masks |= {m & ~(1 << 67) for m in masks}
    while len(closed := {a & b for a in masks for b in masks}) > len(masks):
        masks = closed
    fam = make_closed_family([f"u{i}" for i in range(70)], masks)
    L = build_from_closed_family(fam)
    ms = fam.members
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            assert bool(L.leq[i, j]) == (a & b == a)
            assert ms[int(L.meet[i, j])] == a & b


# -- irreducibles and primes -------------------------------------------------------


@pytest.mark.parametrize("make", [
    diamond_m3, pentagon_n5, lambda: boolean_cube(3), lambda: chain(4),
    lambda: build_R(Schema(("a", "b"), ("0", "1", "2"))).lattice,
    lambda: typed_R(typed_map_from_fibers([5, 2])).lattice,
])
def test_irreducibles_and_primes_match_oracle(make):
    L = make()
    assert list(L.join_irreducibles()) == oracles.join_irreducibles(L.n, L.leq)
    assert list(L.join_primes()) == oracles.join_primes(L.n, L.leq)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_random_irreducibles_match_oracle(seed):
    L = random_lattice(seed, max_size=9)
    assert list(L.join_irreducibles()) == oracles.join_irreducibles(L.n, L.leq)
    assert list(L.join_primes()) == oracles.join_primes(L.n, L.leq)


def test_m3_structure(m3):
    q = structure_query(m3)
    assert q["atoms"] == (1, 2, 3)
    assert q["join_irreducibles"] == (1, 2, 3)
    assert q["join_primes"] == ()  # each atom is under the join of the others
    assert q["is_atomistic"]


def test_n5_structure(n5):
    q = structure_query(n5)
    assert q["join_irreducibles"] == (1, 2, 3)
    assert q["join_primes"] == (1, 2)
    assert not q["is_atomistic"]  # 3 covers 1, not the bottom


def test_cube_everything_prime(b3):
    q = structure_query(b3)
    assert q["join_irreducibles"] == q["atoms"]
    assert q["join_primes"] == q["atoms"]
    assert q["is_atomistic"]


def test_lower_covers(n5):
    assert n5.lower_covers(4) == (2, 3)
    assert n5.lower_covers(3) == (1,)
    assert n5.lower_covers(0) == ()


# -- closed families ---------------------------------------------------------------


def test_closed_family_builds_powerset():
    fam = make_closed_family(["x", "y"], [0b00, 0b01, 0b10, 0b11])
    L = build_from_closed_family(fam)
    assert L.n == 4
    assert L.labels == ("{}", "{x}", "{y}", "{x,y}")
    assert find_isomorphism(L, boolean_cube(2)) is not None


def test_closed_family_requires_universe():
    fam = make_closed_family(["x", "y"], [0b00, 0b01])
    with pytest.raises(NotIntersectionClosed):
        build_from_closed_family(fam)


def test_closed_family_requires_intersections():
    fam = make_closed_family(["x", "y", "z"], [0b000, 0b011, 0b110, 0b111])
    with pytest.raises(NotIntersectionClosed) as exc:
        build_from_closed_family(fam)
    a, b = exc.value.pair
    assert a & b not in {0b000, 0b011, 0b110, 0b111}


def test_set_label():
    assert set_label(["a", "b", "c"], 0b101) == "{a,c}"
    assert set_label(["a"], 0) == "{}"


# -- sublattices -------------------------------------------------------------------


def test_sublattice_closure_of_whole(m3):
    sub, incl = sublattice_closure(m3, range(m3.n))
    assert sub.n == m3.n
    assert list(incl) == list(range(m3.n))


def test_pentagon_inside_r22(r22):
    idx = {lbl: i for i, lbl in enumerate(r22.lattice.labels)}
    seed = [idx["(ab|{00})"], idx["(ab|{00,10})"], idx["(b|{1})"]]
    sub, incl = sublattice_closure(r22.lattice, seed)
    assert sub.n == 5
    assert find_isomorphism(sub, pentagon_n5()) is not None


def test_sublattice_inclusion_preserves_ops(r22):
    L = r22.lattice
    sub, incl = sublattice_closure(L, [1, 5, 9])
    for a in range(sub.n):
        for b in range(sub.n):
            assert incl[int(sub.join[a, b])] == int(L.join[incl[a], incl[b]])
            assert incl[int(sub.meet[a, b])] == int(L.meet[incl[a], incl[b]])


def test_sublattice_closure_restricts_parent(r22):
    """Every seed of at most three elements of R(2,2): the closure is the
    reference walk's, and the sublattice is the one build_from_leq makes of
    the restricted order, with the same labels, dtypes and covers."""
    L = r22.lattice
    seeds = [s for k in (1, 2, 3) for s in itertools.combinations(range(L.n), k)]
    assert len(seeds) == 2951
    for seed in seeds:
        sub, incl = sublattice_closure(L, seed)
        assert incl == oracles.sublattice_closure(L, seed)
        idx = np.array(incl)
        want = build_from_leq(len(incl), L.leq[np.ix_(idx, idx)],
                              labels=[L.labels[x] for x in incl])
        assert (sub.n, sub.bottom, sub.top, sub.labels) == \
            (want.n, want.bottom, want.top, want.labels)
        for name in ("leq", "meet", "join", "lo", "hi"):
            got, ref = getattr(sub, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def test_sublattice_closure_rejects_seeds_outside_the_lattice():
    L = build_R(Schema(("a",), ("0", "1"))).lattice
    for seed in ([-1], [0, L.n]):
        with pytest.raises(ValueError, match=f"0..{L.n - 1}"):
            sublattice_closure(L, seed)
    with pytest.raises(ValueError, match="nonempty"):
        sublattice_closure(L, [])


# -- isomorphism and embedding ------------------------------------------------------


def test_isomorphism_self_is_identity(small_lattices):
    for L in small_lattices:
        assert find_isomorphism(L, L) == list(range(L.n))


def test_isomorphism_relabeled(small_lattices):
    rng = np.random.default_rng(0)
    for L in small_lattices:
        perm = rng.permutation(L.n)  # element a of L is element perm[a] of M
        inv = np.argsort(perm)
        M = build_from_leq(L.n, L.leq[np.ix_(inv, inv)])
        iso = find_isomorphism(L, M)
        assert iso is not None
        assert sorted(iso) == list(range(L.n))
        assert np.array_equal(L.leq, M.leq[np.ix_(iso, iso)])


def test_isomorphism_of_long_chain_needs_no_deep_recursion():
    # one search level per irreducible: a chain has n - 1 of them
    L = chain(1100)
    assert find_isomorphism(L, L) == list(range(L.n))


def test_searches_respect_node_cap(m3, b3):
    with pytest.raises(SearchBudgetExceeded, match="search_nodes cap 3"):
        find_isomorphism(m3, m3, caps=Caps(search_nodes=3))
    with pytest.raises(SearchBudgetExceeded, match="search_nodes cap 3"):
        find_embedding(chain(4), b3, caps=Caps(search_nodes=3))


def test_diamond_not_pentagon(m3, n5):
    assert find_isomorphism(m3, n5) is None


def test_embedding_chain_into_cube(b3):
    emb = find_embedding(chain(4), b3)
    assert emb is not None
    assert len(set(emb)) == 4


def test_embedding_pentagon_into_r22(r22, n5):
    emb = find_embedding(n5, r22.lattice)
    assert emb is not None
    L = r22.lattice
    for a in range(n5.n):
        for b in range(n5.n):
            assert int(L.join[emb[a], emb[b]]) == emb[int(n5.join[a, b])]
            assert int(L.meet[emb[a], emb[b]]) == emb[int(n5.meet[a, b])]


def test_no_diamond_inside_pentagon(m3, n5):
    assert find_embedding(m3, n5) is None


def test_embedding_is_least_by_brute_force(small_lattices):
    targets = [L for L in small_lattices if L.n <= 6]
    pairs = [(L1, L2) for L1 in targets if L1.n <= 5 for L2 in targets]
    pairs += [(L1, L2) for L1 in targets if L1.n <= 4
              for L2 in small_lattices if L2.n == 7]
    for L1, L2 in pairs:
        want = oracles.least_embedding(L1.n, L1.leq, L2.n, L2.leq)
        assert find_embedding(L1, L2) == want


# -- serialization -----------------------------------------------------------------


def test_json_round_trip(n5):
    doc = lattice_to_json(n5)
    back = lattice_from_json(doc)
    assert back.n == n5.n
    assert back.labels == n5.labels
    assert np.array_equal(back.leq, n5.leq)
    assert np.array_equal(back.join, n5.join)


def test_json_is_plain_data(m3):
    import json

    text = json.dumps(lattice_to_json(m3))
    assert "leq" in json.loads(text)
    assert text == json.dumps({"n": 5,
                               "leq": [[int(b) for b in row] for row in m3.leq],
                               "labels": list(m3.labels)})


# -- generation --------------------------------------------------------------------


def test_lattice_counts_match_slow_census():
    for k in range(1, 6):
        assert len(lattices_of_order(k)) == oracles.count_lattices(k)


def test_lattice_counts_frozen():
    got = [len(lattices_of_order(k)) for k in range(1, 8)]
    assert got == [1, 1, 1, 2, 5, 15, 53]
    assert len(all_lattices_upto(7)) == 78


@pytest.mark.parametrize("m", range(6))
def test_batched_canonical_keys_match_reference(m):
    """All orders on m <= 4 points, a seeded 300 of the 4231 on 5."""
    rels = sorted(lattgen._inner_posets(m), key=sorted)
    if m == 5:
        rels = random.Random(0).sample(rels, 300)
    got = [tuple(divmod(j, m) for j in lattgen._word_indices(m, word))
           for word in lattgen._canon_words(m, rels).tolist()]
    assert got == [oracles.canon_key(m, r) for r in rels]


@pytest.mark.parametrize("m", range(6))
def test_inner_posets_iterate_like_the_orientation_walk(m):
    """Same orders, and the same set iteration order, which picks each
    class's representative."""
    assert list(lattgen._inner_posets(m)) == list(oracles.inner_posets(m))


def test_census_representatives_are_pinned():
    """The labelled lattice standing for each class, in order, for k <= 7."""
    data = b"".join(L.leq.tobytes() for L in all_lattices_upto(7))
    assert hashlib.sha256(data).hexdigest() == (
        "e50dda5aed6a04dcf4c7ce96061b485e9523dd8fb5e72a5b65c198c2e4ab5d20")


def test_lattice_generation_respects_enum_cap():
    """k = 8 would walk 3^15 orientations of the six inner points' pairs."""
    t0 = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded) as err:
        lattices_of_order(8)
    assert time.perf_counter() - t0 < 1.0
    assert (err.value.need, err.value.cap) == (3**15, Caps().max_enum)
    with pytest.raises(EnumerationCapExceeded):
        all_lattices_upto(7, caps=Caps(max_enum=3**10 - 1))


def test_generated_lattices_are_pairwise_distinct():
    fives = lattices_of_order(5)
    for a, b in itertools.combinations(fives, 2):
        assert find_isomorphism(a, b) is None


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_random_lattice_is_deterministic_and_bounded(seed):
    L1 = random_lattice(seed)
    L2 = random_lattice(seed)
    assert np.array_equal(L1.leq, L2.leq)
    assert 2 <= L1.n <= 12


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(0, 11), st.integers(0, 11))
def test_absorption_laws(seed, i, j):
    L = random_lattice(seed)
    a, b = i % L.n, j % L.n
    assert int(L.meet[a, int(L.join[a, b])]) == a
    assert int(L.join[a, int(L.meet[a, b])]) == a
    assert int(L.join[a, a]) == a
    assert int(L.meet[a, b]) == int(L.meet[b, a])
