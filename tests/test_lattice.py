"""Core lattice machinery against definition-level oracles."""
from __future__ import annotations

import ast
import collections
import dataclasses
import hashlib
import inspect
import itertools
import pathlib
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    CATALOG,
    Caps,
    ClosedFamily,
    EnumerationCapExceeded,
    NotALattice,
    NotAPartialOrder,
    NotIntersectionClosed,
    Schema,
    SearchBudgetExceeded,
    SizeCapExceeded,
    all_lattices_upto,
    build_R,
    build_countermodel,
    build_from_closed_family,
    build_from_leq,
    check_inclusion,
    closure_system_R,
    enumerate_frames,
    extract_od_graph,
    find_embedding,
    find_isomorphism,
    frame_queries,
    lattice_from_json,
    lattice_to_json,
    l_of_frame,
    lattices_of_order,
    make_closed_family,
    od_graph_to_json,
    random_lattice,
    reconstruct,
    sections_space,
    semidirect_core,
    set_label,
    structure_query,
    sublattice_closure,
    typed_map_from_fibers,
    typed_R,
)
from rellat import lattgen, lattice, odgraph, relational, stats
from conftest import (
    boolean_cube,
    chain,
    diamond,
    diamond_m3,
    leq_from_covers,
    pentagon_n5,
    with_int32_tables,
)
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


def _flipped_orders(L):
    """L's order with one entry flipped three ways: bottom no longer below
    top breaks transitivity; bottom no longer below the first atom leaves
    no bottom, so a meet is missing first; the last coatom no longer below
    top leaves no top, and the first pair that fails lacks a join."""
    coatom = L.lower_covers(L.top)[-1]
    for (i, j), outcome in (((L.bottom, L.top), "not transitive"),
                            ((L.bottom, L.atoms()[0]), "meet"),
                            ((coatom, L.top), "join")):
        leq = L.leq.copy()
        leq[i, j] = False
        yield leq, outcome


@small_blocks
@pytest.mark.parametrize("make", [
    lambda: build_R(Schema(("a", "b"), ("0", "1"))).lattice,
    lambda: typed_R(typed_map_from_fibers([4, 2])).lattice,
], ids=["R22", "typed42"])
def test_failure_witnesses_past_one_block(make, block, monkeypatch):
    """Rejected orders of 26 and 278 elements give the definition's
    exception and witness. The meet check along the covers and the witness
    scan span several blocks on typed 4,2 at the default block size, and on
    both orders at a block of 7 entries."""
    L = make()
    monkeypatch.setattr(lattice, "_BLOCK", block)
    for leq, outcome in _flipped_orders(L):
        assert assert_build_matches_definition(L.n, leq) == outcome


def _failing_last(leq):
    """leq relabelled so that the elements in a pair without a meet or a
    join come last, and how many there are. A pair has its meet iff some
    common lower bound has as large a down-set as their common one."""
    n = len(leq)
    failing = np.zeros(n, dtype=bool)
    for side in (leq, leq.T):
        size = side.sum(axis=0)
        for a in range(n):
            common = side[:, a, None] & side
            best = np.where(common, size[:, None], -1).max(axis=0)
            failing[a] |= (best != common.sum(axis=0)).any()
    perm = np.concatenate([np.flatnonzero(~failing), np.flatnonzero(failing)])
    return leq[np.ix_(perm, perm)], int(failing.sum())


@small_blocks
@pytest.mark.parametrize("make, outcome", [
    (lambda: build_R(Schema(("a", "b"), ("0", "1"))).lattice, "meet"),
    (lambda: typed_R(typed_map_from_fibers([4, 2])).lattice, "join"),
], ids=["R22", "typed42"])
def test_lattice_witness_in_a_late_row(make, outcome, block, monkeypatch):
    """With a middle cover removed and the elements of failing pairs
    relabelled last, the first failing row is late, past the rows the
    check along the covers passes."""
    L = make()
    monkeypatch.setattr(lattice, "_BLOCK", block)
    k = len(L.lo) // 2
    leq = L.leq.copy()
    leq[L.lo[k], L.hi[k]] = False
    leq, failing = _failing_last(leq)
    assert assert_build_matches_definition(L.n, leq) == outcome
    with pytest.raises(NotALattice) as got:
        build_from_leq(L.n, leq)
    assert got.value.args[0].startswith(f"not a lattice: pair ({L.n - failing},")


@st.composite
def relations(draw):
    """A relation on at most 12 points: an order on a random permutation,
    maybe bounded, then maybe entries flipped."""
    n = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(n)))
    leq = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            leq[perm[i], perm[j]] = draw(st.booleans())
    if draw(st.booleans()):
        for k in range(n):
            leq |= leq[:, [k]] & leq[[k], :]
    if draw(st.booleans()):
        leq[perm[0], :] = leq[:, perm[-1]] = True
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=2)):
        leq[i, j] ^= True
    return n, leq


@settings(max_examples=300, deadline=None)
@given(relations(), st.sampled_from([lattice._BLOCK, 7]))
def test_build_matches_definition_on_drawn_relations(relation, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_BLOCK", block)
        assert_build_matches_definition(*relation)


def test_lattice_module_holds_no_matrix_product():
    """Builds, reloads, sublattices, extraction and OD-graph reads run no
    BLAS product (whose helper threads spin): neither module has an @,
    dot, matmul or einsum."""
    for module in (lattice, odgraph):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.MatMult)
            assert getattr(node, "attr", None) not in (
                "dot", "matmul", "einsum", "tensordot", "inner")


def test_only_the_lattice_module_and_the_enumeration_build_from_orders():
    """Every other module builds its lattices from closed sets: under
    src/rellat only lattice.py, lattgen.py and __init__.py name
    build_from_leq."""
    package = pathlib.Path(lattice.__file__).parent
    naming = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "build_from_leq" in (getattr(node, "id", None),
                                    getattr(node, "attr", None),
                                    getattr(node, "name", None)):
                naming.add(path.name)
    assert naming == {"lattice.py", "lattgen.py", "__init__.py"}


def _families():
    """Intersection-closed families: R(2,2)'s closure system, lattices as
    the sets of join-irreducibles below each element, and seeded families
    over 5, 64 and 70 points."""
    yield closure_system_R(Schema(("a", "b"), ("0", "1"))).members
    yield make_closed_family([], [0]).members
    for L in (diamond_m3(), pentagon_n5(), boolean_cube(3),
              build_R(Schema(("a", "b"), ("0", "1"))).lattice):
        ji = L.join_irreducibles()
        yield make_closed_family(
            [str(j) for j in ji],
            [sum(1 << k for k, j in enumerate(ji) if L.leq[j, x])
             for x in range(L.n)]).members
    rng = random.Random(11)
    for _ in range(20):
        bits = rng.choice([5, 64, 70])
        masks = {(1 << bits) - 1} | {rng.getrandbits(bits) for _ in range(4)}
        while len(closed := {a & b for a in masks for b in masks}) > len(masks):
            masks = closed
        yield make_closed_family([f"u{i}" for i in range(bits)], masks).members


@small_blocks
def test_open_pair_matches_pair_loop(block, monkeypatch):
    """The first pair whose intersection is missing, on closed families
    and on each of them with one member removed."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    opened = 0
    for members in _families():
        assert lattice._open_pair(members) is None
        for k in range(len(members)):
            rest = members[:k] + members[k + 1:]
            want = oracles.intersection_witness(rest)
            assert lattice._open_pair(rest) == want
            opened += want is not None
    assert opened >= 50


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


# max_enum = 0 admits no 2^|J| closure table, not even 2^0 = 1 entry, so
# build_from_leq takes the candidate-meet path (_meet_table, _first_fault)
# on every order.
CANDIDATE_CAPS = dataclasses.replace(lattice.DEFAULT_CAPS, max_enum=0)


def _assert_same_lattice(got, want):
    """Equal fields, the tables' dtypes included."""
    for name in ("leq", "meet", "join", "lo", "hi"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.n, got.bottom, got.top, got.labels) == \
        (want.n, want.bottom, want.top, want.labels)


def _closure_built(build):
    """build()'s result, which must come from one closure build and
    validate no order."""
    with stats.collect() as counters:
        out = build()
    assert counters.get("closure_builds") == 1, counters
    assert "order_builds" not in counters
    return out


def _family_by_order(fam):
    """A closed family's lattice as build_from_leq's candidate meets build
    it from the inclusion order of its members."""
    labels = [set_label(fam.universe, m) for m in fam.members]
    return build_from_leq(len(fam.members), lattice._containment(fam.members),
                          labels=labels, caps=CANDIDATE_CAPS)


def _semidirect_by_order(attr_names, point_names, pairs):
    """semidirect_core's lattice as build_from_leq's candidate meets build
    it from the inclusion order of the pairs' sets X | T << attrs."""
    labels = [f"({set_label(attr_names, x)}|{set_label(point_names, t)})"
              for x, t in pairs]
    masks = [x | t << len(attr_names) for x, t in pairs]
    return build_from_leq(len(masks), lattice._containment(masks),
                          labels=labels, caps=CANDIDATE_CAPS)


@small_blocks
def test_semidirect_closure_builds_match_order_builds(block, monkeypatch):
    """Every frame of at most four worlds that is full and initial (those
    the frame census uses), against the fixed pairs of its path-closure
    table, and typed 4,2 and 5,2, against those of the action table."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    census = [f for w in range(1, 5) for f in enumerate_frames(w, 2)
              if all(frame_queries(f).values())]
    assert len(census) == 131
    for f in census:
        want = _semidirect_by_order(
            [str(i + 1) for i in range(f.n_rels)], f.worlds,
            oracles.fixed_pairs(oracles.path_closure_table(f)))
        _assert_same_lattice(_closure_built(lambda: l_of_frame(f)).lattice, want)
    for fibers in ([4, 2], [5, 2]):
        tm = typed_map_from_fibers(fibers)
        space = sections_space(tm)
        want = _semidirect_by_order(
            space.attrs, space.points, oracles.fixed_pairs(
                relational._act_table(space, lattice.DEFAULT_CAPS)))
        _assert_same_lattice(_closure_built(lambda: typed_R(tm)).lattice, want)


def test_frame_pairs_are_the_path_closure_fixed_pairs():
    """l_of_frame's elements are the fixed pairs of the path-closure table,
    in X-then-T order, on every frame of 1-3 worlds with 1-3 relations and
    of 4 worlds with 1-2 relations."""
    shapes = [(w, r) for w in range(1, 4) for r in range(1, 4)] + [(4, 1), (4, 2)]
    for w, r in shapes:
        for f in enumerate_frames(w, r):
            assert list(l_of_frame(f).elems) == \
                oracles.fixed_pairs(oracles.path_closure_table(f)), f


def test_semidirect_rule_builds_match_order_builds():
    """150 seeded rule lists over at most 2 attributes and 3 points: the
    elements are the pairs whose sets the rules close, in X-then-T order,
    and the closure build is the lattice of their inclusion order."""
    rng = random.Random(19)
    sizes = collections.Counter()
    for _ in range(150):
        n_attrs, n_points = rng.randint(1, 2), rng.randint(1, 3)
        u = n_attrs + n_points
        rules = [(rng.getrandbits(u),
                  1 << rng.randrange(u) if rng.random() < 0.5 else rng.getrandbits(u))
                 for _ in range(rng.randint(0, 5))]
        attrs = [str(i + 1) for i in range(n_attrs)]
        points = [f"p{i}" for i in range(n_points)]
        flags = oracles.closed_under_rules(u, rules)
        pairs = sorted((s & (1 << n_attrs) - 1, s >> n_attrs)
                       for s in range(1 << u) if flags[s])
        got = _closure_built(lambda: semidirect_core(attrs, points, rules))
        assert list(got.elems) == pairs, rules
        _assert_same_lattice(got.lattice,
                             _semidirect_by_order(attrs, points, pairs))
        sizes[len(pairs)] += 1
    assert len(sizes) >= 20 and sizes[1], sizes


def test_semidirect_core_caps_before_reading_rules():
    """2^points, then 2^attrs, then 2^(attrs + points) are refused before
    the first rule is read."""
    def unread():
        raise AssertionError("a rule was read")
        yield

    for n_attrs, n_points, want in ((5, 6, 64), (6, 3, 64), (4, 4, 256)):
        with pytest.raises(EnumerationCapExceeded,
                           match=f"enumeration of {want} subsets exceeds "
                                 "the max_enum cap 16"):
            semidirect_core([f"a{i}" for i in range(n_attrs)],
                            [f"p{i}" for i in range(n_points)], unread(),
                            Caps(max_enum=16))


@small_blocks
def test_family_closure_builds_match_order_builds(block, monkeypatch, r22,
                                                  cm_graph):
    """The families of _families() over at most 20 points, the
    reconstructions of R(2,2), typed 4,2 and the countermodel's graph, and
    random_lattice(s) for s < 200."""
    built = []

    def spy(fam, caps=lattice.DEFAULT_CAPS):
        built.append(fam)
        return build_from_closed_family(fam, caps)

    monkeypatch.setattr(lattice, "_BLOCK", block)
    monkeypatch.setattr(odgraph, "build_from_closed_family", spy)
    monkeypatch.setattr(lattgen, "build_from_closed_family", spy)
    for members in _families():
        u = max(members).bit_length()
        if u <= 20:
            fam = make_closed_family([f"u{i}" for i in range(u)], members)
            L = _closure_built(lambda: build_from_closed_family(fam))
            _assert_same_lattice(L, _family_by_order(fam))
    typed42 = typed_R(typed_map_from_fibers([4, 2])).lattice
    graphs = [extract_od_graph(r22.lattice), extract_od_graph(typed42), cm_graph]
    for g in graphs:
        L = _closure_built(lambda: reconstruct(g))
        _assert_same_lattice(L, _family_by_order(built[-1]))
    for s in range(200):
        L = _closure_built(lambda: random_lattice(s))
        _assert_same_lattice(L, _family_by_order(built[-1]))


@small_blocks
@pytest.mark.parametrize("attrs, dom", [(1, 1), (1, 2), (1, 3), (1, 4),
                                        (2, 2), (2, 3), (3, 2)])
def test_relational_closure_builds_match_order_builds(attrs, dom, block,
                                                      monkeypatch):
    """build_R builds from its tables' closed sets the lattice that
    build_from_leq's candidate meets build from its order; the table_leq
    tests pin the order itself."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    R = _closure_built(lambda: build_R(
        Schema(tuple("abc"[:attrs]), tuple("0123"[:dom]))))
    L = R.lattice
    _assert_same_lattice(L, build_from_leq(L.n, L.leq, labels=L.labels,
                                           caps=CANDIDATE_CAPS))


def test_closure_family_failures_raise_the_open_pair():
    """Each small family of _families() with one member removed, and
    without its universe, raises the pair the intersection scan or the
    universe check names."""
    raised = 0
    for members in _families():
        u = max(members).bit_length()
        if u > 20:
            continue
        names = [f"u{i}" for i in range(u)]
        for k in range(len(members)):
            rest = members[:k] + members[k + 1:]
            if not rest:
                continue
            if members[k] == (1 << u) - 1:
                want = ((1 << u) - 1,) * 2
            else:
                want = oracles.intersection_witness(rest)
            if want is None:
                _closure_built(lambda: build_from_closed_family(
                    make_closed_family(names, rest)))
                continue
            with pytest.raises(NotIntersectionClosed) as got:
                build_from_closed_family(make_closed_family(names, rest))
            assert got.value.pair == want
            raised += 1
    assert raised >= 50


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


@pytest.mark.parametrize("universe, members", [
    (("x",), (0, 1, 1)),                # a repeated member
    (("x",), (1, 3)),                   # a mask past the universe
    (("x",), (-1, 1)),                  # a negative mask
    (tuple(f"u{i}" for i in range(70)), (0, 0, (1 << 70) - 1)),
    (tuple(f"u{i}" for i in range(70)), (1 << 70, (1 << 70) - 1)),
])
def test_closed_family_rejects_malformed_members(universe, members):
    """A hand-built family whose members repeat or are not masks of its
    universe is refused, on the narrow and the wide route alike."""
    with pytest.raises(ValueError, match="distinct masks"):
        build_from_closed_family(ClosedFamily(universe, members))


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


def test_bijections_are_verified_by_their_covers(small_lattices):
    """A bijection onto a lattice of the same size, a relabeled copy or
    another lattice, passes the cover check exactly when it preserves meets
    and joins. Maps into larger lattices are checked against the tables."""
    rng = np.random.default_rng(8)
    lattices = [L for L in small_lattices if L.n >= 3]
    accepted = 0
    for L in lattices:
        M = relabeled(L, L.n)
        others = [K for K in lattices if K.n == L.n] + [M]
        iso = np.array(find_isomorphism(L, M))
        for K in others:
            maps = [rng.permutation(L.n) for _ in range(20)]
            maps += [iso[rng.permutation(L.n)] for _ in range(5)]
            if K is M:
                maps.append(iso)
            for phi in maps:
                want = ((phi[L.meet] == K.meet[np.ix_(phi, phi)]).all()
                        and (phi[L.join] == K.join[np.ix_(phi, phi)]).all())
                assert lattice._is_embedding(L, K, phi) == want
                accepted += bool(want)
    assert accepted >= len(lattices)
    assert not lattice._is_embedding(diamond_m3(), boolean_cube(3),
                                     np.array([0, 1, 2, 4, 7]))
    assert lattice._is_embedding(chain(3), boolean_cube(3), np.array([0, 1, 7]))


def relabeled(L, seed):
    """L with its elements renamed by a seeded permutation."""
    inv = np.argsort(np.random.default_rng(seed).permutation(L.n))
    return build_from_leq(L.n, L.leq[np.ix_(inv, inv)])


def test_orbit_minima_match_brute_force(small_lattices):
    lattices = list(small_lattices)
    lattices += [relabeled(L, seed) for seed, L in enumerate(small_lattices)]
    lattices += [random_lattice(seed, max_size=10) for seed in range(40)]
    for L in lattices:
        got = lattice.orbit_minima(L)
        assert got.tolist() == oracles.automorphism_orbit_minima(L)


@pytest.mark.parametrize("make, count, nodes", [
    (lambda: typed_R(typed_map_from_fibers([4, 2])).lattice, 32, 44),
    (lambda: build_R(Schema(("a", "b"), ("0", "1", "2"))).lattice, 32, 36),
    (lambda: typed_R(typed_map_from_fibers([5, 2])).lattice, 45, 65),
    (lambda: reconstruct(build_countermodel()), 50, 18),
], ids=["typed42", "R23", "typed52", "countermodel"])
def test_orbit_minima_counts(make, count, nodes):
    # nodes: the search nodes of all the automorphism searches together
    with stats.collect() as counters:
        assert len(lattice.orbit_minima(make())) == count
    assert counters["search_nodes"] == nodes


def test_orbit_search_on_typed_4_2_is_small():
    # 278 elements, 10 irreducibles: the pair-count filter leaves the
    # automorphism searches almost nothing to backtrack over
    L = typed_R(typed_map_from_fibers([4, 2])).lattice
    with stats.collect() as counters:
        lattice.orbit_minima(L)
    assert 0 < counters["search_nodes"] <= 100


def test_orbit_minima_are_cached():
    L = diamond_m3()
    with stats.collect() as counters:
        first = lattice.orbit_minima(L)
        assert lattice.orbit_minima(L) is first
    # two searches, 1 -> 2 and 1 -> 3, of one node per generator each; each
    # builds 6 rows: the join and meet count rows of the images of a and b,
    # and the join-dominance rows of (a, b) and (b, a)
    assert counters == {"search_nodes": 8, "search_rows": 12}
    assert first.tolist() == [0, 1, 4]


def _r23():
    return build_R(Schema(("a", "b"), ("0", "1", "2"))).lattice


def _searches(corpus, monkeypatch):
    """(L1, L2, pools, budget) of each search of a corpus: the embeddings of
    every third lattice of at most 6 elements into seeded random lattices
    and R(2,2); each automorphism search `orbit_minima` makes on a lattice,
    with its pinned image; or M_11 into R(2,3), which runs out at 3,000
    nodes."""
    if corpus == "census":
        targets = [random_lattice(s, max_size=12) for s in range(10)]
        targets.append(build_R(Schema(("a", "b"), ("0", "1"))).lattice)
        return [(L1, L2, [range(L2.n)] * (1 + len(L1.join_irreducibles())),
                 10**6)
                for L1 in all_lattices_upto(6)[::3] for L2 in targets
                if L1.n <= L2.n]
    if corpus == "M11":
        return [(diamond(11), _r23(), [range(530)] * 12, 3000)]
    L = {"typed42": lambda: typed_R(typed_map_from_fibers([4, 2])).lattice,
         "R23": _r23,
         "typed52": lambda: typed_R(typed_map_from_fibers([5, 2])).lattice}[corpus]()
    calls, search = [], lattice._search

    def recorded(L1, L2, pools, caps):
        calls.append((L1, L2, pools, 10**6))
        return search(L1, L2, pools, caps)

    monkeypatch.setattr(lattice, "_search", recorded)
    lattice.orbit_minima(L)
    monkeypatch.undo()
    return calls


def _outcome(search, L1, L2, pools, caps):
    try:
        return search(L1, L2, pools, caps)
    except SearchBudgetExceeded as e:
        return str(e)


@pytest.mark.parametrize("corpus", ["census", "typed42", "R23", "typed52",
                                    "M11"])
def test_row_filters_match_the_array_filters(corpus, monkeypatch):
    """The bitset rows give each level the candidates the numpy filters
    gave: the same least map, node count and budget error."""
    outcomes = collections.Counter()
    for L1, L2, pools, budget in _searches(corpus, monkeypatch):
        for nodes in (budget, 7):
            caps = Caps(search_nodes=nodes)
            got = _outcome(lattice._search, L1, L2, pools, caps)
            assert got == _outcome(oracles.reference_search, L1, L2, pools, caps)
            outcomes["budget" if isinstance(got, str) else got[0] is not None] += 1
    # budget errors, maps found and (among the census) none
    assert outcomes["budget"] and (outcomes[True] or corpus == "M11")
    assert outcomes[False] or corpus != "census"


def test_row_memo_keeps_at_most_max_enum_bytes(monkeypatch):
    """A row memo too small for the search keeps what fits and builds the
    other rows each time they are asked for, with the same maps, nodes and
    budget errors; search_rows counts every row built."""
    memos = []

    class Recorded(lattice._RowMemo):
        def __init__(self, L, limit):
            super().__init__(L, limit)
            memos.append(self)

    r23, width = _r23(), 67                     # bytes per row of 530 bits
    searches = [(diamond(11), [range(530)] * 12, 3000),
                (boolean_cube(4), [range(530)] * 5, 10**6)]
    for L1, pools, nodes in searches:
        want = _outcome(lattice._search, L1, r23, pools, Caps(search_nodes=nodes))
        monkeypatch.setattr(lattice, "_RowMemo", Recorded)
        kept, built = [], []
        for limit in (1 << 20, 4 * width, width - 1):
            caps = Caps(search_nodes=nodes, max_enum=limit)
            with stats.collect() as counters:
                assert _outcome(lattice._search, L1, r23, pools, caps) == want
            assert len(memos[-1]) * width <= limit
            assert counters["search_rows"] == memos[-1].built
            kept.append(len(memos[-1]))
            built.append(memos[-1].built)
        monkeypatch.undo()
        # the default keeps every row; a smaller memo builds some again,
        # many times over on M_11's 3,000 nodes
        assert kept[0] == built[0] <= built[1] <= built[2] and kept[2] == 0
        assert L1.n != 13 or built == [7000, 16838, 17864]


# -- reloads through join-irreducible masks ---------------------------------------

def _reload_corpus():
    """(name, lattice) of the lattices a reload is timed on: R(2,3) from
    its tables and from its closure system, typed 4,2 and 5,2, and the
    countermodel's reconstruction."""
    closure23 = closure_system_R(Schema(("a", "b"), ("0", "1", "2")))
    yield "R23", _r23()
    yield "R23 closure", build_from_closed_family(closure23)
    for fibers in ([4, 2], [5, 2]):
        yield f"typed {fibers}", typed_R(typed_map_from_fibers(fibers)).lattice
    yield "countermodel", reconstruct(build_countermodel())


def _family21():
    """A seeded closed family of 26 members on 21 points, too wide for
    2^u flags under the default caps, with 12 join-irreducibles."""
    rng = random.Random(21)
    masks = {(1 << 21) - 1} | {rng.getrandbits(21) for _ in range(6)}
    while len(closed := {a & b for a in masks for b in masks}) > len(masks):
        masks = closed
    return make_closed_family([f"u{i}" for i in range(21)], masks)


def _build_outcome(n, leq, labels=None, caps=lattice.DEFAULT_CAPS):
    try:
        return build_from_leq(n, leq, labels=labels, caps=caps)
    except (NotAPartialOrder, NotALattice) as e:
        return type(e), e.args


def _assert_same_build(n, leq, labels=None):
    """build_from_leq gives what the candidate-meet path gives: the same
    tables (bytes and dtypes), bottom, top and labels, or the same
    exception type and args. Returns the outcome's name."""
    got = _build_outcome(n, leq, labels)
    want = _build_outcome(n, leq, labels, CANDIDATE_CAPS)
    if isinstance(want, tuple):
        assert got == want
        return want[0].__name__
    _assert_same_lattice(got, want)
    return "lattice"


def test_mask_route_matches_candidate_meets_on_lattices():
    """The census, seeded random lattices, the reload corpus (also with
    labels dropped) and a closed family on 21 points, which is checked by
    _open_pair and built from its _containment order."""
    for L in all_lattices_upto(7):
        assert _assert_same_build(L.n, L.leq) == "lattice"
    for s in range(300):
        L = random_lattice(s, 12)
        assert _assert_same_build(L.n, L.leq, L.labels) == "lattice"
    for _, L in _reload_corpus():
        for labels in (L.labels, None):
            assert _assert_same_build(L.n, L.leq, labels) == "lattice"
    fam = _family21()
    _assert_same_lattice(build_from_closed_family(fam),
                         build_from_closed_family(fam, CANDIDATE_CAPS))


def test_mask_route_matches_candidate_meets_on_random_relations():
    """Seeded relations on at most 8 points, lattices or not: orders and
    non-transitive, non-antisymmetric and non-reflexive relations, and
    orders without a meet or a join."""
    rng = random.Random(28)
    seen = collections.Counter(_assert_same_build(*_random_relation(rng))
                               for _ in range(5000))
    assert seen["lattice"] >= 1000 and seen["NotALattice"] >= 1000, seen
    assert seen["NotAPartialOrder"] >= 1000, seen


@pytest.mark.parametrize("n, covers", [
    (3, [(0, 2), (1, 2)]),
    (3, [(0, 1), (0, 2)]),
    (8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (1, 6),
         (2, 6), (4, 6), (5, 7), (6, 7)]),
    (8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (1, 6), (2, 6),
         (3, 6), (4, 7), (5, 7), (6, 7)]),
], ids=["masks repeat", "no universe", "not closed", "other order"])
def test_refused_masks_fall_back_to_the_candidate_witness(n, covers,
                                                          monkeypatch):
    """Orders that are not lattices, whose J-masks the closure core refuses
    each way: two minimal elements, both with no irreducible below; two
    maximal ones, so no J(x) is all of J; two coatoms above the same two
    atoms and one more each, so their masks' intersection is no J(x); and
    a coatom above two atoms and a second one above those and a third,
    so inclusion of masks orders what the order does not. Each still
    raises the candidate-meet path's exception."""
    core, refused = lattice._closure_tables, []

    def spied(*args):
        refused.append((out := core(*args)) is None)
        return out

    monkeypatch.setattr(lattice, "_closure_tables", spied)
    assert _assert_same_build(n, leq_from_covers(n, covers)) == "NotALattice"
    assert refused == [True]


def test_reloads_of_small_irreducible_sets_skip_the_candidate_meets(monkeypatch):
    """R(2,3), typed 5,2 and the countermodel reload through their J-masks
    with no candidate meet, one order build and no closure build, and so
    does a closed family too wide for 2^u flags; a 1,100-element chain
    (1,099 irreducibles) and an order that is not a lattice still reach
    _meet_table."""
    meet_table, calls = lattice._meet_table, []

    def forbidden(*args):
        raise AssertionError("the candidate-meet path ran")

    def counted(*args):
        calls.append(len(args[0]))
        return meet_table(*args)

    corpus, doc1100 = dict(_reload_corpus()), lattice_to_json(chain(1100))
    monkeypatch.setattr(lattice, "_meet_table", forbidden)
    for name in ("R23", "typed [5, 2]", "countermodel"):
        doc = lattice_to_json(corpus[name])
        with stats.collect() as counters:
            lattice_from_json(doc)
        assert counters == {"order_builds": 1}, name
    assert build_from_closed_family(_family21()).n == 26
    monkeypatch.setattr(lattice, "_meet_table", counted)
    lattice_from_json(doc1100)
    leq = np.eye(3, dtype=bool)
    leq[:, 2] = True                            # two minimal elements
    with pytest.raises(NotALattice, match=r"\(0, 1\) has no meet"):
        build_from_leq(3, leq)
    assert calls == [1100, 1100, 3, 3]


def test_mask_route_holds_no_second_order_matrix(monkeypatch):
    """Reloading typed 5,2 through its J-masks peaks below the candidate-
    meet path in tracemalloc. With small blocks its peak stays below its
    two tables and one more n-by-n boolean matrix, so it does not hold the
    closure's own order next to the input's."""
    L = typed_R(typed_map_from_fibers([5, 2])).lattice

    def peak(caps):
        tracemalloc.start()
        try:
            build_from_leq(L.n, L.leq, labels=L.labels, caps=caps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lattice.DEFAULT_CAPS) < peak(CANDIDATE_CAPS)
    monkeypatch.setattr(lattice, "_BLOCK", 1 << 16)
    assert peak(lattice.DEFAULT_CAPS) < L.meet.nbytes + L.join.nbytes + L.n ** 2


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
    """All orders on m <= 4 points, a seeded 300 of the 4231 on 5: the key
    of each order's orbit."""
    rels = sorted(lattgen._coded_posets(m)[0], key=sorted)
    if m == 5:
        rels = random.Random(0).sample(rels, 300)
    got = [tuple(divmod(j, m) for j in
                 lattgen._word_indices(m, lattgen._orbit(m, r)[1]))
           for r in rels]
    assert got == [oracles.canon_key(m, r) for r in rels]


@pytest.mark.parametrize("m", range(6))
def test_orbits_partition_labelled_orders(m):
    """The orbits of the class representatives mark every transitive
    orientation exactly once, each representative is the first member of
    its orbit in set order, and there is one class per unlabelled order on
    m points."""
    pairs = list(itertools.combinations(range(m), 2))

    def code(rel):
        return sum(3 ** (len(pairs) - 1 - j) * (1 if p in rel else
                                                2 if p[::-1] in rel else 0)
                   for j, p in enumerate(pairs))

    reps = lattgen._classes(m)
    orbits = [set(lattgen._orbit(m, rel)[0].tolist()) for rel in reps.values()]
    assert len(reps) == [1, 1, 2, 5, 16, 63][m]
    assert sum(map(len, orbits)) == len(set().union(*orbits))
    assert set().union(*orbits) == {code(r) for r in oracles.inner_posets(m)}
    owner = {c: i for i, orbit in enumerate(orbits) for c in orbit}
    firsts = {}
    for rel in lattgen._coded_posets(m)[0]:
        firsts.setdefault(owner[code(rel)], rel)
    assert list(firsts.values()) == list(reps.values())


@pytest.mark.parametrize("m", range(6))
def test_inner_posets_iterate_like_the_orientation_walk(m):
    """Same orders, and the same set iteration order, which picks each
    class's representative."""
    assert list(lattgen._coded_posets(m)[0]) == list(oracles.inner_posets(m))


def test_census_representatives_are_pinned():
    """The labelled lattice standing for each class, in order, for k <= 7."""
    data = b"".join(L.leq.tobytes() for L in all_lattices_upto(7))
    assert hashlib.sha256(data).hexdigest() == (
        "e50dda5aed6a04dcf4c7ce96061b485e9523dd8fb5e72a5b65c198c2e4ab5d20")


def test_census_enumeration_stays_small():
    """The seven-element census peaks at no more than 3.5 MB in tracemalloc,
    so the orientation filter's temporaries stay bounded."""
    tracemalloc.start()
    try:
        lattices_of_order(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


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


def test_random_lattice_closes_its_draws_as_a_worklist_does():
    for s in range(3000):
        bits, masks = oracles.random_family(s)
        want = build_from_closed_family(
            make_closed_family([f"u{i}" for i in range(bits)], masks))
        got = random_lattice(s)
        assert got.labels == want.labels, s
        for name in ("leq", "meet", "join"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), s


def _rule_sets():
    """(u, rules) over at most 8 points: the named edge cases, then seeded
    sets whose premises repeat and whose conclusions overlap them."""
    yield 3, []                                     # every set is closed
    yield 3, [(0, 0b101)]                           # an empty premise
    yield 4, [(0b11, 0b100), (0b11, 0b1000), (0b11, 0b100)]
    yield 4, [(0b11, 0b111), (0b110, 0b110), (0b1, 0b1)]
    yield 0, [(0, 0)]
    rng = random.Random(0)
    for _ in range(80):
        u = rng.randint(1, 8)
        full = (1 << u) - 1
        premises = [rng.randint(0, full) for _ in range(rng.randint(1, 4))]
        yield u, [(p, rng.randint(0, full) | p & rng.randint(0, full))
                  for p in (rng.choice(premises)
                            for _ in range(rng.randint(0, 10)))]


def test_closed_under_reads_every_rule_at_every_set():
    for u, rules in _rule_sets():
        got = lattice._closed_under(u, rules)
        assert got.dtype == bool and got.shape == (1 << u,)
        assert got.tolist() == oracles.closed_under_rules(u, rules), (u, rules)


def test_closure_intersects_the_flagged_supersets():
    rng = np.random.default_rng(0)
    for u in range(9):
        for density in (0.0, 0.1, 0.5, 1.0):
            flags = rng.random(1 << u) < density
            assert lattice._closure(u, flags).tolist() == \
                oracles.closure_of_flags(u, flags.tolist()), (u, density)


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


# -- int16 element tables ----------------------------------------------------------


def test_element_dtype_is_int16_up_to_two_to_the_fifteen():
    # ids 0..n-1 and the -1 of a table being built fit int16 up to 2^15
    assert lattice._element_dtype(1) is np.int16
    assert lattice._element_dtype(1 << 15) is np.int16
    assert lattice._element_dtype((1 << 15) + 1) is np.int32


@pytest.fixture(scope="module")
def int16_lattices():
    """Typed 4,2 (278 elements) and R(2,3) (530): n^2 > 32,767, so an
    offset a * n + b taken in int16 would overflow."""
    return [typed_R(typed_map_from_fibers([4, 2])).lattice, _r23()]


def test_int16_tables_on_both_build_routes(int16_lattices):
    for L in int16_lattices:
        assert L.n ** 2 > np.iinfo(np.int16).max
        # the candidate-meet route, forced by a max_enum below 2^|J|
        wide = build_from_leq(L.n, L.leq, labels=L.labels, caps=Caps(max_enum=1))
        for M in (L, wide, lattice_from_json(lattice_to_json(L))):
            assert M.meet.dtype == M.join.dtype == np.int16
            assert np.array_equal(M.meet, L.meet)
            assert np.array_equal(M.join, L.join)
        assert lattice._first_fault(L.leq, L.meet, L.lo, L.hi, L.n) == L.n


def test_int16_tables_give_the_int32_answers(int16_lattices):
    """Scans, extraction, sublattices, orbits and isomorphism search on the
    int16 tables give what the same lattice gives with int32 tables, and,
    where one is cheap, what the oracle gives."""
    for L in int16_lattices:
        wide = with_int32_tables(L)
        for name in ("RL1", "SymPC", "Dist", "VarRL1"):
            inc = CATALOG[name]
            assert check_inclusion(L, inc) == check_inclusion(wide, inc), name
        for name, seed in (("RL1", 3), ("Unjp", 3), ("Dist", 1)):
            res = check_inclusion(L, CATALOG[name], mode="sample",
                                  samples=200_000, seed=seed)
            assert (res.verdict, res.witness, res.evaluations) == \
                oracles.sampled_scan(L, CATALOG[name], 200_000, seed), name
        assert od_graph_to_json(extract_od_graph(L)) == \
            od_graph_to_json(extract_od_graph(wide))
        rng = random.Random(L.n)
        for seed in ([rng.randrange(L.n) for _ in range(k)]
                     for k in (1, 2, 2, 3, 3, 4)):
            sub, incl = sublattice_closure(L, seed)
            assert incl == oracles.sublattice_closure(L, seed)
            assert incl == sublattice_closure(wide, seed)[1]
            assert sub.meet.dtype == np.int16
        minima = lattice.orbit_minima(L)
        assert len(minima) == 32
        assert np.array_equal(minima, lattice.orbit_minima(wide))
        other = relabeled(L, 5)
        phi = find_isomorphism(L, other)
        assert phi is not None and phi == find_isomorphism(wide, other)
        assert np.array_equal(other.leq[np.ix_(phi, phi)], L.leq)
    t42 = int16_lattices[0]
    for name in ("RL1", "Dist"):
        res = check_inclusion(t42, CATALOG[name])
        assert (res.verdict, res.witness, res.evaluations) == \
            oracles.plain_scan(t42, CATALOG[name]), name
