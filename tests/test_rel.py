"""Relational lattices: tables, spaces, the action, and the three builds."""
from __future__ import annotations

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    BadDocument,
    EnumerationCapExceeded,
    NotAnUltraSpace,
    NotSurjective,
    RellatError,
    Schema,
    SchemaMismatch,
    act,
    bc_identity_check,
    build_from_closed_family,
    build_R,
    closure_system_R,
    cylindrify,
    find_isomorphism,
    hamming_space,
    inner_union,
    is_pairwise_complete,
    make_space,
    make_table,
    natural_join,
    r_size,
    rel_to_semidirect_map,
    restrict,
    semidirect,
    sections_space,
    space_from_json,
    space_to_json,
    subspace,
    table_from_json,
    table_label,
    table_leq,
    table_to_json,
    typed_map_from_fibers,
    typed_R,
    Caps,
    DEFAULT_CAPS,
    TypedMap,
)
from rellat import lattice, relational
from conftest import boolean_cube
import oracles


# -- schemas and rows ---------------------------------------------------------------


def test_schema_validation():
    with pytest.raises(ValueError):
        Schema((), ("0",))
    with pytest.raises(ValueError):
        Schema(("a", "a"), ("0",))
    with pytest.raises(ValueError):
        Schema(("a",), ("0", "0"))


def test_row_codes_round_trip(schema22):
    full = schema22.full_header
    for code in range(4):
        assert schema22.encode_row(full, schema22.decode_row(full, code)) == code


def test_encode_row_checks_width(schema22):
    with pytest.raises(ValueError):
        schema22.encode_row(schema22.full_header, [0])


def test_first_attribute_is_most_significant(schema22):
    # row a=1, b=0 has code 1*2 + 0
    assert schema22.encode_row(schema22.full_header, [1, 0]) == 2
    assert schema22.row_label(schema22.full_header, 2) == "10"


def test_delta(schema22):
    assert schema22.delta(0, 0) == 0
    assert schema22.delta(0, 2) == 0b01  # differ at a
    assert schema22.delta(0, 1) == 0b10  # differ at b
    assert schema22.delta(0, 3) == 0b11


def test_restrict_code(schema22):
    # (a=1, b=0) restricted to {b} keeps 0
    assert schema22.restrict_code(0b11, 2, 0b10) == 0
    assert schema22.restrict_code(0b11, 2, 0b01) == 1


# -- tables and the two operations ---------------------------------------------------


def fruit_schema():
    return Schema(("item", "hue", "size"), ("plum", "pear", "dark", "pale", "big"))


def test_make_table_and_label(schema22):
    t = make_table(schema22, ["a", "b"], [("0", "0"), ("1", "1")])
    assert table_label(t) == "(ab|{00,11})"


def test_natural_join_glues_on_shared_column():
    s = fruit_schema()
    stock = make_table(s, ["item", "hue"],
                       [("plum", "dark"), ("pear", "pale")])
    sizes = make_table(s, ["item", "size"],
                       [("plum", "big")])
    got = natural_join(stock, sizes)
    want_header, want_rows = oracles.dict_natural_join(
        ["item", "hue"], oracles.rows_as_dicts(stock),
        ["item", "size"], oracles.rows_as_dicts(sizes))
    assert sorted(s.header_names(got.header)) == want_header
    assert sorted(map(sorted, (r.items() for r in oracles.rows_as_dicts(got)))) \
        == sorted(map(sorted, (r.items() for r in want_rows)))
    assert len(got.rows) == 1  # only plum appears on both sides


def test_inner_union_projects_to_shared_header():
    s = fruit_schema()
    stock = make_table(s, ["item", "hue"],
                       [("plum", "dark"), ("pear", "pale")])
    sizes = make_table(s, ["item", "size"],
                       [("plum", "big")])
    got = inner_union(stock, sizes)
    want_header, want_rows = oracles.dict_inner_union(
        ["item", "hue"], oracles.rows_as_dicts(stock),
        ["item", "size"], oracles.rows_as_dicts(sizes))
    assert sorted(s.header_names(got.header)) == want_header
    assert len(got.rows) == len(want_rows) == 2


def test_disjoint_headers_cross_product(schema22):
    ta = make_table(schema22, ["a"], [("0",), ("1",)])
    tb = make_table(schema22, ["b"], [("0",)])
    got = natural_join(ta, tb)
    assert got.header == 0b11
    assert len(got.rows) == 2


def test_disjoint_headers_union_hits_empty_header(schema22):
    ta = make_table(schema22, ["a"], [("0",)])
    tb = make_table(schema22, ["b"], [("0",)])
    got = inner_union(ta, tb)
    assert got.header == 0
    assert got.rows == frozenset({0})  # the single empty row
    assert table_label(got) == "(·|{()})"


def test_schema_mismatch(schema22):
    other = Schema(("a", "b"), ("0", "1", "2"))
    t1 = make_table(schema22, ["a"], [("0",)])
    t2 = make_table(other, ["a"], [("0",)])
    with pytest.raises(SchemaMismatch):
        natural_join(t1, t2)


def all_tables(schema):
    out = []
    for header in range(schema.full_header + 1):
        nr = schema.n_rows(header)
        for rowset in range(1 << nr):
            rows = frozenset(c for c in range(nr) if rowset >> c & 1)
            out.append(make_table(schema, schema.header_names(header),
                                  [tuple(schema.dom[v] for v in
                                         schema.decode_row(header, c))
                                   for c in rows]))
    return out


def test_order_agrees_with_operations():
    # t1 <= t2 iff meet is t1 iff join is t2, over every pair in R(1,2)
    s = Schema(("a",), ("0", "1"))
    tables = all_tables(s)
    for t1 in tables:
        for t2 in tables:
            le = table_leq(t1, t2)
            assert le == (natural_join(t1, t2) == t1)
            assert le == (inner_union(t1, t2) == t2)


def test_restrict_and_cylindrify_are_adjoint(schema22):
    t = make_table(schema22, ["a", "b"], [("0", "1"), ("1", "1")])
    down = restrict(t, 0b01)
    back = cylindrify(down, 0b11)
    assert table_leq(t, back)
    assert restrict(back, 0b01) == down


# -- build_R ------------------------------------------------------------------------


@pytest.mark.parametrize("attrs,dom,size", [(1, 1, 4), (2, 2, 26),
                                            (3, 2, 318), (2, 3, 530)])
def test_r_sizes(attrs, dom, size):
    s = Schema(tuple("abc"[:attrs]), tuple(str(i) for i in range(dom)))
    assert r_size(s) == size == oracles.r_size(attrs, dom)


def test_r11_is_the_four_element_cube(r11):
    assert r11.lattice.n == 4
    assert find_isomorphism(r11.lattice, boolean_cube(2)) is not None


def test_r22_order_matches_definition(r22):
    L = r22.lattice
    assert L.n == 26
    for i, t1 in enumerate(r22.elems):
        for j, t2 in enumerate(r22.elems):
            assert bool(L.leq[i, j]) == table_leq(t1, t2)


@pytest.mark.parametrize("attrs,dom,pairs", [
    (("a",), ("0", "1", "2"), None),
    (("a",), ("0", "1", "2", "3"), None),
    (("a", "b"), ("0", "1", "2"), 20000),
    (("a", "b", "c"), ("0", "1"), 20000),
])
@pytest.mark.parametrize("block", [lattice._BLOCK, 7])
def test_r_order_matches_definition(attrs, dom, pairs, block, monkeypatch):
    """Every pair, or `pairs` seeded ones, against table_leq; a block of 7
    entries splits every header pair's block into single rows."""
    monkeypatch.setattr(lattice, "_BLOCK", block)
    R = build_R(Schema(attrs, dom))
    n = R.lattice.n
    rng = random.Random(n)
    todo = (itertools.product(range(n), repeat=2) if pairs is None else
            ((rng.randrange(n), rng.randrange(n)) for _ in range(pairs)))
    for i, j in todo:
        assert bool(R.lattice.leq[i, j]) == table_leq(R.elems[i], R.elems[j])


def test_r22_tables_realize_meet_and_join(r22):
    L = r22.lattice
    for i, t1 in enumerate(r22.elems):
        for j, t2 in enumerate(r22.elems):
            assert r22.index_of(natural_join(t1, t2)) == int(L.meet[i, j])
            assert r22.index_of(inner_union(t1, t2)) == int(L.join[i, j])


def test_r32_builds_to_frozen_size():
    s = Schema(("a", "b", "c"), ("0", "1"))
    assert build_R(s).lattice.n == 318


# -- ultrametric spaces ---------------------------------------------------------------


def test_hamming_dist_is_delta(hamming22, schema22):
    for f in range(4):
        for g in range(4):
            assert hamming22.dist[f][g] == schema22.delta(f, g)


def test_axiom_order_identity_first():
    with pytest.raises(NotAnUltraSpace) as exc:
        make_space(["a"], ["p", "q"], [[1, 1], [1, 1]])  # d(p,p) != 0 AND asym
    assert exc.value.axiom == "identity"


def test_axiom_symmetry():
    with pytest.raises(NotAnUltraSpace) as exc:
        make_space(["a", "b"], ["p", "q"], [[0, 1], [2, 0]])
    assert exc.value.axiom == "symmetry"


def test_axiom_separation():
    with pytest.raises(NotAnUltraSpace) as exc:
        make_space(["a"], ["p", "q"], [[0, 0], [0, 0]])
    assert exc.value.axiom == "separation"


def test_axiom_triangle():
    # d(p,r) = {a,b} but the leg through q only covers {a}
    with pytest.raises(NotAnUltraSpace) as exc:
        make_space(["a", "b"], ["p", "q", "r"],
                   [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.axiom == "triangle"


def _random_ultrametric(rng, p, k):
    # every ultrametric is the disagreement set of a labelling of the points:
    # attribute a separates two points exactly when their a-labels differ
    labels = {}
    while len(labels) < p:
        labels[tuple(rng.randrange(3) for _ in range(k))] = None
    return [[sum(1 << a for a in range(k) if u[a] != v[a]) for v in labels]
            for u in labels]


def _space_verdict(d):
    try:
        make_space([f"a{i}" for i in range(70)], [str(i) for i in range(len(d))], d)
    except NotAnUltraSpace as e:
        return e.axiom, e.witness
    return None


def test_make_space_matches_loop_oracle():
    # 1-70 attributes, so that distances also outgrow 8, 16 and 64 bits;
    # a broken space has one to three cells overwritten, mostly symmetrically
    rng = random.Random(12)
    verdicts = []
    for trial in range(400):
        k = rng.choice([1, 2, 3, 8, 9, 16, 17, 64, 65, 70])
        d = _random_ultrametric(rng, rng.randint(1, min(9, 3 ** k)), k)
        p = len(d)
        for _ in range(trial % 4):
            f, g = rng.randrange(p), rng.randrange(p)
            d[f][g] = rng.randrange(1 << k) if rng.random() < 0.7 else 0
            if rng.random() < 0.8:
                d[g][f] = d[f][g]
        want = oracles.space_violation(d)
        assert _space_verdict(d) == want, d
        verdicts.append(want and want[0])
    assert verdicts.count(None) > 100
    assert verdicts.count("triangle") > 40
    assert {"identity", "symmetry", "separation"} < set(verdicts)


def test_make_space_on_400_points():
    rng = random.Random(3)
    d = _random_ultrametric(rng, 400, 6)
    assert _space_verdict(d) is None
    for f, g in ((3, 398), (0, 1), (7, 7)):
        d[f][g] = d[g][f] = d[f][g] ^ 0b100101
        want = oracles.space_violation(d)
        assert want[0] in ("triangle", "identity")
        assert _space_verdict(d) == want


def test_subspace(hamming22):
    sub = subspace(hamming22, [0, 3])
    assert sub.points == ("00", "11")
    assert sub.dist[0][1] == 0b11


def test_space_json_round_trip(hamming22):
    back = space_from_json(space_to_json(hamming22))
    assert back == hamming22


def test_table_json_round_trip(schema22):
    t = make_table(schema22, ["a"], [("1",)])
    assert table_from_json(schema22, table_to_json(t)) == t


# -- the action -----------------------------------------------------------------------


def test_act_matches_set_comprehension(hamming22):
    for x in range(4):
        for t in range(16):
            got = act(hamming22, x, t)
            want = oracles.act_points(hamming22, x,
                                      [i for i in range(4) if t >> i & 1])
            assert got == sum(1 << i for i in want)


def test_act_distributes_over_union(hamming22):
    for x in range(4):
        for t1 in range(16):
            for t2 in range(16):
                assert act(hamming22, x, t1 | t2) == \
                    act(hamming22, x, t1) | act(hamming22, x, t2)


def test_act_is_monotone_and_increasing(hamming22):
    for x in range(4):
        for t in range(16):
            out = act(hamming22, x, t)
            assert out & t == t
            assert act(hamming22, 0, t) == t


# -- pairwise completeness and the composition identity --------------------------------


def test_full_function_space_is_pairwise_complete(hamming22):
    assert is_pairwise_complete(hamming22) is None
    assert bc_identity_check(hamming22) is None


def test_two_point_subspace_fails_both(hamming22):
    sub = subspace(hamming22, [0, 3])
    pc = is_pairwise_complete(sub)
    assert pc is not None
    assert (pc.f, pc.g, pc.x1, pc.x2) == (0, 1, 0b01, 0b10)
    bc = bc_identity_check(sub)
    assert bc is not None
    assert (bc.x1, bc.x2, bc.t) == (0b01, 0b10, 0b01)
    # the documented witness with the other endpoint is genuine too
    lhs = act(sub, 0b11, 0b10)
    rhs = act(sub, 0b01, act(sub, 0b10, 0b10))
    assert lhs != rhs


def test_completeness_checks_cap_split_pairs(hamming22):
    # both walk 4^attrs pairs (X1, X2); below the cap they still answer
    one_point = make_space([f"a{i}" for i in range(19)], ["p"], [[0]])
    for check in (is_pairwise_complete, bc_identity_check):
        with pytest.raises(EnumerationCapExceeded) as err:
            check(one_point)
        assert (err.value.need, err.value.cap) == (4**19, 1 << 20)
    with pytest.raises(EnumerationCapExceeded) as err:
        is_pairwise_complete(hamming22, Caps(max_enum=15))
    assert err.value.need == 16
    assert is_pairwise_complete(hamming22, Caps(max_enum=16)) is None
    # the bc table has 2^(2+4) entries, so that is its least workable cap
    assert bc_identity_check(hamming22, Caps(max_enum=64)) is None


def test_pc_witness_matches_midpoint_walk(schema22):
    # every subspace of H(2,3) with at most 4 points (the empty one too),
    # against the p^2 x 4^attrs x p walk from the definition
    full = hamming_space(Schema(schema22.attrs, ("0", "1", "2")))
    failing = 0
    for k in range(5):
        for idx in itertools.combinations(range(9), k):
            sub = subspace(full, idx)
            w = is_pairwise_complete(sub)
            want = oracles.pairwise_complete_witness(sub)
            assert (None if w is None else (w.f, w.g, w.x1, w.x2)) == want, idx
            failing += want is not None
    assert 0 < failing < 256


def test_pc_witness_matches_midpoint_walk_across_blocks():
    # 41 to 60 of the 64 points of H(6,2): the 64 values of X2 go in several
    # blocks, and each least witness has X2 >= 32, past the first block
    full = hamming_space(Schema(tuple("abcdef"), ("0", "1")))
    for seed in (0, 5, 6, 12, 13):
        rng = random.Random(seed)
        idx = sorted(rng.sample(range(64), rng.randint(33, 63)))
        sub = subspace(full, idx)
        w = is_pairwise_complete(sub)
        assert w.x2 >= 32
        assert (w.f, w.g, w.x1, w.x2) == oracles.pairwise_complete_witness(sub)


def test_pc_caps_point_pairs():
    # points at mutual distance {a}: 4 split pairs pass, p^2 point pairs are
    # capped next; 1,024 points would be exactly at the default cap
    def one_step(p):
        return make_space(["a"], [f"p{i}" for i in range(p)],
                          [[int(f != g) for g in range(p)] for f in range(p)])

    with pytest.raises(EnumerationCapExceeded) as err:
        is_pairwise_complete(one_step(1025))
    assert (err.value.need, err.value.cap) == (1_050_625, 1 << 20)
    with pytest.raises(EnumerationCapExceeded) as err:
        is_pairwise_complete(one_step(4), Caps(max_enum=15))
    assert err.value.need == 16
    assert is_pairwise_complete(one_step(4), Caps(max_enum=16)) is None


def test_action_table_is_capped_by_its_full_size():
    # 2^6 attribute sets and 2^16 point sets pass one by one; the 2^22-entry
    # table is refused before anything of that size is allocated
    sub = subspace(hamming_space(Schema(tuple("abcdef"), ("0", "1"))), range(16))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded) as err:
            bc_identity_check(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.need, err.value.cap) == (1 << 22, 1 << 20)
    assert peak < 1 << 20


@pytest.mark.parametrize("doc, message", [
    ({"attrs": ["a", "a"], "points": ["p", "q"],
      "dist": [[[], ["a"]], [["a"], []]]}, "duplicate attribute names"),
    ({"attrs": ["a"], "points": ["p", "p"],
      "dist": [[[], ["a"]], [["a"], []]]}, "duplicate point names"),
])
def test_space_document_rejects_duplicate_names(doc, message):
    with pytest.raises(BadDocument, match=message):
        space_from_json(doc)


def test_pc_agrees_with_bc_on_small_spaces(hamming22):
    # the two verdicts coincide on every subspace of H(2,2)
    for k in range(1, 5):
        for idx in itertools.combinations(range(4), k):
            sub = subspace(hamming22, idx)
            assert (is_pairwise_complete(sub) is None) == \
                (bc_identity_check(sub) is None)


def test_bc_witness_matches_definition(schema22):
    # the first (X1, X2, T) with act(X1|X2, T) != act(X1, act(X2, T)),
    # straight from the definition, on the 126 four-point subspaces of H(2,3)
    full = hamming_space(Schema(schema22.attrs, ("0", "1", "2")))
    failing = 0
    for idx in itertools.combinations(range(9), 4):
        sub = subspace(full, idx)
        want = None
        for x1, x2, t in itertools.product(range(4), range(4), range(16)):
            points = {i for i in range(4) if t >> i & 1}
            inner = oracles.act_points(sub, x2, points)
            if oracles.act_points(sub, x1 | x2, points) != \
                    oracles.act_points(sub, x1, inner):
                want = (x1, x2, t)
                break
        w = bc_identity_check(sub)
        assert (None if w is None else (w.x1, w.x2, w.t)) == want, idx
        failing += want is not None
    assert 0 < failing < 126


@pytest.mark.parametrize("attrs, dom", [(3, 3), (4, 2)])
def test_bc_witness_matches_row_by_row_walk(attrs, dom):
    # 40 seeded subspaces each of H(3,3) and H(4,2), from 1 to 9 points,
    # against the one-X2-row-at-a-time loop over the same action table
    full = hamming_space(Schema(tuple("abcd")[:attrs], tuple("012")[:dom]))
    rng = random.Random(attrs * 10 + dom)
    failing = 0
    for _ in range(40):
        idx = sorted(rng.sample(range(len(full.points)), rng.randint(1, 9)))
        sub = subspace(full, idx)
        w = bc_identity_check(sub)
        want = oracles.bc_identity_witness(
            relational._act_table(sub, DEFAULT_CAPS))
        assert (None if w is None else (w.x1, w.x2, w.t)) == want, idx
        failing += want is not None
    assert 0 < failing < 40


def _act_spaces():
    """H(2,2), eight seeded subspaces each of H(3,2) and H(4,2), and the
    sections space of typed 3,2."""
    yield hamming_space(Schema(("a", "b"), ("0", "1")))
    rng = random.Random(35)
    for attrs in ("abc", "abcd"):
        full = hamming_space(Schema(tuple(attrs), ("0", "1")))
        for _ in range(8):
            yield subspace(full, sorted(rng.sample(range(len(full.points)),
                                                   rng.randint(1, 8))))
    yield sections_space(typed_map_from_fibers([3, 2]))


def test_act_table_is_the_action_entry_by_entry():
    # every (X, T) against the action read straight from the definition
    for space in _act_spaces():
        a, p = len(space.attrs), len(space.points)
        table = relational._act_table(space, DEFAULT_CAPS)
        assert table.shape == (1 << a, 1 << p) and table.dtype == np.int32
        for x, t in itertools.product(range(1 << a), range(1 << p)):
            got = oracles.act_points(space, x, {g for g in range(p) if t >> g & 1})
            assert table[x, t] == sum(1 << f for f in got), (space.points, x, t)
            assert table[x, t] == act(space, x, t)


def test_check_caps_refuses_in_each_checks_order():
    caps = Caps(max_enum=1 << 10)
    for check, attrs, points, need in (
            ("bc", 3, 11, 1 << 11),      # the point sets first
            ("bc", 11, 0, 1 << 11),      # then the attribute sets
            ("bc", 6, 5, 1 << 11),       # then the whole table
            ("bc", 6, 4, 4 ** 6),        # then the split pairs
            ("pc", 6, 40, 4 ** 6),       # pc: the split pairs first
            ("pc", 5, 33, 33 * 33)):     # then the point pairs
        with pytest.raises(EnumerationCapExceeded) as err:
            relational._check_caps(check, attrs, points, caps)
        assert (err.value.need, err.value.cap) == (need, 1 << 10), check
    relational._check_caps("bc", 5, 5, caps)
    relational._check_caps("pc", 5, 32, caps)
    # the checks refuse what it refuses, with the same need
    one_step = make_space(["a", "b", "c", "d", "e", "f"], ["p", "q"],
                          [[0, 32], [32, 0]])
    for check, run in (("bc", bc_identity_check), ("pc", is_pairwise_complete)):
        with pytest.raises(EnumerationCapExceeded) as err:
            run(one_step, Caps(max_enum=255))
        assert err.value.need == (1 << 8 if check == "bc" else 4 ** 6)
        with pytest.raises(EnumerationCapExceeded) as want:
            relational._check_caps(check, 6, 2, Caps(max_enum=255))
        assert want.value.need == err.value.need


def test_bc_witness_past_the_first_round_of_x1():
    # points of H(9,2) that agree on the first six attributes, so every X1
    # inside those six acts as the empty set and each least witness has
    # X1 >= 64: past the first round of X1 values (32 for four points, 42
    # for three, 64 for two), against the row-by-row walk
    schema = Schema(tuple("abcdefghi"), ("0", "1"))
    for tails in (("000", "011"), ("000", "011", "101"),
                  ("001", "010", "100", "111")):
        space = hamming_space(schema, points=["000000" + t for t in tails])
        w = bc_identity_check(space)
        assert w.x1 >= 64
        assert (w.x1, w.x2, w.t) == oracles.bc_identity_witness(
            relational._act_table(space, DEFAULT_CAPS))


def test_hamming_points_match_the_subspace_of_the_full_space():
    schema = Schema(tuple("abc"), ("0", "1", "2"))
    full = hamming_space(schema)
    for labels in (["212", "000"], ["012"], ["111", "000", "222", "021"]):
        sub = hamming_space(schema, points=labels)
        assert sub == subspace(full, sorted(full.points.index(p) for p in labels))
    with pytest.raises(RellatError, match=r"unknown points: \['33'\]"):
        hamming_space(schema, points=["000", "33"])


def test_hamming_points_are_read_from_their_labels():
    # rows with a two-character value render in parentheses; a label must
    # render back to itself, and one that is no row's label is named in the
    # error beside every row's label, as before
    schema = Schema(tuple("ab"), tuple(str(i) for i in range(11)))
    full = hamming_space(schema)
    labels = ["(10,1)", "(0,10)", "99", "00"]
    sub = hamming_space(schema, points=labels)
    assert sub == subspace(full, sorted(full.points.index(p) for p in labels))
    for bad in ("(0,1)", "(10,1", "0", "(1,2,3)", "1 0"):
        with pytest.raises(RellatError) as err:
            hamming_space(schema, points=["00", bad])
        assert str(err.value) == \
            f"unknown points: {[bad]}; have {list(full.points)}"
    # a value name holding a comma does not parse back, so its row is
    # looked up among all rows' labels
    schema = Schema(tuple("ab"), ("x,", "y"))
    full = hamming_space(schema)
    assert hamming_space(schema, points=["(y,x,)", "yy"]) == \
        subspace(full, [full.points.index("(y,x,)"), full.points.index("yy")])


def test_hamming_points_of_a_wide_space_skip_the_other_rows():
    # two of the 2^20 rows of H(20, 2): only their labels are parsed
    schema = Schema(tuple("abcdefghijklmnopqrst"), ("0", "1"))
    start = time.perf_counter()
    space = hamming_space(schema, points=["1" * 20, "0" * 20])
    assert time.perf_counter() - start < 5
    assert space.points == ("0" * 20, "1" * 20)
    assert space.dist == ((0, (1 << 20) - 1), ((1 << 20) - 1, 0))


def test_join_formula_shortcut_on_pairwise_complete_space(hamming22):
    # on a pairwise complete space, the join of fixed pairs is
    # (x1 | x2, act(x2, t1) | act(x1, t2))
    sd = semidirect(hamming22)
    for i, (x1, t1) in enumerate(sd.elems):
        for j, (x2, t2) in enumerate(sd.elems):
            k = int(sd.lattice.join[i, j])
            want = (x1 | x2,
                    act(hamming22, x2, t1) | act(hamming22, x1, t2))
            assert sd.elems[k] == want


@pytest.mark.parametrize("fibers", [None, [2, 2]])
def test_semidirect_fixed_pairs_match_brute_force(hamming22, fibers):
    # hamming22, or the sections space of typed 2,2: every (X, T) with
    # act(X, T) == T, straight from the definition, in X-then-T order
    space = hamming22 if fibers is None else \
        sections_space(typed_map_from_fibers(fibers))
    p = len(space.points)
    want = []
    for x in range(1 << len(space.attrs)):
        for t in range(1 << p):
            points = {i for i in range(p) if t >> i & 1}
            if oracles.act_points(space, x, points) == points:
                want.append((x, t))
    assert list(semidirect(space).elems) == want


# -- typed maps and sections -----------------------------------------------------------


def test_typed_map_needs_every_fiber():
    s = Schema(("a", "b"), ("a0", "b0"))
    with pytest.raises(NotSurjective):
        TypedMap(s, (0, 0))  # nothing maps to attribute b


def test_sections_space_of_square_fibers_is_hamming(hamming22):
    space = sections_space(typed_map_from_fibers([2, 2]))
    assert space.attrs == hamming22.attrs
    assert space.dist == hamming22.dist


def test_sections_space_respects_fiber_sizes():
    space = sections_space(typed_map_from_fibers([3, 2]))
    assert len(space.points) == 6


# -- three constructions agree ----------------------------------------------------------


def test_semidirect_matches_direct_build(r22, hamming22):
    sd = semidirect(hamming22)
    assert sd.lattice.n == 26
    phi = rel_to_semidirect_map(r22, sd)
    assert sorted(phi) == list(range(26))
    for i in range(26):
        for j in range(26):
            assert bool(r22.lattice.leq[i, j]) == \
                bool(sd.lattice.leq[phi[i], phi[j]])


@pytest.mark.parametrize("fibers", [[3, 2], [2, 2, 2]])
def test_semidirect_order_is_componentwise_containment(fibers):
    sd = typed_R(typed_map_from_fibers(fibers))
    for i, (x1, t1) in enumerate(sd.elems):
        for j, (x2, t2) in enumerate(sd.elems):
            assert bool(sd.lattice.leq[i, j]) == \
                (x1 & ~x2 == 0 and t1 & ~t2 == 0)


def test_typed_square_fibers_match_direct_build(r22):
    sd = typed_R(typed_map_from_fibers([2, 2]))
    assert find_isomorphism(r22.lattice, sd.lattice) is not None


def test_typed_refuses_its_point_sets_before_the_sections(monkeypatch):
    # more sections than max_enum are refused while they are counted; fewer
    # sections with 2^sections point sets past max_enum are refused before
    # any section or distance is computed
    with pytest.raises(EnumerationCapExceeded) as err:
        typed_R(typed_map_from_fibers([3, 2]), Caps(max_enum=5))
    assert (err.value.need, err.value.cap) == (6, 5)

    def fail(*args, **kwargs):
        raise AssertionError("the sections space was built")

    monkeypatch.setattr(relational, "sections_space", fail)
    for fibers, caps, need in (([4] * 5, DEFAULT_CAPS, 1 << 1024),
                               ([3, 2], Caps(max_enum=63), 64)):
        with pytest.raises(EnumerationCapExceeded) as err:
            typed_R(typed_map_from_fibers(fibers), caps)
        assert (err.value.need, err.value.cap) == (need, caps.max_enum)


def test_closure_system_matches_direct_build(r22, schema22):
    fam = closure_system_R(schema22)
    L = build_from_closed_family(fam)
    assert L.n == 26
    assert find_isomorphism(r22.lattice, L) is not None


def test_closure_system_cap():
    s = Schema(("a", "b"), ("0", "1"))
    with pytest.raises(EnumerationCapExceeded):
        closure_system_R(s, caps=Caps(max_enum=16))
