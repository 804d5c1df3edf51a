"""Shared fixtures. Expensive lattices are session-scoped."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from rellat import (
    FiniteLattice,
    Schema,
    all_lattices_upto,
    build_countermodel,
    build_from_leq,
    build_R,
    extract_od_graph,
    hamming_space,
    make_od_graph,
    reconstruct,
)


def leq_from_covers(n, covers):
    """Reflexive-transitive closure of a strict-cover edge list."""
    leq = np.eye(n, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for _ in range(n):
        leq = leq | (leq @ leq)
    return leq


def diamond_m3():
    # bottom 0, atoms 1 2 3, top 4
    leq = leq_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    return build_from_leq(5, leq, labels=["0", "a", "b", "c", "1"])


def diamond(k):
    """M_k: bottom 0, atoms 1..k, top k + 1."""
    leq = np.eye(k + 2, dtype=bool)
    leq[0, :] = leq[:, k + 1] = True
    return build_from_leq(k + 2, leq)


def wide_diamond(k):
    """The od-graph of M_k, made directly: k atoms, each minimally covered
    by every pair of the others."""
    mjc = [(a, (a,)) for a in range(k)]
    mjc += [(a, pair) for a in range(k)
            for pair in itertools.combinations(
                [b for b in range(k) if b != a], 2)]
    return make_od_graph([f"a{a}" for a in range(k)], [], [False] * k, mjc)


def pentagon_n5():
    # bottom 0, chain 1 < 3, lone atom 2, top 4
    leq = leq_from_covers(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])
    return build_from_leq(5, leq, labels=["0", "a", "b", "c", "1"])


def boolean_cube(k):
    n = 1 << k
    leq = np.array([[i & j == i for j in range(n)] for i in range(n)])
    return build_from_leq(n, leq, labels=[format(i, f"0{k}b") for i in range(n)])


def chain(k):
    leq = np.array([[i <= j for j in range(k)] for i in range(k)])
    return build_from_leq(k, leq, labels=[str(i) for i in range(k)])


def with_int32_tables(L):
    """L with its meet and join tables as int32, the type they had before
    int16 tables, and a cache of its own."""
    return FiniteLattice(L.n, L.leq, L.meet.astype(np.int32),
                         L.join.astype(np.int32), L.bottom, L.top, L.labels,
                         L.lo, L.hi)


@pytest.fixture
def m3():
    return diamond_m3()


@pytest.fixture
def n5():
    return pentagon_n5()


@pytest.fixture
def b2():
    return boolean_cube(2)


@pytest.fixture
def b3():
    return boolean_cube(3)


@pytest.fixture(scope="session")
def small_lattices():
    """The 78 lattices with at most seven elements, up to isomorphism."""
    return all_lattices_upto(7)


@pytest.fixture(scope="session")
def schema22():
    return Schema(("a", "b"), ("0", "1"))


@pytest.fixture(scope="session")
def r11():
    return build_R(Schema(("a",), ("0",)))


@pytest.fixture(scope="session")
def r22(schema22):
    return build_R(schema22)


@pytest.fixture(scope="session")
def g22(r22):
    return extract_od_graph(r22.lattice)


@pytest.fixture(scope="session")
def hamming22(schema22):
    return hamming_space(schema22)


@pytest.fixture(scope="session")
def cm_graph():
    return build_countermodel()


@pytest.fixture(scope="session")
def cm_lattice(cm_graph):
    return reconstruct(cm_graph)
