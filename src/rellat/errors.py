"""Exceptions, resource caps and document shape checks shared across the
package."""
from __future__ import annotations

from dataclasses import dataclass


class RellatError(Exception):
    """Base class for all package errors."""


class NotAPartialOrder(RellatError):
    """The input relation is not a partial order; carries a witness."""

    def __init__(self, reason: str, witness: tuple):
        self.reason = reason
        self.witness = witness
        super().__init__(f"not a partial order ({reason}): witness {witness}")


class NotALattice(RellatError):
    """A pair of elements lacks a greatest lower / least upper bound."""

    def __init__(self, kind: str, pair: tuple):
        self.kind = kind  # "meet" or "join"
        self.pair = pair
        super().__init__(f"not a lattice: pair {pair} has no {kind}")


class NotIntersectionClosed(RellatError):
    """A set family misses a pairwise intersection; carries the pair."""

    def __init__(self, pair: tuple):
        self.pair = pair
        super().__init__(f"family not intersection-closed: members {pair}")


class SizeCapExceeded(RellatError):
    """A construction would exceed the configured element cap."""

    def __init__(self, need: int, cap: int):
        self.need = need
        self.cap = cap
        super().__init__(f"size {need} exceeds cap {cap}")


class EnumerationCapExceeded(RellatError):
    """A subset enumeration would exceed the configured cap."""

    def __init__(self, need: int, cap: int):
        self.need = need
        self.cap = cap
        super().__init__(f"enumeration of {need} subsets exceeds cap {cap}")


class CoverEnumerationCapExceeded(EnumerationCapExceeded):
    """Too many join-irreducibles for minimal-cover enumeration."""


class PartitionEnumerationCapExceeded(EnumerationCapExceeded):
    """A cover is too large to enumerate its binary splits."""


class BudgetExceeded(RellatError):
    """A check needs more evaluations than the configured budget allows."""

    def __init__(self, need: int, budget: int):
        self.need = need
        self.budget = budget
        super().__init__(self._message())

    def _message(self) -> str:
        return f"{self.need} exceeds the eval_budget cap {self.budget}"


class SearchBudgetExceeded(BudgetExceeded):
    """A backtracking search ran out of nodes; result is inconclusive."""

    def _message(self) -> str:
        return f"search node {self.need} exceeds the search_nodes cap {self.budget}"


class SchemaMismatch(RellatError):
    """Two table elements live over different schemas."""


class NotSurjective(RellatError):
    """A typed map misses some attribute; carries the attribute index."""

    def __init__(self, attr: int):
        self.attr = attr
        super().__init__(f"typed map misses attribute {attr}")


class NotAnUltraSpace(RellatError):
    """A distance matrix violates one of the four space axioms."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"space axiom {axiom} fails at {witness}")


class ParseError(RellatError):
    """Term syntax error; offset is a character position into the input."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnboundVariable(RellatError):
    """A valuation misses a variable of the term being evaluated."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value for variable {name!r}")


class NotDistributivelyEqual(RellatError):
    """Two terms differ already on distributive lattices."""


class UnknownEquation(RellatError):
    """Equation name not present in the catalog."""


class UnknownProperty(RellatError):
    """Property id not recognized by check_property."""


class BadODGraph(RellatError):
    """An OD-graph violates a structural invariant."""


class BadFrame(RellatError):
    """A frame's relations are not equivalences / block arrays."""


class BadDocument(RellatError):
    """A JSON document does not have the shape its reader expects."""


def document_field(doc, key: str, kind: str):
    """doc[key], raising BadDocument unless doc is an object holding key."""
    if not isinstance(doc, dict) or key not in doc:
        raise BadDocument(f"a {kind} document is an object with a {key!r} field")
    return doc[key]


def document_list(value, item: type, what: str) -> list:
    """value, raising BadDocument unless it is a list of items of exactly
    that type (so neither true nor false passes as an integer)."""
    if not isinstance(value, list) or any(type(x) is not item for x in value):
        raise BadDocument(f"{what} must be a list of {item.__name__} values")
    return value


@dataclass(frozen=True)
class Caps:
    """Resource limits; every expensive routine takes one of these.

    max_lattice   hard cap on lattice element count,
    max_enum      cap on subsets walked per enumeration; it also bounds the
                  p^2 point pairs of is_pairwise_complete (check pc),
    eval_budget   cap on the valuations a check covers: |L|^k raw valuations
                  for an exhaustive scan, factored or not (not the term
                  evaluations it performs), the sample count for a sampled one,
    search_nodes  node cap for backtracking searches,
    max_ji        cap on |J(L)| for cover extraction and on the graph size
                  for reconstruction; both build tables over all 2^|J|
                  subsets, so it bounds their time and memory.

    A search node is one value given to one position: an image given to a
    generator (bottom or a join-irreducible) by find_isomorphism and
    find_embedding, once it passes their down/up-count, order and
    join-dominance filters; an image given to a world
    by p_morphism_search, once it passes the forward, back and surjectivity
    cuts; a seed tried by `rellat search sublattice`.
    """

    max_lattice: int = 4096
    max_enum: int = 1 << 20
    eval_budget: int = 10**9
    search_nodes: int = 10**6
    max_ji: int = 16


DEFAULT_CAPS = Caps()
