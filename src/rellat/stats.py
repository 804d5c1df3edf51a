"""Opt-in work counters.

Code that does countable work calls `add(name, amount)`. Nothing is kept
unless a caller has opened a collector with `collect()`; then every `add` in
that context, and only there, sums into the collector's dict. The collector
lives in a context variable, so concurrent callers each see their own.

Counters written by the exhaustive scan (`equations.check_inclusion`):

    valuations_scanned  entries of the scanned space that were evaluated:
                        whole chunks, up to the one holding the first
                        violation. It is below the raw space |L|^k when block
                        classes, a symmetric pair or the orbit minima of the
                        first variable shrink the space; the report's
                        `evaluations` stays defined on the raw space.
    blocks              blocks scanned over their classes (a pair counts two)
    block_classes       the classes of those blocks, summed

Counters written by the searches, each added once per call by their shared
backtracking core (`lattice._least_assignment`), also when the call raises
SearchBudgetExceeded, which then counts the node past the cap:

    search_nodes        images given to generators in `lattice._search`
                        (isomorphism and embedding search, and the
                        automorphism searches of `lattice.orbit_minima`
                        that `check eq` runs for a large scan), counted
                        after its filters
    pmorphism_nodes     images given to worlds in `frames.p_morphism_search`,
                        counted after its cuts

and, once per `lattice._search` call in the same way:

    search_rows         pair-count and join-dominance rows its memo built
                        (`lattice._RowMemo`), counting again a row built
                        anew because the memo was full

Counters written by the duality and `check bc`'s action table:

    subset_entries      2^m for each extraction's table of joins over
                        the m irreducibles of L, 2^p for `check bc`'s
                        action table over p points, and the 2^n entries
                        of an od-graph's closure table, counted once per
                        graph, when `closed_sets`, `closed_mask` or a
                        cover property first reads it

Counters written by lattice construction, one per build:

    closure_builds      lattices of closed sets built from their closure
                        operator by `lattice._closure_lattice` (relational,
                        typed, semidirect and frame lattices, closed
                        families, reconstructions, random lattices)
    order_builds        calls of `lattice.build_from_leq`, which validates
                        an order matrix (reloads, `lattgen` enumeration,
                        and closed families too wide for 2^u flags), those
                        that raise too; one per call whether it is built
                        through its join-irreducibles' masks, which adds
                        no closure_builds, or by candidate meets

Counters written by the command line when it reads a lattice file, one per
file:

    lattice_docs_direct  files whose order matrix was read straight from the
                         emitted row layout
    lattice_docs_parsed  files read through the json module
"""
from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

_COUNTERS: contextvars.ContextVar[dict[str, int] | None] = \
    contextvars.ContextVar("rellat_stats", default=None)


@contextlib.contextmanager
def collect() -> Iterator[dict[str, int]]:
    """Sum every counter added inside the block into the yielded dict."""
    counters: dict[str, int] = {}
    token = _COUNTERS.set(counters)
    try:
        yield counters
    finally:
        _COUNTERS.reset(token)


def collecting() -> bool:
    """Whether a collector is open, for callers whose count costs work."""
    return _COUNTERS.get() is not None


def add(name: str, amount: int) -> None:
    counters = _COUNTERS.get()
    if counters is not None:
        counters[name] = counters.get(name, 0) + int(amount)
