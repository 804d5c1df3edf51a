"""Lattice terms: variables, n-ary meets/joins, parser, printer, DNF.

Grammar: identifiers are variables; `^` (or a unicode wedge) is meet, the
identifier `v` (or a unicode vee) is join; meet binds tighter; parentheses
override; `<=` separates the two sides of an inclusion. Meet/Join nodes are
flattened and deduplicated at construction, which leaves semantics untouched
(idempotence + associativity) and keeps evaluation cheap.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DEFAULT_CAPS, Caps, EnumerationCapExceeded, ParseError

Term = Union["Var", "Meet", "Join"]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Meet:
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Join:
    args: tuple[Term, ...]


def _collect(cls, args: Iterable[Term]) -> tuple[Term, ...]:
    flat: list[Term] = []
    for a in args:
        parts = a.args if isinstance(a, cls) else (a,)
        for p in parts:
            if p not in flat:
                flat.append(p)
    return tuple(flat)


def mk_meet(args: Iterable[Term]) -> Term:
    """n-ary meet, flattened and deduplicated; a singleton collapses."""
    flat = _collect(Meet, args)
    if not flat:
        raise ValueError("empty meet")
    return flat[0] if len(flat) == 1 else Meet(flat)


def mk_join(args: Iterable[Term]) -> Term:
    flat = _collect(Join, args)
    if not flat:
        raise ValueError("empty join")
    return flat[0] if len(flat) == 1 else Join(flat)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names, sorted."""
    out: set[str] = set()

    def walk(s: Term) -> None:
        if isinstance(s, Var):
            out.add(s.name)
        else:
            for a in s.args:
                walk(a)

    walk(t)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Inclusion:
    """lhs <= rhs, with the combined variable list in sorted order."""

    lhs: Term
    rhs: Term
    name: str | None = None

    # computed once per inclusion; the frozen dataclass's __eq__ and
    # __hash__ read its fields only
    @functools.cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(set(variables(self.lhs)) | set(variables(self.rhs))))


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\^|∧|∨|<=|\(|\))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos, n = 0, len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("ident") is not None:
            name = m.group("ident")
            kind = "join_op" if name == "v" else "ident"
        else:
            name = m.group("op")
            kind = {"^": "meet_op", "∧": "meet_op", "∨": "join_op",
                    "<=": "le", "(": "lpar", ")": "rpar"}[name]
        tokens.append((kind, name, pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, want: str) -> None:
        kind, val, off = self.peek()
        what = "end of input" if kind == "end" else repr(val)
        raise ParseError(f"expected {want}, found {what}", off)

    def atom(self) -> Term:
        kind, val, off = self.peek()
        if kind == "ident":
            self.take()
            return Var(val)
        if kind == "lpar":
            self.take()
            t = self.join()
            if self.peek()[0] != "rpar":
                self.fail("')'")
            self.take()
            return t
        self.fail("a variable or '('")

    def meet(self) -> Term:
        parts = [self.atom()]
        while self.peek()[0] == "meet_op":
            self.take()
            parts.append(self.atom())
        return mk_meet(parts)

    def join(self) -> Term:
        parts = [self.meet()]
        while self.peek()[0] == "join_op":
            self.take()
            parts.append(self.meet())
        return mk_join(parts)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.join()
    if p.peek()[0] != "end":
        p.fail("end of input")
    return t


def parse(text: str) -> Term | Inclusion:
    """A term, or an inclusion when `<=` is present."""
    if "<=" not in text:
        return parse_term(text)
    p = _Parser(text)
    lhs = p.join()
    if p.peek()[0] != "le":
        p.fail("'<='")
    p.take()
    rhs = p.join()
    if p.peek()[0] != "end":
        p.fail("end of input")
    return Inclusion(lhs, rhs)


# -- printing ----------------------------------------------------------------

def pretty(t: Term) -> str:
    """ASCII form; parse(pretty(t)) == t."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Meet):
        return " ^ ".join(
            f"({pretty(a)})" if isinstance(a, Join) else pretty(a) for a in t.args
        )
    return " v ".join(pretty(a) for a in t.args)


def pretty_inclusion(inc: Inclusion) -> str:
    return f"{pretty(inc.lhs)} <= {pretty(inc.rhs)}"


# -- disjunctive normal form ---------------------------------------------------

def _clauses(t: Term, caps: Caps) -> frozenset[frozenset[str]]:
    if isinstance(t, Var):
        return frozenset({frozenset({t.name})})
    if isinstance(t, Join):
        out: set[frozenset[str]] = set()
        for a in t.args:
            out |= _clauses(a, caps)
            if len(out) > caps.max_enum:
                raise EnumerationCapExceeded(len(out), caps.max_enum)
        return frozenset(out)
    # meet: pointwise union over the cross product of the operands' clauses
    acc: set[frozenset[str]] = {frozenset()}
    for a in t.args:
        cls = _clauses(a, caps)
        acc = {c | d for c in acc for d in cls}
        if len(acc) > caps.max_enum:
            raise EnumerationCapExceeded(len(acc), caps.max_enum)
    return frozenset(acc)


def dnf(t: Term, caps: Caps = DEFAULT_CAPS) -> Term:
    """Canonical join-of-meets: subsumed co-clauses dropped, everything sorted."""
    cls = _clauses(t, caps)
    kept = [c for c in cls if not any(d < c for d in cls)]
    kept_sorted = sorted(tuple(sorted(c)) for c in kept)
    parts = [mk_meet([Var(v) for v in c]) for c in kept_sorted]
    return mk_join(parts)


def distributive_equal(s: Term, t: Term, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff s = t holds in every distributive lattice."""
    return dnf(s, caps) == dnf(t, caps)


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace variables by terms; rebuilt through the smart constructors."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    args = [substitute(a, mapping) for a in t.args]
    return mk_meet(args) if isinstance(t, Meet) else mk_join(args)
