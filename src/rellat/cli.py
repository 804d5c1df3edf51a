"""Command-line front door.

Verbs: build rel|typed|closure|frame|product|countermodel,
odgraph extract|reconstruct|props, check eq|prop|bc|pc|iso|nation,
search sublattice|pmorphism|embedding.

Cover properties (`odgraph props`, `check prop`) are decided from the
od-graph alone; they take no lattice file.

Every run prints one JSON report to stdout (sorted keys, so the same
invocation line yields byte-identical output) and a one-line summary to
stderr. A verb returns its result, summary and exit code; `_run` writes the
report around them: `command` ("<verb> <what>"), `params` (every argument
that has a value), `inputs` (each input file given, with its path and
sha256), `seed`, `budget` and `evaluations` (null unless the verb sets
them) and `result`. A run stopped by a budget or cap reports only
`command` and `error`. Exit codes: 0 holds/success/found, 1
counterexample/witness/not found, 2 usage error or malformed input
document, 3 budget or cap exceeded.

`main` parses with one argparse tree per process, built at its first call.
Each verb parser names its handler (`func`, a `_cmd_*` name kept out of the
report's `params`), and the name is looked up on this module when the verb
runs.

`rellat --stats PATH <verb> ...` also writes the run's work counters (see
rellat.stats) to PATH as JSON; stdout and the files a verb writes stay
byte-identical to a run without it.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import string
import sys
from typing import Iterator

import numpy as np

from . import stats
from .equations import catalog_inclusion, check_inclusion, verify_witness
from .errors import (
    BadDocument,
    BudgetExceeded,
    Caps,
    DEFAULT_CAPS,
    EnumerationCapExceeded,
    RellatError,
    SearchBudgetExceeded,
    SizeCapExceeded,
)
from .frames import (
    frame_from_json,
    frame_to_json,
    is_s5n_frame,
    make_frame,
    p_morphism_search,
    universal_product,
)
from .lattice import (
    _ji_masks,
    _row_blocks,
    build_from_closed_family,
    find_embedding,
    find_isomorphism,
    lattice_document,
    lattice_from_json,
    sublattice_closure,
)
from .odgraph import (
    IllDefined,
    PROPERTY_IDS,
    build_countermodel,
    check_property,
    closed_sets,
    extract_od_graph,
    od_graph_from_json,
    od_graph_to_json,
    reconstruct,
    ultrametric_representability,
)
from .relational import (
    Schema,
    _check_caps,
    bc_identity_check,
    build_R,
    closure_system_R,
    hamming_space,
    is_pairwise_complete,
    space_from_json,
    typed_R,
    typed_map_from_fibers,
)
from .terms import Inclusion, parse, pretty_inclusion


# -- plumbing -------------------------------------------------------------------


def _sha256(path: str) -> str:
    """The file's sha256, read a megabyte at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:     # not UTF-8, or not JSON
            raise BadDocument(f"{path} is not a JSON document: {e}") from None


# Every report and saved document is json.dumps(doc, indent=2,
# sort_keys=True). The order matrix of a lattice document is the one value
# laid out here instead: the document is dumped with "leq": null and split
# at its one top-level line `\n  "leq": null` (a JSON string cannot hold a
# raw newline, so no label can make another), and `_order_chunks` fills
# the gap a block of rows at a time, as uint8 arrays of the text's bytes.
# `_dump` writes those same buffers to the file and its sha256, so the
# matrix's text is never built whole, decoded or encoded again.


def _json_chunks(doc) -> Iterator:
    """doc as the json module writes it with indent=2 and sort_keys, in
    pieces of bytes (ASCII, as the json module escapes every other
    character). A boolean numpy array as the top-level "leq" of a dict is
    an order matrix, written as its rows of 0/1."""
    leq = doc.get("leq") if isinstance(doc, dict) else None
    if not isinstance(leq, np.ndarray):
        yield json.dumps(doc, indent=2, sort_keys=True).encode("ascii")
        return
    text = json.dumps({**doc, "leq": None}, indent=2, sort_keys=True)
    head, tail = text.split('\n  "leq": null')
    yield (head + '\n  "leq": ').encode("ascii")
    yield from _order_chunks(leq)
    yield tail.encode("ascii")


def _row_layout(n: int) -> tuple[np.ndarray, slice]:
    """One row of an n-by-n order matrix as the json module writes it as
    the value of a top-level key: the bytes of the row's record, led by its
    "," separator (the first row's is "["), with every cell 0, and the
    positions of the cells in it. A record is 9n + 12 bytes: separator,
    newline, four spaces, "[", then n cells each on its own line six spaces
    in, newline, four spaces, "]"."""
    head = ",\n    [\n      "
    text = head + ",\n      ".join("0" * n) + "\n    ]"
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8),
            slice(len(head), len(head) + 9 * n, 9))


def _order_chunks(leq: np.ndarray) -> Iterator:
    """An n-by-n boolean matrix as n rows of 0/1, a block of rows per chunk,
    each block the row record repeated with its cells filled in, as a
    C-contiguous uint8 array of the text's bytes."""
    n = len(leq)
    if not n:
        yield b"[]"
        return
    template, cells = _row_layout(n)
    for r0, r1 in _row_blocks(n, len(template)):
        block = np.tile(template, (r1 - r0, 1))
        block[:, cells] += leq[r0:r1].view(np.uint8)
        if r0 == 0:
            block[0, 0] = ord("[")
        yield block
    yield b"\n  ]"


# A saved lattice is read back through `_lattice_document`. When its
# top-level "leq" is laid out exactly as `_order_chunks` lays it out, the
# rows are read from the file a block at a time straight into a boolean
# matrix, and only the rest goes through the json module, so the text of
# the matrix is never held whole; any other document, valid or not, goes
# through `_load` as before, so answers and error texts do not depend on
# which way a file was read.


def _load_lattice(path: str, caps: Caps):
    return lattice_from_json(_lattice_document(path), caps)


def _lattice_document(path: str) -> dict:
    """The lattice document at path, its "leq" a boolean matrix when the
    file holds the emitted layout, else as `_load` gives it."""
    with open(path, "rb") as fh:
        doc = _direct_lattice_document(fh)
    if doc is None:
        stats.add("lattice_docs_parsed", 1)
        return _load(path)
    stats.add("lattice_docs_direct", 1)
    return doc


def _find(fh, data: bytearray, pattern: bytes, start: int) -> int:
    """Where pattern first lies in data at or after start, reading further
    pieces of fh onto data until it shows up; -1 if the file ends first."""
    while (at := data.find(pattern, start)) < 0:
        if not (piece := fh.read(1 << 16)):
            return -1
        start = max(start, len(data) - len(pattern) + 1)
        data += piece
    return at


def _direct_lattice_document(fh) -> dict | None:
    """The document in the seekable binary file fh, from where it stands,
    with its top-level "leq" as an n-by-n boolean matrix, or None unless
    that value is byte for byte the `_row_layout` records of n rows (n the
    document's own "n") and the rest, with `null` in its place, parses as
    JSON with that `null` as the top-level "leq".

    The head is read in pieces up to the end of the first record, which
    gives n. The rows are then read again from their start, one block of
    rows at a time into one buffer: every fixed byte is compared with the
    layout, and every cell must be 0 or 1. The rest is decoded as `_load`
    decodes it: its universal newlines can only turn a carriage return into
    a newline, which JSON reads alike outside strings and rejects alike
    inside them.
    """
    base, data = fh.tell(), bytearray()
    key = _find(fh, data, b'"leq": [\n    [\n      ', 0)
    if key < 0:
        return None
    start = key + len(b'"leq": ')
    first = _find(fh, data, b"\n    ]", start)
    n, extra = divmod(first + 6 - start - 12, 9)    # a record: 9n + 12 bytes
    if first < 0 or extra or n < 1:
        return None
    head, width = bytes(data[:start]), 9 * n + 12
    del data
    # the file must hold n records and the closing before leq is made
    if fh.seek(0, io.SEEK_END) < base + start + n * width + 4:
        return None
    fh.seek(base + start)
    template, cells = _row_layout(n)
    blocks = _row_blocks(n, width)
    buf = np.empty((blocks[0][1], width), dtype=np.uint8)
    leq = np.empty((n, n), dtype=bool)
    for r0, r1 in blocks:
        block = buf[:r1 - r0]
        if fh.readinto(block) != block.size:
            return None
        wrong = block != template
        wrong[0, 0] &= r0 > 0          # the first row's "[" was found above
        wrong[:, cells] = (block[:, cells] | 1) != ord("1")  # neither 0 nor 1
        if wrong.any():
            return None
        np.equal(block[:, cells], ord("1"), out=leq[r0:r1])
    if fh.read(4) != b"\n  ]":
        return None
    # `null` stands in for the rows; if it is the only `null` in the text,
    # the top-level "leq" being null means the rows were that value
    tail = fh.read()
    if b"null" in head or b"null" in tail:
        return None
    try:
        doc = json.loads((head + b"null" + tail).decode("utf-8"))
    except ValueError:                      # not UTF-8, or not JSON
        return None
    if (not isinstance(doc, dict) or "leq" not in doc or doc["leq"] is not None
            or type(doc.get("n")) is not int or doc["n"] != n):
        return None
    doc["leq"] = leq
    return doc


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _dump(doc: dict, path: str) -> str:
    """Write doc and return the sha256 of its bytes, chunk by chunk."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in itertools.chain(_json_chunks(doc), [b"\n"]):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _save(doc: dict, path: str) -> dict:
    """Write doc to path; the report's record of the file written."""
    return {"path": path, "sha256": _dump(doc, path)}


def _caps(args) -> Caps:
    caps = DEFAULT_CAPS
    cap = getattr(args, "cap", None)
    if cap is not None:
        caps = dataclasses.replace(caps, max_lattice=cap)
    budget = getattr(args, "budget", None)
    if budget is not None:
        caps = dataclasses.replace(caps, eval_budget=budget,
                                   search_nodes=budget)
    return caps


def _ints(parts: list[str], flag: str) -> list[int]:
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise RellatError(f"{flag} needs integers, not {','.join(parts)!r}") from None


def _schema(n_attrs: int, n_dom: int) -> Schema:
    if n_attrs < 1 or n_dom < 1:
        raise RellatError("need at least one attribute and one domain value")
    if n_attrs > 26:
        raise RellatError("at most 26 attributes on the command line")
    attrs = tuple(string.ascii_lowercase[:n_attrs])
    dom = tuple(str(i) for i in range(n_dom))
    return Schema(attrs, dom)


def _valuation_doc(L, witness: dict[str, int] | None) -> dict | None:
    if witness is None:
        return None
    return {name: {"index": int(i), "label": L.label(int(i))}
            for name, i in witness.items()}


# Each `_cmd_*` verb takes the parsed arguments and their caps and returns
# (result, summary, exit code), then a dict of the report fields only it
# sets (seed, budget, evaluations), if any; `_run` writes the report.


# -- build ----------------------------------------------------------------------


def _cmd_build_rel(args, caps: Caps):
    rl = build_R(_schema(args.attrs, args.dom), caps)
    out = _save(lattice_document(rl.lattice), args.out)
    return ({"n": rl.lattice.n, "out": out},
            f"relational lattice: {rl.lattice.n} elements -> {args.out}", 0)


def _cmd_build_typed(args, caps: Caps):
    sizes = _ints([x for x in args.fibers.split(",") if x], "--fibers")
    if not sizes or min(sizes) < 1:
        raise RellatError("--fibers needs at least one fiber, each of size "
                          f"at least 1, not {args.fibers!r}")
    sd = typed_R(typed_map_from_fibers(sizes), caps)
    out = _save(lattice_document(sd.lattice), args.out)
    return ({"n": sd.lattice.n, "fibers": sizes, "out": out},
            f"typed relational lattice: {sd.lattice.n} elements", 0)


def _cmd_build_closure(args, caps: Caps):
    fam = closure_system_R(_schema(args.attrs, args.dom), caps)
    L = build_from_closed_family(fam, caps)
    return ({"n": L.n, "out": _save(lattice_document(L), args.out)},
            f"closure-system lattice: {L.n} closed sets", 0)


def _cmd_build_frame(args, caps: Caps):
    rels = [_ints(part.split(","), "--rels") for part in args.rels.split(";")]
    n = len(rels[0]) if rels else 0
    worlds = args.worlds.split(",") if args.worlds else [f"w{i}" for i in range(n)]
    f = make_frame(worlds, rels)
    wit = is_s5n_frame(f)
    result = {"worlds": f.n_worlds, "relations": f.n_rels,
              "s5": wit is None,
              "s5_witness": dataclasses.asdict(wit) if wit else None,
              "out": _save(frame_to_json(f), args.out)}
    verdict = "confluent" if wit is None else "not confluent"
    return result, f"frame with {f.n_worlds} worlds ({verdict})", 0


def _cmd_build_product(args, caps: Caps):
    if args.n < 0:
        raise RellatError(f"--n must be at least 0, not {args.n}")
    f = universal_product([str(i) for i in range(args.components)], args.n, caps)
    return ({"worlds": f.n_worlds, "relations": f.n_rels,
             "out": _save(frame_to_json(f), args.out)},
            f"universal product frame: {f.n_worlds} worlds", 0)


def _cmd_build_countermodel(args, caps: Caps):
    g = build_countermodel()
    if args.graph:
        return ({"elements": g.n, "covers": len(g.mjc),
                 "out": _save(od_graph_to_json(g), args.out)},
                f"countermodel cover graph: {g.n} elements -> {args.out}", 0)
    L = reconstruct(g, caps)
    return ({"n": L.n, "out": _save(lattice_document(L), args.out)},
            f"countermodel lattice: {L.n} elements -> {args.out}", 0)


# -- odgraph --------------------------------------------------------------------


def _cmd_od_extract(args, caps: Caps):
    L = _load_lattice(args.lattice, caps)
    g = extract_od_graph(L, caps)
    return ({"elements": g.n, "join_primes": sum(g.jp), "covers": len(g.mjc),
             "out": _save(od_graph_to_json(g), args.out)},
            f"extracted {g.n} irreducibles, {len(g.mjc)} covers", 0)


def _cmd_od_reconstruct(args, caps: Caps):
    g = od_graph_from_json(_load(args.odgraph))
    L = reconstruct(g, caps)
    return ({"n": L.n, "out": _save(lattice_document(L), args.out)},
            f"reconstructed lattice with {L.n} elements", 0)


def _witness_doc(g, w) -> dict | None:
    if w is None:
        return None
    return {
        "element": w.j,
        "element_label": g.elems[w.j],
        "cover": list(w.cover),
        "cover_labels": [g.elems[c] for c in w.cover],
        "context": w.context,
    }


def _cmd_od_props(args, caps: Caps):
    g = od_graph_from_json(_load(args.odgraph))
    results = {}
    for name in PROPERTY_IDS:
        w = check_property(g, name, caps)
        results[name] = {"holds": w is None, "witness": _witness_doc(g, w)}
    held = sum(r["holds"] for r in results.values())
    return ({"properties": results}, f"{held}/{len(results)} properties hold",
            0 if held == len(results) else 1)


# -- check ----------------------------------------------------------------------


def _parse_valuation(text: str) -> dict[str, int]:
    out = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not name or not value:
            raise RellatError(f"bad valuation entry {part!r}; want name=index")
        out[name.strip()] = _ints([value], "--witness")[0]
    return out


def _cmd_check_eq(args, caps: Caps):
    L = _load_lattice(args.lattice, caps)
    if args.eq:
        inc = catalog_inclusion(args.eq)
    elif args.inclusion:
        inc = parse(args.inclusion)
        if not isinstance(inc, Inclusion):
            raise RellatError("the --inclusion text must contain '<='")
    else:
        raise RellatError("check eq needs --eq NAME or --inclusion TEXT")
    if args.witness:
        v = _parse_valuation(args.witness)
        if any(not 0 <= i < L.n for i in v.values()):
            raise RellatError(f"--witness indices must lie in 0..{L.n - 1}")
        confirmed = verify_witness(L, inc, v)
        word = "fails" if confirmed else "does not fail"
        return ({"inclusion": pretty_inclusion(inc),
                 "witness_confirmed": confirmed,
                 "witness": _valuation_doc(L, v)},
                f"valuation {word} the inclusion", 1 if confirmed else 0,
                {"budget": caps.eval_budget, "evaluations": 1})
    if args.mode == "sample" and (args.samples < 1 or args.seed < 0):
        raise RellatError("--mode sample needs --samples at least 1 and "
                          f"--seed at least 0, not {args.samples} and {args.seed}")
    res = check_inclusion(L, inc, mode=args.mode, samples=args.samples,
                          seed=args.seed, caps=caps)
    ok = res.verdict in ("holds", "no_counterexample_found")
    return ({"inclusion": pretty_inclusion(inc),
             "verdict": res.verdict,
             "witness": _valuation_doc(L, res.witness)},
            f"{args.eq or 'inclusion'}: {res.verdict} "
            f"({res.evaluations} evaluations)", 0 if ok else 1,
            {"seed": res.seed, "budget": caps.eval_budget,
             "evaluations": res.evaluations})


def _cmd_check_prop(args, caps: Caps):
    g = od_graph_from_json(_load(args.odgraph))
    w = check_property(g, args.prop, caps)
    verdict = "holds" if w is None else f"fails at {g.elems[w.j]}"
    return ({"property": args.prop, "holds": w is None,
             "witness": _witness_doc(g, w)},
            f"{args.prop}: {verdict}", 0 if w is None else 1)


def _space_from_args(args, check: str, caps: Caps):
    """The space to check; a whole H(attrs, dom) meets `_check_caps` first."""
    if args.space:
        return space_from_json(_load(args.space))
    if args.attrs is None or args.dom is None:
        raise RellatError("need --space FILE or --attrs N --dom N")
    schema, n_points = _schema(args.attrs, args.dom), args.dom ** args.attrs
    if not args.points and n_points <= caps.max_enum:
        _check_caps(check, args.attrs, n_points, caps)
    points = args.points.split(",") if args.points else None
    return hamming_space(schema, points=points)


def _members(names, mask: int) -> list:
    """The names whose bits are set in mask."""
    return [x for i, x in enumerate(names) if mask >> i & 1]


def _cmd_check_bc(args, caps: Caps):
    space = _space_from_args(args, "bc", caps)
    w = bc_identity_check(space, caps)
    result = {"holds": w is None}
    if w is not None:
        result["witness"] = {"x1": _members(space.attrs, w.x1),
                             "x2": _members(space.attrs, w.x2),
                             "t": _members(space.points, w.t)}
    return (result, "composition identity " + ("holds" if w is None else "fails"),
            0 if w is None else 1, {"budget": caps.max_enum})


def _cmd_check_pc(args, caps: Caps):
    space = _space_from_args(args, "pc", caps)
    w = is_pairwise_complete(space, caps)
    result = {"holds": w is None}
    if w is not None:
        result["witness"] = {"f": space.points[w.f], "g": space.points[w.g],
                             "x1": _members(space.attrs, w.x1),
                             "x2": _members(space.attrs, w.x2)}
    return (result, "pairwise completeness " + ("holds" if w is None else "fails"),
            0 if w is None else 1, {"budget": caps.max_enum})


def _cmd_check_iso(args, caps: Caps):
    L1 = _load_lattice(args.lattice, caps)
    L2 = _load_lattice(args.other, caps)
    m = find_isomorphism(L1, L2, caps)
    return ({"isomorphic": m is not None, "mapping": m},
            "isomorphic" if m is not None else "not isomorphic",
            0 if m is not None else 1, {"budget": caps.search_nodes})


def _cmd_check_nation(args, caps: Caps):
    """L's graph gives L back iff the masks J(x) of L's elements, bit t for
    irreducible t, are the graph's closed sets."""
    L = _load_lattice(args.lattice, caps)
    closed = closed_sets(extract_od_graph(L, caps), caps)
    holds = np.array_equal(np.sort(_ji_masks(L.leq, L.join_irreducibles())), closed)
    return ({"n": L.n, "reconstructed_n": closed.size,
             "round_trip_isomorphic": holds},
            f"round trip {'succeeded' if holds else 'FAILED'}", 0 if holds else 1)


# -- search ---------------------------------------------------------------------


def _goal_all_prime_cover(g) -> dict | None:
    for k, cov in g.nontrivial():
        if all(g.jp[c] for c in cov):
            return {"element": k, "element_label": g.elems[k],
                    "cover": list(cov),
                    "cover_labels": [g.elems[c] for c in cov]}
    return None


def _goal_illdefined(g) -> dict | None:
    got = ultrametric_representability(g)
    if isinstance(got, IllDefined):
        return {"k0": g.elems[got.k0], "k1": g.elems[got.k1],
                "c": [g.elems[x] for x in got.c],
                "d": [g.elems[x] for x in got.d]}
    return None


def _cmd_search_sublattice(args, caps: Caps):
    if args.max_seed < 1:
        raise RellatError(f"--max-seed must be at least 1, not {args.max_seed}")
    L = _load_lattice(args.lattice, caps)
    goal = {"all-prime-cover": _goal_all_prime_cover,
            "illdefined": _goal_illdefined}[args.goal]
    tried = 0
    for size in range(1, args.max_seed + 1):
        for seed in itertools.combinations(range(L.n), size):
            tried += 1
            if tried > caps.search_nodes:
                raise SearchBudgetExceeded(tried, caps.search_nodes)
            sub, incl = sublattice_closure(L, seed, caps)
            g = extract_od_graph(sub, caps)
            hit = goal(g)
            if hit is not None:
                result = {
                    "found": True,
                    "seed": list(seed),
                    "seed_labels": [L.label(x) for x in seed],
                    "sublattice_size": sub.n,
                    "elements": [L.label(x) for x in incl],
                    "witness": hit,
                }
                if args.out:
                    result["out"] = _save(lattice_document(sub), args.out)
                return (result, f"goal {args.goal} met by seed {list(seed)} "
                                f"({sub.n} elements)", 0,
                        {"budget": caps.search_nodes, "evaluations": tried})
    return ({"found": False}, f"no sublattice met goal {args.goal}", 1,
            {"budget": caps.search_nodes, "evaluations": tried})


def _cmd_search_pmorphism(args, caps: Caps):
    src = frame_from_json(_load(args.src))
    dst = frame_from_json(_load(args.dst))
    m = p_morphism_search(src, dst, caps)
    return ({"found": m is not None, "mapping": m},
            "p-morphism found" if m is not None else "no p-morphism",
            0 if m is not None else 1, {"budget": caps.search_nodes})


def _cmd_search_embedding(args, caps: Caps):
    L1 = _load_lattice(args.lattice, caps)
    L2 = _load_lattice(args.into, caps)
    m = find_embedding(L1, L2, caps)
    return ({"found": m is not None, "mapping": m},
            "embedding found" if m is not None else "no embedding",
            0 if m is not None else 1, {"budget": caps.search_nodes})


# -- wiring ---------------------------------------------------------------------



_CAPS_FLAGS = {"--cap": "max lattice size",
               "--budget": "evaluation / search budget"}


def _add_caps_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register the caps flags of `flags`: only those the verb's code reads,
    so that any other is a usage error rather than a bound that binds
    nothing."""
    for flag in flags:
        p.add_argument(flag, type=int, help=_CAPS_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rellat",
        description="finite-lattice laboratory for relational lattices")
    top.add_argument("--stats", metavar="PATH",
                     help="write the run's work counters to this JSON file")
    verbs = top.add_subparsers(dest="verb", required=True)

    build = verbs.add_parser("build", help="construct objects and save JSON")
    bsub = build.add_subparsers(dest="what", required=True)

    p = bsub.add_parser("rel", help="relational lattice over a schema")
    p.add_argument("--attrs", type=int, required=True)
    p.add_argument("--dom", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_build_rel")

    p = bsub.add_parser("typed", help="typed relational lattice from fiber sizes")
    p.add_argument("--fibers", required=True, help="comma list, e.g. 2,1")
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_build_typed")

    p = bsub.add_parser("closure", help="closure-system lattice over a schema")
    p.add_argument("--attrs", type=int, required=True)
    p.add_argument("--dom", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_build_closure")

    p = bsub.add_parser("frame", help="frame from partition block lists")
    p.add_argument("--rels", required=True,
                   help="semicolon-separated block lists, e.g. 0,0,1;0,1,0")
    p.add_argument("--worlds", help="comma list of world names")
    p.add_argument("--out", required=True)
    p.set_defaults(func="_cmd_build_frame")

    p = bsub.add_parser("product", help="universal product frame")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_build_product")

    p = bsub.add_parser("countermodel",
                        help="the eight-atom separation example")
    p.add_argument("--out", required=True)
    p.add_argument("--graph", action="store_true",
                   help="write the cover graph instead of the lattice")
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_build_countermodel")

    od = verbs.add_parser("odgraph", help="duality data of a lattice")
    osub = od.add_subparsers(dest="what", required=True)

    p = osub.add_parser("extract", help="irreducibles, order, primes, covers")
    p.add_argument("--lattice", required=True)
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_od_extract")

    p = osub.add_parser("reconstruct", help="lattice of closed downsets")
    p.add_argument("--odgraph", required=True)
    p.add_argument("--out", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_od_reconstruct")

    p = osub.add_parser("props", help="run every property checker")
    p.add_argument("--odgraph", required=True)
    p.set_defaults(func="_cmd_od_props")

    check = verbs.add_parser("check", help="verdicts with witnesses")
    csub = check.add_subparsers(dest="what", required=True)

    p = csub.add_parser("eq", help="inclusion over all or sampled valuations")
    p.add_argument("--eq", help="catalog name, e.g. Unjp")
    p.add_argument("--inclusion", help="inline text, e.g. 'x ^ y <= x'")
    p.add_argument("--lattice", required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"],
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness", help="replay a valuation, e.g. x=3,y=0")
    _add_caps_flags(p, "--cap", "--budget")
    p.set_defaults(func="_cmd_check_eq")

    p = csub.add_parser("prop", help="one cover-combinatorial property")
    p.add_argument("--prop", required=True, choices=list(PROPERTY_IDS))
    p.add_argument("--odgraph", required=True)
    p.set_defaults(func="_cmd_check_prop")

    for what, helptext, func in (
        ("bc", "action composition identity on a space", "_cmd_check_bc"),
        ("pc", "pairwise completeness of a space", "_cmd_check_pc"),
    ):
        p = csub.add_parser(what, help=helptext)
        p.add_argument("--space", help="space JSON file")
        p.add_argument("--attrs", type=int, help="build a full function space")
        p.add_argument("--dom", type=int)
        p.add_argument("--points", help="restrict to these point labels")
        p.set_defaults(func=func)

    p = csub.add_parser("iso", help="isomorphism between two lattices")
    p.add_argument("--lattice", required=True)
    p.add_argument("--other", required=True)
    _add_caps_flags(p, "--cap", "--budget")
    p.set_defaults(func="_cmd_check_iso")

    p = csub.add_parser("nation", help="extract-then-reconstruct round trip")
    p.add_argument("--lattice", required=True)
    _add_caps_flags(p, "--cap")
    p.set_defaults(func="_cmd_check_nation")

    search = verbs.add_parser("search", help="bounded backtracking searches")
    ssub = search.add_subparsers(dest="what", required=True)

    p = ssub.add_parser("sublattice", help="seed-generated sublattice meeting a goal")
    p.add_argument("--lattice", required=True)
    p.add_argument("--goal", required=True,
                   choices=["all-prime-cover", "illdefined"])
    p.add_argument("--max-seed", type=int, default=3)
    p.add_argument("--out")
    _add_caps_flags(p, "--cap", "--budget")
    p.set_defaults(func="_cmd_search_sublattice")

    p = ssub.add_parser("pmorphism", help="surjective p-morphism between frames")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    _add_caps_flags(p, "--budget")
    p.set_defaults(func="_cmd_search_pmorphism")

    p = ssub.add_parser("embedding", help="lattice embedding")
    p.add_argument("--lattice", required=True)
    p.add_argument("--into", required=True)
    _add_caps_flags(p, "--cap", "--budget")
    p.set_defaults(func="_cmd_search_embedding")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first `main` call. Parsing
    does not change it, and a verb's handler is named, not bound, so a
    handler replaced on this module later is still the one that runs.
    `_parser.cache_clear()` makes the next call build it again."""
    return build_parser()


def main(argv=None) -> int:
    """Parse argv with the process's one parser and run the verb by its
    handler's name; exit 2 on a usage error (argparse's SystemExit)."""
    args = _parser().parse_args(argv)
    if args.stats is None:
        return _run(args)
    with stats.collect() as counters:
        code = _run(args)
    try:
        _dump(counters, args.stats)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


# The input files a verb may read: a report lists each one given, with its
# sha256.
_INPUT_FLAGS = ("lattice", "other", "into", "odgraph", "src", "dst", "space")


def _run(args) -> int:
    """Run the verb and write its one report, or the error report of a run
    stopped by a budget or cap (exit 3). Hashing the inputs stays inside
    the error handling, so an unreadable input exits 2."""
    command = f"{args.verb} {args.what}"
    try:
        handler = globals()[args.func]
        result, summary, code, *fields = handler(args, _caps(args))
        report = {
            "command": command,
            "params": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "stats") and v is not None},
            "inputs": {flag: {"path": path, "sha256": _sha256(path)}
                       for flag in _INPUT_FLAGS
                       if (path := getattr(args, flag, None))},
            "seed": None,
            "budget": None,
            "evaluations": None,
            "result": result,
        }
        report.update(*fields)
        _print_json(report)
        print(summary, file=sys.stderr)
        return code
    except (BudgetExceeded, SizeCapExceeded, EnumerationCapExceeded) as e:
        _print_json({"command": command,
                     "error": {"type": e.__class__.__name__, "detail": str(e)}})
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (RellatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
