"""Command-line behavior: exit codes, report shape, reproducibility."""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rellat import (
    DEFAULT_CAPS,
    RellatError,
    Schema,
    build_countermodel,
    build_from_leq,
    build_R,
    enumerate_frames,
    extract_od_graph,
    find_isomorphism,
    frame_to_json,
    l_of_frame,
    lattice_to_json,
    lattice_from_json,
    make_frame,
    make_od_graph,
    od_graph_to_json,
    random_lattice,
    reconstruct,
    stats,
    typed_R,
    typed_map_from_fibers,
)
from rellat.cli import (
    _direct_lattice_document,
    _dump,
    _json_chunks,
    _lattice_document,
    _load_lattice,
    _order_chunks,
    build_parser,
    main,
)
from rellat import cli, lattice
from rellat.errors import SizeCapExceeded, _decimal
from rellat.lattice import lattice_document
from conftest import chain, diamond, pentagon_n5, wide_diamond


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


@pytest.fixture
def r22_file(tmp_path, capsys):
    path = str(tmp_path / "r22.json")
    code, _, _ = run(capsys, "build", "rel", "--attrs", "2", "--dom", "2",
                     "--out", path)
    assert code == 0
    return path


@pytest.fixture
def cm_files(tmp_path, capsys):
    lat = str(tmp_path / "cm.json")
    gr = str(tmp_path / "cmg.json")
    assert run(capsys, "build", "countermodel", "--out", lat)[0] == 0
    assert run(capsys, "build", "countermodel", "--graph", "--out", gr)[0] == 0
    return lat, gr


# -- build -------------------------------------------------------------------------


def test_build_rel_report(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    code, doc, err = run(capsys, "build", "rel", "--attrs", "2", "--dom", "2",
                         "--out", path)
    assert code == 0
    assert doc["result"]["n"] == 26
    assert len(doc["result"]["out"]["sha256"]) == 64
    assert "26 elements" in err
    with open(path) as fh:
        assert json.load(fh)["n"] == 26


def test_reports_are_byte_identical(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    args = ("build", "rel", "--attrs", "1", "--dom", "2", "--out", path)
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_build_typed_size_error_gives_full_count(tmp_path, capsys):
    code, doc, err = run(capsys, "build", "typed", "--fibers", "4,3",
                         "--out", str(tmp_path / "t.json"))
    assert code == 3
    assert doc["error"] == {"type": "SizeCapExceeded",
                            "detail": "size 4122 exceeds the max_lattice cap 4096"}
    assert "size 4122 exceeds the max_lattice cap 4096" in err


def test_build_closure_size_error_gives_full_count(tmp_path, capsys):
    code, doc, err = run(capsys, "build", "closure", "--attrs", "2",
                         "--dom", "4", "--out", str(tmp_path / "c.json"))
    assert code == 3
    assert doc["error"] == {"type": "SizeCapExceeded",
                            "detail": "size 65570 exceeds the max_lattice cap 4096"}
    assert "size 65570 exceeds the max_lattice cap 4096" in err


def test_build_typed_and_closure_agree_with_rel(tmp_path, capsys, r22_file):
    typed = str(tmp_path / "t.json")
    clo = str(tmp_path / "c.json")
    assert run(capsys, "build", "typed", "--fibers", "2,2",
               "--out", typed)[0] == 0
    assert run(capsys, "build", "closure", "--attrs", "2", "--dom", "2",
               "--out", clo)[0] == 0
    assert run(capsys, "check", "iso", "--lattice", r22_file,
               "--other", typed)[0] == 0
    assert run(capsys, "check", "iso", "--lattice", r22_file,
               "--other", clo)[0] == 0


def test_build_frame_reports_confluence(tmp_path, capsys):
    path = str(tmp_path / "f.json")
    code, doc, _ = run(capsys, "build", "frame", "--rels", "0,0,1;0,1,0",
                       "--out", path)
    assert code == 0
    assert doc["result"]["s5"] is False
    assert doc["result"]["s5_witness"]["kind"] == "confluence"


def test_build_frame_of_1000_worlds(tmp_path, capsys):
    # two one-block relations: confluence is decided on block types, not
    # by a loop over world triples
    path = str(tmp_path / "f.json")
    one = ",".join(["0"] * 1000)
    code, doc, _ = run(capsys, "build", "frame", "--rels", f"{one};{one}",
                       "--out", path)
    assert code == 0
    assert doc["result"]["worlds"] == 1000
    assert doc["result"]["s5"] is True


def test_build_product(tmp_path, capsys):
    path = str(tmp_path / "p.json")
    code, doc, _ = run(capsys, "build", "product", "--components", "2",
                       "--n", "2", "--out", path)
    assert code == 0
    assert doc["result"]["worlds"] == 4


# -- odgraph ------------------------------------------------------------------------


def test_odgraph_chain(tmp_path, capsys, r22_file):
    gpath = str(tmp_path / "g.json")
    rpath = str(tmp_path / "r2.json")
    code, doc, _ = run(capsys, "odgraph", "extract", "--lattice", r22_file,
                       "--out", gpath)
    assert code == 0
    assert doc["result"]["elements"] == 6
    assert doc["result"]["join_primes"] == 2
    code, doc, _ = run(capsys, "odgraph", "reconstruct", "--odgraph", gpath,
                       "--out", rpath)
    assert code == 0
    assert doc["result"]["n"] == 26
    code, doc, _ = run(capsys, "odgraph", "props", "--odgraph", gpath)
    assert code == 0
    assert all(v["holds"] for v in doc["result"]["properties"].values())


def test_odgraph_extract_refuses_irreducibles_sharing_a_label(tmp_path, capsys):
    # the square's atoms are its irreducibles: labels they share are bad
    # input (exit 2, no graph written); bottom and top may share one
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    for labels, want in ((["0", "a", "a", "1"], 2), (["e", "a", "b", "e"], 0)):
        src, out = tmp_path / "sq.json", tmp_path / "g.json"
        src.write_text(json.dumps({"n": 4, "leq": leq, "labels": labels}))
        code, _, err = run(capsys, "odgraph", "extract", "--lattice",
                           str(src), "--out", str(out))
        assert code == want, labels
        if want:
            assert err == "error: duplicate element labels\n"
            assert not out.exists()
        else:
            assert json.loads(out.read_text())["elems"] == ["a", "b"]
            out.unlink()


def test_odgraph_props_failure_exit(capsys, cm_files):
    _, gr = cm_files
    code, doc, _ = run(capsys, "odgraph", "props", "--odgraph", gr)
    assert code == 1
    props = doc["result"]["properties"]
    assert props["exactly-one-nonjp"]["holds"] is False
    assert props["exactly-one-nonjp"]["witness"]["element_label"] == "k0"
    assert props["pi-VarRL1"]["holds"] is True


def test_join_properties_refuse_a_graph_wider_than_max_ji(tmp_path, capsys):
    # M_17's graph, each atom covered by every pair of the others: pi-Sym
    # asks a join, which would read a 2^17-entry closure table
    path = tmp_path / "m17.json"
    path.write_text(json.dumps(od_graph_to_json(wide_diamond(17))))
    error = {"type": "CoverEnumerationCapExceeded",
             "detail": "17 join-irreducibles exceed the max_ji cap 16"}
    code, doc, _ = run(capsys, "odgraph", "props", "--odgraph", str(path))
    assert (code, doc) == (3, {"command": "odgraph props", "error": error})
    code, doc, _ = run(capsys, "check", "prop", "--prop", "pi-Sym",
                       "--odgraph", str(path))
    assert (code, doc) == (3, {"command": "check prop", "error": error})
    code, doc, _ = run(capsys, "check", "prop", "--prop", "pi-VarRL1",
                       "--odgraph", str(path))
    assert code == 0 and doc["result"]["holds"] is True


# -- check -------------------------------------------------------------------------


def test_check_eq_counterexample(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "eq", "--eq", "Dist",
                       "--lattice", r22_file)
    assert code == 1
    assert doc["result"]["verdict"] == "counterexample"
    w = doc["result"]["witness"]
    assert set(w) == {"x", "y", "z"}
    assert all("label" in v for v in w.values())


def test_check_eq_holds(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "eq", "--eq", "RL1",
                       "--lattice", r22_file)
    assert code == 0
    assert doc["result"]["verdict"] == "holds"
    assert doc["evaluations"] == 26 ** 3


def test_stats_flag_writes_counters_beside_identical_output(tmp_path, capsys,
                                                          r22_file):
    # --stats adds a side file; stdout and the written lattice keep their
    # bytes, and a failed write is an exit 2
    stats_path = str(tmp_path / "stats.json")
    argv = ["check", "eq", "--eq", "RL1", "--lattice", r22_file]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(["--stats", stats_path] + argv) == 0
    assert capsys.readouterr().out == plain
    with open(stats_path) as fh:
        assert json.load(fh) == {"lattice_docs_direct": 1, "order_builds": 1,
                                 "valuations_scanned": 26 * 26 * 27 // 2}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "rel", "--attrs", "1", "--dom", "2", "--out", str(a)]) == 0
    assert main(["--stats", stats_path, "build", "rel", "--attrs", "1",
                 "--dom", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["--stats", str(tmp_path / "no" / "dir.json")] + argv) == 2


def test_check_eq_inline_inclusion(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "eq", "--inclusion", "x ^ y <= x",
                       "--lattice", r22_file)
    assert code == 0


def test_check_eq_sampled(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "eq", "--eq", "Sym", "--mode", "sample",
                       "--samples", "2000", "--seed", "3",
                       "--lattice", r22_file)
    assert code == 0
    assert doc["result"]["verdict"] == "no_counterexample_found"
    assert doc["seed"] == 3


def test_check_eq_witness_replay(capsys, cm_files):
    lat, _ = cm_files
    witness = "x=1,y0=2,y1=5,y2=6,z0=3,z1=7,z2=8,w=4"
    code, doc, _ = run(capsys, "check", "eq", "--eq", "Unjp",
                       "--lattice", lat, "--witness", witness)
    assert code == 1
    assert doc["result"]["witness_confirmed"] is True
    benign = "x=0,y0=0,y1=0,y2=0,z0=0,z1=0,z2=0,w=0"
    code, doc, _ = run(capsys, "check", "eq", "--eq", "Unjp",
                       "--lattice", lat, "--witness", benign)
    assert code == 0
    assert doc["result"]["witness_confirmed"] is False


def test_check_eq_needs_a_law(capsys, r22_file):
    code, doc, err = run(capsys, "check", "eq", "--lattice", r22_file)
    assert code == 2
    assert "error" in err


def test_check_eq_budget_exit(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "eq", "--eq", "Unjp",
                       "--lattice", r22_file, "--budget", "1000")
    assert code == 3
    assert doc["error"]["type"] == "BudgetExceeded"
    assert doc["error"]["detail"] == f"{26**8} exceeds the eval_budget cap 1000"


def test_check_iso_budget_exit(capsys, r22_file):
    code, doc, _ = run(capsys, "check", "iso", "--lattice", r22_file,
                       "--other", r22_file, "--budget", "3")
    assert code == 3
    assert doc["error"]["type"] == "SearchBudgetExceeded"
    assert "search_nodes cap 3" in doc["error"]["detail"]


def test_check_prop(capsys, cm_files):
    _, gr = cm_files
    code, _, _ = run(capsys, "check", "prop", "--prop", "exactly-one-nonjp",
                     "--odgraph", gr)
    assert code == 1
    code, _, _ = run(capsys, "check", "prop", "--prop", "pi-VarRL1",
                     "--odgraph", gr)
    assert code == 0


def test_check_bc_pc_subspace(capsys):
    code, doc, _ = run(capsys, "check", "bc", "--attrs", "2", "--dom", "2",
                       "--points", "00,11")
    assert code == 1
    assert doc["result"]["witness"] == {"x1": ["a"], "x2": ["b"], "t": ["00"]}
    code, doc, _ = run(capsys, "check", "pc", "--attrs", "2", "--dom", "2")
    assert code == 0
    assert doc["result"]["holds"] is True


@pytest.mark.parametrize("verb", ["bc", "pc"])
def test_completeness_checks_report_their_budget(capsys, verb):
    # Caps.max_enum bounds the split pairs of both, and the point pairs of pc
    code, doc, _ = run(capsys, "check", verb, "--attrs", "2", "--dom", "2",
                       "--points", "00,11")
    assert code in (0, 1)
    assert doc["budget"] == DEFAULT_CAPS.max_enum == 1048576


def test_check_pc_unknown_point(capsys):
    code, _, err = run(capsys, "check", "pc", "--attrs", "2", "--dom", "2",
                       "--points", "77")
    assert code == 2
    assert "unknown points" in err


def test_check_nation(tmp_path, capsys):
    path = str(tmp_path / "r11.json")
    run(capsys, "build", "rel", "--attrs", "1", "--dom", "1", "--out", path)
    code, doc, _ = run(capsys, "check", "nation", "--lattice", path)
    assert code == 0
    assert doc["result"]["round_trip_isomorphic"] is True


def test_check_nation_agrees_with_reconstruction_and_search(
        tmp_path, capsys, small_lattices, cm_lattice):
    """The verb's answer from the J-masks is the one a rebuilt lattice and
    an isomorphism search give."""
    corpus = [*small_lattices,
              *(random_lattice(s, max_size=12) for s in range(100)),
              build_R(Schema(("a", "b"), ("0", "1"))).lattice,
              typed_R(typed_map_from_fibers([4, 2])).lattice,
              cm_lattice, *(diamond(k) for k in range(3, 12))]
    path = str(tmp_path / "l.json")
    for L in corpus:
        _dump(lattice_document(L), path)
        R = reconstruct(extract_od_graph(L))
        holds = R.n == L.n and find_isomorphism(L, R) is not None
        code, doc, _ = run(capsys, "check", "nation", "--lattice", path)
        assert code == (0 if holds else 1)
        assert doc["result"] == {"n": L.n, "reconstructed_n": R.n,
                                 "round_trip_isomorphic": holds}


def test_check_nation_fails_without_a_needed_cover(tmp_path, capsys,
                                                   monkeypatch, cm_lattice):
    # drop one non-trivial cover of an element that keeps another, so the
    # graph stays valid but no longer describes the lattice
    from rellat import cli

    def drop_one(L, caps):
        g = extract_od_graph(L, caps)
        k, cov = next((k, c) for k, c in g.nontrivial()
                      if len(g.covers_of(k)) > 2)
        return make_od_graph(g.elems, g.leq_pairs, g.jp,
                             [e for e in g.mjc if e != (k, cov)])

    path = str(tmp_path / "cm.json")
    _dump(lattice_document(cm_lattice), path)
    monkeypatch.setattr(cli, "extract_od_graph", drop_one)
    code, doc, err = run(capsys, "check", "nation", "--lattice", path)
    assert code == 1
    assert doc["result"]["round_trip_isomorphic"] is False
    assert err == "round trip FAILED\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "nation", "--lattice", "/nope.json")
    assert code == 2
    assert "error" in err


def _with_entry(doc, key, path, value):
    """A copy of doc with doc[key][path[0]][path[1]]... set to value."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    target = doc[key]
    for i in outer:
        target = target[i]
    target[last] = value
    return doc


N5 = lattice_to_json(pentagon_n5())
GRAPH = od_graph_to_json(build_countermodel())
FRAME = {"worlds": ["w0", "w1"], "rels": [[0, 0], [0, 1]]}
SPACE = {"attrs": ["a"], "points": ["0", "1"],
         "dist": [[[], ["a"]], [["a"], []]]}


@pytest.mark.parametrize("argv, doc", [
    (["check", "eq", "--eq", "Dist", "--lattice"], [1, 2]),
    (["check", "eq", "--eq", "Dist", "--lattice"],
     _with_entry(N5, "leq", (0, 1), "x")),
    (["check", "eq", "--eq", "Dist", "--lattice"],
     _with_entry(N5, "leq", (0, 1), 2)),
    (["check", "eq", "--eq", "Dist", "--lattice"],
     _with_entry(N5, "leq", (0,), [1])),
    (["odgraph", "props", "--odgraph"], _with_entry(GRAPH, "mjc", (1, 1), 5)),
    (["odgraph", "props", "--odgraph"], _with_entry(GRAPH, "jp", (3,), "yes")),
    (["odgraph", "props", "--odgraph"],
     {**GRAPH, "leq_pairs": GRAPH["leq_pairs"] + [[0, True]]}),
    (["odgraph", "props", "--odgraph"],
     {**GRAPH, "leq_pairs": GRAPH["leq_pairs"] + [[0, 1, 2]]}),
    (["search", "pmorphism", "--dst", "FRAME", "--src"],
     _with_entry(FRAME, "rels", (1,), 5)),
    (["search", "pmorphism", "--dst", "FRAME", "--src"],
     _with_entry(FRAME, "rels", (1, 1), "b")),
    (["check", "bc", "--space"], _with_entry(SPACE, "dist", (0, 1), ["b"])),
    (["check", "pc", "--space"], {**SPACE, "dist": SPACE["dist"][:1]}),
    (["check", "pc", "--space"], {**SPACE, "attrs": ["a", "a"]}),
    (["check", "pc", "--space"], {**SPACE, "points": ["p", "p"]}),
], ids=["lattice-list", "leq-string", "leq-2", "leq-ragged", "cover-int",
        "jp-string", "pair-bool", "pair-triple", "frame-relation-int",
        "frame-block-string", "space-unknown-attr", "space-ragged",
        "space-duplicate-attr", "space-duplicate-point"])
def test_malformed_document_is_bad_input(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(FRAME))
    argv = [str(frame) if a == "FRAME" else a for a in argv]
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out is None
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["build", "typed", "--fibers", "2,x", "--out", "OUT"],
     "--fibers needs integers, not '2,x'"),
    (["build", "typed", "--fibers", ",", "--out", "OUT"],
     "--fibers needs at least one fiber"),
    (["build", "typed", "--fibers", "2,0", "--out", "OUT"],
     "--fibers needs at least one fiber"),
    (["build", "frame", "--rels", "0,1;0,x", "--out", "OUT"],
     "--rels needs integers, not '0,x'"),
    (["build", "product", "--components", "2", "--n", "-1", "--out", "OUT"],
     "--n must be at least 0"),
    (["check", "eq", "--eq", "Dist", "--lattice", "R22", "--mode", "sample",
      "--samples", "0"], "--samples at least 1"),
    (["check", "eq", "--eq", "Dist", "--lattice", "R22", "--mode", "sample",
      "--seed", "-1"], "--seed at least 0"),
    (["check", "eq", "--eq", "Dist", "--lattice", "R22",
      "--witness", "x=0,y=1,z=q"], "--witness needs integers, not 'q'"),
    (["check", "eq", "--eq", "Dist", "--lattice", "R22",
      "--witness", "x=0,y=1,z=26"], "--witness indices must lie in 0..25"),
    (["check", "eq", "--eq", "Dist", "--lattice", "R22",
      "--witness", "x=0,y=1,z=2,w=-1"], "--witness indices must lie in 0..25"),
    (["check", "eq", "--eq", "Dist", "--lattice", "NOT_JSON"],
     "is not a JSON document"),
], ids=["fibers-int", "fibers-empty", "fibers-zero", "rels-int", "product-n",
        "samples", "seed", "witness-int", "witness-range", "witness-extra",
        "not-json"])
def test_bad_values_exit_2(tmp_path, capsys, r22_file, argv, message):
    not_json = tmp_path / "not.json"
    not_json.write_bytes(b'{"n": \xff')
    files = {"OUT": str(tmp_path / "out.json"), "R22": r22_file,
             "NOT_JSON": str(not_json)}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert out is None
    assert err.startswith("error: ") and message in err


def test_internal_errors_are_not_bad_input(monkeypatch, tmp_path):
    # only package errors and failed file access mean bad input (exit 2);
    # anything else is a fault of the program and surfaces as itself
    from rellat import cli

    for exc in (ValueError("internal"), KeyError("internal")):
        def fail(*args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_build_rel", fail)
        with pytest.raises(type(exc)):
            main(["build", "rel", "--attrs", "1", "--dom", "1",
                  "--out", str(tmp_path / "x.json")])


def test_check_bc_caps_attribute_sets(tmp_path, capsys):
    # 2^70 attribute sets: the action table is refused before it is built
    wide = {"attrs": [f"a{i}" for i in range(70)], "points": ["p", "q"],
            "dist": [[[], ["a69"]], [["a69"], []]]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    code, out, err = run(capsys, "check", "bc", "--space", str(path))
    assert code == 3
    assert out["error"]["detail"] == (
        f"enumeration of {1 << 70} subsets exceeds the max_enum cap {1 << 20}")


def _one_step_space(n_points, n_attrs):
    """Points p0.. at mutual distance {the last attribute}."""
    last = [f"a{n_attrs - 1}"]
    return {"attrs": [f"a{i}" for i in range(n_attrs)],
            "points": [f"p{i}" for i in range(n_points)],
            "dist": [[[] if f == g else last for g in range(n_points)]
                     for f in range(n_points)]}


@pytest.mark.parametrize("verb, points, attrs, need", [
    ("pc", 2, 70, 4**70),      # pc takes caps: 4^70 split pairs
    ("bc", 1, 19, 4**19),      # the table fits; its 4^19 split pairs do not
])
def test_completeness_checks_cap_split_pairs(tmp_path, capsys, verb, points,
                                             attrs, need):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(_one_step_space(points, attrs)))
    code, out, _ = run(capsys, "check", verb, "--space", str(path))
    assert code == 3
    assert out["error"] == {
        "type": "EnumerationCapExceeded",
        "detail": f"enumeration of {need} subsets exceeds the max_enum cap {1 << 20}"}


def test_check_bc_caps_the_whole_action_table(capsys):
    # 2^6 attribute sets and 2^16 point sets each pass; 2^22 entries do not
    points = ",".join(format(i, "06b") for i in range(16))
    code, out, _ = run(capsys, "check", "bc", "--attrs", "6", "--dom", "2",
                       "--points", points)
    assert code == 3
    assert out["error"]["detail"] == \
        f"enumeration of {1 << 22} subsets exceeds the max_enum cap {1 << 20}"


@pytest.mark.parametrize("verb, attrs, need", [
    ("bc", 10, 1 << 1024),     # the 2^1024 point sets of 1,024 points
    ("pc", 11, 4**11),         # the 4^11 split pairs of 2,048 points
    ("bc", 21, 1 << 21),       # more points than the cap: the space's own count
])
def test_whole_hamming_space_is_refused_before_it_is_built(
        capsys, monkeypatch, verb, attrs, need):
    # within the cap on points, the check's caps are met before the
    # p^2 point distances of the space are computed
    from rellat import cli
    if need != 1 << 21:
        monkeypatch.setattr(cli, "hamming_space", None)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", verb, "--attrs", str(attrs), "--dom", "2")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out["error"] == {
        "type": "EnumerationCapExceeded",
        "detail": f"enumeration of {need} subsets exceeds the max_enum cap {1 << 20}"}


# Counts past the 4,300 digits Python writes in decimal: 2^32768, 2^100000
# and 2^16384 point sets, and R(D,A)'s size bound for 100,000 values. Each
# refusal is an exit-3 report, not a crash.
HUGE_REFUSALS = [
    ("build typed --fibers " + ",".join(["2"] * 15) + " --out t.json",
     "2^32768"),
    ("build typed --fibers 100000 --out t.json", "2^100000"),
    ("build typed --fibers 4,4,4,4,4,4,4 --out t.json", "2^16384"),
    ("check bc --attrs 14 --dom 2", "2^16384"),
    ("check bc --attrs 1 --dom 100000", "2^100000"),
    ("build rel --attrs 1 --dom 100000 --out r.json", "~9.99e30102"),
]


@pytest.mark.parametrize("line, need", HUGE_REFUSALS)
def test_huge_refusals_exit_3_in_their_own_process(tmp_path, line, need):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rellat.cli", *line.split()],
                          cwd=tmp_path, env=env, capture_output=True, timeout=2)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == (
        {"type": "SizeCapExceeded",
         "detail": f"size {need} exceeds the max_lattice cap 4096"}
        if need.startswith("~") else
        {"type": "EnumerationCapExceeded",
         "detail": f"enumeration of {need} subsets exceeds the max_enum cap "
                   f"{1 << 20}"})
    assert proc.stderr.decode().startswith("budget exceeded: ")


def test_huge_counts_are_written_in_full_while_python_can():
    assert _decimal(1 << 1024) == str(1 << 1024)
    assert _decimal(10 ** 4299) == str(10 ** 4299)
    assert _decimal(1 << 16384) == "2^16384"
    assert _decimal(3 ** 10000) == "~1.63e4771"
    assert str(SizeCapExceeded((1 << 20000) + 1, 4096)) == \
        "size ~3.98e6020 exceeds the max_lattice cap 4096"


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "rel", "--attrs", "2"])
    assert exc.value.code == 2


def test_companion_lattice_flag_is_gone(tmp_path, capsys, r22_file):
    gpath = str(tmp_path / "g.json")
    assert run(capsys, "odgraph", "extract", "--lattice", r22_file,
               "--out", gpath)[0] == 0
    for argv in (["odgraph", "props", "--odgraph", gpath],
                 ["check", "prop", "--prop", "pi-Sym", "--odgraph", gpath]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--lattice", r22_file])
        assert exc.value.code == 2


def test_jobs_flag_is_gone(capsys, r22_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "eq", "--eq", "RL1", "--lattice", r22_file,
              "--jobs", "2"])
    assert exc.value.code == 2


# The caps flags each verb's code reads; every other (verb, flag) pair is
# a usage error.
CAPS_FLAGS = {
    "build rel": {"--cap"},
    "build typed": {"--cap"},
    "build closure": {"--cap"},
    "build frame": set(),
    "build product": {"--cap"},
    "build countermodel": {"--cap"},
    "odgraph extract": {"--cap"},
    "odgraph reconstruct": {"--cap"},
    "odgraph props": set(),
    "check eq": {"--cap", "--budget"},
    "check prop": set(),
    "check bc": set(),
    "check pc": set(),
    "check iso": {"--cap", "--budget"},
    "check nation": {"--cap"},
    "search sublattice": {"--cap", "--budget"},
    "search pmorphism": {"--budget"},
    "search embedding": {"--cap", "--budget"},
}

# A command line each verb accepts; the files need not exist, since a
# usage error comes before any file is read.
VERB_ARGV = {
    "build rel": "--attrs 1 --dom 1 --out x.json",
    "build typed": "--fibers 2,1 --out x.json",
    "build closure": "--attrs 1 --dom 1 --out x.json",
    "build frame": "--rels 0,0,1;0,1,1 --out x.json",
    "build product": "--components 2 --n 2 --out x.json",
    "build countermodel": "--out x.json",
    "odgraph extract": "--lattice x.json --out y.json",
    "odgraph reconstruct": "--odgraph x.json --out y.json",
    "odgraph props": "--odgraph x.json",
    "check eq": "--lattice x.json --eq RL1",
    "check prop": "--odgraph x.json --prop unjp",
    "check bc": "--space x.json",
    "check pc": "--space x.json",
    "check iso": "--lattice x.json --other y.json",
    "check nation": "--lattice x.json",
    "search sublattice": "--lattice x.json --goal illdefined",
    "search pmorphism": "--src x.json --dst y.json",
    "search embedding": "--lattice x.json --into y.json",
}


def _all_parsers(parser, words=""):
    """(words, parser) for parser and every parser under it, by the words
    that reach it."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _all_parsers(sub, f"{words} {word}".lstrip())


def _verb_parsers(parser):
    """(verb, parser) for every two-word verb under parser."""
    return [(w, p) for w, p in _all_parsers(parser) if w.count(" ") == 1]


def test_each_verb_registers_the_caps_flags_it_reads():
    got = {verb: {opt for a in p._actions for opt in a.option_strings
                  if opt in ("--cap", "--budget")}
           for verb, p in _verb_parsers(build_parser())}
    assert got == CAPS_FLAGS
    assert sum(map(len, got.values())) == 17


@pytest.mark.parametrize("verb, flag", [
    (verb, flag) for verb, flags in CAPS_FLAGS.items()
    for flag in ("--cap", "--budget") if flag not in flags])
def test_caps_flag_a_verb_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                         monkeypatch, verb,
                                                         flag):
    monkeypatch.chdir(tmp_path)
    argv = verb.split() + VERB_ARGV[verb].split() + [flag, "5"]
    # without the flag the line parses: main returns rather than exits
    assert main(argv[:-2]) in (0, 1, 2)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag} 5" in err


def test_main_builds_the_parser_once(monkeypatch, tmp_path, capsys):
    from rellat import cli

    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "build", "rel", "--attrs", "1", "--dom", "2",
                       "--out", str(tmp_path / "r.json"))[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_shared_parser_is_left_as_built(tmp_path, capsys, monkeypatch,
                                        r22_file):
    # answered lines, usage errors and every --help go through the one
    # parser; each of its parsers then prints the help and usage, and
    # parses each verb's line, as a fresh one does
    from rellat import cli

    monkeypatch.chdir(tmp_path)
    shared = cli._parser()
    lines = [f"build rel --attrs 1 --dom 2 --out {tmp_path / 'x.json'}",
             f"check eq --lattice {r22_file} --eq RL1",
             f"check eq --lattice {r22_file} --eq Sym --mode sample --samples 10",
             "build rel --attrs 2",
             "build rel --attrs two --dom 2 --out x.json",
             "check eq --lattice x.json --mode fast",
             "odgraph props --odgraph x.json --cap 5",
             "search nowhere",
             "",
             "--help"]
    lines += [f"{words} --help" for words, _ in _all_parsers(shared) if words]
    for line in lines:
        try:
            main(line.split())
        except SystemExit as e:
            assert e.code in (0, 2), line
    capsys.readouterr()
    assert cli._parser() is shared
    fresh = dict(_all_parsers(build_parser()))
    got = dict(_all_parsers(shared))
    assert got.keys() == fresh.keys() and len(got) == 23
    for words, p in got.items():
        assert p.format_help() == fresh[words].format_help(), words
        assert p.format_usage() == fresh[words].format_usage(), words
    for verb, argv in VERB_ARGV.items():
        line = verb.split() + argv.split()
        assert vars(shared.parse_args(line)) == \
            vars(build_parser().parse_args(line))


# A command line each verb answers (exit 0 or 1); the capitalised words
# stand for the files `report_inputs` writes, and OUT for a new file.
REPORT_ARGV = {
    "build rel": "--attrs 1 --dom 2 --out OUT",
    "build typed": "--fibers 2,1 --out OUT",
    "build closure": "--attrs 1 --dom 2 --out OUT",
    "build frame": "--rels 0,0,1;0,1,1 --out OUT",
    "build product": "--components 2 --n 2 --out OUT",
    "build countermodel": "--graph --out OUT",
    "odgraph extract": "--lattice R22 --out OUT",
    "odgraph reconstruct": "--odgraph G22 --out OUT",
    "odgraph props": "--odgraph G22",
    "check eq": "--lattice R22 --eq RL1",
    "check prop": "--odgraph G22 --prop unjp",
    "check bc": "--space SPACE",
    "check pc": "--space SPACE",
    "check iso": "--lattice R22 --other SMALL",
    "check nation": "--lattice R22",
    "search sublattice": "--lattice R22 --goal all-prime-cover --max-seed 2",
    "search pmorphism": "--src PROD --dst FRAME",
    "search embedding": "--lattice SMALL --into R22",
}


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    files = {name: str(d / f"{name.lower()}.json")
             for name in ("R22", "SMALL", "G22", "PROD", "FRAME", "SPACE")}
    for argv in ("build rel --attrs 2 --dom 2 --out R22",
                 "build rel --attrs 1 --dom 2 --out SMALL",
                 "odgraph extract --lattice R22 --out G22",
                 "build product --components 2 --n 2 --out PROD",
                 "build frame --rels 0,0,1;0,1,1 --out FRAME"):
        assert main([files.get(a, a) for a in argv.split()]) == 0
    with open(files["SPACE"], "w") as fh:
        json.dump({"attrs": ["a", "b"], "points": ["p", "q", "r"],
                   "dist": [[[], ["a"], ["a", "b"]], [["a"], [], ["b"]],
                            [["a", "b"], ["b"], []]]}, fh)
    return files


@pytest.mark.parametrize("verb", [v for v, _ in _verb_parsers(build_parser())])
def test_report_names_its_command_and_input_files(tmp_path, capsys,
                                                  report_inputs, verb):
    files = {**report_inputs, "OUT": str(tmp_path / "out.json")}
    argv = [files.get(a, a) for a in REPORT_ARGV[verb].split()]
    code, doc, _ = run(capsys, *verb.split(), *argv)
    assert code in (0, 1)
    assert doc["command"] == verb
    given = {flag[2:]: path for flag, path in zip(argv, argv[1:])
             if path in report_inputs.values()}
    assert given or verb.startswith("build ")
    with_sha = {}
    for name, path in given.items():
        with open(path, "rb") as fh:
            with_sha[name] = {"path": path,
                              "sha256": hashlib.sha256(fh.read()).hexdigest()}
    assert doc["inputs"] == with_sha


# -- search -------------------------------------------------------------------------


def test_search_sublattice_finds_prime_cover(tmp_path, capsys, r22_file):
    out = str(tmp_path / "sub.json")
    code, doc, _ = run(capsys, "search", "sublattice", "--lattice", r22_file,
                       "--goal", "all-prime-cover", "--out", out)
    assert code == 0
    res = doc["result"]
    assert res["found"] is True
    assert res["witness"]["cover_labels"]
    with open(out) as fh:
        assert json.load(fh)["n"] == res["sublattice_size"]


def test_search_sublattice_budget_exit(capsys, r22_file):
    code, doc, _ = run(capsys, "search", "sublattice", "--lattice", r22_file,
                       "--goal", "illdefined", "--budget", "2")
    assert code == 3
    assert doc["error"]["type"] == "SearchBudgetExceeded"
    assert doc["error"]["detail"] == "search node 3 exceeds the search_nodes cap 2"


@pytest.mark.parametrize("goal", ["all-prime-cover", "illdefined"])
def test_search_sublattice_cap_exit(capsys, monkeypatch, r22_file, goal):
    # the closure of seed (0, 1) has two irreducibles: past max_ji = 1, its
    # extraction raises rather than the seed being skipped
    from rellat import cli

    monkeypatch.setattr(cli, "DEFAULT_CAPS",
                        dataclasses.replace(DEFAULT_CAPS, max_ji=1))
    code, doc, _ = run(capsys, "search", "sublattice", "--lattice", r22_file,
                       "--goal", goal, "--max-seed", "2")
    assert code == 3
    assert doc["error"]["type"] == "CoverEnumerationCapExceeded"


def test_search_sublattice_not_found(tmp_path, capsys):
    path = str(tmp_path / "r11.json")
    run(capsys, "build", "rel", "--attrs", "1", "--dom", "1", "--out", path)
    code, doc, _ = run(capsys, "search", "sublattice", "--lattice", path,
                       "--goal", "illdefined")
    assert code == 1
    assert doc["result"]["found"] is False


def test_search_pmorphism(tmp_path, capsys):
    prod = str(tmp_path / "prod.json")
    two = str(tmp_path / "two.json")
    bad = str(tmp_path / "bad.json")
    run(capsys, "build", "product", "--components", "2", "--n", "2",
        "--out", prod)
    run(capsys, "build", "frame", "--rels", "0,0;0,0", "--out", two)
    run(capsys, "build", "frame", "--rels", "0,0,1;0,1,0", "--out", bad)
    assert run(capsys, "search", "pmorphism", "--src", prod,
               "--dst", two)[0] == 0
    assert run(capsys, "search", "pmorphism", "--src", prod,
               "--dst", bad)[0] == 1


def test_search_pmorphism_from_long_source(tmp_path, capsys):
    # 1,100 worlds: one stack entry each, no deep recursion
    src = str(tmp_path / "long.json")
    one = str(tmp_path / "one.json")
    run(capsys, "build", "frame", "--rels", ",".join(["0"] * 1100),
        "--out", src)
    run(capsys, "build", "frame", "--rels", "0", "--out", one)
    code, doc, _ = run(capsys, "search", "pmorphism", "--src", src,
                       "--dst", one)
    assert code == 0
    assert doc["result"]["mapping"] == [0] * 1100


def test_search_embedding(tmp_path, capsys, r22_file):
    n5path = str(tmp_path / "n5.json")
    with open(n5path, "w") as fh:
        json.dump(lattice_to_json(pentagon_n5()), fh)
    code, doc, _ = run(capsys, "search", "embedding", "--lattice", n5path,
                       "--into", r22_file)
    assert code == 0
    assert len(doc["result"]["mapping"]) == 5


@pytest.mark.parametrize("max_seed", ["0", "-1"])
def test_search_sublattice_needs_a_seed_size(tmp_path, capsys, max_seed):
    path = str(tmp_path / "r11.json")
    run(capsys, "build", "rel", "--attrs", "1", "--dom", "1", "--out", path)
    code, doc, err = run(capsys, "search", "sublattice", "--lattice", path,
                         "--goal", "illdefined", "--max-seed", max_seed)
    assert code == 2
    assert doc is None
    assert f"--max-seed must be at least 1, not {max_seed}" in err


# -- the JSON writer ---------------------------------------------------------------


def encoder_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def written_text(doc) -> str:
    return b"".join(_json_chunks(doc)).decode("ascii")


def assert_lattice_written_as_encoder(L, path):
    want = encoder_text(lattice_to_json(L))
    doc = lattice_document(L)
    assert written_text(doc) == want
    sha = _dump(doc, str(path))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == want + "\n"
    assert sha == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert json.loads(text) == lattice_to_json(L)


def test_writer_matches_encoder_on_census(tmp_path, small_lattices):
    for L in small_lattices:
        assert_lattice_written_as_encoder(L, tmp_path / "l.json")
        # only a top-level "leq" is an order matrix the writer lays out;
        # below the top level the json module refuses the array
        with pytest.raises(TypeError):
            written_text({"a": [lattice_document(L)]})
        doc = od_graph_to_json(extract_od_graph(L))
        assert written_text(doc) == encoder_text(doc)


def test_writer_matches_encoder_on_frames(tmp_path):
    for f in enumerate_frames(3, 2):
        assert written_text(frame_to_json(f)) == encoder_text(frame_to_json(f))
        assert_lattice_written_as_encoder(l_of_frame(f).lattice,
                                          tmp_path / "f.json")


@pytest.mark.parametrize("attrs, dom", [(1, 1), (2, 3)])
def test_writer_matches_encoder_on_relational(tmp_path, attrs, dom):
    L = build_R(Schema(tuple("ab"[:attrs]), tuple("012"[:dom]))).lattice
    assert_lattice_written_as_encoder(L, tmp_path / "r.json")
    doc = od_graph_to_json(extract_od_graph(L))
    assert written_text(doc) == encoder_text(doc)


def test_writer_matches_encoder_on_countermodel():
    doc = od_graph_to_json(build_countermodel())
    assert written_text(doc) == encoder_text(doc)


AWKWARD = ["", 'a"b', "back\\slash", "new\nline", "tab\t", "\x00", "é", "☃",
           "\U0001d11e", "</script>"]


def test_writer_escapes_labels_and_worlds(tmp_path):
    L = chain(len(AWKWARD))
    L = build_from_leq(L.n, L.leq, labels=AWKWARD)
    assert_lattice_written_as_encoder(L, tmp_path / "c.json")
    f = make_frame(AWKWARD, [[0] * 5 + [1] * 5, list(range(10))])
    assert written_text(frame_to_json(f)) == encoder_text(frame_to_json(f))
    doc = {name: {"label": name, "list": [name, None]} for name in AWKWARD}
    assert written_text(doc) == encoder_text(doc)


JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(JSON_DATA)
def test_writer_matches_encoder_on_any_document(doc):
    assert written_text(doc) == encoder_text(doc)


def test_reports_read_as_encoder_output(tmp_path, capsys, r22_file):
    """Stdout reports, including the exit-3 cap report, are the encoder's
    bytes of themselves."""
    for argv in (["check", "eq", "--lattice", r22_file, "--eq", "Dist"],
                 ["check", "eq", "--lattice", r22_file, "--eq", "RL1",
                  "--budget", "5"],
                 ["build", "frame", "--rels", "0,0,1;0,1,0", "--worlds", 'a,b"q,é',
                  "--out", str(tmp_path / "f.json")]):
        main(argv)
        out = capsys.readouterr().out
        assert out == encoder_text(json.loads(out)) + "\n"


def test_lattices_with_and_without_labels_are_encoder_text(tmp_path):
    L = chain(5)
    assert_lattice_written_as_encoder(L, tmp_path / "l.json")
    assert_lattice_written_as_encoder(
        build_from_leq(L.n, L.leq, labels=None), tmp_path / "u.json")


def test_labels_cannot_fake_the_order_line(tmp_path):
    """Labels holding the line the writer splits at, a quote, a newline
    and a non-ASCII letter are escaped by the json module, so the order
    matrix still goes where the top-level "leq" is, and the file reads
    back to the same lattice."""
    labels = ['"leq": null', '\n  "leq": null', 'a"b', "new\nline", "é"]
    L = build_from_leq(5, chain(5).leq, labels=labels)
    path = tmp_path / "l.json"
    assert_lattice_written_as_encoder(L, path)
    _same_lattice(_load_lattice(str(path), DEFAULT_CAPS), L)


def test_cli_documents_are_encoder_text(tmp_path, capsys):
    """Every kind of file the command line writes, and its reports (an
    exit-3 report among them), are the encoder's bytes of themselves."""
    out = {name: str(tmp_path / f"{name}.json")
           for name in ("lattice", "graph", "frame", "stats", "extracted")}
    for argv in (["build", "rel", "--attrs", "2", "--dom", "2",
                  "--out", out["lattice"]],
                 ["build", "countermodel", "--graph", "--out", out["graph"]],
                 ["build", "frame", "--rels", "0,0,1;0,1,0", "--worlds",
                  'a,b"q,é', "--out", out["frame"]],
                 ["--stats", out["stats"], "odgraph", "extract", "--lattice",
                  out["lattice"], "--out", out["extracted"]],
                 ["check", "eq", "--lattice", out["lattice"], "--eq", "RL1",
                  "--budget", "5"]):
        main(argv)
        text = capsys.readouterr().out
        assert text == encoder_text(json.loads(text)) + "\n"
    assert json.loads(text)["error"]["type"] == "BudgetExceeded"
    for path in out.values():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == encoder_text(json.loads(text)) + "\n"


# -- the lattice reader ------------------------------------------------------------


def _diamond(k: int, labels: bool):
    """M_k: bottom 0, atoms 1..k, top k + 1."""
    n = k + 2
    leq = np.array([[a == b or a == 0 or b == n - 1 for b in range(n)]
                    for a in range(n)])
    return build_from_leq(n, leq, labels=[f"e{i}" for i in range(n)]
                          if labels else None)


def _same_lattice(L1, L2):
    assert (L1.n, L1.bottom, L1.top, L1.labels) == \
        (L2.n, L2.bottom, L2.top, L2.labels)
    for field in ("leq", "meet", "join", "lo", "hi"):
        a, b = getattr(L1, field), getattr(L2, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def _assert_read_directly(text: str) -> dict:
    """The document read from text without the json module, which must
    match the json module's reading of it."""
    doc = _direct_lattice_document(io.BytesIO(text.encode("utf-8")))
    assert doc is not None
    want = json.loads(text)
    assert doc["leq"].dtype == bool
    assert np.array_equal(doc["leq"], np.array(want["leq"], dtype=bool))
    assert {**doc, "leq": None} == {**want, "leq": None}
    return doc


@pytest.mark.parametrize("make", [
    lambda: build_R(Schema(("a", "b"), ("0", "1"))).lattice,
    lambda: typed_R(typed_map_from_fibers([4, 2])).lattice,
    lambda: _diamond(11, labels=True),
    lambda: _diamond(11, labels=False),
    lambda: chain(1),
], ids=["R22", "typed42", "M11-labels", "M11", "one-element"])
def test_reader_reads_written_lattices_as_json_does(tmp_path, make):
    L = make()
    path = tmp_path / "l.json"
    _dump(lattice_document(L), str(path))
    text = path.read_text(encoding="utf-8")
    doc = _assert_read_directly(text)
    _same_lattice(lattice_from_json(doc), lattice_from_json(json.loads(text)))
    with stats.collect() as counters:
        _same_lattice(_load_lattice(str(path), DEFAULT_CAPS), L)
    assert counters == {"lattice_docs_direct": 1, "order_builds": 1}


@st.composite
def random_orders(draw):
    """A random partial order on at most 12 elements, relabelled, with
    labels or without."""
    n = draw(st.integers(1, 12))
    strict = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                            max_size=n * n))).reshape(n, n), 1)
    leq = np.eye(n, dtype=bool) | strict
    for _ in range(n):
        leq = leq | (leq.astype(int) @ leq.astype(int) > 0)
    perm = np.array(draw(st.permutations(range(n))))
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n,
                                       max_size=n))
    return leq[np.ix_(perm, perm)], labels


@settings(max_examples=150, deadline=None)
@given(random_orders())
def test_reader_reads_random_orders_as_json_does(order):
    leq, labels = order
    doc = {"n": len(leq), "leq": leq}
    if labels is not None:
        doc["labels"] = labels
    text = written_text(doc)
    read = _assert_read_directly(text)
    try:
        want = lattice_from_json(json.loads(text))
    except RellatError as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            lattice_from_json(read)
    else:
        _same_lattice(lattice_from_json(read), want)


def _other_rows(text: str) -> str:
    """The rows of the dual of the document's order, laid out as the writer
    lays out a top-level matrix."""
    leq = np.array(json.loads(text)["leq"], dtype=bool).T
    return b"".join(_order_chunks(leq)).decode("ascii")


def _row_start(text: str, row: int) -> int:
    """Where the given row of the document's leq starts."""
    at = text.index('"leq": [')
    for _ in range(row + 1):
        at = text.index("\n    [", at + 1)
    return at


def _replace_in_row(text: str, row: int, old: str, new: str) -> str:
    """text with the first `old` in the given row of leq replaced."""
    i = text.index(old, _row_start(text, row))
    return text[:i] + new + text[i + len(old):]


# Each variant of a written document (N5 with labels) is read through the
# json module; its answer or error is the json module's.
READER_FALLBACKS = {
    "compact": lambda t: json.dumps(json.loads(t), separators=(",", ":")),
    "true-false": lambda t: json.dumps(
        {**json.loads(t), "leq": [[bool(c) for c in row]
                                  for row in json.loads(t)["leq"]]},
        indent=2, sort_keys=True),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "extra-space": lambda t: _replace_in_row(t, 2, ",\n", " ,\n"),
    "tab-in-row": lambda t: _replace_in_row(t, 2, "\n      ", "\n     \t"),
    "tab-in-closing": lambda t: t.replace("\n    ]\n  ]", "\n    ]\n \t]"),
    "cell-2": lambda t: _replace_in_row(t, 3, "0", "2"),
    "ragged": lambda t: _replace_in_row(t, 1, ",\n      0", ""),
    "n-disagrees": lambda t: t.replace('"n": 5', '"n": 4'),
    "nested-leq-first": lambda t: t.replace(
        "{\n", '{\n  "a": {"leq": ' + _other_rows(t) + "},\n", 1),
    "nested-leq-and-null": lambda t: t.replace(
        "{\n", '{\n  "a": {"leq": ' + _other_rows(t) + "},\n", 1).replace(
        '\n  "leq": [\n    [', '\n  "leq": null,\n  "x": [\n    [', 1),
    "duplicate-leq-other-first": lambda t: t.replace(
        '\n  "leq": ', '\n  "leq": ' + _other_rows(t) + ',\n  "leq": ', 1),
    "duplicate-leq-other-last": lambda t: t.replace(
        '\n  "n": ', '\n  "leq": ' + _other_rows(t) + ',\n  "n": ', 1),
    "list-holding-leq": lambda t: '[\n  {"leq": ' + _other_rows(t)
    + '},\n  "leq"\n]',
    "bom": lambda t: "\ufeff" + t,
    "cut-in-rows": lambda t: t[:_row_start(t, 2) + 20],
    "cut-after-rows": lambda t: t[:t.index("\n    ]\n  ]") + 10],
}


@pytest.mark.parametrize("name", list(READER_FALLBACKS))
def test_reader_falls_back_to_json(tmp_path, capsys, name):
    written = written_text(lattice_document(pentagon_n5())) + "\n"
    text = READER_FALLBACKS[name](written)
    path = tmp_path / "l.json"
    path.write_bytes(text.encode("utf-8"))
    assert _direct_lattice_document(io.BytesIO(path.read_bytes())) is None
    argv = ["check", "eq", "--eq", "Dist", "--lattice", str(path)]
    stats_path = str(tmp_path / "stats.json")
    code, report, err = run(capsys, "--stats", stats_path, *argv)
    with open(stats_path) as fh:
        assert json.load(fh).get("lattice_docs_parsed") == 1
    # the answer or error the json module's document gives
    with open(path, encoding="utf-8") as fh:
        try:
            want = lattice_from_json(json.load(fh))
        except ValueError as e:
            assert (code, report) == (2, None)
            assert err == f"error: {path} is not a JSON document: {e}\n"
            return
        except RellatError as e:
            assert (code, report, err) == (2, None, f"error: {e}\n")
            return
    got = lattice_from_json(_lattice_document(str(path)))
    _same_lattice(got, want)
    assert code == (0 if report["result"]["verdict"] == "holds" else 1)


def test_reader_holds_less_than_the_file(tmp_path):
    """The rows are read a block at a time, so reading typed 5,2's 10 MB
    document (1,062 elements) peaks below the file's size: the order
    matrix, one block of rows and the rest of the document."""
    path = tmp_path / "t52.json"
    _dump(lattice_document(typed_R(typed_map_from_fibers([5, 2])).lattice),
          str(path))
    tracemalloc.start()
    try:
        doc = _lattice_document(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["n"] == 1062 and doc["leq"].shape == (1062, 1062)
    assert peak < path.stat().st_size


def test_reader_refuses_rows_the_file_cannot_hold():
    """A first row of 20,000 cells and no other: the file cannot hold
    20,000 such rows, so the reader gives up before it makes a 400 MB
    matrix, as the whole-file reader did."""
    row = ",\n      ".join("0" * 20_000)
    text = '{\n  "leq": [\n    [\n      ' + row + '\n    ]\n  ],\n  "n": 20000\n}\n'
    tracemalloc.start()
    try:
        assert _direct_lattice_document(io.BytesIO(text.encode("ascii"))) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _cut_rows(text: str, rows: int) -> str:
    """The document with only its first `rows` rows of leq, the rest of it
    kept, so its rows end before the cell count says."""
    end = _row_start(text, rows)
    return text[:end - 1] + text[text.index("\n  ]", end):]


# Variants of R(2,2)'s document (26 rows of 246 bytes) read in blocks of 4
# rows: each falls back to the json module, and its answer or error is the
# json module's.
BLOCK_FALLBACKS = {
    "rows-end-mid-block": lambda t: _cut_rows(t, 6),
    "rows-end-at-a-block": lambda t: _cut_rows(t, 8),
    "cut-in-a-later-block": lambda t: t[:_row_start(t, 9) + 100],
    "cut-in-a-record-end": lambda t: t[:_row_start(t, 13) + 243],
    "cut-after-a-block": lambda t: t[:_row_start(t, 12)],
    "cell-2-in-the-last-block": lambda t: _replace_in_row(t, 25, "0", "2"),
}


@pytest.mark.parametrize("name", list(BLOCK_FALLBACKS))
def test_reader_falls_back_between_blocks(tmp_path, capsys, monkeypatch,
                                           r22_file, name):
    monkeypatch.setattr(lattice, "_BLOCK", 1000)
    assert lattice._row_blocks(26, 9 * 26 + 12)[:2] == [(0, 4), (4, 8)]
    with open(r22_file, encoding="utf-8") as fh:
        written = fh.read()
    doc = _assert_read_directly(written)
    _same_lattice(lattice_from_json(doc), _load_lattice(r22_file, DEFAULT_CAPS))
    path = tmp_path / "l.json"
    path.write_bytes(BLOCK_FALLBACKS[name](written).encode("utf-8"))
    assert _direct_lattice_document(io.BytesIO(path.read_bytes())) is None
    stats_path = str(tmp_path / "stats.json")
    code, report, err = run(capsys, "--stats", stats_path, "check", "eq",
                            "--eq", "Dist", "--lattice", str(path))
    with open(stats_path) as fh:
        assert json.load(fh).get("lattice_docs_parsed") == 1
    with open(path, encoding="utf-8") as fh:
        try:
            lattice_from_json(json.load(fh))
        except ValueError as e:
            assert (code, report) == (2, None)
            assert err == f"error: {path} is not a JSON document: {e}\n"
        except RellatError as e:
            assert (code, report, err) == (2, None, f"error: {e}\n")
        else:
            raise AssertionError(f"{name} reads as a lattice")


def test_stats_count_searches_and_reads_beside_identical_output(tmp_path,
                                                                 capsys,
                                                                 r22_file):
    prod, two = str(tmp_path / "prod.json"), str(tmp_path / "two.json")
    assert main(["build", "product", "--components", "2", "--n", "2",
                 "--out", prod]) == 0
    assert main(["build", "frame", "--rels", "0,0;0,1", "--out", two]) == 0
    capsys.readouterr()
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH))
    stats_path = tmp_path / "stats.json"
    # the identity of R(2,2) is found in one node per generator, 7 in all,
    # and builds 33 filter rows
    for argv, keys, pinned in (
            (["check", "iso", "--lattice", r22_file, "--other", r22_file],
             {"lattice_docs_direct", "order_builds", "search_nodes",
              "search_rows"}, {"search_nodes": 7, "search_rows": 33}),
            (["search", "pmorphism", "--src", prod, "--dst", two],
             {"pmorphism_nodes"}, {}),
            (["odgraph", "extract", "--lattice", r22_file, "--out", "OUT"],
             {"lattice_docs_direct", "order_builds", "subset_entries"}, {}),
            (["odgraph", "props", "--odgraph", str(graph)],
             {"subset_entries"}, {})):
        plain_out, counted_out = tmp_path / "plain.json", tmp_path / "counted.json"
        assert main([str(plain_out) if a == "OUT" else a for a in argv]) in (0, 1)
        plain = capsys.readouterr().out
        assert main(["--stats", str(stats_path)]
                    + [str(counted_out) if a == "OUT" else a for a in argv]) in (0, 1)
        assert capsys.readouterr().out == plain.replace(str(plain_out),
                                                        str(counted_out))
        if "OUT" in argv:
            assert plain_out.read_bytes() == counted_out.read_bytes()
        counters = json.loads(stats_path.read_text())
        assert counters.keys() == keys and all(v > 0 for v in counters.values())
        assert counters.items() >= pinned.items()


@pytest.mark.parametrize("attrs, dom, digest", [
    (1, 2, "691b141fd58c7b3e5df1747db606cb28d1bdca8d3798a406c69b684786006139"),
    (2, 2, "ec07dcb528010680c63dcc0f3ecd1f728fe7e4c5d6dcf223b81f4451de5376a5"),
    (2, 3, "2facf95387cf9a055630c8c39d808f60dfbf31372d045b74c72162544cd6b32b"),
    (3, 2, "d472e333b0c73ba0e3a0d0c62fc36c787c5f5f1da1f102ed9ecd6b6b41a660a3"),
])
def test_build_rel_files_are_pinned(tmp_path, capsys, attrs, dom, digest):
    """build rel writes the bytes it wrote when it validated its order
    matrix, from one closure build and no order build."""
    out, stats_path = tmp_path / "r.json", tmp_path / "stats.json"
    assert main(["--stats", str(stats_path), "build", "rel", "--attrs",
                 str(attrs), "--dom", str(dom), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    counters = json.loads(stats_path.read_text())
    assert counters["closure_builds"] == 1 and "order_builds" not in counters
    assert "subset_entries" not in counters


def test_stats_count_closure_and_order_builds(tmp_path, capsys):
    """A typed build is one closure build and no order build; check nation
    reloads the file (an order build) and builds no other lattice and
    searches nothing. Counting changes no output byte."""
    plain, counted = tmp_path / "plain.json", tmp_path / "counted.json"
    stats_path = tmp_path / "stats.json"
    assert main(["build", "typed", "--fibers", "4,2", "--out", str(plain)]) == 0
    out = capsys.readouterr().out
    assert main(["--stats", str(stats_path), "build", "typed", "--fibers",
                 "4,2", "--out", str(counted)]) == 0
    assert capsys.readouterr().out == out.replace(str(plain), str(counted))
    assert plain.read_bytes() == counted.read_bytes()
    counters = json.loads(stats_path.read_text())
    assert counters["closure_builds"] == 1 and "order_builds" not in counters
    assert "subset_entries" not in counters
    argv = ["check", "nation", "--lattice", str(plain)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(["--stats", str(stats_path)] + argv) == 0
    assert capsys.readouterr().out == out
    counters = json.loads(stats_path.read_text())
    assert counters["order_builds"] == 1
    assert "closure_builds" not in counters and "search_nodes" not in counters
