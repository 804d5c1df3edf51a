"""Command-line behavior: exit codes, report shape, reproducibility."""
from __future__ import annotations

import json

import pytest

from rellat import lattice_to_json
from rellat.cli import main
from conftest import pentagon_n5


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
    code, doc, _ = run(capsys, "odgraph", "props", "--odgraph", gpath,
                       "--lattice", r22_file)
    assert code == 0
    assert all(v["holds"] for v in doc["result"]["properties"].values())


def test_odgraph_props_failure_exit(capsys, cm_files):
    _, gr = cm_files
    code, doc, _ = run(capsys, "odgraph", "props", "--odgraph", gr)
    assert code == 1
    props = doc["result"]["properties"]
    assert props["exactly-one-nonjp"]["holds"] is False
    assert props["exactly-one-nonjp"]["witness"]["element_label"] == "k0"
    assert props["pi-VarRL1"]["holds"] is True


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


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "nation", "--lattice", "/nope.json")
    assert code == 2
    assert "error" in err


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "rel", "--attrs", "2"])
    assert exc.value.code == 2


def test_jobs_flag_is_gone(capsys, r22_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "eq", "--eq", "RL1", "--lattice", r22_file,
              "--jobs", "2"])
    assert exc.value.code == 2


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
