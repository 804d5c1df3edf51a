"""The three workloads, their fixtures and their seed-dependent checks.

Each workload is a closed loop: one process asks the next query only after
the previous one returned. `Client.ask` runs one query; a query that raises
counts as failed and its output is missing. Outputs are kept and checked
after the timed phase: seed-independent outputs against digests recorded
at the seed commit (refs.json), seeded ones by `check_*` below.

Library calls go through module attributes at call time (`R.extract_od_graph`,
`cli.main`), so the wrappers a traced pass installs are the ones called.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import rellat as R
from rellat import cli
from rellat.odgraph import PROPERTY_IDS

FAILED = object()

SAMPLES = 10**6          # default --samples of `rellat check eq`
RANDOM_DRAWS = 8         # seeded random lattices in census
RANDOM_MAX_SIZE = 5      # keeps each drawn Unjp scan at most 5^8 valuations


class Client:
    """The closed-loop client: asks one query at a time, counts failures
    and keeps outputs for the checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.outputs: dict[str, object] = {}
        self.seeded: set[str] = set()

    def ask(self, name: str, fn, *args, seeded: bool = False, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.qid = self.attempted
        if seeded:
            self.seeded.add(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # any raise is a failed query, counted below
            self.failed[name] = f"{type(e).__name__}: {e}"
            return FAILED
        self.outputs[name] = out
        return out


def _scan_problems(name: str, L, inc, res) -> list[str]:
    """The exhaustive contract: exact counts, a genuine lex-least witness."""
    k = len(inc.variables)
    if res.verdict == "holds":
        return [] if res.evaluations == L.n ** k else [f"{name}: count"]
    if res.verdict != "counterexample" or not R.verify_witness(L, inc, res.witness):
        return [f"{name}: witness does not fail the inclusion"]
    rank = 0
    for var in inc.variables:
        rank = rank * L.n + res.witness[var]
    return [] if res.evaluations == rank + 1 else [f"{name}: count"]


# -- census ------------------------------------------------------------------


def setup_census(seed: int, workdir: str) -> dict:
    return {"seed": seed}


def run_census(s: Client, fx: dict) -> None:
    lattices = s.ask("lattgen", R.all_lattices_upto, 7)
    if lattices is FAILED:
        return
    fx["lattices"] = [(f"L{i}", L) for i, L in enumerate(lattices)]
    for i in range(RANDOM_DRAWS):
        L = s.ask(f"rand{i}/lattice", R.random_lattice,
                  fx["seed"] * RANDOM_DRAWS + i, max_size=RANDOM_MAX_SIZE,
                  seeded=True)
        if L is not FAILED:
            fx["lattices"].append((f"rand{i}", L))
    for key, L in fx["lattices"]:
        seeded = key.startswith("rand")
        g = s.ask(f"{key}/extract", R.extract_od_graph, L, seeded=seeded)
        if g is FAILED:
            continue
        for p in PROPERTY_IDS:
            s.ask(f"{key}/prop/{p}", R.check_property, g, p, seeded=seeded)
    for key, L in fx["lattices"]:
        if L.n > 6:
            continue
        for law in R.CATALOG:
            s.ask(f"{key}/eq/{law}", R.check_inclusion, L, R.CATALOG[law],
                  seeded=key.startswith("rand"))


def check_census(s: Client, fx: dict) -> list[str]:
    problems = []
    for key, L in fx.get("lattices", []):
        for law in R.CATALOG:
            res = s.outputs.get(f"{key}/eq/{law}")
            if res is not None:
                problems += _scan_problems(f"{key}/eq/{law}", L, R.CATALOG[law], res)
        scan = s.outputs.get(f"{key}/eq/Unjp")
        prop = f"{key}/prop/unjp"
        if scan is not None and prop in s.outputs:
            if (scan.verdict == "holds") != (s.outputs[prop] is None):
                problems.append(f"{key}/eq/Unjp: scan and unjp property disagree")
    return problems


# -- chain -------------------------------------------------------------------


def _m11_json() -> dict:
    """The diamond M_11: bottom 0, atoms 1..11, top 12."""
    n = 13
    leq = [[int(a == b or a == 0 or b == n - 1) for b in range(n)]
           for a in range(n)]
    return {"leq": leq, "n": n}


def setup_chain(seed: int, workdir: str) -> dict:
    os.makedirs(workdir)
    os.chdir(workdir)
    with open("m11.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_m11_json(), indent=2, sort_keys=True) + "\n")
    return {"seed": seed}


def _cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """One CLI invocation; exit codes other than a verdict are failures."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    if code not in (0, 1):
        raise RuntimeError(f"exit code {code} where a verdict was expected")
    if tracer is not None:
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        tracer.add("cli.json_bytes", len(out.getvalue().encode())
                   + (os.path.getsize(written) if written else 0))
    return code, out.getvalue()


def _chain_queries(seed: int) -> list[tuple[str, bool]]:
    fixed = [
        "build rel --attrs 2 --dom 3 --out r23.json",
        "build closure --attrs 2 --dom 3 --out c23.json",
        "build typed --fibers 5,2 --out t52.json",
        "build typed --fibers 4,2 --out t42.json",
        "build countermodel --out cm.json",
        "odgraph extract --lattice r23.json --out g23.json",
        "odgraph extract --lattice m11.json --out g11.json",
        "odgraph props --odgraph g23.json",
        "odgraph props --odgraph g11.json",
        "check iso --lattice r23.json --other c23.json",
        "check nation --lattice t52.json",
        "check eq --lattice t42.json --eq RL1",
        "check eq --lattice t42.json --eq SymPC",
    ]
    seeded = [
        f"check eq --lattice cm.json --eq RL2 --mode sample --seed {seed}",
        f"check eq --lattice t42.json --eq Unjp --mode sample --seed {seed}",
    ]
    return [(q, False) for q in fixed] + [(q, True) for q in seeded]


def run_chain(s: Client, fx: dict) -> None:
    fx["queries"] = _chain_queries(fx["seed"])
    for line, seeded in fx["queries"]:
        s.ask(line, _cli, line.split(), s.tracer, seeded=seeded)


# Facts fixed at the seed commit for the seeded scans: typed 4,2 satisfies
# the unjp cover property, so no valuation can fail Unjp there; RL2 on the
# countermodel may go either way, so only a reported witness is checked.
_SAMPLE_MUST_HOLD = {"t42.json": True, "cm.json": False}


def check_chain(s: Client, fx: dict) -> list[str]:
    problems = []
    for line, seeded in fx.get("queries", []):
        if not seeded or line not in s.outputs:
            continue
        code, text = s.outputs[line]
        argv = line.split()
        path = argv[argv.index("--lattice") + 1]
        report = json.loads(text)
        res, evaluations = report["result"], report["evaluations"]
        if res["verdict"] == "no_counterexample_found":
            if code != 0 or evaluations != SAMPLES:
                problems.append(f"{line}: bad exit code or count")
            continue
        if _SAMPLE_MUST_HOLD[path]:
            problems.append(f"{line}: counterexample to a law that holds")
            continue
        with open(path, encoding="utf-8") as fh:
            L = R.lattice_from_json(json.load(fh))
        witness = {v: d["index"] for v, d in res["witness"].items()}
        inc = R.CATALOG[argv[argv.index("--eq") + 1]]
        if code != 1 or evaluations > SAMPLES or not R.verify_witness(L, inc, witness):
            problems.append(f"{line}: witness does not fail the inclusion")
    return problems


# -- frames ------------------------------------------------------------------


def _full_initial(n_worlds: int) -> list:
    return [f for f in R.enumerate_frames(n_worlds, 2)
            if all(R.frame_queries(f).values())]


def setup_frames(seed: int, workdir: str) -> dict:
    return {
        "w3": [f for n in (1, 2, 3) for f in _full_initial(n)],
        "w4": _full_initial(4),
        "p22": R.universal_product(["0", "1"], 2),
        "p33": R.universal_product(["0", "1", "2"], 2),
        "r22": R.build_R(R.Schema(("a", "b"), ("0", "1"))).lattice,
    }


def run_frames(s: Client, fx: dict) -> None:
    for i, f in enumerate(fx["w3"]):
        s.ask(f"w3/{i}/pmorphism", R.p_morphism_search, fx["p22"], f)
        sd = s.ask(f"w3/{i}/lattice", R.l_of_frame, f)
        if sd is not FAILED:
            s.ask(f"w3/{i}/embedding", R.find_embedding, sd.lattice, fx["r22"])
    for i, f in enumerate(fx["w4"]):
        s.ask(f"w4/{i}/s5", R.is_s5n_frame, f)
        s.ask(f"w4/{i}/lattice", R.l_of_frame, f)
        s.ask(f"w4/{i}/pmorphism", R.p_morphism_search, fx["p33"], f)


def check_frames(s: Client, fx: dict) -> list[str]:
    problems = []
    for i in range(len(fx["w3"])):
        pm, emb = f"w3/{i}/pmorphism", f"w3/{i}/embedding"
        if pm in s.outputs and emb in s.outputs:
            if (s.outputs[pm] is None) != (s.outputs[emb] is None):
                problems.append(f"{emb}: p-morphism and embedding disagree")
    return problems


WORKLOADS = {
    "census": (setup_census, run_census, check_census),
    "chain": (setup_chain, run_chain, check_chain),
    "frames": (setup_frames, run_frames, check_frames),
}
