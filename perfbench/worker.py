"""One pass of one workload in a fresh process; run.py starts it.

Prints one JSON line: set-up time (from the spawn time run.py passes in to
the first timed query), wall and CPU time of the measured phase (CPU
includes reaped child processes such as the `check eq` worker pool), peak
RSS of this process plus its largest child, query counts, correctness
problems and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload census --seed 0 --spawned <t>
    python3 perfbench/worker.py --workload census --record

`--record` runs the pass with the recursion limit raised and writes the
digests of its seed-independent outputs to refs.json. Under that limit the
one query the seed commit fails (`check nation` on typed 5,2) returns the
round-trip verdict the paper fixes, which becomes its reference.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import rellat as R  # noqa: E402
from rellat.relational import RLattice, SdLattice  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def encode(obj):
    """Plain JSON data for any output a query returns."""
    if isinstance(obj, R.FiniteLattice):
        return R.lattice_to_json(obj)
    if isinstance(obj, R.ODGraph):
        return R.od_graph_to_json(obj)
    if isinstance(obj, (SdLattice, RLattice)):
        return {"lattice": encode(obj.lattice), "elems": encode(obj.elems)}
    if dataclasses.is_dataclass(obj):
        return encode(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def digest(obj) -> str:
    text = json.dumps(encode(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _compare(client, refs: dict) -> list[str]:
    problems = []
    for name, want in refs.items():
        if name in client.failed:
            continue
        if name not in client.outputs:
            problems.append(f"{name}: not attempted")
        elif digest(client.outputs[name]) != want:
            problems.append(f"{name}: output differs from the reference")
    extra = set(client.outputs) - set(refs) - client.seeded
    problems += [f"{name}: no reference" for name in sorted(extra)]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, default=None,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    setup, run, check = workloads.WORKLOADS[args.workload]
    refs = {}
    if not args.record:
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)[args.workload]
    home = os.getcwd()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        fx = setup(args.seed, workdir)
        setup_s = time.monotonic() - spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.record:
            sys.setrecursionlimit(100_000)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        client = workloads.Client(tracer)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        run(client, fx)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu() - cpu0
        peak = _peak_rss_mb()
        layers = tracer.metrics(wall_s) if tracer is not None else None
        problems = check(client, fx)
        if args.record:
            return _record(args.workload, client, problems)
        problems += _compare(client, refs)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak, "attempted": client.attempted,
        "failed": sorted(set(client.failed) | {p.split(":")[0] for p in problems}),
        "errors": client.failed, "problems": problems,
    }
    if tracer is not None:
        result["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


def _record(workload: str, client, problems: list[str]) -> int:
    if client.failed or problems:
        print(json.dumps({"failed": client.failed, "problems": problems}),
              file=sys.stderr)
        return 1
    refs = {}
    if os.path.exists(REFS):
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    refs[workload] = {name: digest(out) for name, out in client.outputs.items()
                      if name not in client.seeded}
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(refs[workload])} references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
