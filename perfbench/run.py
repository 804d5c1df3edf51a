"""rellat benchmark: census, chain and frames workloads.

    python3 perfbench/run.py --workload census --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Each pass runs one workload in a fresh
process (perfbench/worker.py), so set-up is measured every pass; passes
repeat until --seconds of passes have run, and every metric is the median
over the passes. Extra set-up-only processes make at least five set-up
samples per run. With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and it reports
the per-layer metrics, including the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a readable table.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracing import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "chain", "frames")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0       # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answered_ratio": "ratio",
}


class PassFailed(Exception):
    pass


def _spawn(args, extra: list[str], started: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise PassFailed("out of time")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("pass did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rellat", "__init__.py")):
        print("error: no rellat sources at src/rellat; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        _spawn(args, ["--setup-only"], started)   # warm the bytecode cache
        plain, traced = [], []
        while True:
            plain.append(_spawn(args, [], started))
            if args.trace:
                traced.append(_spawn(args, ["--trace", "1"], started))
            if time.monotonic() - started >= args.seconds:
                break
        passes = plain + traced
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, ["--setup-only"], started)["setup_s"])
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    problems = sorted({q for p in passes for q in p["problems"]})
    errors = {}
    for p in passes:
        errors.update(p["errors"])
    if args.trace:
        layers = {k: statistics.median([p["layers"][k] for p in traced])
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median([p["wall_s"] for p in traced])
                                      - statistics.median([p["wall_s"] for p in plain]))
        metrics = {k: {"value": layers[k], "unit": UNITS[k]} for k in UNITS}
    else:
        values = {
            "wall_s": statistics.median([p["wall_s"] for p in plain]),
            "cpu_s": statistics.median([p["cpu_s"] for p in plain]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
            "answered_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes, {len(setups)} set-up samples")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:16.6f} {m['unit']}")
    print(f"  {'failed_ratio':36s} {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} queries)")
    for name, err in sorted(errors.items()):
        print(f"  failed: {name}: {err}")
    for problem in problems:
        print(f"  incorrect: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
