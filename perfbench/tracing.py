"""Span tracing from outside the package.

`Tracer.install` replaces the public functions listed in WRAPPED with
wrappers that record one span per call: query id, function, layer, start,
end, parent span, the CPU time of reaped child processes during the call,
and work counts read from the arguments and the return value. Nothing under
`src/` changes; every `rellat` module that bound the original function gets
the wrapper, so calls between modules are seen too.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans. Summed over all layers it equals the time
spent inside wrapped calls; the rest of the measured phase is reported as
`trace.unwrapped_s`.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict


def _lattgen(args, kwargs, result):
    return {"lattices": 1 if hasattr(result, "n") else len(result)}


def _build(args, kwargs, result):
    return {"elements": result.n, "pairs": result.n ** 2}


def _relational(args, kwargs, result):
    if hasattr(result, "lattice"):
        return {"elements": result.lattice.n}
    if hasattr(result, "members"):
        return {"elements": len(result.members)}
    return {}


def _found(args, kwargs, result):
    return {"found": int(result is not None)}


def _extract(args, kwargs, result):
    return {"irreducibles": result.n, "covers": len(result.mjc),
            "subsets": 1 << result.n}


def _reconstruct(args, kwargs, result):
    return {"subsets": 1 << args[0].n}


def _scan(args, kwargs, result):
    L, inc = args[0], args[1]
    return {"evaluations": result.evaluations,
            "space": L.n ** len(inc.variables)}


def _scan_layer(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
    return f"equations.{mode}"


# (module, function, layer, counts as a call, counter). The layer is a name
# or a function of the call's arguments; the counter turns arguments and
# result into work counts. A call that raises is counted as "raised".
WRAPPED = (
    ("rellat.lattgen", "all_lattices_upto", "lattgen", False, _lattgen),
    ("rellat.lattgen", "random_lattice", "lattgen", False, _lattgen),
    ("rellat.lattice", "build_from_leq", "lattice.build", True, _build),
    ("rellat.lattice", "build_from_closed_family", "lattice.build", False, None),
    ("rellat.lattice", "lattice_from_json", "lattice.build", False, None),
    ("rellat.lattice", "find_isomorphism", "lattice.iso", True, None),
    ("rellat.lattice", "find_embedding", "lattice.embed", True, _found),
    ("rellat.relational", "build_R", "relational", False, _relational),
    ("rellat.relational", "closure_system_R", "relational", False, _relational),
    ("rellat.relational", "semidirect", "relational", False, _relational),
    ("rellat.relational", "semidirect_core", "relational", False, _relational),
    ("rellat.relational", "typed_R", "relational", False, _relational),
    ("rellat.odgraph", "extract_od_graph", "odgraph.extract", False, _extract),
    ("rellat.odgraph", "reconstruct", "odgraph.reconstruct", False, _reconstruct),
    ("rellat.odgraph", "check_property", "odgraph.props", True, None),
    ("rellat.equations", "check_inclusion", _scan_layer, True, _scan),
    ("rellat.frames", "p_morphism_search", "frames.pmorphism", True, _found),
    ("rellat.frames", "universal_product", "frames.build", False, None),
    ("rellat.frames", "is_s5n_frame", "frames.build", False, None),
    ("rellat.frames", "l_of_frame", "frames.build", False, None),
    ("rellat.cli", "main", "cli", True, None),
)

# Layers whose counts are taken only at their outermost span, because their
# public functions call each other (typed_R -> semidirect -> semidirect_core).
_OUTERMOST = ("relational",)

# Per-layer metrics reported from a traced pass, with their units.
UNITS = {
    "lattgen.self_s": "s",
    "lattgen.lattices": "count",
    "lattice.build.calls": "count",
    "lattice.build.self_s": "s",
    "lattice.build.elements": "count",
    "lattice.build.pairs_per_s": "1/s",
    "relational.self_s": "s",
    "relational.elements": "count",
    "lattice.iso.calls": "count",
    "lattice.iso.self_s": "s",
    "lattice.iso.failed": "count",
    "lattice.embed.calls": "count",
    "lattice.embed.self_s": "s",
    "lattice.embed.found": "count",
    "odgraph.extract.self_s": "s",
    "odgraph.extract.irreducibles": "count",
    "odgraph.extract.covers": "count",
    "odgraph.extract.subsets": "count",
    "odgraph.reconstruct.self_s": "s",
    "odgraph.reconstruct.subsets": "count",
    "odgraph.props.calls": "count",
    "odgraph.props.self_s": "s",
    "equations.exhaustive.calls": "count",
    "equations.exhaustive.self_s": "s",
    "equations.exhaustive.evaluations": "count",
    "equations.exhaustive.space": "count",
    "equations.exhaustive.evals_per_s": "1/s",
    "equations.exhaustive.child_cpu_s": "s",
    "equations.sample.self_s": "s",
    "equations.sample.evaluations": "count",
    "frames.pmorphism.calls": "count",
    "frames.pmorphism.self_s": "s",
    "frames.pmorphism.found": "count",
    "frames.build.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.json_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unwrapped_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _child_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Tracer:
    """Collects spans in memory; `metrics` folds them into per-layer numbers."""

    def __init__(self):
        # [query id, function, layer, start, end, parent, child cpu, counts]
        self.spans: list[list] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.qid = 0
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, fname, layer, is_call, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, fname)
            wrapper = self._wrap(original, f"{module_name}.{fname}", layer,
                                 is_call, counter)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "rellat" or name.startswith("rellat.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def add(self, metric: str, value: float) -> None:
        """Count work the benchmark measures itself, such as report bytes."""
        self.extra[metric] += value

    def _wrap(self, fn, name, layer, is_call, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.qid, name,
                    layer(args, kwargs) if callable(layer) else layer,
                    0.0, 0.0, stack[-1] if stack else -1, 0.0,
                    {"calls": 1} if is_call else {}]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = _child_cpu()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = time.perf_counter()
                span[7]["raised"] = 1
                raise
            else:
                span[4] = time.perf_counter()
                if counter is not None:
                    span[7].update(counter(args, kwargs, result))
                return result
            finally:
                span[6] = _child_cpu() - cpu0
                stack.pop()

        return traced

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counts for a pass that took wall_s."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[5] >= 0:
                covered[s[5]] += s[4] - s[3]
        out: dict[str, float] = defaultdict(float)
        inside = 0.0
        for i, (_, _, layer, start, end, parent, child_cpu, counts) in enumerate(spans):
            dur = end - start
            out[f"{layer}.self_s"] += dur - covered[i]
            if parent < 0:
                inside += dur
            if layer == "equations.exhaustive":
                out["equations.exhaustive.child_cpu_s"] += child_cpu
            if counts and (layer not in _OUTERMOST
                           or parent < 0 or spans[parent][2] != layer):
                for key, value in counts.items():
                    out[f"{layer}.{key}"] += value
        out["lattice.iso.failed"] = out.get("lattice.iso.raised", 0)
        for key, value in self.extra.items():
            out[key] += value
        out["lattice.build.pairs_per_s"] = _rate(
            out.get("lattice.build.pairs", 0), out.get("lattice.build.self_s", 0))
        out["equations.exhaustive.evals_per_s"] = _rate(
            out.get("equations.exhaustive.evaluations", 0),
            out.get("equations.exhaustive.self_s", 0))
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - inside
        out["trace.spans"] = len(spans)
        self_total = sum(v for k, v in out.items()
                         if k.endswith(".self_s") and not k.startswith("trace."))
        if abs(self_total - inside) > 1e-6 * max(1.0, inside):
            raise RuntimeError(f"layer self times {self_total} do not add up "
                               f"to the {inside} s spent in wrapped calls")
        return {k: float(out.get(k, 0.0)) for k in UNITS if k != "trace.overhead_s"}

    def dump(self, path: str) -> None:
        fields = ("query", "function", "layer", "start", "end", "parent",
                  "child_cpu_s", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
