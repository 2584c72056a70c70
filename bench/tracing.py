"""Spans and per-layer counters recorded from outside tropic.

`Tracer.install` replaces each traced function with a wrapper in every
`tropic` module that bound it (modules import their callees by name, as in
`from .linprog import solve_lp`), and `uninstall` puts the originals back.
A span is (id, parent id, name, job, start s, end s, LPs issued inside).
Spans stay in memory until `dump` writes them out.

Metrics are means per timed job.  `.ms` is inclusive time; `.self_ms`
subtracts the direct child spans.  `.lps` is the number of LPs issued
inside the call, read from `tropic.linprog.lp_call_count()`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "linprog": ["solve_lp"],
    "geometry": ["feasible", "strictly_feasible", "affine_dimension", "recession_profile", "contains"],
    "arrangement": ["build_atoms", "is_simple", "build_poset", "count_regions_bruteforce", "enumerate_cells"],
    "network": ["sample_generic", "parse_network", "serialize_network"],
    "minkowski": ["minkowski_sum", "classify_vertices"],
    "cli": ["main"],
}

# (metric, unit, better); the order is the order of the report.
PER_LAYER: list[tuple[str, str, str]] = [
    ("linprog.solve_lp.calls", "count/job", "lower"),
    ("linprog.solve_lp.ms", "ms/job", "lower"),
    ("linprog.solve_lp.vars_mean", "count", "lower"),
    ("linprog.solve_lp.rows_mean", "count", "lower"),
]
for _fn in TRACED["geometry"]:
    PER_LAYER += [
        (f"geometry.{_fn}.calls", "count/job", "lower"),
        (f"geometry.{_fn}.self_ms", "ms/job", "lower"),
        (f"geometry.{_fn}.lps", "count/job", "lower"),
    ]
for _fn in TRACED["arrangement"]:
    PER_LAYER += [
        (f"arrangement.{_fn}.calls", "count/job", "lower"),
        (f"arrangement.{_fn}.ms", "ms/job", "lower"),
        (f"arrangement.{_fn}.lps", "count/job", "lower"),
    ]
PER_LAYER += [
    ("arrangement.count_regions_bruteforce.useful_ratio", "ratio", "higher"),
    ("arrangement.enumerate_cells.useful_ratio", "ratio", "higher"),
    ("network.sample_generic.calls", "count/job", "lower"),
    ("network.sample_generic.ms", "ms/job", "lower"),
    ("network.sample_generic.lps", "count/job", "lower"),
    ("network.sample_generic.accept_ratio", "ratio", "higher"),
    ("network.parse_network.ms", "ms/job", "lower"),
    ("network.serialize_network.ms", "ms/job", "lower"),
    ("minkowski.minkowski_sum.ms", "ms/job", "lower"),
    ("minkowski.minkowski_sum.points", "count/job", "lower"),
    ("minkowski.classify_vertices.calls", "count/job", "lower"),
    ("minkowski.classify_vertices.ms", "ms/job", "lower"),
    ("minkowski.classify_vertices.lps", "count/job", "lower"),
    ("cli.main.calls", "count/job", "lower"),
    ("cli.main.self_ms", "ms/job", "lower"),
]


class _Span:
    __slots__ = ("id", "parent", "name", "args", "child_s")

    def __init__(self, id, parent, name, args):
        self.id = id
        self.parent = parent
        self.name = name
        self.args = args
        self.child_s = 0.0


class Tracer:
    def __init__(self, lp_count):
        self._lp_count = lp_count
        self._stack: list[_Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self.job = -1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.lps: Counter = Counter()
        self.facts: defaultdict = defaultdict(Counter)

    # -- installation --------------------------------------------------

    def install(self):
        import tropic.cli  # noqa: F401  (loads every traced module)

        modules = [m for k, m in sys.modules.items() if k == "tropic" or k.startswith("tropic.")]
        for short, names in TRACED.items():
            owner = sys.modules[f"tropic.{short}"]
            for fn_name in names:
                orig = getattr(owner, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._originals.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if name == "linprog.solve_lp":
                args = (args[0], args[1], list(args[2])) + args[3:]
            parent = self._stack[-1] if self._stack else None
            span = _Span(len(self.spans), parent, name, args)
            self.spans.append(None)
            self._stack.append(span)
            lp0 = self._lp_count()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                lps = self._lp_count() - lp0
                self._stack.pop()
                self._close(span, t0, t1, lps)
            if observe is not None:
                observe(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span, t0, t1, lps):
        dur = t1 - t0
        name = span.name
        self.calls[name] += 1
        self.self_s[name] += dur - span.child_s
        self.incl_s[name] += dur
        self.lps[name] += lps
        if span.parent is not None:
            span.parent.child_s += dur
        self.spans[span.id] = (
            span.id, span.parent.id if span.parent else None, name, self.job, t0, t1, lps
        )

    # -- per-function observations --------------------------------------

    def _observe_linprog_solve_lp(self, span, args, result):
        self.facts["linprog.solve_lp"]["vars"] += args[0]
        self.facts["linprog.solve_lp"]["rows"] += len(args[2])

    def _observe_geometry_strictly_feasible(self, span, args, result):
        if span.parent is not None:
            self.facts[span.parent.name]["tried"] += 1
            self.facts[span.parent.name]["useful"] += result is not None

    def _observe_arrangement_build_atoms(self, span, args, result):
        parent = span.parent
        if parent is not None and parent.name == "network.sample_generic":
            # The projectivized check builds atoms in one more dimension.
            if args[0].input_dim == parent.args[0]:
                self.facts["network.sample_generic"]["candidates"] += 1

    def _observe_minkowski_minkowski_sum(self, span, args, result):
        self.facts["minkowski.minkowski_sum"]["points"] += len(result.points)

    # -- report -----------------------------------------------------------

    def metrics(self, jobs: int) -> dict[str, float]:
        def per_job(v):
            return v / jobs

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        lp = "linprog.solve_lp"
        out[f"{lp}.calls"] = per_job(self.calls[lp])
        out[f"{lp}.ms"] = per_job(self.incl_s[lp] * 1000)
        out[f"{lp}.vars_mean"] = ratio(self.facts[lp]["vars"], self.calls[lp])
        out[f"{lp}.rows_mean"] = ratio(self.facts[lp]["rows"], self.calls[lp])
        for fn in TRACED["geometry"]:
            name = f"geometry.{fn}"
            out[f"{name}.calls"] = per_job(self.calls[name])
            out[f"{name}.self_ms"] = per_job(self.self_s[name] * 1000)
            out[f"{name}.lps"] = per_job(self.lps[name])
        for fn in TRACED["arrangement"]:
            name = f"arrangement.{fn}"
            out[f"{name}.calls"] = per_job(self.calls[name])
            out[f"{name}.ms"] = per_job(self.incl_s[name] * 1000)
            out[f"{name}.lps"] = per_job(self.lps[name])
        for fn in ("count_regions_bruteforce", "enumerate_cells"):
            f = self.facts[f"arrangement.{fn}"]
            out[f"arrangement.{fn}.useful_ratio"] = ratio(f["useful"], f["tried"])
        sg = "network.sample_generic"
        out[f"{sg}.calls"] = per_job(self.calls[sg])
        out[f"{sg}.ms"] = per_job(self.incl_s[sg] * 1000)
        out[f"{sg}.lps"] = per_job(self.lps[sg])
        out[f"{sg}.accept_ratio"] = ratio(self.calls[sg], self.facts[sg]["candidates"])
        out["network.parse_network.ms"] = per_job(self.incl_s["network.parse_network"] * 1000)
        out["network.serialize_network.ms"] = per_job(self.incl_s["network.serialize_network"] * 1000)
        ms, cv = "minkowski.minkowski_sum", "minkowski.classify_vertices"
        out[f"{ms}.ms"] = per_job(self.incl_s[ms] * 1000)
        out[f"{ms}.points"] = per_job(self.facts[ms]["points"])
        out[f"{cv}.calls"] = per_job(self.calls[cv])
        out[f"{cv}.ms"] = per_job(self.incl_s[cv] * 1000)
        out[f"{cv}.lps"] = per_job(self.lps[cv])
        out["cli.main.calls"] = per_job(self.calls["cli.main"])
        out["cli.main.self_ms"] = per_job(self.self_s["cli.main"] * 1000)
        return out

    def dump(self, path):
        fields = ["id", "parent", "name", "job", "start_s", "end_s", "lps"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
