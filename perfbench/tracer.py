"""Spans and counters around calls into each kpx layer, for the traced run.

Nothing here is imported by an untraced run.  :meth:`Tracer.install` swaps
each traced public function of ``kpx`` (module functions, and the work
methods of ``KGraph``) for a wrapper that records a span: name, start, end
and the span that caused it.  Self time is a span's duration minus the time
its child spans cover; since everything runs on one thread, child spans nest
and never overlap.  :meth:`Tracer.uninstall` puts the originals back.
"""

import importlib
import inspect
import json
import time
import weakref
from array import array

LAYERS = ["cli", "io", "elements", "analysis", "groupoid", "algebra", "boundary", "kgraph", "rings"]

# Accessors that run once per normalisation step are left out, like the
# degrees module: a wrapper there would mostly measure itself.
KGRAPH_METHODS = [
    "validate", "paths_from", "paths_upto", "paths_leq", "all_paths", "paths_at",
    "minimal_common_extensions", "mce", "ext", "exhaustiveness_witness", "is_exhaustive",
    "finite_exhaustive_sets", "compose", "factor", "segment", "vertex_at", "has_prefix",
    "path", "parse_path", "is_acyclic", "has_sources", "is_locally_convex", "predicates",
    "reachable", "max_path_degree",
]

# The per-layer metrics the benchmark reports, by layer.
CALLS_AND_SELF = {
    "kgraph": ["validate", "paths_from", "minimal_common_extensions", "ext",
               "exhaustiveness_witness", "compose", "factor", "all_paths"],
    "boundary": ["enumerate_boundary", "is_boundary_finite"],
    "algebra": ["reduce", "multiply", "is_zero", "grade"],
    "groupoid": ["make_cell", "cell_split", "cell_intersect", "cell_subtract",
                 "func_from_terms", "disjointify", "pi_t", "dim_over_field"],
    "analysis": ["report", "check_aperiodic", "check_cofinal"],
    "io": ["load_graph"],
}
SELF_ONLY = ["elements.parse_element", "elements.parse_cell", "cli.main"]
CALLS_ONLY = ["kgraph.Path.degree", "boundary.orbits", "boundary.lasso", "rings.zero_one"]
RATIOS = [
    "kgraph.minimal_common_extensions.repeat_ratio",
    "kgraph.minimal_common_extensions.empty_ratio",
    "kgraph.paths_from.repeat_ratio",
    "kgraph.exhaustiveness_witness.repeat_ratio",
    "boundary.is_boundary_finite.accept_ratio",
    "groupoid.make_cell.empty_ratio",
    "analysis.unknown_ratio",
]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in CALLS_AND_SELF.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    units["boundary.enumerate_boundary.calls_per_op"] = "count"
    units["algebra.multiply.terms_out"] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.coverage_ratio"] = "ratio"
    return units


def _path_key(p):
    return (p.range, p.edges)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_index = {}
        # span table, 24 bytes a span: name index, start, end, parent span
        # index (-1 = none)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = []  # open spans: [start, child time, span index]
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.root_s = 0.0
        self._seen = {}  # metric -> WeakKeyDictionary(graph -> set of argument keys)
        self._restore = []

    # recording --------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _repeat(self, metric, graph, key):
        seen = self._seen.setdefault(metric, weakref.WeakKeyDictionary())
        keys = seen.setdefault(graph, set())
        if key in keys:
            self._count(metric + ".repeats")
        else:
            keys.add(key)

    def wrap(self, name, fn, observe=None):
        clock = time.perf_counter
        stack = self.stack
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_idx = self._name_index[name]

        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][2] if stack else -1)
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                self.span_start[index] = frame[0]
                self.span_end[index] = end
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # installation -----------------------------------------------------

    def _observers(self):
        def mce(args, result):
            g, lam, mu = args[:3]
            self._repeat("kgraph.minimal_common_extensions", g, (_path_key(lam), _path_key(mu)))
            if not result:
                self._count("kgraph.minimal_common_extensions.empty")

        def paths_from(args, result):
            g, v, n = args[:3]
            self._repeat("kgraph.paths_from", g, (v, tuple(n)))

        def witness(args, result):
            g, v, E = args[:3]
            self._repeat("kgraph.exhaustiveness_witness", g,
                         (v, frozenset(_path_key(p) for p in E)))

        def make_cell(args, result):
            if result is None:
                self._count("groupoid.make_cell.empty")

        def boundary_finite(args, result):
            if result:
                self._count("boundary.is_boundary_finite.accept")

        def multiply(args, result):
            self._count("algebra.multiply.terms_out", len(result))

        def verdict(args, result):
            if result.status == "unknown":
                self._count("analysis.unknown")

        return {
            "kgraph.minimal_common_extensions": mce,
            "kgraph.paths_from": paths_from,
            "kgraph.exhaustiveness_witness": witness,
            "groupoid.make_cell": make_cell,
            "boundary.is_boundary_finite": boundary_finite,
            "algebra.multiply": multiply,
            "analysis.check_aperiodic": verdict,
            "analysis.check_cofinal": verdict,
        }

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        observers = self._observers()
        modules = {layer: importlib.import_module(f"kpx.{layer}") for layer in LAYERS}
        replaced = {}  # original function -> wrapper
        for layer, mod in modules.items():
            if layer in ("kgraph", "rings"):
                continue
            names = ["main"] if layer == "cli" else [
                n for n, f in vars(mod).items()
                if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                replaced[fn] = self.wrap(f"{layer}.{n}", fn, observers.get(f"{layer}.{n}"))
        kgraph, rings = modules["kgraph"], modules["rings"]
        replaced[kgraph.omega_graph] = self.wrap("kgraph.omega_graph", kgraph.omega_graph)
        replaced[rings.parse_ring] = self.wrap("rings.parse_ring", rings.parse_ring)
        # rebind every alias, e.g. ``from .kgraph import omega_graph`` in cli
        for mod in [importlib.import_module("kpx")] + list(modules.values()):
            for n, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(mod, n, replaced[value])

        KGraph = kgraph.KGraph
        for n in KGRAPH_METHODS:
            raw = KGraph.__dict__[n]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"kgraph.{n}", raw.__func__))
            else:
                wrapped = self.wrap(f"kgraph.{n}", raw, observers.get(f"kgraph.{n}"))
            self._set(KGraph, n, wrapped)

        degree = kgraph.Path.__dict__["degree"].fget

        def counted_degree(path):
            self._count("kgraph.Path.degree.calls")
            return degree(path)

        self._set(kgraph.Path, "degree", property(counted_degree))
        for n in ("zero", "one"):
            getter = rings.Ring.__dict__[n].fget
            self._set(rings.Ring, n, property(self.wrap("rings.zero_one", getter)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # results ----------------------------------------------------------

    def metrics(self, op_count, op_seconds):
        """The per-layer metrics of everything recorded so far, except the
        overhead ratio, which needs the untraced run."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer, names in CALLS_AND_SELF.items():
            for n in names:
                out[f"{layer}.{n}.calls"] = calls.get(f"{layer}.{n}", 0)
                out[f"{layer}.{n}.self_s"] = self_s.get(f"{layer}.{n}", 0.0)
        for n in SELF_ONLY:
            out[f"{n}.self_s"] = self_s.get(n, 0.0)
        out["kgraph.Path.degree.calls"] = counts.get("kgraph.Path.degree.calls", 0)
        for n in ("boundary.orbits", "boundary.lasso", "rings.zero_one"):
            out[f"{n}.calls"] = calls.get(n, 0)
        out["boundary.enumerate_boundary.calls_per_op"] = ratio(
            calls.get("boundary.enumerate_boundary", 0), op_count)
        out["algebra.multiply.terms_out"] = counts.get("algebra.multiply.terms_out", 0)
        for n in ("kgraph.minimal_common_extensions", "kgraph.paths_from",
                  "kgraph.exhaustiveness_witness"):
            out[f"{n}.repeat_ratio"] = ratio(counts.get(f"{n}.repeats", 0), calls.get(n, 0))
        out["kgraph.minimal_common_extensions.empty_ratio"] = ratio(
            counts.get("kgraph.minimal_common_extensions.empty", 0),
            calls.get("kgraph.minimal_common_extensions", 0))
        out["boundary.is_boundary_finite.accept_ratio"] = ratio(
            counts.get("boundary.is_boundary_finite.accept", 0),
            calls.get("boundary.is_boundary_finite", 0))
        out["groupoid.make_cell.empty_ratio"] = ratio(
            counts.get("groupoid.make_cell.empty", 0), calls.get("groupoid.make_cell", 0))
        out["analysis.unknown_ratio"] = ratio(
            counts.get("analysis.unknown", 0),
            calls.get("analysis.check_aperiodic", 0) + calls.get("analysis.check_cofinal", 0))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
        out["trace.coverage_ratio"] = ratio(self.root_s, op_seconds)
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON: a name table and one
        [name, start, end, parent] row per span, times in seconds.  The rows
        are written one at a time, so that no copy of the table is built."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names":' + json.dumps(self.names) + ',"spans":[')
            for i in range(len(self.span_start)):
                fh.write(f'{"," if i else ""}[{self.span_name[i]},{self.span_start[i]:.7f},'
                         f'{self.span_end[i]:.7f},{self.span_parent[i]}]')
            fh.write("]}\n")
