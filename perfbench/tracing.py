"""Spans around the public functions of the engine modules, installed from outside.

``Tracer.install`` replaces every public function of each layer module
(``counting``, ``bounds``, ``universes``, ``colorings``, ``paths``,
``search``), wherever a ``monopath`` module has bound it, with a wrapper that
records a span; ``uninstall`` puts the originals back.  The harness opens one
``cli`` span per request around ``monopath.cli.main``.  Spans carry the
request id and their parent span, stay in memory, and are written out by
``dump`` when the run ends.

Exact counts come from the engine's own work meters: where a metered
function is entered with an integer budget (or none), the wrapper passes a
``WorkMeter`` with the same limit instead, which ``budget.meter`` returns
unchanged, and reads ``used`` afterwards.  ``injectivity_certificate`` and
``color_kuniform_lower`` are left alone: each hands its budget to two
separate computations, and one shared meter would pool their limits.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = ("counting", "bounds", "universes", "colorings", "paths", "search")
CONSTRUCTORS = ("color_graph_lower", "color_3uniform_lower", "color_kuniform_lower",
                "random_coloring")
# functions whose `budget` may be swapped for a meter with the same limit
METERED = {
    ("counting", "count_box_partitions"), ("counting", "count_downsets"),
    ("counting", "dedekind"), ("counting", "count_antichains"),
    ("counting", "count_order_ideals"), ("counting", "count_rho"),
    ("paths", "longest_mono"), ("colorings", "is_transitive"),
}


class Span:
    __slots__ = ("layer", "name", "request", "parent", "start", "end", "child",
                 "entry", "inside", "error", "attrs")

    def __init__(self, layer, name, request, parent, entry, inside):
        self.layer, self.name, self.request, self.parent = layer, name, request, parent
        self.entry, self.inside = entry, inside
        self.child = 0.0
        self.error = None
        self.attrs: dict = {}
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans (never overlapping)."""
        return self.duration - self.child


class Tracer:
    def __init__(self, monopath_modules: dict):
        self.mods = monopath_modules
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.depth = dict.fromkeys(LAYERS + ("cli",), 0)
        self.request = -1
        self.request_kind: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        budget = self.mods["monopath.budget"]
        self.WorkMeter, self.default_budget = budget.WorkMeter, budget.default_budget

    # --- spans ------------------------------------------------------------

    def open(self, layer: str, name: str) -> Span:
        inside = tuple(l for l in LAYERS if self.depth[l])
        span = Span(layer, name, self.request, self.stack[-1] if self.stack else None,
                    self.depth[layer] == 0, inside)
        self.depth[layer] += 1
        self.stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self.stack.pop()
        self.depth[span.layer] -= 1
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def begin_request(self, rid: int, kind: str) -> Span:
        self.request = rid
        self.request_kind[rid] = kind
        return self.open("cli", "main")

    # --- instrumentation ---------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        metered = (layer, name) in METERED
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            wm = None
            if metered:
                wm = kwargs.get("budget")
                if not isinstance(wm, tracer.WorkMeter):
                    limit = tracer.default_budget() if wm is None else wm
                    wm = kwargs["budget"] = tracer.WorkMeter(limit, f"{name} (traced)")
            elif name == "enumerate_order_ideals":
                wm = args[1]
            used = wm.used if wm is not None else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, type(exc).__name__)
                if wm is not None:
                    span.attrs["units"] = wm.used - used
                raise
            tracer.close(span)
            if wm is not None:
                span.attrs["units"] = wm.used - used
            tracer._describe(span, args, result)
            return result

        traced.__name__ = name
        traced.__wrapped__ = fn
        return traced

    def _describe(self, span: Span, args, result) -> None:
        name, attrs = span.name, span.attrs
        if name == "build_universe":
            attrs["key"] = tuple(args[:3])
            size, u = 0, result
            while u is not None:
                size, u = size + u.size, u.parent
            attrs["elements"] = size
        elif name in CONSTRUCTORS:
            attrs["edges"] = result.num_edges
        elif name == "run_inequality_suite":
            attrs["rows"] = len(result)
            attrs["skipped"] = sum(1 for r in result if r["verdict"] == "SKIPPED")
        elif name == "exact_ramsey":
            k, _q, n = args[:3]
            start = n + k - 2
            attrs["nodes"] = result.nodes
            done = result.lower_bound - start
            attrs["levels"] = done if result.status == "lower_bound_only" else done + 1

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = list(self.mods.values())
        for layer in LAYERS:
            mod = self.mods[f"monopath.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if not callable(fn) or isinstance(fn, type):
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, attr, wrapped)
        self._install_io()

    def _install_io(self) -> None:
        coloring = self.mods["monopath.colorings"].EdgeColoring
        save, load = coloring.save, coloring.load.__func__
        tracer = self

        def traced_save(col, path):
            span = tracer.open("colorings", "EdgeColoring.save")
            error = None
            try:
                save(col, path)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(span, error)
            span.attrs["bytes"] = os.path.getsize(path)

        def traced_load(cls, path):
            span = tracer.open("colorings", "EdgeColoring.load")
            error = None
            try:
                span.attrs["bytes"] = os.path.getsize(path)
                return load(cls, path)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(span, error)

        self._patch(coloring, "save", traced_save)
        self._patch(coloring, "load", classmethod(traced_load))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # --- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i, "parent": ids.get(id(s.parent)), "request": s.request,
                    "layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
                    "self": s.self_time, "error": s.error,
                }
                rec.update({k: v for k, v in s.attrs.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when the layer did no such work."""
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit)."""
    spans = tracer.spans
    by_layer: dict[str, list[Span]] = {l: [] for l in LAYERS + ("cli",)}
    for s in spans:
        by_layer[s.layer].append(s)
    out: dict[str, tuple[float, str]] = {}

    counting = [s for s in by_layer["counting"] if s.entry]
    c_busy = sum(s.duration for s in counting)
    c_units = sum(s.attrs.get("units", 0) for s in counting)
    c_miss = [s for s in counting if s.error == "BudgetExceeded"]
    out["counting.calls"] = (len(counting), "count")
    out["counting.busy_s"] = (c_busy, "s")
    out["counting.work_units"] = (c_units, "units")
    out["counting.units_per_s"] = (_ratio(c_units, c_busy), "units/s")
    out["counting.budget_misses"] = (len(c_miss), "count")
    out["counting.miss_units_share"] = (
        _ratio(sum(s.attrs.get("units", 0) for s in c_miss), c_units), "ratio")

    suites = [s for s in by_layer["bounds"] if s.name == "run_inequality_suite"]
    b_busy = sum(s.duration for s in suites)
    in_suite = [s for s in counting if "bounds" in s.inside]
    missed = [s for s in in_suite if s.error == "BudgetExceeded"]
    out["bounds.busy_s"] = (b_busy, "s")
    out["bounds.rows"] = (sum(s.attrs.get("rows", 0) for s in suites), "count")
    out["bounds.skipped_rows"] = (sum(s.attrs.get("skipped", 0) for s in suites), "count")
    out["bounds.miss_units_share"] = (
        _ratio(sum(s.attrs.get("units", 0) for s in missed),
               sum(s.attrs.get("units", 0) for s in in_suite)), "ratio")
    out["bounds.miss_s_share"] = (_ratio(sum(s.duration for s in missed), b_busy), "ratio")

    builds = [s for s in by_layer["universes"] if s.name == "build_universe" and s.entry]
    seen: set = set()
    repeats = 0
    for s in builds:
        key = s.attrs.get("key")
        repeats += key in seen
        seen.add(key)
    out["universes.builds"] = (len(builds), "count")
    out["universes.busy_s"] = (sum(s.duration for s in builds), "s")
    out["universes.elements"] = (sum(s.attrs.get("elements", 0) for s in builds), "count")
    out["universes.repeat_share"] = (_ratio(repeats, len(builds)), "ratio")

    col = by_layer["colorings"]
    made = [s for s in col if s.name in CONSTRUCTORS and s.entry]
    construct_s = sum(s.duration for s in made)
    edges = sum(s.attrs.get("edges", 0) for s in made)
    io = [s for s in col if s.name.startswith("EdgeColoring.")]
    scans = [s for s in col if s.name == "is_transitive"]
    out["colorings.construct_s"] = (construct_s, "s")
    out["colorings.edges_built"] = (edges, "count")
    out["colorings.edges_per_s"] = (_ratio(edges, construct_s), "1/s")
    out["colorings.io_s"] = (sum(s.duration for s in io), "s")
    out["colorings.io_bytes"] = (sum(s.attrs.get("bytes", 0) for s in io), "bytes")
    out["colorings.transitive_s"] = (sum(s.duration for s in scans), "s")
    out["colorings.tuples_scanned"] = (sum(s.attrs.get("units", 0) for s in scans), "count")

    lm = [s for s in by_layer["paths"] if s.name == "longest_mono"]
    lm_s = sum(s.duration for s in lm)
    swept = sum(s.attrs.get("units", 0) for s in lm)
    certs = [s for s in by_layer["paths"] if s.name == "injectivity_certificate"]
    verifies = [r for r, kind in tracer.request_kind.items() if kind == "verify"]
    in_verify = sum(1 for s in lm if tracer.request_kind.get(s.request) == "verify")
    out["paths.longest_mono_s"] = (lm_s, "s")
    out["paths.longest_mono_calls"] = (len(lm), "count")
    out["paths.edges_swept"] = (swept, "count")
    out["paths.edges_per_s"] = (_ratio(swept, lm_s), "1/s")
    out["paths.certificate_self_s"] = (sum(s.self_time for s in certs), "s")
    out["paths.longest_mono_calls_per_verify"] = (_ratio(in_verify, len(verifies)), "ratio")

    searches = [s for s in by_layer["search"] if s.name == "exact_ramsey"]
    s_busy = sum(s.duration for s in searches)
    nodes = sum(s.attrs.get("nodes", 0) for s in searches)
    reverify = [s for s in lm if s.parent is not None and s.parent.layer == "search"]
    out["search.busy_s"] = (s_busy, "s")
    out["search.nodes"] = (nodes, "count")
    out["search.nodes_per_s"] = (_ratio(nodes, s_busy), "1/s")
    out["search.levels"] = (sum(s.attrs.get("levels", 0) for s in searches), "count")
    out["search.reverify_s"] = (sum(s.duration for s in reverify), "s")

    requests = [s for s in by_layer["cli"] if s.name == "main"]
    out["cli.self_s"] = (_ratio(sum(s.self_time for s in requests), len(requests)), "s")
    return out


def monopath_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "monopath" or n.startswith("monopath.")}
