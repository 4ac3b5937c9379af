"""Outside-in tracing of the supertrace layers.

The tracer wraps the public functions of each layer module, a few class
methods and the orchestration entry points, and records one span per call:
name, start, end and the span that was open when it started.  Modules import
functions by name (``repmod`` calls ``nullspace``, ``invtensor`` calls
``hom_space``), so each function is replaced at every name it is bound to in
the package.  ``uninstall`` restores every original.

Spans stay in memory; ``write_spans`` writes them out once the traced work
is over.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "supertrace"
# Layers whose every public function is traced.
TIMED_LAYERS = ("linalg", "superlin", "repmod", "mtrace", "invtensor")
# Bypass and orchestration layers: only these entry points are traced.
EXTRA_FUNCTIONS = {
    "suites": ("build_roster", "suite_superlin", "suite_trace", "suite_tensors"),
    "cli": ("main",),
}
# (module, class, method): methods are wrapped on the class itself.
METHODS = (
    ("superlin", "SuperMap", "__init__"),
    ("superlin", "SuperMap", "__matmul__"),
    ("linalg", "RowReducer", "add"),
    ("rootdata", "RootSystem", "mod_sdim"),
)


def _nullspace_args(tracer, args, kwargs):
    # Materialise the row iterable so its length can be counted; nullspace
    # reads it once either way.  The package passes (rows, ncols) positionally.
    rows = list(args[0])
    tracer.counts["linalg.nullspace.rows"] += len(rows)
    return (rows,) + args[1:], kwargs


def _nullspace_result(tracer, args, kwargs, result):
    ncols = args[1]
    tracer.counts["linalg.nullspace.unknowns"] += ncols
    tracer.counts["linalg.nullspace.rank"] += ncols - len(result)


def _supermap_result(tracer, args, kwargs, result):
    tracer.counts["superlin.supermap.entries"] += len(args[0].entries)


def _rowreducer_result(tracer, args, kwargs, result):
    tracer.counts["linalg.rowreducer.accepted"] += bool(result)


def _save_result(tracer, args, kwargs, result):
    tracer.counts["repmod.save_gmodule.bytes"] += os.path.getsize(args[1])


def _it_space_result(tracer, args, kwargs, result):
    tracer.counts["invtensor.it_space.raw"] += len(result.raw)
    tracer.counts["invtensor.it_space.independent"] += len(result.elements)


# Hooks that turn arguments and results into work counts: name -> (before, after).
HOOKS = {
    "linalg.nullspace": (_nullspace_args, _nullspace_result),
    "superlin.SuperMap.__init__": (None, _supermap_result),
    "linalg.RowReducer.add": (None, _rowreducer_result),
    "repmod.save_gmodule": (None, _save_result),
    "invtensor.it_space": (None, _it_space_result),
}


class Tracer:
    """Records spans and counts for the calls the package makes into each layer."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- installing ------------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original) -> (span name, original) for everything to wrap."""
        targets = {}
        for layer in TIMED_LAYERS + tuple(EXTRA_FUNCTIONS):
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            wanted = EXTRA_FUNCTIONS.get(layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and (wanted is None or attr in wanted)):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][1] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def function_stats(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            s = stats.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[idx]
        return stats

    def cache_lookups(self) -> tuple[int, int]:
        """(hits, lookups) of cached_kac_module: a hit is one that loaded a file."""
        lookups = {i for i, sp in enumerate(self.spans)
                   if self.names[sp[0]] == "repmod.cached_kac_module"}
        hits = {sp[3] for sp in self.spans
                if sp[3] in lookups and self.names[sp[0]] == "repmod.load_gmodule"}
        return len(hits), len(lookups)

    def write_spans(self, path: str) -> None:
        """One CSV row per span: id, parent id, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for idx, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{self.names[name_id]},"
                         f"{start - self.origin:.9f},{end - self.origin:.9f}\n")


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """The per-layer metrics, name -> (value, unit), and the base of each ratio."""
    stats = tracer.function_stats()
    counts = tracer.counts
    hits, lookups = tracer.cache_lookups()

    def st(name: str) -> dict:
        return stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out: dict[str, tuple[float, str]] = {}

    def calls(metric: str, name: str) -> None:
        out[metric] = (st(name)["calls"], "count")

    def self_s(metric: str, name: str) -> None:
        out[metric] = (st(name)["self_s"], "s")

    calls("linalg.nullspace.calls", "linalg.nullspace")
    self_s("linalg.nullspace.self_s", "linalg.nullspace")
    for key in ("rows", "unknowns", "rank"):
        out[f"linalg.nullspace.{key}"] = (counts[f"linalg.nullspace.{key}"], "count")
    adds = st("linalg.RowReducer.add")["calls"]
    out["linalg.rowreducer.adds"] = (adds, "count")
    out["linalg.rowreducer.accept_ratio"] = (
        _ratio(counts["linalg.rowreducer.accepted"], adds), "ratio")
    bases = {"linalg.rowreducer.accept_ratio": f"{counts['linalg.rowreducer.accepted']}/{adds}"}
    self_s("linalg.rowreducer.self_s", "linalg.RowReducer.add")

    calls("superlin.supermap.validated", "superlin.SuperMap.__init__")
    self_s("superlin.supermap.validate_s", "superlin.SuperMap.__init__")
    out["superlin.supermap.entries"] = (counts["superlin.supermap.entries"], "count")
    calls("superlin.matmul.calls", "superlin.SuperMap.__matmul__")
    self_s("superlin.matmul.self_s", "superlin.SuperMap.__matmul__")
    calls("superlin.tensor_map.calls", "superlin.tensor_map")
    self_s("superlin.tensor_map.self_s", "superlin.tensor_map")
    self_s("superlin.partial_supertrace.self_s", "superlin.partial_supertrace")
    self_s("superlin.super_transpose.self_s", "superlin.super_transpose")

    self_s("repmod.kac_module.self_s", "repmod.kac_module")
    for fn in ("verify_relations", "tensor_module", "hom_space"):
        calls(f"repmod.{fn}.calls", f"repmod.{fn}")
        self_s(f"repmod.{fn}.self_s", f"repmod.{fn}")
    for fn in ("ideal_witness", "make_witness", "save_gmodule", "load_gmodule"):
        self_s(f"repmod.{fn}.self_s", f"repmod.{fn}")
    out["repmod.save_gmodule.bytes"] = (counts["repmod.save_gmodule.bytes"], "B")
    out["repmod.cache.hit_ratio"] = (_ratio(hits, lookups), "ratio")
    bases["repmod.cache.hit_ratio"] = f"{hits}/{lookups}"

    calls("mtrace.bracket.calls", "mtrace.bracket")
    self_s("mtrace.bracket.self_s", "mtrace.bracket")
    calls("mtrace.modified_trace.calls", "mtrace.modified_trace")

    for fn in ("modified_form", "dualizing_map", "extended_form"):
        calls(f"invtensor.{fn}.calls", f"invtensor.{fn}")
        self_s(f"invtensor.{fn}.self_s", f"invtensor.{fn}")
    for fn in ("presented_endo", "it_space", "invariant_tensors"):
        self_s(f"invtensor.{fn}.self_s", f"invtensor.{fn}")
    independent, raw = counts["invtensor.it_space.independent"], counts["invtensor.it_space.raw"]
    out["invtensor.it_space.useful_ratio"] = (_ratio(independent, raw), "ratio")
    bases["invtensor.it_space.useful_ratio"] = f"{independent}/{raw}"

    calls("rootdata.mod_sdim.calls", "rootdata.RootSystem.mod_sdim")
    self_s("rootdata.mod_sdim.self_s", "rootdata.RootSystem.mod_sdim")

    for fn in ("build_roster", "suite_superlin", "suite_trace", "suite_tensors"):
        out[f"suites.{fn}.s"] = (st(f"suites.{fn}")["s"], "s")
    out["cli.main.s"] = (st("cli.main")["s"], "s")

    layer_self: dict[str, float] = defaultdict(float)
    for name, s in stats.items():
        layer_self[name.split(".")[0]] += s["self_s"]
    for layer in TIMED_LAYERS + ("rootdata",):
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out, bases
