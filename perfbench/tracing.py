"""Per-layer spans for puregaps, recorded from outside the package.

Each layer's public functions are wrapped by rebinding the function object
in every ``puregaps`` module namespace that holds a reference to it, so
calls made inside the package (``from .engine import decompose``) are
caught as well as the benchmark's own.  Spans nest by call.  A span's self
time is its duration minus the time its child spans cover, and its RSS
rise is the growth of the process's peak RSS (``peak_rss_kib``) across it
minus the growth inside its children.  ``calls``, ``errors`` and ``points_out`` count only spans not
nested inside a span of the same layer (``load_gamma`` calling
``parse_gamma`` is one parse).  A function a later version no longer has is
skipped, and its layer reports zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time

#: Layer name -> "module:function" names wrapped by that layer's spans.
LAYERS = {
    "lattice.validate": ("lattice:validate_generating_set",),
    "gammafile.parse": ("gammafile:load_gamma", "gammafile:parse_gamma"),
    "gammafile.dump": ("gammafile:dump_gamma",),
    "family.generate": ("gk:gk_generating_set",
                        "kummer:kummer_generating_set"),
    "family.components": tuple(
        [f"gk:gk_{n}" for n in ("gamma_point", "card_gamma_k0", "gamma_k0",
                                "g1", "g2", "g3", "g4")]
        + [f"kummer:kummer_{n}" for n in ("card_gamma_k0", "gamma_k0",
                                          "g1", "g2", "g3", "g4")]),
    "family.explicit": ("gk:gk_pure_gaps", "kummer:kummer_pure_gaps"),
    "family.closed_form": ("gk:gk_card_g0", "gk:gk_upper_bound",
                           "kummer:kummer_card_g0",
                           "kummer:kummer_card_special_ur1",
                           "kummer:kummer_card_special_qN"),
    "family.verify_components": ("gk:verify_against_engine",
                                 "kummer:verify_against_engine"),
    "engine.decompose": ("engine:decompose",),
    "engine.g1": ("engine:compute_g1",),
    "engine.g2": ("engine:compute_g2",),
    "engine.g3": ("engine:compute_g3",),
    "engine.g4": ("engine:compute_g4",),
    "engine.assemble": ("engine:assemble_pure_gaps",),
    "engine.union": ("engine:union_of_translates",),
    "engine.bounds": ("engine:bounds", "engine:bounds_from_row_sizes"),
    "oracle.scan": ("oracle:pure_gaps_direct",),
    "oracle.period": ("oracle:check_period_property",),
    "harness": tuple(f"harness:{n}" for n in (
        "summarize_family", "summarize_generic", "verify_point",
        "verify_special_ur1", "verify_special_qn", "map_points",
        "build_verify_points", "bench_family")),
    "cli": ("cli:main",),
}

#: Layers whose output size is counted as ``points_out``.
COUNTED = ("engine.g1", "engine.g2", "engine.g3", "engine.g4",
           "engine.union", "oracle.scan", "family.explicit")


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in table order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors",
                  f"{layer}.rss_rise_mib"]
        if layer in COUNTED:
            names.append(f"{layer}.points_out")
    return names + ["oracle.scan.pairs", "oracle.scan.yield"]


def _points_out(result) -> int:
    """Size of a layer's output: a list's length, a result's cardinality,
    or the weighted size ``union_of_translates`` returns beside its list."""
    if isinstance(result, tuple) and len(result) == 2 \
            and isinstance(result[1], int):
        return result[1]
    card = getattr(result, "cardinality", None)
    if isinstance(card, int):
        return card
    try:
        return len(result)
    except TypeError:
        return 0


_status_fd = None


def peak_rss_kib() -> int:
    """This process's own peak RSS in KiB: ``VmHWM`` of /proc/self/status.

    ``ru_maxrss`` is only the fallback where that file is missing: Linux
    carries the peak RSS of the parent across vfork and exec, so a child of
    a parent that once grew large would report the parent's peak.
    """
    global _status_fd
    try:
        if _status_fd is None:
            _status_fd = os.open("/proc/self/status", os.O_RDONLY)
        data = os.pread(_status_fd, 8192, 0)
        start = data.index(b"VmHWM:") + 6
        return int(data[start:data.index(b"kB", start)])
    except (OSError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Wraps the layer functions and keeps finished spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._next_id = 0
        self._bindings = []
        self._bind()

    def _bind(self):
        originals = []
        for layer, names in LAYERS.items():
            for name in names:
                module_name, func_name = name.split(":")
                module = importlib.import_module(f"puregaps.{module_name}")
                func = getattr(module, func_name, None)
                if func is None:
                    self.missing.append(name)
                    continue
                originals.append((func, self._wrap(layer, name, func)))
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == "puregaps" or n.startswith("puregaps."))]
        for func, wrapper in originals:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._bindings.append((module, attr, func, wrapper))

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, func, _ in self._bindings:
            setattr(module, attr, func)

    def _wrap(self, layer, name, func):
        counted = layer in COUNTED

        @functools.wraps(func)
        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            outer = self._depth[layer] == 0
            # Time and RSS growth covered by child spans, and the span id.
            frame = [0.0, 0, self._next_id]
            self._next_id += 1
            self._stack.append(frame)
            self._depth[layer] += 1
            error = True
            points = None
            rss0 = peak_rss_kib()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                error = False
                if counted and outer:
                    points = _points_out(result)
                return result
            finally:
                end = time.perf_counter()
                rise = peak_rss_kib() - rss0
                self._depth[layer] -= 1
                self._stack.pop()
                if parent is not None:
                    parent[0] += end - start
                    parent[1] += rise
                pairs = None
                if layer == "oracle.scan" and outer and args:
                    g = len(getattr(args[0], "points", ()))
                    pairs = g * (g - 1) // 2
                self.spans.append({
                    "id": frame[2],
                    "parent": None if parent is None else parent[2],
                    "op": self.op, "layer": layer, "fn": name, "outer": outer,
                    "start": start, "end": end,
                    "self_s": end - start - frame[0],
                    "rss_rise_kib": rise - frame[1],
                    "error": error, "points_out": points, "pairs": pairs})
        return span


def layer_metrics(spans) -> dict:
    """Aggregate finished spans into the per-layer metrics, as
    ``name -> (value, unit)``."""
    agg = {layer: {"self_s": 0.0, "calls": 0, "errors": 0,
                   "rss_rise_kib": 0, "points_out": 0, "pairs": 0}
           for layer in LAYERS}
    for span in spans:
        row = agg[span["layer"]]
        row["self_s"] += span["self_s"]
        row["rss_rise_kib"] += span["rss_rise_kib"]
        if span["outer"]:
            row["calls"] += 1
            row["errors"] += span["error"]
            row["points_out"] += span["points_out"] or 0
            row["pairs"] += span["pairs"] or 0
    out = {}
    for layer, row in agg.items():
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.errors"] = (row["errors"], "count")
        out[f"{layer}.rss_rise_mib"] = (row["rss_rise_kib"] / 1024, "MiB")
        if layer in COUNTED:
            out[f"{layer}.points_out"] = (row["points_out"], "count")
    scan = agg["oracle.scan"]
    out["oracle.scan.pairs"] = (scan["pairs"], "count")
    out["oracle.scan.yield"] = (
        scan["points_out"] / scan["pairs"] if scan["pairs"] else 0.0, "ratio")
    return out
