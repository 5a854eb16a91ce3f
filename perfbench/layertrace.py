"""Span and counter tracing of wptkit's layers, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
wptkit module namespace that binds it, including names brought in with
`from .netcore import ...`, so calls made through any of those names are
seen.  Nothing under `src/` is edited; `uninstall()` puts every original
back.

A span is (name, start_ns, end_ns, parent span index, op id), five
int64 slots in one flat array; the name is an index into `names`.  Spans
are kept in memory, reduced on the fly to self time (a span's duration
minus the part of it that child spans cover) and written out by
`write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

# The layers are the modules of src/wptkit.  `cli` has no cost of its own
# beyond import time, which setup_s covers.
LAYERS = ("spiral", "coil", "tissue", "netcore", "imn", "efficiency",
          "harvester", "touchstone", "pipeline")

# In `pipeline` only the entry points are wrapped, so their self time is
# the residual left outside the other layers (CSV writing, row building,
# report formatting).
PIPELINE_ENTRY_POINTS = ("spec_from_dict", "run_design", "render_report",
                         "sweep_link", "sweep_table", "sweep_csv_text")

# Public methods that are layer boundaries in their own right.
METHODS = (("tissue", "NetworkTable", "at"), ("tissue", "NetworkTable", "abcd_at"))


def _count_candidates(tracer, args, kwargs, result, parent):
    tracer.count("spiral.candidates", len(result.candidates))


def _count_sections(tracer, args, kwargs, result, parent):
    stack = args[0] if args else kwargs["stack"]
    tracer.count("tissue.sections_cascaded", len(stack.layers) * stack.sections_per_layer)


def _count_variant_tried(tracer, args, kwargs, result, parent):
    if parent == "imn.synthesize_imn":
        tracer.count("imn.variants_tried", 1)


def _count_variants_kept(tracer, args, kwargs, result, parent):
    tracer.count("imn.variants_kept", len(result.solutions))


def _count_grid_points(tracer, args, kwargs, result, parent):
    tracer.count("harvester.grid_points", len(result.table))


def _count_bytes(tracer, args, kwargs, result, parent):
    path = args[0] if args else kwargs["path"]
    tracer.count("touchstone.bytes_parsed", os.path.getsize(path))


# Counters taken where the work happens, after the wrapped call returns.
HOOKS = {
    "spiral.synthesize": _count_candidates,
    "tissue.ladder_two_port": _count_sections,
    "imn.assemble_link": _count_variant_tried,
    "imn.synthesize_imn": _count_variants_kept,
    "harvester.design_space": _count_grid_points,
    "touchstone.read_touchstone": _count_bytes,
}


def traced_functions(modules):
    """(span name, owning module, attribute) for every wrapped function."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue  # imported here; wrapped under its home layer
            if layer == "pipeline" and attr not in PIPELINE_ENTRY_POINTS:
                continue
            out.append((f"{layer}.{attr}", mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list = []   # frames: [name, offset in spans, child ns]
        self._restore: list = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.extend((name_id, 0, 0, parent[1] // 5 if parent else -1, self.op_id))
            frame = [name, index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if parent is not None:
                    parent[2] += duration
                spans[index + 1] = start
                spans[index + 2] = end
            if hook is not None:
                hook(self, args, kwargs, result, parent[0] if parent else None)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("wptkit")
        modules = {name: importlib.import_module(f"wptkit.{name}")
                   for name in LAYERS + ("cli",)}
        namespaces = [package, *modules.values()]
        for name, mod, attr in traced_functions(modules):
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, wrapped)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}",
                                            vars(cls)[attr]))

        matrix = modules["netcore"].TwoPortMatrix
        post_init = matrix.__post_init__

        def counted_post_init(obj):
            self.count("netcore.matrices_built")
            post_init(obj)

        self._set(matrix, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e6
        return out

    def write_spans(self, stem) -> None:
        """`<stem>.bin`: the raw span array in native byte order;
        `<stem>.json`: its layout and the span names."""
        with open(f"{stem}.bin", "wb") as fh:
            self.spans.tofile(fh)
        layout = {"int64_per_span": ["name", "start_ns", "end_ns", "parent", "op"],
                  "byteorder": sys.byteorder, "names": self.names}
        with open(f"{stem}.json", "w") as fh:
            json.dump(layout, fh, indent=1)
