"""Spans around the public functions of each maxrep module, taken from outside.

The modules import each other's functions by name, so each wrapper is bound
in every ``maxrep.*`` namespace that holds the original; patching only the
defining module would miss most calls.  A span records the function, start,
end, parent span and item id on the process CPU clock.  Spans stay in memory
until ``dump`` writes them out; self time is a span's duration minus that of
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("matcore", "symplectic", "maslov", "normalform", "pants",
          "gluing", "deform", "limits", "cli")

# functions reported one by one; every public function counts towards its layer
FUNCTIONS = {
    "matcore": ("stein_solve", "similarity_witness", "signature", "factor_signature"),
    "symplectic": ("moebius_act", "transverse", "point_distance"),
    "maslov": ("maslov", "normalize_pair"),
    "normalform": ("attracting_point", "canonical_point_of_element"),
    "pants": ("build_maximal", "recover_params", "params_equivalent", "fingerprint",
              "classify_params", "toledo"),
    "gluing": ("twist_element", "glue_reps", "close_pair", "close_handle",
               "build_from_graph", "component_signature"),
    "deform": ("deform_to_standard",),
    "limits": ("limit_set_sample",),
    "cli": ("main",),
}


def metric_names():
    """Per-layer metric names with their units, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "calls/item"), (f"{layer}.self_ms", "ms/item")]
        for fn in FUNCTIONS[layer]:
            out += [(f"{layer}.{fn}.calls", "calls/item"), (f"{layer}.{fn}.ms", "ms/item")]
    return out + [("limits.distinct_per_word", "ratio")]


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []     # function id -> (layer, name)
        self.fid = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_item = -1

    def install(self):
        """Wrap every public function of each layer in all maxrep namespaces."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"maxrep.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, len(self.names))
                    self.names.append((layer, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "maxrep" or mod_name.startswith("maxrep."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        setattr(mod, attr, wrappers[val])

    def _wrap(self, fn, fid):
        clock = time.process_time
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def dump(self, path):
        np.savez_compressed(
            path, names=np.array([f"{a}.{b}" for a, b in self.names]),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self, n_items):
        """Per-item calls and CPU milliseconds over the spans of timed items."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        keep = np.frombuffer(self.item, dtype=np.int32) >= 0
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        # a span directly inside a span of the same function adds no time of its own
        outer = ~has_parent | (fid[np.maximum(parent, 0)] != fid)
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.names])
        out = {}
        for li, layer in enumerate(LAYERS):
            sel = keep & (layer_of[fid] == li)
            out[f"{layer}.calls"] = int(sel.sum()) / n_items
            out[f"{layer}.self_ms"] = float(self_ms[sel].sum()) / n_items
            for fn in FUNCTIONS[layer]:
                # a function the library no longer has is called zero times
                f = self.names.index((layer, fn)) if (layer, fn) in self.names else -1
                sel = keep & (fid == f)
                out[f"{layer}.{fn}.calls"] = int(sel.sum()) / n_items
                out[f"{layer}.{fn}.ms"] = float(dur[sel & outer].sum()) / n_items
        return out
