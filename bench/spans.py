"""In-memory span tracer that wraps library functions from the outside.

Each traced function is replaced, in every ``sublorentz`` module that binds
it, by a wrapper that records one span per call: name, start, end and the
span that was open when it started (its parent).  Self time is a span's
duration minus the time its direct children cover.  Work counts read off
return values are kept next to the spans.  Nothing in the library changes;
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs whose calls become spans.
TRACED = [
    ("causality", "classify"),
    ("causality", "tau"),
    ("causality", "beta"),
    ("geodesics", "flow"),
    ("geodesics", "exp_map"),
    ("geodesics", "log_map"),
    ("transport", "cost_matrix"),
    ("transport", "solve_kantorovich"),
    ("simplex", "solve_max_transport"),
    ("transport", "strengthen_duals"),
    ("transport", "check_cyclical_monotonicity"),
    ("transport", "duality_gap"),
    ("brenier", "transport_map_from_duals"),
    ("brenier", "backward_map_from_duals"),
    ("brenier", "interpolate"),
    ("brenier", "monge_ampere_residual"),
    ("minkowski", "right_translation_verdict"),
    ("measures_io", "load_measure"),
    ("measures_io", "save_measure"),
    ("measures_io", "sample_chronological_pair"),
]

# Work counts taken from return values: span name -> {count name: fn(result)}.
COUNTERS = {
    "transport.cost_matrix": {"pairs": lambda cm: cm.values.size},
    "transport.check_cyclical_monotonicity": {"cycles_checked": lambda r: r.cycles_checked},
    "brenier.transport_map_from_duals": {
        "mapped": lambda r: len(r.mapped),
        "skipped": lambda r: len(r.skipped),
    },
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.paused = False
        self._stack = []  # [span index, child seconds] of open spans
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name_id, fn):
        name = self.names[name_id]
        counters = COUNTERS.get(name, {})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_end.append(0.0)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            for key, count in counters.items():
                self.counts[f"{name}.{key}"] += count(result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever a sublorentz module binds it."""
        import importlib

        originals = {}
        for name_id, (mod, fn) in enumerate(TRACED):
            module = importlib.import_module(f"sublorentz.{mod}")
            originals[id(getattr(module, fn))] = self._wrap(name_id, getattr(module, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "sublorentz" and not modname.startswith("sublorentz."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        """Write the recorded spans as arrays (start/end in perf_counter s)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
