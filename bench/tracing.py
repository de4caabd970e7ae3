"""Span tracer for the traced benchmark run.

Timing wrappers are installed from outside the library, on the module
attributes that the calling module looks up at call time: `conjugacy_invariant`
calls `reduce_closed` through `vnh.closed`, the census calls
`reduced_elements` through `vnh.census`, and so on.  Every target listed in
`TARGETS` that no longer exists is reported as absent instead of failing, so
a refactor that renames or removes a function does not break the benchmark.

A span is (id, name, start, end, parent id).  Spans are kept in memory and
written out at the end of the run.  Hot, fine-grained functions (tree
addresses, composition, element reduction, enumeration steps) run millions
of times in one census, so they are only aggregated, per (name, parent name),
into calls, inclusive time, self time and yielded items; every other span is
also kept as an individual record.  Self time is a span's duration minus the
time its child spans cover.

Recording happens only inside an operation span opened by the benchmark, so
the correctness checks, which call the same library functions, stay out of
the layer figures.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  One span name may sit on several
# attributes: the package re-exports, and each module that imported the name.
TARGETS = [
    ("vnh", "compose", "elements.compose"),
    ("vnh.elements", "compose", "elements.compose"),
    ("vnh.census", "compose", "elements.compose"),
    ("vnh", "invert", "elements.invert"),
    ("vnh.elements", "invert", "elements.invert"),
    ("vnh.census", "invert", "elements.invert"),
    ("vnh", "reduce_element", "elements.reduce_element"),
    ("vnh.elements", "reduce_element", "elements.reduce_element"),
    ("vnh.closed", "reduce_element", "elements.reduce_element"),
    ("vnh", "reduced_elements", "elements.reduced_elements"),
    ("vnh.census", "reduced_elements", "elements.reduced_elements"),
    ("vnh", "leaf_addresses", "trees.leaf_addresses"),
    ("vnh.elements", "leaf_addresses", "trees.leaf_addresses"),
    ("vnh.trees", "leaf_addresses", "trees.leaf_addresses"),
    ("vnh", "common_expansion", "trees.common_expansion"),
    ("vnh.elements", "common_expansion", "trees.common_expansion"),
    ("vnh", "build_diagram", "diagrams.build_diagram"),
    ("vnh.closed", "build_diagram", "diagrams.build_diagram"),
    ("vnh", "concatenate", "diagrams.concatenate"),
    ("vnh", "cut_to_element", "diagrams.cut_to_element"),
    ("vnh", "reduce", "rewriting.reduce"),
    ("vnh", "close", "closed.close"),
    ("vnh.closed", "close", "closed.close"),
    ("vnh", "reduce_closed", "closed.reduce_closed"),
    ("vnh.closed", "reduce_closed", "closed.reduce_closed"),
    ("vnh", "reduced_closure", "closed.reduced_closure"),
    ("vnh.closed", "reduced_closure", "closed.reduced_closure"),
    ("vnh.census", "reduced_closure", "closed.reduced_closure"),
    ("vnh.closed", "gauge_canonical", "closed.gauge_canonical"),
    ("vnh.closed", "conjugacy_invariant", "closed.conjugacy_invariant"),
    ("vnh", "are_conjugate", "closed.are_conjugate"),
    ("vnh.closed", "are_conjugate", "closed.are_conjugate"),
    ("vnh.census", "are_conjugate", "closed.are_conjugate"),
    ("vnh", "class_census_experiment", "census.class_census_experiment"),
    ("vnh.census", "class_census_experiment", "census.class_census_experiment"),
    ("vnh", "oracle_conjugate", "census.oracle_conjugate"),
    ("vnh.census", "oracle_conjugate", "census.oracle_conjugate"),
]

# Aggregated only; no individual span records.
HOT = {
    "elements.compose",
    "elements.invert",
    "elements.reduce_element",
    "elements.reduced_elements",
    "trees.leaf_addresses",
    "trees.common_expansion",
}

# Rewrite steps are read from the public `trace=` argument of these.
STEP_TRACED = {"rewriting.reduce": "rewriting.steps", "closed.reduce_closed": "closed.reduce_closed.steps"}

# Individual durations are kept for these, for percentiles.
DURATIONS = {"closed.reduce_closed"}


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, start, child seconds, span id]
        self._active = {}  # name -> open spans of that name
        self._next_id = 0
        self.spans = []  # (id, name, start, end, parent id) in seconds
        self.stats = {}  # (name, parent name) -> [calls, inclusive s, self s, items]
        self.outer = {}  # name -> inclusive s, outermost spans of that name only
        self.counts = {}  # name -> integer count
        self.durations = {name: [] for name in DURATIONS}
        self.installed = []  # (module, attribute, original)
        self.absent = []  # "module.attribute" targets that do not exist

    # -- spans ------------------------------------------------------------

    def enter(self, name):
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._active[name] = self._active.get(name, 0) + 1

    def exit(self, items=0):
        end = time.perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        rec[3] += items
        if not self._active[name]:
            self.outer[name] = self.outer.get(name, 0.0) + dur
        if name in self.durations:
            self.durations[name].append(dur)
        if name not in HOT:
            self.spans.append((sid, name, start, end, parent[3] if parent else None))

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, name):
        steps = STEP_TRACED.get(name)

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            trace = None
            if steps is not None:
                trace = kwargs.get("trace")
                if trace is None:
                    trace = kwargs["trace"] = []
                before = len(trace)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
                if trace is not None:
                    for rule, _anchors in trace[before:]:
                        self.count(f"{steps}.{rule.split('-')[0]}")

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, fn, name):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not self._stack:
                    yield from it
                    return
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.exit()
                    return
                except BaseException:
                    self.exit()
                    raise
                self.exit(items=1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS):
        for module_name, attr, name in targets:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_gen(fn, name)
            else:
                wrapped = self._wrap_call(fn, name)
            setattr(module, attr, wrapped)
            self.installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed = []

    # -- output -----------------------------------------------------------

    def calls(self, name, parent=None):
        return sum(
            rec[0] for (n, p), rec in self.stats.items() if n == name and parent in (None, p)
        )

    def self_s(self, name):
        return sum(rec[2] for (n, _p), rec in self.stats.items() if n == name)

    def items(self, name, parent=None):
        return sum(
            rec[3] for (n, p), rec in self.stats.items() if n == name and parent in (None, p)
        )

    def write(self, path, extra=None):
        out = {
            "absent": self.absent,
            "counts": self.counts,
            "aggregate": [
                {
                    "name": n,
                    "parent": p,
                    "calls": rec[0],
                    "inclusive_ms": rec[1] * 1e3,
                    "self_ms": rec[2] * 1e3,
                    "items": rec[3],
                }
                for (n, p), rec in sorted(self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }
        if extra:
            out.update(extra)
        with open(path, "w") as fh:
            json.dump(out, fh)
