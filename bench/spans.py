"""Span recorder for the traced run.

The recorder wraps, from outside the package, every public function of the
``groverqss`` modules in each namespace that holds it (the defining module,
every module that imported it by name, and the package itself), plus
``StateVector.__post_init__`` and ``AttackReport.to_json``.  Nothing in the
program is modified on disk, and :func:`install` returns a function that
puts every original back.

Self time and call counts are accumulated online per span name.  The raw
spans (name, start, end, parent) are kept in memory only while ``keep`` is
set, which the benchmark does for its counted prefix of ops, and written
out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter_ns

#: The layers, in dependency order; each is one module of the package.
LAYERS = ("statevec", "grover", "catalog", "protocol", "attacks", "cli")

#: Span name of one benchmark op; its self time is the benchmark's own.
OP_SPAN = "bench.op"


class Recorder:
    """Nested spans with online self-time and call-count aggregation."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: Counts that are not span calls, e.g. shots drawn or transcript events.
        self.extra: Counter = Counter()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.keep = True
        #: Total duration of the outermost spans.
        self.top_ns = 0
        self._stack: list[list] = []  # [name, start_ns, child_ns, span index]

    def enter(self, name: str):
        idx = -1
        if self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0, 0, parent])
        self._stack.append([name, perf_counter_ns(), 0, idx])

    def exit(self) -> int:
        """Close the innermost span and return its duration in ns."""
        end = perf_counter_ns()
        name, start, child_ns, idx = self._stack.pop()
        dur = end - start
        self.self_ns[name] += dur - child_ns
        self.calls[name] += 1
        self._charge_parent(dur)
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end
        return dur

    def add_span(self, name: str, start: int, end: int):
        """Record an already-finished span (with no children) under the
        innermost open one."""
        dur = end - start
        self.self_ns[name] += dur
        self.calls[name] += 1
        self._charge_parent(dur)
        if self.keep:
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, start, end, parent])

    def _charge_parent(self, dur: int):
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_ns += dur

    def to_dict(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "extra": dict(self.extra),
            "top_ns": self.top_ns,
            "spans": self.spans,
        }

    def merge_child(self, child: dict):
        """Fold a child process's recorder (see :meth:`to_dict`) into the
        innermost open span.  Both processes read the same monotonic clock."""
        self.self_ns.update(child["self_ns"])
        self.calls.update(child["calls"])
        self.extra.update(child["extra"])
        self._charge_parent(child["top_ns"])
        if self.keep:
            base = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            for name, start, end, p in child["spans"]:
                self.spans.append([name, start, end, parent if p == -1 else base + p])

    def write(self, path):
        """Write the kept spans with the aggregates as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        doc = {
            "names": names,
            "spans": [[ids[n], s - t0, e - t0, p] for n, s, e, p in self.spans],
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "extra": dict(self.extra),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _wrap(fn, name: str, rec: Recorder, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, result)
        return result

    return traced


def _count_shots(rec: Recorder, counts):
    rec.extra["grover.sample_shots"] += counts.shots


def _count_round(rec: Recorder, transcript):
    rec.extra["protocol.events"] += len(transcript.events)
    rec.extra["protocol.rejected_rounds"] += transcript.verdict.data["verdict"] == "reject"


_HOOKS = {"grover.sample": _count_shots, "protocol.run_round": _count_round}


def install(rec: Recorder):
    """Wrap the package's public functions so calls record spans into ``rec``.

    Returns a function that restores every original attribute.
    """
    package = importlib.import_module("groverqss")
    modules = [importlib.import_module(f"groverqss.{layer}") for layer in LAYERS]
    wrappers = {}
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for ns in [package, *modules]:
        for attr, obj in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("groverqss."):
                continue
            if obj not in wrappers:
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                wrappers[obj] = _wrap(obj, name, rec, _HOOKS.get(name))
            patch(ns, attr, wrappers[obj])

    statevec, attacks = modules[0], modules[4]
    patch(statevec.StateVector, "__post_init__",
          _wrap(statevec.StateVector.__post_init__, "statevec.construct", rec))
    patch(attacks.AttackReport, "to_json",
          _wrap(attacks.AttackReport.to_json, "attacks.to_json", rec))

    def uninstall():
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)

    return uninstall


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
