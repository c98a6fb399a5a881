"""Spans around the calls into each ablkit layer, recorded from outside.

Tracing installs by rebinding, in this process only, the names that each
calling module imported (``ablkit.cli.estimate_abl``,
``ablkit.simulate.substream``, ...): the caller then looks up a wrapper
that records a span and calls the original.  No ablkit source changes and
nothing is traced until :meth:`Tracer.install` runs; :meth:`Tracer.remove`
puts every original back.

A span is ``(id, name, start_ns, end_ns, parent_id, tag)``.  Spans are kept
in memory and written out once, at the end of the run.  A span opened on a
thread with no open span of its own (a worker of the simulator's thread
pool) takes as parent the innermost open span of the thread that made the
tracer, which is the thread waiting on that pool.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

#: The layers, one per module of ``src/ablkit`` that does work.
LAYERS = ("sampling", "linalg", "abl", "histories", "counterfactual", "simulate",
          "scenario_io", "scenarios", "cli")


class _ClassProxy:
    """Stands in for a class in a caller's namespace: calling it, or one of
    the listed class methods, records a span; any other attribute is the
    class's own."""

    def __init__(self, cls, call, methods):
        self._cls = cls
        self._call = call
        self._methods = methods

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        if attr in self._methods:
            return self._methods[attr]
        return getattr(self._cls, attr)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, tag=None):
        stack_of = self._stack
        home = self._home
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tag))

        traced.__wrapped__ = fn
        return traced

    def install(self, bindings):
        """Rebind each ``(module, attribute, span)`` entry.  ``span`` is a
        span name, or for a class a ``(constructor span or None,
        {class method: span})`` pair."""
        for module, attr, span in bindings:
            original = getattr(module, attr)
            if isinstance(span, str):
                replacement = self.wrap(original, span)
            else:
                ctor, methods = span
                replacement = _ClassProxy(
                    original,
                    self.wrap(original, ctor) if ctor else original,
                    {m: self.wrap(getattr(original, m), s) for m, s in methods.items()})
            self._saved.append((module, attr, original))
            setattr(module, attr, replacement)

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """All spans as gzipped JSON lines, start and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


def _covered(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Summary:
    """Per span name: count, total duration and total self time (duration
    minus the part of the span that its child spans cover), in ns."""

    def __init__(self, spans):
        children = defaultdict(list)
        for sid, name, start, end, parent, tag in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.count = defaultdict(int)
        self.total = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.by_tag = defaultdict(int)
        self.by_id = {}
        for sid, name, start, end, parent, tag in spans:
            self.count[name] += 1
            self.total[name] += end - start
            self.self_ns[name] += end - start - _covered(children.get(sid, ()))
            self.by_id[sid] = (name, parent)
            if tag is not None:
                self.by_tag[tag] += 1
        self.spans = spans

    def mean_us(self, *names) -> float:
        n = sum(self.count[x] for x in names)
        return sum(self.total[x] for x in names) / n / 1e3 if n else 0.0

    def mean_ms(self, *names) -> float:
        return self.mean_us(*names) / 1e3

    def per(self, names, per_count: int) -> float:
        return sum(self.count[x] for x in names) / per_count if per_count else 0.0

    def children_of(self, parent_name: str, child_name: str) -> int:
        return sum(1 for sid, name, _, _, parent, _ in self.spans
                   if name == child_name and parent is not None
                   and self.by_id[parent][0] == parent_name)

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a percentage of all spans' self time.

        Single-threaded, that total is the time of the root spans.  While the
        simulator's two workers run, spans on both threads count, so the
        total is thread time rather than wall time."""
        busy = sum(self.self_ns.values())
        shares = {}
        for layer in LAYERS:
            own = sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer)
            shares[f"{layer}.self_share_pct"] = 100.0 * own / busy if busy else 0.0
        return shares
