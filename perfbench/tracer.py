"""In-memory tracer for pplab's public functions, installed from outside.

A probe names a function by its home module and attribute.  Installing
the tracer replaces that function in every pplab module that holds it
under the same name (``experiments`` imports ``distance_matrix`` and
``uniform`` directly, ``cli`` imports ``sweep_to_csv`` and so on), so
calls made inside pplab are seen as well as the benchmark's own.
Uninstalling puts every original back.

Each call becomes a span (name, start, end, parent span).  Totals per name
are kept as the spans close: calls, inclusive seconds (outermost span of a
name only, so recursion is not counted twice) and self seconds (duration
minus the time covered by direct child spans).  Counters record work done
at the same boundaries.  Spans themselves (times in seconds since the
tracer was made) are kept up to a cap and written with the totals to one
JSON file.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import weakref

_SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.totals = {}               # name -> [calls, inclusive_s, self_s]
        self.counts = {}               # counter name -> number
        self.spans = []                # (id, parent id, name, start, end)
        self.dropped_spans = 0
        self._local = threading.local()
        self._next_id = 0
        self._patched = []             # (owner, attribute, original)
        self._adjacency_seen = weakref.WeakSet()
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        self._next_id += 1
        sid = self._next_id
        parent = stack[-1][0] if stack else 0
        nested = any(frame[1] == name for frame in stack)
        frame = [sid, name, 0.0]       # id, name, seconds covered by children
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][2] += dur
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            if not nested:
                tot[1] += dur
            tot[2] += dur - frame[2]
            if len(self.spans) < _SPAN_CAP:
                self.spans.append((sid, parent, name, t0 - self._origin,
                                   t1 - self._origin))
            else:
                self.dropped_spans += 1

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, home: str, attr: str, make):
        original = getattr(importlib.import_module(home), attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        for name, mod in list(sys.modules.items()):
            if (name == "pplab" or name.startswith("pplab.")) and \
                    getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper):
        original = cls.__dict__[attr]
        functools.update_wrapper(wrapper, original)
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def install(self, probes):
        """Wrap each probe: (home module, attribute, span name, counter hook).

        The hook, if any, is called as hook(tracer, args, kwargs, result).
        """
        for home, attr, name, hook in probes:
            def make(original, name=name, hook=hook):
                def wrapper(*args, **kwargs):
                    result = self.span(name, original, *args, **kwargs)
                    if hook is not None:
                        hook(self, args, kwargs, result)
                    return result
                return wrapper
            self._replace_everywhere(home, attr, make)

    def install_graph_probes(self, graph_cls):
        """Graph construction, and the first adjacency lookup per graph.

        The first ``neighbors``/``incident_edges`` call on a graph builds
        its adjacency; that call is timed as ``models.adjacency``.  Later
        calls pass straight through.
        """
        init = graph_cls.__init__

        def traced_init(g, *args, **kwargs):
            return self.span("models.Graph", init, g, *args, **kwargs)

        self._replace_method(graph_cls, "__init__", traced_init)
        seen = self._adjacency_seen
        for attr in ("neighbors", "incident_edges"):
            original = graph_cls.__dict__[attr]

            def first_call(g, v, original=original):
                if g in seen:
                    return original(g, v)
                seen.add(g)
                return self.span("models.adjacency", original, g, v)

            self._replace_method(graph_cls, attr, first_call)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def write(self, path, extra=None):
        doc = {
            "totals": {name: {"calls": c, "inclusive_s": inc, "self_s": own}
                       for name, (c, inc, own) in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)
