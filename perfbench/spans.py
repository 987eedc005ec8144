"""Span tracing of dmt's public functions, patched in from outside.

``Tracer.install`` replaces each named function or method with a wrapper
that records one span (name, start, end, parent span) per call, in every
``dmt`` module that holds a reference to it, so a function imported by
name into another module (``training.greedy_decode_batch``) is traced
there too. Spans stay in memory in flat arrays until ``write``.
``uninstall`` puts the originals back, so untraced rounds pay nothing.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []          # span-name id -> name
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict = {}
        self._stack: list = []
        self._patched: list = []        # (owner, attr, original)

    # -- counters -----------------------------------------------------------

    def count(self, key: str, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self) -> str:
        """Name of the innermost open span, or '' outside any span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced version of fn. ``before(args, kwargs)`` runs ahead of the
        call and ``after(args, kwargs, result)`` on its return, both inside
        the span's parent context, for counts taken at the boundary."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """targets: (owner, attribute, span name, before, after) tuples. A
        module-level function is replaced in every loaded dmt module that
        refers to it; a method is replaced on its class."""
        for owner, attr, name, before, after in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, before, after)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in [m for k, m in sys.modules.items()
                        if k == "dmt" or k.startswith("dmt.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def totals(self):
        """{name: (calls, self seconds)} over every recorded span."""
        own = self_times(self.start, self.end, self.parent)
        out = {}
        for nid, s in zip(self.name_id, own):
            calls, total = out.get(self.names[nid], (0, 0.0))
            out[self.names[nid]] = (calls + 1, total + s)
        return out

    def write(self, path, header: str = ""):
        """Spans as TSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self.name_id, self.start,
                                                     self.end, self.parent)):
                fh.write(f"{i}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def self_times(start, end, parent) -> list:
    """Per span: its duration minus its child spans' durations. Spans come
    from one call stack, so a span's children are disjoint and inside it."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
