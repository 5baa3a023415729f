"""Span tracing for the benchmark's traced run.

A :class:`Tracer` wraps named functions and methods of ``turanl2``.  Each call
of a span wrapper records one span (name, start, end, parent span) in compact
in-memory arrays; count wrappers only count calls, for functions called so
often that a span per call would cost more than the call itself.  A wrapper
replaces the original object under every name that any module of the traced
packages bound it to (``turanl2`` and the benchmark's own modules), so calls
between modules are seen; :meth:`Tracer.uninstall` puts every original back.

Self time of a span is its duration minus the time its child spans cover.
Calls on one thread nest strictly, so the children of a span never overlap
and the covered time is the sum of their durations.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from typing import Callable, Optional


class Tracer:
    def __init__(self, packages: tuple[str, ...] = ("turanl2",),
                 clock: Callable[[], float] = time.perf_counter):
        self.packages = packages
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")  # -1 marks a root span
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span_wrapper(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call while the tracer is active.

        ``observe(args, result)`` runs after the span closes, so that counters
        read from arguments and results are taken where the work happens.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, target: str, name: str, *, count_only: bool = False,
                observe: Optional[Callable] = None) -> None:
        """Wrap ``target``, written ``module:function`` or ``module:Class.method``.

        A function is replaced under every attribute of every loaded module
        of ``packages`` that holds the original object; a method is replaced
        on its class.
        """
        module_name, _, attr = target.partition(":")
        owner = sys.modules[module_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            places = [(cls, meth)]
        else:
            orig = getattr(owner, attr)
            places = [(mod, key) for mod in package_modules(self.packages)
                      for key, value in list(vars(mod).items()) if value is orig]
        wrapped = (self.count_wrapper(name, orig) if count_only
                   else self.span_wrapper(name, orig, observe))
        for place, key in places:
            self._patch(place, key, wrapped)

    def _patch(self, owner: object, key: str, wrapped: Callable) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        self.active = False
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Name -> (calls, total self seconds) over every recorded span."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        out: dict[str, tuple[int, float]] = {}
        for i, nid in enumerate(self.span_name):
            calls, total = out.get(self.names[nid], (0, 0.0))
            out[self.names[nid]] = (calls + 1, total + ends[i] - starts[i] - covered[i])
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end (seconds), parent index."""
        with gzip.open(path, "wt") as fh:
            for i, nid in enumerate(self.span_name):
                fh.write(json.dumps([self.names[nid], self.span_start[i],
                                     self.span_end[i], self.span_parent[i]]))
                fh.write("\n")


def package_modules(packages: tuple[str, ...]) -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and key.split(".")[0] in packages]
