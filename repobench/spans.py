"""In-memory spans recorded around a program's public functions, wrapped
from outside.

A :class:`Tracer` replaces a function or method with a wrapper that
records a span (name, start, end, parent, thread, request id) and then
calls the original.  Nothing in the program changes:
:meth:`Tracer.wrap_function` patches every reference a loaded ``repro``
module holds to the target, :meth:`Tracer.wrap_method` patches the class,
and :meth:`Tracer.uninstall` restores them all.  A target that no longer
exists is skipped, so its metric reads 0 rather than breaking the
benchmark.  Spans stay in memory until :meth:`Tracer.dump` writes them,
once, at the end of a traced run.

Per-message functions (a cost model's pricing, a communicator's rank
map) are *aggregated* instead: one call count and one time per name,
no span per call.  Their time still counts as covered by the enclosing
span, so self time stays exact.

Self time of a span is its duration minus the time its children (child
spans and aggregated calls) cover.  Inside one root span on one thread,
the self times of every span under it, the aggregated times and the
root's own self time (the unattributed time) add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable

_pc = time.perf_counter


class Tracer:
    def __init__(self, request_id: Callable[[], str | None] | None = None):
        #: One row per span: [name, start, end, parent, thread, request].
        self.spans: list[list] = []
        #: Time each span's children cover, parallel to ``spans``.
        self.covered: list[float] = []
        #: Aggregated per-call names: name -> [calls, seconds].
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Free-form exact counts (hits, bytes, jobs, ...).
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = request_id
        #: Scratch state for hooks, keyed weakly by the object it is
        #: about (store sizes), so a new object never inherits the entry
        #: of a freed one.
        self.memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        rid = self.request_id() if self.request_id is not None else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, _pc(), 0.0, stack[-1] if stack else -1,
                               threading.get_ident(), rid])
            self.covered.append(0.0)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = _pc()
        span = self.spans[idx]
        span[2] = end
        stack = self._stack()
        stack.pop()
        if stack:
            self.covered[stack[-1]] += end - span[1]

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _aggregate(self, name: str, dt: float) -> None:
        stack = self._stack()
        with self._lock:
            agg = self.aggregates[name]
            agg[0] += 1
            agg[1] += dt
            if stack:
                self.covered[stack[-1]] += dt

    # ---- wrappers ------------------------------------------------------

    def spanned(self, fn, name: str, after=None):
        """``fn`` recorded as a span; ``after(tracer, args, result)``
        runs once the span is closed (for counts)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def aggregated(self, fn, name: str):
        """``fn`` counted and timed with no span.  Nested aggregated
        calls (one cost model delegating to another) count once."""
        tracer = self
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tls, "in_agg", False):
                return fn(*args, **kwargs)
            tls.in_agg = True
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                tls.in_agg = False
                tracer._aggregate(name, _pc() - t0)

        wrapper.__bench_original__ = fn
        return wrapper

    # ---- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str, *,
                      aggregate: bool = False, after=None,
                      only_in: str | None = None) -> bool:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module
        refers to it (``only_in``: in that one module only)."""
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if not callable(fn):
            return False
        wrapper = (self.aggregated(fn, name) if aggregate
                   else self.spanned(fn, name, after))
        targets = ([sys.modules.get(only_in)] if only_in else
                   [m for n, m in list(sys.modules.items())
                    if n == "repro" or n.startswith("repro.")])
        hit = False
        for m in targets:
            if m is None:
                continue
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, key, wrapper)
                    hit = True
        return hit

    def wrap_method(self, module: str, cls: str, attr: str, name: str, *,
                    aggregate: bool = False, after=None) -> bool:
        """Wrap a method, classmethod or property getter of a class."""
        mod = sys.modules.get(module)
        owner = getattr(mod, cls, None) if mod is not None else None
        if owner is None or attr not in vars(owner):
            return False
        raw = vars(owner)[attr]
        make = (lambda f: self.aggregated(f, name)) if aggregate else (
            lambda f: self.spanned(f, name, after))
        if isinstance(raw, property):
            new = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif callable(raw):
            new = make(raw)
        else:
            return False
        self._set(owner, attr, new)
        return True

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---- analysis ------------------------------------------------------

    def self_times(self, keep: set[int]) -> dict[str, float]:
        """Self seconds per span name over the spans in ``keep``."""
        out: dict[str, float] = defaultdict(float)
        for i in keep:
            name, start, end = self.spans[i][:3]
            out[name] += (end - start) - self.covered[i]
        return dict(out)

    def descendants(self, roots: list[int]) -> set[int]:
        """``roots`` and every span opened under them."""
        keep = set(roots)
        for i, span in enumerate(self.spans):
            if span[3] in keep:
                keep.add(i)
        return keep

    def calls(self, keep: set[int]) -> dict[str, int]:
        """Span count per name over the spans in ``keep``."""
        out: dict[str, int] = defaultdict(int)
        for i in keep:
            out[self.spans[i][0]] += 1
        return dict(out)

    def dump(self, path) -> None:
        """Write every span, aggregate and count as JSON (once, at exit)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "covered": self.covered,
                "aggregates": {k: list(v) for k, v in self.aggregates.items()},
                "counts": dict(self.counts),
            }, fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        t = cls()
        t.spans = data["spans"]
        t.covered = data["covered"]
        for k, v in data["aggregates"].items():
            t.aggregates[k] = v
        t.counts.update(data["counts"])
        return t
