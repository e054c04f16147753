"""Span/event recording with simulated-time and wall-time domains.

A :class:`Tracer` collects :class:`Span` and :class:`TraceEvent` records
from every execution layer — the DSL parloop engines, the simulated MPI
runtime, the performance model and the sweep engine.  Two clock domains
coexist and are never mixed on one track:

* **simulated time** — virtual seconds from the DSLs' timing models and
  the simmpi virtual clocks.  These spans sit on the timeline a Chrome
  trace viewer shows; t=0 is the start of the traced run.
* **wall time** — real seconds for the sweep engine's job lifecycle
  (cache hits, evaluations, thread occupancy).  Recorded relative to the
  tracer's creation (:attr:`Tracer.wall_epoch`) via :meth:`Tracer.
  wall_span` / :meth:`Tracer.wall_event`, and exported under separate
  process groups so simulated spans never carry wall-clock numbers.

Scoping: :func:`tracing` installs a tracer in a :mod:`contextvars`
context variable; instrumentation sites call :func:`active_tracer`,
which is a no-op (module-global integer check, no ContextVar lookup)
when no tracer is installed anywhere in the process.  Tracing therefore
has zero overhead on untraced runs — the property the engine tests pin
down by asserting bit-identical sweep results and store contents.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "tracing",
]

#: Track domains whose timestamps are wall-clock seconds (relative to
#: the tracer's ``wall_epoch``); every other domain is simulated time.
#: "engine" carries the sweep engine's job lifecycle, "vec" the batched
#: evaluator's per-batch stages, "serve" the HTTP service's per-request
#: and plan-execution spans.
WALL_DOMAINS = frozenset({"engine", "vec", "serve"})


@dataclass(frozen=True)
class Span:
    """One completed interval on one track.

    ``track`` is ``(domain, lane)``: the domain names the clock/subsystem
    ("ops", "rank", "timeline", "engine", ...) and the lane separates
    concurrent actors within it (a rank number, a worker name).
    """

    cat: str
    name: str
    start: float
    end: float
    track: tuple[str, int | str] = ("model", 0)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_wall(self) -> bool:
        return self.track[0] in WALL_DOMAINS


@dataclass(frozen=True)
class TraceEvent:
    """One instantaneous mark on one track."""

    cat: str
    name: str
    ts: float
    track: tuple[str, int | str] = ("model", 0)
    attrs: dict = field(default_factory=dict)

    @property
    def is_wall(self) -> bool:
        return self.track[0] in WALL_DOMAINS


class Tracer:
    """Thread-safe collector of spans and events.

    Append-only; recording never mutates anything the model reads, so an
    installed tracer cannot change results.  Spans validate
    ``end >= start`` at record time — simulated clocks only move
    forward, so a violation is an instrumentation bug worth failing on.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        #: perf_counter origin of the wall-time domain.
        self.wall_epoch = time.perf_counter()
        self._lock = threading.Lock()

    # ---- recording (simulated-time domain) ---------------------------

    def span(
        self,
        cat: str,
        name: str,
        start: float,
        end: float,
        track: tuple[str, int | str] = ("model", 0),
        **attrs,
    ) -> Span:
        if end < start:
            raise ValueError(f"span {name!r}: end {end} before start {start}")
        s = Span(cat, name, float(start), float(end), track, attrs)
        with self._lock:
            self.spans.append(s)
        return s

    def event(
        self,
        cat: str,
        name: str,
        ts: float,
        track: tuple[str, int | str] = ("model", 0),
        **attrs,
    ) -> TraceEvent:
        e = TraceEvent(cat, name, float(ts), track, attrs)
        with self._lock:
            self.events.append(e)
        return e

    # ---- recording (wall-time domain) --------------------------------

    def wall_span(
        self,
        cat: str,
        name: str,
        t0: float,
        t1: float,
        track: tuple[str, int | str] = ("engine", 0),
        **attrs,
    ) -> Span:
        """Record a span from two ``time.perf_counter()`` readings."""
        return self.span(
            cat, name, t0 - self.wall_epoch, t1 - self.wall_epoch, track, **attrs
        )

    def wall_event(
        self,
        cat: str,
        name: str,
        t: float,
        track: tuple[str, int | str] = ("engine", 0),
        **attrs,
    ) -> TraceEvent:
        """Record an event from a ``time.perf_counter()`` reading."""
        return self.event(cat, name, t - self.wall_epoch, track, **attrs)

    # ---- inspection ---------------------------------------------------

    def tracks(self) -> list[tuple[str, int | str]]:
        """Every distinct track, in first-appearance order."""
        seen: dict[tuple, None] = {}
        with self._lock:
            for s in self.spans:
                seen.setdefault(s.track)
            for e in self.events:
                seen.setdefault(e.track)
        return list(seen)

    def spans_of(self, cat: str | None = None, name: str | None = None) -> list[Span]:
        with self._lock:
            out = list(self.spans)
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def events_of(self, cat: str | None = None, name: str | None = None) -> list[TraceEvent]:
        with self._lock:
            out = list(self.events)
        if cat is not None:
            out = [e for e in out if e.cat == cat]
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans) + len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self.spans)} spans, {len(self.events)} events>"


# ---------------------------------------------------------------------------
# Installation

_tracer_var: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)
#: Count of live ``tracing()`` scopes process-wide.  The hot-path guard:
#: while zero, :func:`active_tracer` returns without touching the
#: ContextVar, so instrumented code costs one global read when disabled.
_install_count = 0


def active_tracer() -> Tracer | None:
    """The tracer installed in the current context, or None.

    This is the only call instrumentation sites make on untraced runs;
    it must stay allocation-free and branch-predictable.
    """
    if _install_count == 0:
        return None
    return _tracer_var.get()


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) for the duration of the block.

    Scoped via ContextVar: nested blocks shadow outer ones, and threads
    that run in a copied context (the serve batcher does) see the
    installing thread's tracer.
    """
    global _install_count
    tr = tracer if tracer is not None else Tracer()
    token = _tracer_var.set(tr)
    _install_count += 1
    try:
        yield tr
    finally:
        _install_count -= 1
        _tracer_var.reset(token)
