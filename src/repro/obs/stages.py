"""The stage recorder: every wall-time stage is read once, here.

A *stage* is one interval of real time spent in one layer of the stack
(a wall domain of the tracer): ``serve`` (``queue_wait``), ``engine``
(``store_io``, ``plan``, ``lookup``, ``batch_window``, ``batch``,
``evaluate``) or ``vec`` (``lower``, ``pass``, ``scatter``);
``docs/TRACING.md`` says what each interval covers.  :class:`stage`
times a block; :func:`record` takes an interval from two clock
readings the caller made (the engine reads ``batch_window`` around a
wait and records it only when there was one).  Either way the one
reading goes to each consumer that is live: a wall span on the
recording thread's track of the active tracer, an observation of
``stage_seconds{layer,stage}`` in the active session registry, and the
current request's flight-record stage map (:func:`set_request`).  With
none of them live a stage costs its two clock reads and one
context-variable read.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

from . import metrics as _metrics
from . import tracer as _tracer

__all__ = [
    "STAGE_BUCKETS",
    "clock",
    "current_request",
    "record",
    "set_request",
    "span",
    "stage",
    "stage_table",
]

#: The one clock every stage reads (seconds, system-wide monotonic).
clock = time.perf_counter

#: ``stage_seconds`` bucket bounds: stages run from a few-microsecond
#: store read to a multi-second cold plan.
STAGE_BUCKETS = (1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0)

#: The request whose flight record collects this context's stages: any
#: object with an ``add_stage(layer, stage, seconds)`` method.
_request: ContextVar = ContextVar("repro_request", default=None)


def set_request(request) -> None:
    """Make ``request`` the current context's request."""
    _request.set(request)


def current_request():
    """The current context's request, or ``None`` outside one."""
    return _request.get()


def span(layer: str, name: str, t0: float, t1: float, **attrs) -> None:
    """A wall span from two :data:`clock` readings on the active tracer,
    on this thread's ``(layer, thread name)`` track."""
    tracer = _tracer.active_tracer()
    if tracer is not None:
        tracer.wall_span(
            layer, name, t0, t1,
            track=(layer, threading.current_thread().name), **attrs
        )


def record(layer: str, name: str, t0: float, t1: float, **attrs) -> float:
    """Record one stage from two :data:`clock` readings; returns its
    seconds."""
    seconds = t1 - t0
    if _tracer._install_count:
        span(layer, name, t0, t1, **attrs)
    registry = _metrics.active_metrics()
    if registry is not None:
        registry.observe("stage_seconds", seconds, buckets=STAGE_BUCKETS,
                         layer=layer, stage=name)
    request = _request.get()
    if request is not None:
        request.add_stage(layer, name, seconds)
    return seconds


class stage:
    """Time the ``with`` block as one ``layer``/``name`` stage; its
    ``seconds`` after the block exits.  A ``__slots__`` class, not a
    generator context manager: the store times every read with it, and
    this form costs about a third as much."""

    __slots__ = ("layer", "name", "attrs", "t0", "seconds")

    def __init__(self, layer: str, name: str, **attrs):
        self.layer = layer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "stage":
        self.t0 = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = clock()
        t0 = self.t0
        self.seconds = t1 - t0
        if (_tracer._install_count or _metrics._install_count
                or _request.get() is not None):
            record(self.layer, self.name, t0, t1, **self.attrs)


def stage_table(registry: _metrics.MetricsRegistry) -> list[dict]:
    """The registry's ``stage_seconds`` family as rows of ``layer``,
    ``stage``, ``count`` and ``seconds``, sorted by layer and stage."""
    return [{"layer": labels["layer"], "stage": labels["stage"],
             "count": hist.count, "seconds": hist.total}
            for labels, hist in registry.samples("stage_seconds")]
