"""Serve-layer metrics: one process-global registry for the service.

Every mechanism in the serve package (admission gate, request
handlers) records into one process-wide
:class:`~repro.obs.metrics.MetricsRegistry` held here, *and* mirrors
each sample into the session registry when one is installed via
:func:`repro.obs.metrics.collecting` — the same double-write pattern
:class:`repro.engine.metrics.EngineMetrics` uses.  ``GET /metrics``
exports this registry (merged with the engine's counters) through the
existing Prometheus text exporter.

Nothing in this module is imported unless the serve package is — the
zero-overhead guarantee for serve-less runs is that this file simply
never loads.

Metric families (all prefixed ``serve_``):

- ``serve_requests_total{endpoint,status}`` — requests by HTTP status;
- ``serve_request_seconds{endpoint}`` — per-request latency histogram;
- ``serve_inflight`` / ``serve_queue_depth`` — admission-gate gauges;
- ``serve_rejected_total`` — back-pressure 429s.

Each completed request's flight-record stages are folded in as
``stage_seconds{layer,stage}``, the stage recorder's family
(:mod:`repro.obs.stages`).
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry, active_metrics

__all__ = [
    "registry",
    "inc",
    "set_gauge",
    "observe",
    "reset",
]

#: Request-latency histogram bounds: service latencies run from
#: sub-millisecond warm store hits to multi-second cold profiling runs.
LATENCY_BUCKETS = (1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0)

_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global serve registry (shared by every server)."""
    return _registry


def inc(name: str, value: float = 1, **labels) -> None:
    _registry.inc(name, value, **labels)
    session = active_metrics()
    if session is not None and session is not _registry:
        session.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    _registry.set(name, value, **labels)
    session = active_metrics()
    if session is not None and session is not _registry:
        session.set(name, value, **labels)


def observe(
    name: str,
    value: float,
    buckets: tuple[float, ...] | None = None,
    **labels,
) -> None:
    bounds = buckets if buckets is not None else LATENCY_BUCKETS
    _registry.observe(name, value, buckets=bounds, **labels)
    session = active_metrics()
    if session is not None and session is not _registry:
        session.observe(name, value, buckets=bounds, **labels)


def reset() -> None:
    """Drop all serve samples (test isolation between servers)."""
    _registry.clear()
