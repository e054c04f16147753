"""Serve-layer metrics: one process-global registry for the service.

Every mechanism in the serve package (admission gate, coalescer,
batcher, request handlers) records into one process-wide
:class:`~repro.obs.metrics.MetricsRegistry` held here, *and* mirrors
each sample into the session registry when one is installed via
:func:`repro.obs.metrics.collecting` — the same double-write pattern
:class:`repro.engine.metrics.EngineMetrics` uses.  ``GET /metrics``
exports this registry (merged with the engine's counters) through the
existing Prometheus text exporter, and ``python -m repro metrics``
folds the families in after a server has run in-process.

Nothing in this module is imported unless the serve package is — the
zero-overhead guarantee for serve-less runs is that this file simply
never loads (the metrics CLI looks the package up in ``sys.modules``
instead of importing it).

Metric families (all prefixed ``serve_``):

- ``serve_requests_total{endpoint,status}`` — requests by HTTP status;
- ``serve_request_seconds{endpoint}`` — per-request latency histogram;
- ``serve_inflight`` / ``serve_queue_depth`` — admission-gate gauges;
- ``serve_rejected_total`` — back-pressure 429s;
- ``serve_coalesced_total`` — duplicate in-flight requests that shared
  a leader's evaluation;
- ``serve_batches_total`` / ``serve_batched_requests_total`` — batcher
  flushes and the requests they covered;
- ``serve_warm_inline_total`` — fully-cached run requests served
  inline, skipping the batch window;
- ``serve_stage_seconds{stage}`` — per-stage latency histogram fed
  from the flight recorder's stage timings (``queue_wait``,
  ``shard_exec``, ...), on the finer :data:`STAGE_BUCKETS` grid;
- ``serve_slo_burn_rate{slo}`` / ``serve_slo_status{slo}`` — burn rate
  and 0/1/2 (ok/degraded/failing) per objective, published by the
  telemetry sampler each tick.
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry, active_metrics

__all__ = [
    "registry",
    "inc",
    "set_gauge",
    "observe",
    "merge_into",
    "reset",
]

#: Request-latency histogram bounds: service latencies run from
#: sub-millisecond warm store hits to multi-second cold profiling runs.
LATENCY_BUCKETS = (1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0)

#: Stage-latency bounds (``serve_stage_seconds{stage=...}``): stages
#: like the batch queue wait live well under a millisecond on a warm
#: server, so the grid extends two decades finer than LATENCY_BUCKETS.
STAGE_BUCKETS = (1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.0)

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


def merge_into(target: MetricsRegistry) -> int:
    """Fold every serve family into ``target``; returns samples merged.

    This is how ``python -m repro metrics`` surfaces serve activity
    after a server has run in-process without the serve layer ever
    touching the metrics CLI path when unused.
    """
    return target.merge(_registry)


def reset() -> None:
    """Drop all serve samples (test isolation between servers)."""
    _registry.clear()
