"""Observability layer: span-based tracing and per-kernel metrics.

Sits beside every execution layer of the stack (see
``docs/ARCHITECTURE.md``): the ops/op2 parloop engines record per-kernel
spans (points, counted bytes, flops, access modes), the simmpi runtime
records sends, halo exchanges and per-rank virtual-clock wait
intervals, the perfmodel records each loop's roofline terms and winning
limb, and the engine, vectorized evaluator and service record their
wall-time stages on a separate wall-clock domain.

- :mod:`~repro.obs.tracer` — :class:`Tracer`, :func:`tracing` /
  :func:`active_tracer` (context-var scoped; a true no-op when
  disabled);
- :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` (labeled
  counters/gauges/histograms), :func:`collecting` /
  :func:`active_metrics` (same scoping and no-op guarantee as the
  tracer), plus Prometheus-text and JSON exporters;
- :mod:`~repro.obs.stages` — the stage recorder: :class:`stage` /
  :func:`record` read each wall-time stage once and feed the tracer,
  ``stage_seconds{layer,stage}`` and the current request's flight
  record;
- :mod:`~repro.obs.fidelity` — the paper-fidelity scorecard and drift
  gate behind ``python -m repro fidelity`` / ``drift`` (imported
  lazily by the CLI: it pulls in the harness layer);
- :mod:`~repro.obs.export` — Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto) and span-nesting validation;
- :mod:`~repro.obs.breakdown` — per-kernel breakdown tables (text/CSV)
  and the summary dict :mod:`repro.harness.report` renders;
- :mod:`~repro.obs.apptrace` — model-level timeline of one estimated
  run (one span per kernel loop and per halo exchange), behind
  ``python -m repro trace``;
- :mod:`~repro.obs.attribution` — additive attribution trees over
  estimates (every leaf's seconds sum back to the total) and what-if
  projections;
- :mod:`~repro.obs.diff` — differential analysis of two attribution
  trees (``python -m repro explain``): ranked contributors to a
  cross-platform or cross-run delta;
- :mod:`~repro.obs.htmlreport` — the self-contained HTML / markdown
  report behind ``python -m repro report`` (imported lazily by the
  CLI: it pulls in the harness layer).

See ``docs/TRACING.md`` for the span taxonomy and overhead guarantees.

Layer role (docs/ARCHITECTURE.md): sits beside the stack rather than
in it — every execution layer records into it, nothing reads back.
"""

from .apptrace import build_timeline
from .attribution import (
    WHAT_IF_KNOBS,
    AttrNode,
    attribute_estimate,
    leaf_index,
    what_if,
)
from .breakdown import (
    BREAKDOWN_COLUMNS,
    breakdown_csv,
    breakdown_table,
    kernel_breakdown,
    summary_dict,
)
from .diff import AttrDiff, Contributor, diff_trees, project
from .export import check_nesting, chrome_trace, write_chrome_trace
from .metrics import (
    MetricsRegistry,
    active_metrics,
    collecting,
    prometheus_text,
    snapshot,
)
from .tracer import Span, TraceEvent, Tracer, active_tracer, tracing

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "tracing",
    "MetricsRegistry",
    "active_metrics",
    "collecting",
    "prometheus_text",
    "snapshot",
    "chrome_trace",
    "write_chrome_trace",
    "check_nesting",
    "BREAKDOWN_COLUMNS",
    "kernel_breakdown",
    "breakdown_csv",
    "breakdown_table",
    "summary_dict",
    "build_timeline",
    "AttrNode",
    "attribute_estimate",
    "leaf_index",
    "WHAT_IF_KNOBS",
    "what_if",
    "AttrDiff",
    "Contributor",
    "diff_trees",
    "project",
]
