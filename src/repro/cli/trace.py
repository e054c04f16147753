"""The trace/metrics verb group: exporting observability data —
Chrome trace-event timelines and the metrics-registry families."""

from __future__ import annotations

import sys

from ..apps import APP_ORDER
from ..engine import build_plan
from .common import configure_engine_from_args, resolve_app, resolve_platform

__all__ = ["cmd_trace", "cmd_metrics"]


def cmd_trace(args) -> int:
    if args.iterations < 1:
        print(f"--iterations must be at least 1, got {args.iterations}",
              file=sys.stderr)
        return 2
    name = resolve_app(args.app)
    if name is None:
        return 2
    platform = resolve_platform(args.platform)
    if platform is None:
        return 2
    from ..harness import render_breakdown, trace_application
    from ..obs import breakdown_csv, check_nesting, summary_dict, write_chrome_trace

    est, tracer = trace_application(name, platform, iterations=args.iterations)
    check_nesting(tracer)
    path = write_chrome_trace(tracer, args.output)
    if args.csv:
        print(breakdown_csv(est), end="")
    else:
        print(render_breakdown(summary_dict(est)))
    print(f"trace: {len(tracer.spans)} spans, {len(tracer.events)} events "
          f"-> {path} (load in chrome://tracing or https://ui.perfetto.dev)",
          file=sys.stderr)
    return 0


def cmd_metrics(args) -> int:
    from ..obs.metrics import (
        collecting, prometheus_text, quantile_summary, snapshot,
    )

    engine = configure_engine_from_args(args)
    apps = []
    for a in args.apps or APP_ORDER:
        resolved = resolve_app(a)
        if resolved is None:
            return 2
        apps.append(resolved)
    platform = resolve_platform(args.platform)
    if platform is None:
        return 2
    with collecting() as registry:
        plan = build_plan(apps, [platform])
        engine.run_plan(plan)
        if args.format == "prometheus":
            # Histogram p50/p95/p99 ride along as comment lines (the
            # same summary section GET /metrics appends).
            text = prometheus_text(registry) + quantile_summary(registry)
        else:
            import json as _json

            text = _json.dumps(snapshot(registry), indent=2, sort_keys=True) + "\n"
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"metrics: {len(registry)} samples across "
              f"{len(registry.names())} families -> {args.output}",
              file=sys.stderr)
    else:
        print(text, end="")
    return 0
