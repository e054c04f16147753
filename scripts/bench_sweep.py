#!/usr/bin/env python
"""Benchmark the sweep engine: cold vs warm fig3+fig6 regeneration.

Runs the two heaviest figure sweeps (the Figure 3 structured config
matrix and the Figure 6 cross-platform best-run table) twice — once
cold with caching disabled (every estimate evaluated, zero cache hits
by construction; fig6 re-evaluates even the points fig3 touched, as a
truly storeless run would) and once warm through a brand-new engine
reading a store populated by an untimed priming pass — and writes the
timings plus engine metrics to ``BENCH_sweep.json`` for the
performance trajectory.

A third **observed** pass repeats the cold shape with a live tracer and
session metrics registry installed.  The vectorized evaluator must stay
on under observability; the pass is gated at >= 10x the pre-vectorizer
scalar baseline (~211 jobs/s), failing the run (exit 1) if full
instrumentation ever drags the fast path below that floor.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import configure_engine, reset_engine  # noqa: E402
from repro.harness import figures  # noqa: E402
from repro.obs.metrics import MetricsRegistry, collecting  # noqa: E402
from repro.obs.tracer import Tracer, tracing  # noqa: E402

#: Cold throughput of the pre-vectorizer scalar engine (jobs/s); the
#: observed pass must clear ten times this.
SCALAR_BASELINE_JOBS_PER_S = 211.0

#: Git-tracked perf trajectory (one JSONL row per bench run; see
#: ``scripts/check_bench_regression.py``).
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "baselines" / "bench_history.jsonl"


def append_history(path: Path, row: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def timed_figures() -> float:
    t0 = time.perf_counter()
    figures.fig3()
    figures.fig6()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_sweep.json",
                    help="output JSON path (default BENCH_sweep.json)")
    ap.add_argument("--history", default=str(DEFAULT_HISTORY),
                    help="perf-trajectory JSONL to append to "
                         "(default baselines/bench_history.jsonl)")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append to the history file")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        # Prime the app specs (so both passes measure sweep work, not
        # one-time profiling of the application numerics) and populate
        # the store the warm pass will read.  Untimed.
        engine = configure_engine(cache_dir=cache_dir)
        timed_figures()
        spec_cache = engine._specs

        # Cold: caching disabled — pure evaluation, zero cache hits.
        engine = configure_engine(cache_dir=cache_dir, use_cache=False)
        engine._specs.update(spec_cache)
        cold_s = timed_figures()
        cold = engine.metrics.as_dict()

        # Observed cold: same storeless shape, with a tracer and a
        # session metrics registry live for the whole pass.  Best of
        # three repeats — the gate below measures the instrumented
        # path, not scheduler noise on a shared box.
        engine = configure_engine(cache_dir=cache_dir, use_cache=False)
        engine._specs.update(spec_cache)
        repeats = 3
        with tracing(Tracer()) as tracer, collecting(MetricsRegistry()) as session:
            observed_s = min(timed_figures() for _ in range(repeats))
        job_hist = session.histogram("engine_job_seconds")
        observed = engine.metrics.as_dict()
        observed_evaluator = engine.last_evaluator
        observed_spans = len(tracer.spans)
        observed_evals = observed["evaluations"] / repeats

        # Warm: new engine (as a new process would build), same store.
        engine = configure_engine(cache_dir=cache_dir)
        engine._specs.update(spec_cache)
        warm_s = timed_figures()
        warm = engine.metrics.as_dict()

    reset_engine()
    observed_jobs_per_s = (
        observed_evals / observed_s if observed_s > 0 else 0.0
    )
    cold_jobs_per_s = cold["evaluations"] / cold_s if cold_s > 0 else 0.0
    job_quantiles = (
        {"p50": job_hist.quantile(0.50), "p95": job_hist.quantile(0.95),
         "p99": job_hist.quantile(0.99), "count": job_hist.count}
        if job_hist is not None else None
    )
    result = {
        "benchmark": "fig3+fig6 sweep, cold vs warm store",
        "cold_s": cold_s,
        "observed_s": observed_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
        "observed_over_cold": observed_s / cold_s if cold_s > 0 else None,
        "cold_jobs_per_s": cold_jobs_per_s,
        "observed_jobs_per_s": observed_jobs_per_s,
        "job_seconds_quantiles": job_quantiles,
        "observed_repeats": repeats,  # observed_metrics span all repeats
        "observed_evaluator": observed_evaluator,
        "observed_trace_spans": observed_spans,
        "scalar_baseline_jobs_per_s": SCALAR_BASELINE_JOBS_PER_S,
        "cold_metrics": cold,
        "observed_metrics": observed,
        "warm_metrics": warm,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    if not args.no_history:
        append_history(Path(args.history), {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": _platform.node(),
            "benchmark": "sweep",
            "cold_s": cold_s,
            "cold_jobs_per_s": cold_jobs_per_s,
            "observed_jobs_per_s": observed_jobs_per_s,
            "warm_s": warm_s,
            "speedup": result["speedup"],
            "job_seconds_quantiles": job_quantiles,
        })
    print(f"cold {cold_s:.2f} s ({cold['evaluations']} evaluations), "
          f"observed {observed_s:.2f} s "
          f"({observed_jobs_per_s:.0f} jobs/s, {observed_evaluator}), "
          f"warm {warm_s:.2f} s ({warm['cache_hits']} hits, "
          f"{warm['evaluations']} evaluations) -> "
          f"{result['speedup']:.1f}x; wrote {args.out}")
    floor = 10 * SCALAR_BASELINE_JOBS_PER_S
    if observed_jobs_per_s < floor:
        print(f"FAIL: observed cold sweep ran {observed_jobs_per_s:.0f} "
              f"jobs/s, below the {floor:.0f} jobs/s gate "
              f"(10x the {SCALAR_BASELINE_JOBS_PER_S:.0f} jobs/s scalar "
              f"baseline)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
