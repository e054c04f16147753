#!/usr/bin/env python
"""Load-generate against the estimation service: cold vs warm store.

Follows the ``bench_sweep.py`` cold/warm shape, but through the HTTP
surface: an in-process server on an ephemeral port (fresh temp cache
dir), then

1. **cold** — every (app, platform) pair requested concurrently for the
   first time (full profile + sweep evaluation behind each response);
2. **burst** — identical concurrent requests against one *additional*
   still-cold pair, so the duplicate-coalescing path is exercised under
   cold load (kept out of the cold phase so coalesced riders don't
   inflate its req/s);
3. **warm** — several concurrent rounds over the cold-phase pairs,
   served from the populated store's decoded estimates;
4. **observed** — the warm rounds again with a live tracer *and*
   session metrics registry installed around every request, so the
   overhead of full observability on the fast path is a tracked number
   (the ratio should hover near 1.0).

Writes ``BENCH_serve.json``: p50/p99 latency and req/s per phase, the
cold→warm throughput ratio, the observed/warm overhead ratio, the
coalescing hit count, and the serve/engine metric totals.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import platform as _platform
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.serve import create_server  # noqa: E402
from repro.serve import metrics as serve_metrics  # noqa: E402

#: (app, platform) request mix: the paper's headline structured /
#: unstructured apps across the HBM and DDR platforms.
PAIRS = [
    ("cloverleaf2d", "max9480"),
    ("miniweather", "max9480"),
    ("cloverleaf2d", "icx8360y"),
    ("mgcfd", "max9480"),
    ("miniweather", "icx8360y"),
    ("acoustic", "epyc7v73x"),
]
QUICK_PAIRS = PAIRS[:3]

#: The coalescing burst targets a pair outside the cold mix, so every
#: burst request races against the same single cold evaluation.
BURST_PAIR = ("volna", "max9480")
DUPLICATE_BURST = 8
WARM_ROUNDS = 5

#: Git-tracked perf trajectory (one JSONL row per bench run; see
#: ``scripts/check_bench_regression.py``).
DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "baselines" / "bench_history.jsonl"


def append_history(path: Path, row: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def fire(base: str, requests: list[tuple[str, str]]) -> tuple[list[float], float]:
    """POST /run for every pair concurrently; per-request latencies
    (seconds) plus the phase wall time."""
    latencies = [0.0] * len(requests)
    errors: list[str] = []

    def one(i: int, app: str, platform: str) -> None:
        body = json.dumps({"app": app, "platform": platform}).encode()
        req = urllib.request.Request(
            base + "/run", data=body,
            headers={"Content-Type": "application/json"},
        )
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(req, timeout=300) as resp:
                resp.read()
        except Exception as exc:  # surfaced after the phase
            errors.append(f"{app}@{platform}: {exc}")
        latencies[i] = time.perf_counter() - t0

    threads = [
        threading.Thread(target=one, args=(i, app, platform))
        for i, (app, platform) in enumerate(requests)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise SystemExit("bench_serve: request failures:\n  " + "\n  ".join(errors))
    return latencies, wall


def phase_stats(latencies: list[float], wall: float) -> dict:
    return {
        "requests": len(latencies),
        "wall_s": wall,
        "req_per_s": len(latencies) / wall if wall > 0 else None,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "max_ms": max(latencies) * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="3 pairs instead of 6 (the CI smoke shape)")
    ap.add_argument("--out", default="BENCH_serve.json",
                    help="output JSON path (default BENCH_serve.json)")
    ap.add_argument("--history", default=str(DEFAULT_HISTORY),
                    help="perf-trajectory JSONL to append to "
                         "(default baselines/bench_history.jsonl)")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append to the history file")
    args = ap.parse_args(argv)

    pairs = QUICK_PAIRS if args.quick else PAIRS
    serve_metrics.reset()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as cache_dir:
        server = create_server(
            port=0, cache_dir=cache_dir,
            max_inflight=DUPLICATE_BURST, max_queue=64,
        )
        server.run_in_thread()
        try:
            cold_lat, cold_wall = fire(server.url, pairs)
            cold = phase_stats(cold_lat, cold_wall)

            burst_lat, burst_wall = fire(
                server.url, [BURST_PAIR] * DUPLICATE_BURST
            )
            burst = phase_stats(burst_lat, burst_wall)

            warm_requests = pairs * WARM_ROUNDS
            warm_lat, warm_wall = fire(server.url, warm_requests)
            warm = phase_stats(warm_lat, warm_wall)

            # Same warm shape with full observability installed around
            # every dispatch (the embedded-use ServeConfig fields).
            tracer, session = Tracer(), MetricsRegistry()
            server.state.config.tracer = tracer
            server.state.config.session_metrics = session
            observed_lat, observed_wall = fire(server.url, warm_requests)
            observed = phase_stats(observed_lat, observed_wall)
            server.state.config.tracer = None
            server.state.config.session_metrics = None
            observed["trace_spans"] = len(tracer.spans)
            observed["session_metric_families"] = len(session.names())

            registry = serve_metrics.registry()
            coalesced = registry.total("serve_coalesced_total")
            run_hist = registry.histogram("serve_request_seconds",
                                          endpoint="/run")
            request_quantiles = (
                {"p50": run_hist.quantile(0.50), "p95": run_hist.quantile(0.95),
                 "p99": run_hist.quantile(0.99), "count": run_hist.count}
                if run_hist is not None else None
            )
            telemetry_samples = server.state.sampler.samples
            result = {
                "benchmark": "serve POST /run, cold vs warm store",
                "quick": args.quick,
                "pairs": [f"{a}@{p}" for a, p in pairs],
                "burst_pair": f"{BURST_PAIR[0]}@{BURST_PAIR[1]}",
                "duplicate_burst": DUPLICATE_BURST,
                "cold": cold,
                "coalesce_burst": burst,
                "warm": warm,
                "observed": observed,
                "warm_over_cold_req_per_s": (
                    warm["req_per_s"] / cold["req_per_s"]
                    if cold["req_per_s"] else None
                ),
                "observed_over_warm_wall": (
                    observed["wall_s"] / warm["wall_s"]
                    if warm["wall_s"] else None
                ),
                "coalesced_requests": coalesced,
                "request_seconds_quantiles": request_quantiles,
                "telemetry_samples": telemetry_samples,
                "serve_metrics": {
                    name: registry.total(name)
                    for name in registry.names()
                    if registry.kind(name) == "counter"
                },
                "engine_metrics": server.state.engine.metrics.as_dict(),
            }
        finally:
            server.stop()

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    if not args.no_history:
        append_history(Path(args.history), {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": _platform.node(),
            "benchmark": "serve",
            "quick": args.quick,
            "cold_req_per_s": cold["req_per_s"],
            "warm_req_per_s": warm["req_per_s"],
            "observed_over_warm": result["observed_over_warm_wall"],
            "request_seconds_quantiles": request_quantiles,
            "telemetry_samples": telemetry_samples,
        })
    print(f"cold {cold['req_per_s']:.1f} req/s "
          f"(p50 {cold['p50_ms']:.0f} ms, p99 {cold['p99_ms']:.0f} ms), "
          f"warm {warm['req_per_s']:.1f} req/s "
          f"(p50 {warm['p50_ms']:.1f} ms, p99 {warm['p99_ms']:.1f} ms) -> "
          f"{result['warm_over_cold_req_per_s']:.0f}x, "
          f"observed/warm {result['observed_over_warm_wall']:.2f}x, "
          f"{coalesced:.0f} coalesced; wrote {args.out}")
    if result["warm_over_cold_req_per_s"] < 10:
        print("WARNING: warm/cold throughput ratio below 10x", file=sys.stderr)
    if coalesced < 1:
        print("WARNING: no coalesced requests observed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
