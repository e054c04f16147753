#!/usr/bin/env python
"""Load-generate against the estimation service: cold vs warm store.

Follows the ``bench_sweep.py`` cold/warm shape, but through the HTTP
surface: an in-process server on an ephemeral port over a process
engine on a fresh temp cache dir, then

1. **cold** — every (app, platform) pair requested concurrently for the
   first time (full profile + sweep evaluation behind each response);
2. **burst** — identical concurrent requests against one *additional*
   still-cold pair (kept out of the cold phase so the duplicates don't
   inflate its req/s).  The engine evaluates each result address once,
   so the burst must add no more evaluations than the pair has jobs;
3. **warm** — several concurrent rounds over the cold-phase pairs,
   served from the populated store's decoded estimates;
4. **keepalive** — the warm rounds sent in turn on each of two
   persistent connections, as a keep-alive client sends them (every
   other phase opens one connection per request, and a new connection
   acknowledges at once).  Each request's client latency is set against
   the server's own ``duration_s``, read from the flight recorder by
   ``X-Request-Id``: the median difference (``wire_gap_p50_ms``) is
   time the server did not account for, spent in the kernel or waiting
   on an ACK;
5. **observed** — the warm rounds again with a live tracer *and*
   session metrics registry installed around every request; its
   ``stages`` table (count and seconds per layer and stage) is read
   from the session registry's ``stage_seconds`` family.

Writes ``BENCH_serve.json``: p50/p99 latency and req/s per phase, the
keep-alive phase's server p50 and wire gap, the cold→warm throughput
ratio, the burst's engine evaluations, and the serve/engine metric
totals.  Exits 1 when the burst evaluates more than its pair's jobs or
``wire_gap_p50_ms`` reaches ``WIRE_GAP_LIMIT_MS``.

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--quick] [--out FILE]
"""

from __future__ import annotations

import argparse
import http.client
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
sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_bench_regression import DEFAULT_HISTORY, append_history  # noqa: E402
from repro.engine import build_plan, configure_engine, reset_engine  # noqa: E402
from repro.machine import get_platform  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.stages import stage_table  # noqa: E402
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
#: Two of three bodies fit in one loopback TCP segment, as four of the
#: six above do.  A larger body fills a second segment, which the
#: client ACKs at once, so it never shows a delayed-ACK stall; a mix of
#: mostly large bodies would hide one from the keep-alive phase's median.
QUICK_PAIRS = [PAIRS[0], PAIRS[1], PAIRS[3]]

#: The burst targets a pair outside the cold mix, so every burst
#: request asks for the same cold points.
BURST_PAIR = ("volna", "max9480")
DUPLICATE_BURST = 8
WARM_ROUNDS = 5
KEEPALIVE_CONNECTIONS = 2
#: Largest median of (client latency - server ``duration_s``) on a
#: kept-alive connection.  A response written in two parts on a Nagle
#: socket waits about 40 ms for the client's delayed ACK; one write on
#: a ``TCP_NODELAY`` socket keeps the gap under 1 ms on loopback.
WIRE_GAP_LIMIT_MS = 10.0


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


def keepalive(server, requests: list[tuple[str, str]]) -> dict:
    """POST /run for every pair in turn on each of
    ``KEEPALIVE_CONNECTIONS`` persistent connections; the phase's stats
    plus the server's own ``duration_s`` per request, matched by
    ``X-Request-Id`` in the flight recorder after the phase."""
    per_connection: list[list[tuple[str, float]]] = [
        [] for _ in range(KEEPALIVE_CONNECTIONS)]
    errors: list[str] = []

    def one_connection(out: list[tuple[str, float]]) -> None:
        conn = http.client.HTTPConnection(
            server.server_address[0], server.port, timeout=300)
        try:
            for app, platform in requests:
                body = json.dumps({"app": app, "platform": platform})
                t0 = time.perf_counter()
                conn.request("POST", "/run", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                out.append((resp.getheader("X-Request-Id"),
                            time.perf_counter() - t0))
                if resp.status != 200:
                    errors.append(f"{app}@{platform}: HTTP {resp.status}")
        except (OSError, http.client.HTTPException) as exc:
            errors.append(f"keep-alive connection: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=one_connection, args=(out,))
               for out in per_connection]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise SystemExit("bench_serve: request failures:\n  " + "\n  ".join(errors))
    samples = [sample for out in per_connection for sample in out]
    # A flight record lands just after its response is sent.
    recorder = server.state.recorder
    deadline = time.monotonic() + 10.0
    while not all(recorder.get(rid) for rid, _ in samples):
        if time.monotonic() > deadline:
            raise SystemExit(f"bench_serve: keep-alive requests missing "
                             f"from the flight recorder's "
                             f"{recorder.capacity}-record ring")
        time.sleep(0.01)
    client = [seconds for _, seconds in samples]
    served = [recorder.get(rid)["duration_s"] for rid, _ in samples]
    stats = phase_stats(client, wall)
    stats["connections"] = KEEPALIVE_CONNECTIONS
    stats["server_p50_ms"] = percentile(served, 0.50) * 1e3
    stats["wire_gap_p50_ms"] = percentile(
        [c - s for c, s in zip(client, served)], 0.50) * 1e3
    return stats


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
    app, platform = BURST_PAIR
    burst_jobs = len(build_plan([app], [get_platform(platform)]).jobs)
    serve_metrics.reset()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as cache_dir:
        engine = configure_engine(cache_dir=cache_dir)
        server = create_server(
            port=0, max_inflight=DUPLICATE_BURST, max_queue=64,
        )
        server.run_in_thread()
        try:
            cold_lat, cold_wall = fire(server.url, pairs)
            cold = phase_stats(cold_lat, cold_wall)

            before = engine.metrics.evaluations
            burst_lat, burst_wall = fire(
                server.url, [BURST_PAIR] * DUPLICATE_BURST
            )
            burst = phase_stats(burst_lat, burst_wall)
            burst["jobs"] = burst_jobs
            burst["evaluations"] = engine.metrics.evaluations - before

            warm_requests = pairs * WARM_ROUNDS
            warm_lat, warm_wall = fire(server.url, warm_requests)
            warm = phase_stats(warm_lat, warm_wall)

            kept_alive = keepalive(server, warm_requests)

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
            observed["stages"] = stage_table(session)

            registry = serve_metrics.registry()
            run_hist = registry.histogram("serve_request_seconds",
                                          endpoint="/run")
            request_quantiles = (
                {"p50": run_hist.quantile(0.50), "p95": run_hist.quantile(0.95),
                 "p99": run_hist.quantile(0.99), "count": run_hist.count}
                if run_hist is not None else None
            )
            result = {
                "benchmark": "serve POST /run, cold vs warm store",
                "quick": args.quick,
                "pairs": [f"{a}@{p}" for a, p in pairs],
                "burst_pair": f"{BURST_PAIR[0]}@{BURST_PAIR[1]}",
                "duplicate_burst": DUPLICATE_BURST,
                "cold": cold,
                "burst": burst,
                "warm": warm,
                "keepalive": kept_alive,
                "observed": observed,
                "warm_over_cold_req_per_s": (
                    warm["req_per_s"] / cold["req_per_s"]
                    if cold["req_per_s"] else None
                ),
                "request_seconds_quantiles": request_quantiles,
                "serve_metrics": {
                    name: registry.total(name)
                    for name in registry.names()
                    if registry.kind(name) == "counter"
                },
                "engine_metrics": engine.metrics.as_dict(),
            }
        finally:
            server.stop()
            reset_engine()

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    if not args.no_history:
        append_history(Path(args.history), {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": _platform.node(),
            "benchmark": "serve",
            "quick": args.quick,
            "cold_req_per_s": cold["req_per_s"],
            "warm_req_per_s": warm["req_per_s"],
            "request_seconds_quantiles": request_quantiles,
        })
    print(f"cold {cold['req_per_s']:.1f} req/s "
          f"(p50 {cold['p50_ms']:.0f} ms, p99 {cold['p99_ms']:.0f} ms), "
          f"warm {warm['req_per_s']:.1f} req/s "
          f"(p50 {warm['p50_ms']:.1f} ms, p99 {warm['p99_ms']:.1f} ms) -> "
          f"{result['warm_over_cold_req_per_s']:.0f}x, "
          f"keep-alive {kept_alive['req_per_s']:.1f} req/s "
          f"(wire gap p50 {kept_alive['wire_gap_p50_ms']:.2f} ms), "
          f"burst {burst['evaluations']} evaluations for {burst_jobs} jobs; "
          f"wrote {args.out}")
    if result["warm_over_cold_req_per_s"] < 10:
        print("WARNING: warm/cold throughput ratio below 10x", file=sys.stderr)
    failed = False
    if burst["evaluations"] > burst_jobs:
        print(f"FAIL: {DUPLICATE_BURST} identical cold requests made "
              f"{burst['evaluations']} evaluations for {burst_jobs} jobs",
              file=sys.stderr)
        failed = True
    if kept_alive["wire_gap_p50_ms"] >= WIRE_GAP_LIMIT_MS:
        print(f"FAIL: keep-alive /run replies reach the client a median "
              f"{kept_alive['wire_gap_p50_ms']:.1f} ms after the server "
              f"finished them (limit {WIRE_GAP_LIMIT_MS:.0f} ms)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
