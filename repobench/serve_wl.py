"""``serve-run``: ``repro serve`` in its own process, driven over HTTP.

Set-up starts the server (default flags, empty store) and requests each
of the 36 (app, platform) pairs once, the cold path through the batch
window, shard pool, vectorized evaluation and store writes.  The timed
phase is this process with ``CONNECTIONS`` closed-loop keep-alive
connections, sending seeded ``POST /run`` requests over the 36 pairs
with Zipf popularity: every request is warm, so latency quantiles
never straddle the cold/warm boundary.

The server runs under ``serve_main.py`` on its own vCPU, with the
host-state sampler inside it; this client runs on the other vCPU.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

import checks
import layers
from common import (BENCH_DIR, WORK, child_env, median, metric, peak_rss_mb,
                    pin, quantile)
from hoststate import fast_equivalent, state_factor
from spans import Tracer

CPU_SERVER, CPU_CLIENT = 0, 1
CONNECTIONS = 2
#: Zipf exponent of request popularity.  Breslau et al., "Web Caching
#: and Zipf-like Distributions: Evidence and Implications" (INFOCOM
#: 1999), fit web proxy request popularity with exponents between about
#: 0.64 and 0.83; no measurement of this server's traffic exists.
ZIPF_S = 0.8
#: Requests per popularity cycle (see :func:`zipf_requests`).
CYCLE = 100
SETUP_REPEATS = 3
#: Length of one traced or untraced phase of a traced run.
PHASE_S = 2.0
STAGES = ("queue_wait", "batch_window", "shard_exec", "store_io")
#: ``GET /metrics`` counters -> per-layer metric.
COUNTERS = {
    "serve_warm_inline_total": "serve.warm_inline",
    "serve_lru_hits_total": "serve.lru.hits",
    "serve_lru_misses_total": "serve.lru.misses",
    "serve_rejected_total": "serve.refused",
}

_pc = time.perf_counter


def pairs() -> list[tuple[str, str]]:
    from repro.apps.base import APP_ORDER
    from repro.machine import ALL_PLATFORMS

    return [(a, p.short_name) for a in APP_ORDER for p in ALL_PLATFORMS]


def expected_bodies() -> dict[tuple[str, str], bytes]:
    """What ``repro run APP --platform P --json`` prints, per pair."""
    from repro.engine import reset_engine
    from repro.machine import ALL_PLATFORMS
    from repro.serve.payloads import render_json, run_payload

    os.environ["REPRO_CACHE_DIR"] = ""  # in-memory store only
    reset_engine()
    by_name = {p.short_name: p for p in ALL_PLATFORMS}
    out = {(a, p): render_json(run_payload(a, by_name[p])).encode()
           for a, p in pairs()}
    reset_engine()
    return out


def popularity_ranking() -> list[tuple[str, str]]:
    """Pairs from most to least requested: platform-major, so every
    application is among the nine most popular pairs.  The order is a
    choice, not a measurement; the platforms lead with the Xeon MAX."""
    from repro.apps.base import APP_ORDER
    from repro.machine import ALL_PLATFORMS

    return [(a, p.short_name) for p in ALL_PLATFORMS for a in APP_ORDER]


def cycle_counts() -> list[int]:
    """Requests per pair in one cycle of ``CYCLE``: Zipf(``ZIPF_S``)
    shares of :func:`popularity_ranking`, rounded by largest
    remainder."""
    weights = [1.0 / k ** ZIPF_S
               for k in range(1, len(popularity_ranking()) + 1)]
    quotas = [CYCLE * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:CYCLE - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_requests(seed: int):
    """Endless request sequence: cycles of ``CYCLE`` requests holding
    each pair :func:`cycle_counts` times, each cycle shuffled by the
    seed.  The seed orders the requests but fixes neither the ranking
    nor the mix: the costliest pair takes about four times as long as
    the cheapest, so a mix that changed with the seed would move the
    latency quantiles."""
    rng = random.Random(seed)
    cycle = [pair for pair, n in zip(popularity_ranking(), cycle_counts())
             for _ in range(n)]
    while True:
        rng.shuffle(cycle)
        yield from cycle


class Server:
    """One ``repro serve`` process under ``serve_main.py``."""

    def __init__(self, directory, trace: bool):
        self.dir = directory
        self.dir.mkdir(parents=True)
        self.probes_path = self.dir / "probes.json"
        self.spans_path = self.dir / "spans.json" if trace else None
        self.access_path = self.dir / "access.jsonl"
        self._probes = None
        cmd = [sys.executable, str(BENCH_DIR / "serve_main.py"),
               str(CPU_SERVER), str(self.probes_path),
               str(self.spans_path) if trace else "-",
               "--", "serve", "--port", "0"]
        if trace:
            cmd += ["--access-log", str(self.access_path)]
        self.started = _pc()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=child_env(REPRO_CACHE_DIR=str(self.dir / "store")))
        self.host, self.port = self._wait_ready()
        self._drain = threading.Thread(target=self._discard, daemon=True)
        self._drain.start()

    def _wait_ready(self, timeout: float = 120.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            m = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if m:
                return m.group(1), int(m.group(2))
        self.stop()
        raise RuntimeError("repro serve did not start")

    def _discard(self) -> None:
        for _ in self.proc.stderr:
            pass

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)
        time.sleep(0.05)  # the server's main thread handles it at once

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=5)  # reads to EOF once the server is gone
        self.proc.stderr.close()

    def factor(self, t0: float, t1: float) -> float:
        """Host-state factor of the server's vCPU over ``[t0, t1]``
        (``perf_counter`` is one system-wide monotonic clock)."""
        if self._probes is None:
            with open(self.probes_path, encoding="utf-8") as fh:
                data = json.load(fh)
            self._probes = data["starts"], data["durations"]
        return state_factor(*self._probes, t0, t1)


def post_run(conn, pair) -> tuple[int, bytes, str | None]:
    body = json.dumps({"app": pair[0], "platform": pair[1]})
    conn.request("POST", "/run", body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read(), resp.getheader("X-Request-Id")


def get_counters(server: Server) -> dict[str, float]:
    conn = server.connect()
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    totals: dict[str, float] = {}
    for line in text.splitlines():
        m = re.match(r"^([A-Za-z_:][\w:]*)(?:\{[^}]*\})?\s+(\S+)$", line)
        if m:
            totals[m.group(1)] = totals.get(m.group(1), 0.0) + float(m.group(2))
    return totals


class Request:
    __slots__ = ("pair", "t0", "t1", "status", "rid", "ok", "traced",
                 "latency")

    def __init__(self, pair, t0, t1, status, rid, ok, traced):
        self.pair, self.t0, self.t1 = pair, t0, t1
        self.status, self.rid, self.ok, self.traced = status, rid, ok, traced
        #: Fast-equivalent seconds, once the server's probes are read.
        self.latency = t1 - t0


def drive(server: Server, seq, expected, until: float, traced: bool,
          out: list, problems: list) -> None:
    """``CONNECTIONS`` closed-loop clients until ``until``."""
    lock = threading.Lock()

    def client():
        conn = server.connect()
        try:
            while _pc() < until:
                with lock:
                    pair = next(seq)
                t0 = _pc()
                try:
                    status, body, rid = post_run(conn, pair)
                except (OSError, http.client.HTTPException) as exc:
                    status, body, rid = 0, str(exc).encode(), None
                    conn.close()
                    conn = server.connect()
                t1 = _pc()
                found = checks.check_response(status, body, expected[pair],
                                              f"POST /run {pair}")
                with lock:
                    out.append(Request(pair, t0, t1, status, rid,
                                       not found, traced))
                    problems.extend(found)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def cold_fill(server: Server, expected, problems: list) -> float:
    """Request every pair once; returns when the last reply arrived."""
    conn = server.connect()
    try:
        for pair in pairs():
            status, body, _ = post_run(conn, pair)
            problems += checks.check_response(status, body, expected[pair],
                                              f"cold POST /run {pair}")
    finally:
        conn.close()
    return _pc()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    pin(CPU_CLIENT)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    reqs: list[Request] = []
    setups: list[tuple[Server, float, float]] = []  # server, start, end
    server = None
    try:
        expected = expected_bodies()
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(work / f"server-{i}", trace)
            setups.append((server, server.started,
                           cold_fill(server, expected, problems)))
        seq = zipf_requests(seed)
        before = get_counters(server)
        start = _pc()
        deadline = start + seconds
        traced = trace
        while _pc() < deadline:
            if trace:
                server.signal(signal.SIGUSR1 if traced else signal.SIGUSR2)
            until = min(deadline, _pc() + PHASE_S) if trace else deadline
            drive(server, seq, expected, until, traced, reqs, problems)
            traced = trace and not traced
        elapsed = _pc() - start
        after = get_counters(server)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    try:
        setup = median(fast_equivalent(t1 - t0, s.factor(t0, t1))
                       for s, t0, t1 in setups)
        for r in reqs:
            r.latency = fast_equivalent(r.t1 - r.t0, server.factor(r.t0, r.t1))
        if trace:
            shutil.copyfile(server.spans_path, WORK / f"trace-{workload}.json")
            metrics = _traced_metrics(server, reqs, before, after)
        else:
            phase = server.factor(start, start + elapsed)
            lat_ms = [r.latency * 1e3 for r in reqs]
            metrics = {
                "setup_s": metric(setup, "s"),
                "peak_rss_mb": metric(rss, "MB"),
                "ok_rate": metric(sum(r.ok for r in reqs) / len(reqs), "ratio"),
                "ops_per_s": metric(
                    sum(r.ok for r in reqs)
                    / fast_equivalent(elapsed, phase), "1/s"),
                "p50_ms": metric(quantile(lat_ms, 0.5), "ms"),
                "p90_ms": metric(quantile(lat_ms, 0.9), "ms"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r.ok for r in reqs)
    return not problems, len(reqs), failed, metrics, problems


def _traced_metrics(server: Server, reqs, before, after) -> dict:
    """Per-request layer metrics over the traced phases' requests."""
    tracer = Tracer.load(server.spans_path)
    on = [r for r in reqs if r.traced and r.ok]
    ids = {r.rid for r in on}
    n = len(on)
    keep = {i for i, s in enumerate(tracer.spans) if s[5] in ids}
    values = layers.layer_metrics(tracer, keep, n)
    records = {}
    with open(server.access_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("id") in ids:
                records[rec["id"]] = rec
    span_self: dict[str, float] = {}
    for i in keep:
        name, t0, t1, _parent, _thread, rid = tracer.spans[i]
        span_self[rid] = span_self.get(rid, 0.0) + (t1 - t0) - tracer.covered[i]
    unattributed = 0.0
    for rid, rec in records.items():
        stages = rec.get("stages", {})
        for stage in STAGES:
            values[f"serve.{stage}.s"] += stages.get(stage, 0.0) / n
        waits = stages.get("queue_wait", 0.0) + stages.get("batch_window", 0.0)
        unattributed += rec["duration_s"] - waits - span_self.get(rid, 0.0)
        values["serve.coalesced"] += bool(rec.get("coalesced")) / n
    values["serve.unattributed.s"] = values["unattributed.s"] = unattributed / n
    total = len(reqs)
    for counter, key in COUNTERS.items():
        values[key] = (after.get(counter, 0.0) - before.get(counter, 0.0)) / total
    lru = values["serve.lru.hits"] + values["serve.lru.misses"]
    values["serve.lru.hit_ratio"] = values["serve.lru.hits"] / lru if lru else 0.0
    off = [r.latency for r in reqs if not r.traced and r.ok]
    values["trace_overhead"] = median(r.latency for r in on) / median(off)
    return layers.as_metrics(layers.to_fast_equivalent(
        values, sum(r.t1 - r.t0 for r in on), sum(r.latency for r in on)))
