"""Service-level telemetry: /telemetry, /dashboard, SLO-driven /healthz.

Servers here run with ``sample_interval=0`` — the sampler exists but
its thread never starts, so every sample is an explicit
``state.sampler.tick()`` and the SLO state machine is deterministic.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import create_server
from repro.serve import metrics as serve_metrics


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def post_run(base: str, app: str = "cloverleaf2d", platform: str = "max9480"):
    body = json.dumps({"app": app, "platform": platform}).encode()
    req = urllib.request.Request(
        base + "/run", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        return resp.status, resp.read()


def wait_recorded(srv, timeout=10.0):
    """The handler records stage metrics and the flight record *after*
    sending the response, so a client-side return races a manual
    sampler tick; wait for the bookkeeping to land."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if srv.state.recorder.exemplars() and serve_metrics.registry(
        ).histogram("serve_stage_seconds", stage="shard_exec") is not None:
            return
        time.sleep(0.01)
    raise AssertionError("request bookkeeping never settled")


@pytest.fixture()
def server(tmp_path):
    serve_metrics.reset()
    srv = create_server(
        port=0, cache_dir=str(tmp_path / "store"),
        sample_interval=0,
    )
    srv.run_in_thread()
    yield srv
    srv.stop()


class TestTelemetryEndpoint:
    def test_payload_families_and_slowest(self, server):
        post_run(server.url)
        wait_recorded(server)
        server.state.sampler.tick()
        status, body, headers = get(server.url + "/telemetry")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["samples"] >= 1
        assert payload["slo"]["status"] in ("ok", "degraded", "failing")
        fams = payload["families"]
        assert "serve_requests_total" in fams
        assert "serve_request_seconds" in fams
        # Per-stage histograms ride along (queue wait, shard exec, ...).
        assert "serve_stage_seconds" in fams
        stages = {s["labels"].get("stage") for s in
                  fams["serve_stage_seconds"]["series"]}
        assert "shard_exec" in stages
        # The flight recorder's slowest-request exemplars are embedded.
        assert payload["slowest"]
        assert payload["slowest"][0]["endpoint"] == "/run"
        # Histogram series carry quantiles + bucket activity.
        series = fams["serve_request_seconds"]["series"][0]
        assert series["quantiles"]["p50"] is not None
        assert series["buckets"]["bounds"]

    def test_objectives_are_declared(self, server):
        server.state.sampler.tick()
        _, body, _ = get(server.url + "/telemetry")
        names = {o["name"] for o in json.loads(body)["slo"]["objectives"]}
        assert names == {"run-latency-p99", "error-rate", "queue-wait-p95"}


class TestDashboard:
    def test_selfcontained_html(self, server):
        post_run(server.url)
        wait_recorded(server)
        server.state.sampler.tick()
        status, body, headers = get(server.url + "/dashboard")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        html = body.decode()
        # Fully self-contained: no external scripts, styles, fonts or
        # CDNs — the page must render on an air-gapped box.
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" in html and "<style" in html
        assert "serve_request_seconds" in html
        # Auto-refresh pulls from the relative /telemetry path.
        assert '"/telemetry"' in html or "'/telemetry'" in html

    def test_dashboard_renders_without_traffic(self, server):
        status, body, _ = get(server.url + "/dashboard")
        assert status == 200
        assert b"<script" in body


class TestHealthSLO:
    def test_ok_to_degraded_under_latency_breach(self, server):
        server.state.sampler.tick()
        status, body, _ = get(server.url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["slo"]["status"] == "ok"
        # Inject a breach: enough over-threshold request latencies to
        # clear the MIN_SAMPLES guard, then resample.
        for _ in range(10):
            serve_metrics.observe(
                "serve_request_seconds", 2.0, endpoint="/run", status="200"
            )
        server.state.sampler.tick()
        status, body, _ = get(server.url + "/healthz")
        # Liveness stays 200 in every state; the body degrades.
        assert status == 200
        health = json.loads(body)
        assert health["status"] in ("degraded", "failing")
        breached = {o["name"]: o for o in health["slo"]["objectives"]}
        assert breached["run-latency-p99"]["status"] != "ok"
        assert breached["run-latency-p99"]["burn_short"] >= 1.0

    def test_single_slow_request_keeps_ok(self, server):
        # Below MIN_SAMPLES the guard holds: one cold request breaching
        # the threshold must not flip health.
        serve_metrics.observe(
            "serve_request_seconds", 2.0, endpoint="/run", status="200"
        )
        server.state.sampler.tick()
        _, body, _ = get(server.url + "/healthz")
        assert json.loads(body)["status"] == "ok"

    def test_slo_gauges_exported(self, server):
        serve_metrics.observe(
            "serve_request_seconds", 0.01, endpoint="/run", status="200"
        )
        server.state.sampler.tick()
        _, body, _ = get(server.url + "/metrics")
        text = body.decode()
        assert "serve_slo_burn_rate{" in text
        assert "serve_slo_status{" in text
        # Histogram quantiles ride along as comment lines.
        assert "# quantile serve_" in text


class TestTelemetryLogFlush:
    def test_shutdown_flushes_log(self, tmp_path):
        serve_metrics.reset()
        log = tmp_path / "telemetry.jsonl"
        srv = create_server(
            port=0, cache_dir=str(tmp_path / "store"),
            sample_interval=0, telemetry_log=str(log),
        )
        srv.run_in_thread()
        try:
            post_run(srv.url, "miniweather", "max9480")
            srv.state.sampler.tick()
        finally:
            srv.stop()
        # stop() takes a final flush sample and closes the file.
        lines = [ln for ln in log.read_text().splitlines() if ln.strip()]
        assert len(lines) >= 2
        last = json.loads(lines[-1])
        assert last["slo"]["status"] in ("ok", "degraded", "failing")
        assert "serve_requests_total" in last["counters"]
