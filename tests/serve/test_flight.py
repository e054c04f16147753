"""Request-scoped tracing through the serve pipeline.

What must hold (``docs/SERVE.md`` "Flight recorder"): every response
carries an ``X-Request-Id``; ``GET /debug/requests/<id>`` returns that
request's per-stage timings; N concurrent duplicates share one
evaluation yet each keeps its own flight record pointing at the shared
leader; an unknown record ID is a 404 with the standard error body;
a tracer installed around the server sees serve, engine and vec spans
from one request — proof the context survives the batcher thread hop;
and each path records its own stages (a warm ``/run`` skips the batch
window and plan execution, ``/sweep`` always executes a plan).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve import create_server
from repro.serve import metrics as serve_metrics
from repro.serve.flight import FlightRecorder, Inflight


def post(url: str, body):
    data = json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def flight_record(srv, rid: str) -> dict:
    """Fetch one flight record, tolerating the tiny window between the
    response reaching the client and the record landing in the ring."""
    deadline = time.monotonic() + 5.0
    while True:
        status, body, _ = get(srv.url + f"/debug/requests/{rid}")
        if status == 200:
            return json.loads(body)
        assert status == 404, body
        assert time.monotonic() < deadline, f"record {rid} never appeared"
        time.sleep(0.01)


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """A server with an embedded tracer + session metrics registry —
    the configuration the bench harness's ``observed`` phase uses."""
    serve_metrics.reset()
    tracer, registry = Tracer(), MetricsRegistry()
    srv = create_server(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("flight-store")),
        tracer=tracer,
        session_metrics=registry,
    )
    srv.run_in_thread()
    yield srv, tracer, registry
    srv.stop()


class TestRequestIdentity:
    def test_response_carries_request_id(self, observed):
        srv, _, _ = observed
        status, _, headers = post(
            srv.url + "/run", {"app": "mgcfd", "platform": "max9480"}
        )
        assert status == 200
        assert len(headers["X-Request-Id"]) == 12

    def test_flight_record_has_stage_timings(self, observed):
        srv, _, _ = observed
        _, _, headers = post(
            srv.url + "/run", {"app": "cloverleaf2d", "platform": "max9480"}
        )
        rid = headers["X-Request-Id"]
        record = flight_record(srv, rid)
        assert record["id"] == rid
        assert record["endpoint"] == "/run"
        assert record["status"] == 200
        assert record["duration_s"] > 0
        # A cold run touches every pipeline stage.
        for stage in ("queue_wait", "batch_window", "shard_exec",
                      "store_io"):
            assert stage in record["stages"], stage
        assert all(v >= 0 for v in record["stages"].values())

    def test_ring_listing_is_newest_first(self, observed):
        srv, _, _ = observed
        _, _, h1 = post(srv.url + "/run",
                        {"app": "mgcfd", "platform": "icx8360y"})
        flight_record(srv, h1["X-Request-Id"])  # wait for completion
        status, body, _ = get(srv.url + "/debug/requests")
        assert status == 200
        listing = json.loads(body)
        assert listing["capacity"] == 256
        assert listing["count"] == len(listing["requests"])
        ids = [r["id"] for r in listing["requests"]]
        # The listing GET itself is not yet complete; our run leads.
        assert h1["X-Request-Id"] in ids

    def test_unknown_id_is_404_with_error_body(self, observed):
        srv, _, _ = observed
        status, body, _ = get(srv.url + "/debug/requests/000000000000")
        assert status == 404
        payload = json.loads(body)
        assert set(payload) == {"error"}
        assert "000000000000" in payload["error"]

    def test_post_on_debug_is_405(self, observed):
        srv, _, _ = observed
        status, body, headers = post(srv.url + "/debug/requests", {})
        assert status == 405
        assert headers["Allow"] == "GET"
        assert "error" in json.loads(body)


class TestCoalescedIdentity:
    def test_duplicates_share_leader_yet_keep_own_records(self, observed):
        srv, _, registry = observed
        serve_metrics.reset()
        n = 6
        results: list[dict] = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            barrier.wait()
            status, _, headers = post(
                srv.url + "/run", {"app": "volna", "platform": "max9480"}
            )
            results[i] = {"status": status, "id": headers["X-Request-Id"]}

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["status"] == 200 for r in results)
        ids = {r["id"] for r in results}
        assert len(ids) == n  # every request keeps its own identity

        records = [flight_record(srv, rid) for rid in ids]
        leaders = {r["leader_id"] for r in records}
        assert len(leaders) == 1  # one evaluation answered all of them
        (leader_id,) = leaders
        assert leader_id in ids
        followers = [r for r in records if r["id"] != leader_id]
        assert followers and all(r["coalesced"] for r in followers)
        leader = next(r for r in records if r["id"] == leader_id)
        assert not leader["coalesced"]
        assert serve_metrics.registry().total("serve_coalesced_total") \
            == len(followers)

    def test_spans_cross_the_pool_threads(self, observed):
        """The ingress context reaches the batcher thread: one traced
        cold request produces serve-, engine- and vec-domain spans, all
        wall-clock, nested inside the request span."""
        srv, tracer, registry = observed
        before = len(tracer.spans)
        status, _, headers = post(
            srv.url + "/run", {"app": "acoustic", "platform": "epyc7v73x"}
        )
        assert status == 200
        rid = headers["X-Request-Id"]
        # The request span is recorded just after the response is sent;
        # wait out that window like flight_record() does.
        deadline = time.monotonic() + 5.0
        while True:
            new = tracer.spans[before:]
            req_spans = [s for s in new if s.cat == "serve"
                         and s.attrs.get("request_id") == rid]
            if req_spans or time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        # Serve/engine/vec spans are wall-clock; the spec build's DSL
        # kernels also trace, on the simulated-time "ops" track.
        assert all(s.is_wall for s in new
                   if s.cat in ("serve", "engine", "vec"))
        assert len(req_spans) == 1
        req = req_spans[0]
        shard = [s for s in new if s.name == "shard_exec"]
        assert shard and all(
            req.start <= s.start and s.end <= req.end for s in shard
        )
        # Engine + vec spans recorded on the batcher thread nest inside
        # the plan execution — the batcher hop preserved the context.
        for cat in ("engine", "vec"):
            inner = [s for s in new if s.cat == cat]
            assert inner, f"no {cat} spans crossed the thread hops"
            assert all(req.start <= s.start and s.end <= req.end + 1e-6
                       for s in inner), cat
        # The vectorized evaluator stayed on under full observability.
        assert srv.state.engine.last_evaluator == "vectorized"
        assert registry.histogram("vec_batch_jobs") is not None


class TestStageContract:
    def test_warm_run_records_store_io_only(self, observed):
        srv, _, _ = observed
        request = {"app": "miniweather", "platform": "max9480"}
        _, _, cold = post(srv.url + "/run", request)
        flight_record(srv, cold["X-Request-Id"])
        status, _, warm = post(srv.url + "/run", request)
        assert status == 200
        stages = flight_record(srv, warm["X-Request-Id"])["stages"]
        assert "store_io" in stages
        assert "batch_window" not in stages
        assert "shard_exec" not in stages

    def test_sweep_records_shard_exec(self, observed):
        srv, _, _ = observed
        status, _, headers = post(
            srv.url + "/sweep",
            {"apps": ["miniweather"], "platforms": ["max9480"]},
        )
        assert status == 200
        stages = flight_record(srv, headers["X-Request-Id"])["stages"]
        assert "shard_exec" in stages


class TestRecorderUnit:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=2)
        infs = [Inflight("/run", "POST") for _ in range(3)]
        for i, inf in enumerate(infs):
            rec.complete(inf, 200, 0.01 * (i + 1))
        assert len(rec) == 2
        assert rec.get(infs[0].id) is None  # aged out
        assert [r["id"] for r in rec.records()] == [infs[2].id, infs[1].id]
        # The exemplar survives ring eviction.
        assert rec.exemplars()["/run"]["id"] == infs[2].id

    def test_jsonl_dump_roundtrips(self):
        rec = FlightRecorder(capacity=4)
        inf = Inflight("/sweep", "POST")
        inf.add_stage("shard_exec", 0.25)
        inf.add_stage("shard_exec", 0.25)  # stages accumulate
        rec.complete(inf, 200, 0.6)
        lines = [json.loads(l) for l in rec.to_jsonl().splitlines()]
        assert len(lines) == 1
        assert lines[0]["stages"]["shard_exec"] == 0.5
