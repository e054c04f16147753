"""Request-scoped tracing through the serve pipeline.

What must hold (``docs/SERVE.md`` "Flight recorder"): every response
carries an ``X-Request-Id``; ``GET /debug/requests/<id>`` returns that
request's per-stage timings; N concurrent duplicates share one
evaluation yet each keeps its own flight record; the access log appends
each record as it completes; an unknown record ID is a 404 with the standard error body;
a tracer installed around the server sees serve, engine and vec spans
from one request, nested in its request span; and each path records its
own stages (a warm ``/run`` evaluates nothing and renders nothing,
``/sweep`` always executes a plan, and only a request that waited for
another's evaluation records ``batch_window``).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.engine.core as engine_core
from repro.engine import SweepEngine, build_plan, configure_engine, reset_engine
from repro.machine import get_platform
from repro.obs import check_nesting
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve import ServeConfig, ServeState, create_server
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
    configure_engine(cache_dir=tmp_path_factory.mktemp("flight-store"))
    srv = create_server(port=0, tracer=tracer, session_metrics=registry)
    srv.run_in_thread()
    yield srv, tracer, registry
    srv.stop()
    reset_engine()


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
        # A cold run touches every pipeline stage; an uncontended one
        # waits for no other request's evaluation.
        for stage in ("queue_wait", "plan", "lookup", "batch",
                      "store_io"):
            assert stage in record["stages"], stage
        assert "batch_window" not in record["stages"]
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
    def test_each_duplicate_keeps_its_own_record(self, observed):
        """N concurrent duplicates share one evaluation, yet each keeps
        its own ID and flight record."""
        srv, _, _ = observed
        n = 6
        results: list[dict] = [None] * n
        barrier = threading.Barrier(n)
        engine = srv.state.engine
        before = engine.metrics.evaluations

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
        assert all(set(r) == {"id", "endpoint", "method", "status",
                              "duration_s", "stages"} for r in records)
        # One evaluation answered all of them, on one request's thread.
        jobs = build_plan(["volna"], [get_platform("max9480")]).jobs
        assert engine.metrics.evaluations - before == len(jobs)
        assert sum("batch" in r["stages"] for r in records) == 1

    def test_spans_cross_the_pool_threads(self, observed):
        """The ingress context reaches every layer: one traced cold
        request produces serve-, engine- and vec-domain spans, all
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
        plans = [s for s in new if s.name == "plan"]
        assert plans and all(
            req.start <= s.start and s.end <= req.end for s in plans
        )
        # Engine + vec spans nest inside the request.
        for cat in ("engine", "vec"):
            inner = [s for s in new if s.cat == cat]
            assert inner, f"no {cat} spans reached the tracer"
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
        assert "render" in flight_record(srv, cold["X-Request-Id"])["stages"]
        status, _, warm = post(srv.url + "/run", request)
        assert status == 200
        stages = flight_record(srv, warm["X-Request-Id"])["stages"]
        assert "store_io" in stages
        assert "batch_window" not in stages
        assert "batch" not in stages
        assert "render" not in stages  # the estimate keeps its body

    def test_sweep_records_plan(self, observed):
        srv, _, _ = observed
        status, _, headers = post(
            srv.url + "/sweep",
            {"apps": ["miniweather"], "platforms": ["max9480"]},
        )
        assert status == 200
        stages = flight_record(srv, headers["X-Request-Id"])["stages"]
        assert "plan" in stages


#: Six cold pairs; each is requested twice at once.
COLD_PAIRS = [
    ("cloverleaf2d", "max9480"),
    ("miniweather", "max9480"),
    ("cloverleaf2d", "icx8360y"),
    ("mgcfd", "max9480"),
    ("miniweather", "icx8360y"),
    ("acoustic", "epyc7v73x"),
]


class TestStageRecorder:
    """One recording per stage, wherever its two ends were read."""

    @pytest.fixture(scope="class")
    def concurrent_cold(self, tmp_path_factory):
        """12 concurrent cold ``/run`` requests against a fresh server
        with an embedded tracer and session registry.  The first
        evaluation holds its first store write until another request
        has queued behind it, so at least one request waits."""
        serve_metrics.reset()
        tracer, session = Tracer(), MetricsRegistry()
        engine = SweepEngine(cache_dir=tmp_path_factory.mktemp("stage-store"))
        srv = create_server(port=0, tracer=tracer, session_metrics=session)
        held = threading.Event()
        put = engine.store.put

        def held_put(key, est):
            if not held.is_set():
                held.set()
                deadline = time.monotonic() + 60.0
                while not engine._queued:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            return put(key, est)

        engine.store.put = held_put
        srv.run_in_thread()
        requests = COLD_PAIRS * 2
        barrier = threading.Barrier(len(requests))
        statuses = []

        def fire(app, platform):
            barrier.wait(timeout=30)
            status, _, _ = post(srv.url + "/run",
                                {"app": app, "platform": platform})
            statuses.append(status)

        threads = [threading.Thread(target=fire, args=pair)
                   for pair in requests]
        # The server's engine for this class only.
        patch = pytest.MonkeyPatch()
        patch.setattr(engine_core, "_default", engine)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            # Each request's stages reach the serve registry just after
            # its response is sent; wait until all twelve are folded in.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                hist = serve_metrics.registry().histogram(
                    "stage_seconds", layer="serve", stage="queue_wait")
                if hist is not None and hist.count == len(requests):
                    break
                time.sleep(0.01)
        finally:
            srv.stop()
            patch.undo()
        assert statuses == [200] * len(requests)
        return tracer, session, serve_metrics.registry()

    def test_trace_nests_on_every_lane(self, concurrent_cold):
        tracer, _, _ = concurrent_cold
        check_nesting(tracer)
        windows = tracer.spans_of("engine", "batch_window")
        assert windows
        # The wait is on the thread that waited, inside its own plan.
        plans = tracer.spans_of("engine", "plan")
        assert all(any(p.track == s.track and p.start <= s.start
                       and s.end <= p.end for p in plans)
                   for s in windows)

    def test_each_stage_recorded_once_per_registry(self, concurrent_cold):
        _, session, served = concurrent_cold
        mine = {(labels["layer"], labels["stage"]): hist
                for labels, hist in session.samples("stage_seconds")}
        folded = {(labels["layer"], labels["stage"]): hist
                  for labels, hist in served.samples("stage_seconds")}
        assert set(mine) == set(folded)
        assert {("serve", "queue_wait"), ("serve", "render"),
                ("engine", "batch_window"), ("engine", "store_io"),
                ("engine", "plan"), ("vec", "pass")} <= set(mine)
        for key, hist in mine.items():
            # The session registry holds every interval; the serve
            # registry one per-request sum per stage — the same seconds.
            assert folded[key].total == pytest.approx(hist.total), key
        # At most one of each per request: the counts agree too.
        for key in (("serve", "queue_wait"), ("serve", "render"),
                    ("engine", "batch_window"), ("engine", "plan")):
            assert folded[key].count == mine[key].count, key
        assert mine[("serve", "queue_wait")].count == 2 * len(COLD_PAIRS)
        # Each pair's body is rendered by its first request, or by both
        # when they reach the render together.
        renders = mine[("serve", "render")].count
        assert len(COLD_PAIRS) <= renders <= 2 * len(COLD_PAIRS)


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

    def test_access_log_roundtrips(self, tmp_path):
        """``--access-log`` appends each completed record, plus ``ts``."""
        path = tmp_path / "access.jsonl"
        state = ServeState(ServeConfig(access_log=str(path)))
        inf = Inflight("/sweep", "POST")
        inf.add_stage("engine", "plan", 0.25)
        inf.add_stage("engine", "plan", 0.25)  # stages accumulate
        record = state.recorder.complete(inf, 200, 0.6)
        state.log_access(record)
        state.close()
        (line,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert line.pop("ts") > 0
        assert line == record
        assert line["stages"]["plan"] == 0.5
