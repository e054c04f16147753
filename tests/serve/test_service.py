"""End-to-end tests of the HTTP estimation service.

One module-scoped server (ephemeral port, fresh store) backs most
tests; the back-pressure test builds its own tiny-capacity server so
saturation is deterministic.
"""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import ExitStack, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.engine import SweepEngine, build_plan
from repro.machine import get_platform
from repro.serve import create_server
from repro.serve import metrics as serve_metrics
from repro.serve.server import MAX_BODY_BYTES, _Handler

PAIRS = [
    ("cloverleaf2d", "max9480"),
    ("miniweather", "icx8360y"),
    ("mgcfd", "max9480"),
]


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def post(url: str, body, *, method: str = "POST"):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def raw_post(srv, content_length: str) -> tuple[int, bytes, bytes]:
    """``POST /run`` over a raw socket with a verbatim ``Content-Length``
    header and no body; reads until the server closes the connection.
    A server that waits for a body, or keeps the connection open, makes
    the read time out instead of hanging the test."""
    with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
        sock.sendall(
            b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length.encode() + b"\r\n\r\n"
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), head, body


def wait_until(condition, timeout: float = 60.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def scrape_until(srv, *needles: str, timeout: float = 10.0) -> str:
    """``GET /metrics`` until every needle shows.  The handler records
    a request's stage and latency samples after sending its response,
    so a client-side return can beat the bookkeeping."""
    deadline = time.monotonic() + timeout
    while True:
        text = get(srv.url + "/metrics")[1].decode()
        if all(n in text for n in needles) or time.monotonic() > deadline:
            return text
        time.sleep(0.01)


def cli_json(argv: list[str]) -> bytes:
    """Run a CLI verb in-process and return its stdout bytes."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc in (0, 1), f"CLI {argv} exited {rc}"
    return buf.getvalue().encode()


class WriteLog:
    """A handler's ``wfile`` that keeps a copy of every write."""

    def __init__(self, wfile):
        self.wfile, self.writes = wfile, []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.wfile.write(data)

    def __getattr__(self, name):  # flush, close, closed
        return getattr(self.wfile, name)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    serve_metrics.reset()
    srv = create_server(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("serve-store")),
        max_inflight=8,
        max_queue=16,
    )
    srv.run_in_thread()
    yield srv
    srv.stop()


class TestLifecycle:
    def test_healthz(self, server):
        status, body, _ = get(server.url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert set(health) == {
            "status", "version", "uptime_s", "model_version",
            "store_records", "store_corrupt_records", "inflight",
        }
        assert health["status"] == "ok"
        assert health["store_corrupt_records"] == 0

    def test_run_endpoint(self, server):
        status, body, headers = post(
            server.url + "/run", {"app": "cloverleaf2d", "platform": "max9480"}
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["app"] == "cloverleaf2d"
        assert payload["platform"] == "max9480"
        assert payload["total_time_s"] > 0
        assert payload["estimate"]["per_loop"]

    def test_sweep_endpoint(self, server):
        status, body, _ = post(
            server.url + "/sweep",
            {"apps": ["miniweather"], "platforms": ["max9480"]},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["apps"] == ["miniweather"]
        assert payload["results"]
        assert all(r["app"] == "miniweather" for r in payload["results"])

    def test_explain_endpoint(self, server):
        status, body, _ = post(
            server.url + "/explain",
            {"app": "cloverleaf2d", "platform": "max9480",
             "vs": "icx8360y", "what_if": {"dram_bw": 2.0}},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["tree"]["name"] == "cloverleaf2d"
        assert payload["diff"]["speedup_a_over_b"] > 1  # HBM beats DDR
        assert payload["what_if"]["speedup"] >= 1

    def test_fidelity_endpoint(self, server):
        status, body, _ = get(server.url + "/fidelity?figures=fig2")
        assert status == 200
        payload = json.loads(body)
        assert list(payload["figures"]) == ["fig2"]

    def test_metrics_endpoint(self, server):
        post(server.url + "/run", {"app": "cloverleaf2d", "platform": "max9480"})
        status, _, headers = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        needles = (
            "serve_requests_total",
            "serve_request_seconds",
            'stage_seconds_count{layer="engine",stage="plan"}',
            'serve_slowest_request_seconds{endpoint="/run",request_id="',
            "# quantile serve_request_seconds",
        )
        text = scrape_until(server, *needles)
        for needle in needles:
            assert needle in text

    def test_unknown_path_404(self, server):
        for path in ("/nope", "/telemetry", "/dashboard"):
            status, body, _ = get(server.url + path)
            assert status == 404, path
            assert "error" in json.loads(body)

    def test_unknown_paths_share_one_label(self, tmp_path):
        """Unknown paths are recorded under one fixed label, so no
        client can grow ``/metrics`` or the exemplars without bound."""
        srv = create_server(port=0, cache_dir=str(tmp_path))
        srv.run_in_thread()
        try:
            for i in range(50):
                assert get(srv.url + f"/nope{i}")[0] == 404
            # A record lands just after its response is sent.
            deadline = time.monotonic() + 10.0
            while len(srv.state.recorder) < 50:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert list(srv.state.recorder.exemplars()) == ["/<unknown>"]
            text = scrape_until(srv, 'endpoint="/<unknown>"')
            assert 'serve_requests_total{endpoint="/<unknown>"' in text
            assert "/nope" not in text
        finally:
            srv.stop()

    def test_wrong_method_405_with_allow(self, server):
        status, _, headers = get(server.url + "/run")
        assert status == 405
        assert headers["Allow"] == "POST"
        status, _, headers = post(server.url + "/healthz", {})
        assert status == 405
        assert headers["Allow"] == "GET"

    def test_graceful_shutdown(self, tmp_path):
        srv = create_server(port=0, cache_dir=str(tmp_path))
        srv.run_in_thread()
        port = srv.port
        assert get(srv.url + "/healthz")[0] == 200
        srv.stop()
        srv.stop()  # idempotent
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            )


class TestKeepAlive:
    def test_one_connection_one_write_per_response(self, server,
                                                   monkeypatch):
        """Replies to a warm ``/run``, ``/healthz``, a 400 and a 404 all
        arrive on one kept-alive connection, and each leaves the server
        as one write on a ``TCP_NODELAY`` socket.  With a second write
        and Nagle on, the body waits for the client's delayed ACK of
        the headers."""
        request = {"app": "cloverleaf2d", "platform": "max9480"}
        assert post(server.url + "/run", request)[0] == 200  # warm it
        handlers = []
        setup = _Handler.setup

        def logging_setup(handler):
            setup(handler)
            handler.wfile = WriteLog(handler.wfile)
            handlers.append(handler)

        monkeypatch.setattr(_Handler, "setup", logging_setup)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        replies, socks = [], []
        try:
            for method, path, body in [
                ("POST", "/run", request),
                ("GET", "/healthz", None),
                ("POST", "/run", {"app": "linpack"}),
                ("GET", "/nope", None),
            ]:
                conn.request(method, path,
                             body=None if body is None else json.dumps(body))
                resp = conn.getresponse()
                replies.append((resp.status, resp.read()))
                socks.append(conn.sock)
            (handler,) = handlers
            nodelay = handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                    socket.TCP_NODELAY)
        finally:
            conn.close()
        assert [status for status, _ in replies] == [200, 200, 400, 404]
        assert all(sock is socks[0] for sock in socks)
        assert replies[0][1] == cli_json(
            ["run", "cloverleaf2d", "--platform", "max9480", "--json"])
        assert len(handler.wfile.writes) == len(replies)
        for data, (status, body) in zip(handler.wfile.writes, replies):
            head, _, rest = data.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert rest == body
        assert nodelay


class TestErrorContracts:
    def test_unknown_app_400_matches_cli_message(self, server, capsys):
        status, body, _ = post(
            server.url + "/run", {"app": "linpack", "platform": "max9480"}
        )
        assert status == 400
        http_message = json.loads(body)["error"]
        assert cli_main(["run", "linpack"]) == 2
        cli_message = capsys.readouterr().err.strip()
        assert http_message == cli_message

    def test_unknown_platform_400(self, server):
        status, body, _ = post(
            server.url + "/run", {"app": "miniweather", "platform": "cray1"}
        )
        assert status == 400
        assert "unknown platform" in json.loads(body)["error"]

    def test_malformed_json_400(self, server):
        status, body, _ = post(server.url + "/run", b"{not json")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]

    def test_empty_body_400(self, server):
        status, body, _ = post(server.url + "/run", b"")
        assert status == 400
        assert "empty request body" in json.loads(body)["error"]

    def test_non_object_body_400(self, server):
        status, body, _ = post(server.url + "/run", b"[1, 2]")
        assert status == 400
        assert "JSON object" in json.loads(body)["error"]

    def test_bad_what_if_knob_400(self, server):
        status, body, _ = post(
            server.url + "/explain",
            {"app": "miniweather", "platform": "max9480",
             "what_if": {"warp_drive": 2.0}},
        )
        assert status == 400
        assert "what-if" in json.loads(body)["error"]


class TestStalledConnections:
    """A client that stalls mid-request is disconnected unanswered after
    ``_Handler.timeout`` seconds; a kept-alive connection that idles for
    less than that is still served."""

    @pytest.fixture
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)

    @staticmethod
    def stall(srv, data: bytes) -> tuple[bytes, float]:
        """Send ``data`` and nothing more; everything the server sends
        before it closes the connection, and how long that took."""
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as sock:
            t0 = time.monotonic()
            sock.sendall(data)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        return reply, time.monotonic() - t0

    @pytest.mark.parametrize("data", [b"GET /nope HTTP/1.1\r\n", b"GET /no"])
    def test_partial_request_closed_unanswered(self, server, short_timeout,
                                               data):
        reply, waited = self.stall(server, data)
        assert reply == b""
        assert 0.4 < waited < 5

    def test_short_body_closed_never_500(self, server, short_timeout):
        reply, waited = self.stall(
            server,
            b"POST /run HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 100\r\n\r\n" b'{"app": "mini',
        )
        assert reply == b""  # above all, no 500
        assert 0.4 < waited < 5

    def test_kept_alive_connection_survives_short_idle(self, server,
                                                       short_timeout):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            statuses, socks = [], []
            for _ in range(2):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                statuses.append(resp.status)
                socks.append(conn.sock)
                time.sleep(0.2)
        finally:
            conn.close()
        assert statuses == [200, 200]
        assert socks[0] is socks[1]


#: Bodies nested deeper than the JSON decoder recurses.
DEEP_BODIES = [b"[" * 100_000,
               b'{"app": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"]


class TestNestedJson:
    @pytest.mark.parametrize("body", DEEP_BODIES, ids=["array", "field"])
    @pytest.mark.parametrize("path", ["/run", "/sweep", "/explain"])
    def test_deep_nesting_400_on_a_usable_connection(self, server, path,
                                                     body):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", path, body=body)
            resp = conn.getresponse()
            status, error = resp.status, json.loads(resp.read())["error"]
            conn.request("GET", "/healthz")  # the body was read whole
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        assert status == 400
        assert error.startswith("malformed JSON body")
        assert resp.status == 200


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=8,
)
_RUN_BODIES = st.one_of(
    st.fixed_dictionaries({}, optional={
        "app": st.sampled_from(["miniweather", "mgcfd", "cloverleaf",
                                "linpack", ""]) | _JSON,
        "platform": st.sampled_from(["max9480", "icx8360y", "cray1",
                                     "all"]) | _JSON,
    }).map(json.dumps),
    _JSON.map(json.dumps),
).map(str.encode) | st.binary(max_size=64)


class TestFuzzedBodies:
    @settings(max_examples=40, deadline=None)
    @given(body=_RUN_BODIES)
    def test_run_never_answers_500(self, server, body):
        status, reply, _ = post(server.url + "/run", body)
        assert status in (200, 400), reply


class TestContentLength:
    """A ``Content-Length`` the body cannot be read by is refused before
    any of the body is read, and the connection is closed."""

    @pytest.mark.parametrize("declared", ["-1", "2_2", "0x10", "+5"])
    def test_not_plain_digits_400_and_close(self, server, declared):
        status, head, body = raw_post(server, declared)
        assert status == 400
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("declared", [
        "99999999999999999999", str(MAX_BODY_BYTES + 1),
    ])
    def test_over_limit_413_and_close(self, server, declared):
        status, head, body = raw_post(server, declared)
        assert status == 413
        assert b"Connection: close" in head
        assert "exceeds" in json.loads(body)["error"]


class TestByteEquivalence:
    @pytest.mark.parametrize("app,platform", PAIRS)
    def test_run_matches_cli_json(self, server, app, platform):
        _, body, _ = post(server.url + "/run",
                          {"app": app, "platform": platform})
        cli = cli_json(["run", app, "--platform", platform, "--json"])
        assert body == cli

    def test_fidelity_matches_cli_json(self, server):
        _, body, _ = get(server.url + "/fidelity?figures=fig2")
        cli = cli_json(["fidelity", "fig2", "--json"])
        assert body == cli

    def test_explain_matches_cli_json(self, server):
        _, body, _ = post(
            server.url + "/explain",
            {"app": "cloverleaf2d", "platform": "max9480", "vs": "icx8360y"},
        )
        cli = cli_json(["explain", "cloverleaf2d", "--platform", "max9480",
                        "--vs", "icx8360y", "--json"])
        assert body == cli

    def test_sweep_matches_cli_json_when_warm(self, server):
        # Sweep rows carry the cache-state-dependent status field, so
        # both surfaces must be compared over equally warm stores (the
        # CLI resolves its own store from REPRO_CACHE_DIR): warm each
        # side once, then both render identical all-"cached" rows.
        request = {"apps": ["miniweather"], "platforms": ["max9480"]}
        argv = ["sweep", "miniweather", "--platform", "max9480", "--json"]
        post(server.url + "/sweep", request)
        cli_json(argv)
        _, body, _ = post(server.url + "/sweep", request)
        assert body == cli_json(argv)


class TestWarmRun:
    def test_warm_run_derives_each_address_once(self, server, monkeypatch):
        request = {"app": "miniweather", "platform": "icx8360y"}
        assert post(server.url + "/run", request)[0] == 200  # warm it
        derived = []
        derive = SweepEngine.result_address

        def counting(engine, *args):
            derived.append(args)
            return derive(engine, *args)

        monkeypatch.setattr(SweepEngine, "result_address", counting)
        assert post(server.url + "/run", request)[0] == 200
        jobs = build_plan(["miniweather"], [get_platform("icx8360y")]).jobs
        assert sorted(repr((app, platform.short_name, cfg))
                      for app, platform, cfg in derived) == sorted(
            repr(job.key) for job in jobs)


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_evaluation(
            self, server, monkeypatch):
        # A pair no other test touches, so it is genuinely cold here.
        request = {"app": "acoustic", "platform": "epyc7v73x"}
        before = server.state.engine.metrics.as_dict()["evaluations"]
        coalesced_before = serve_metrics.registry().total(
            "serve_coalesced_total"
        )
        n = 6
        outputs = [None] * n
        engine, coalescer = server.state.engine, server.state.coalescer
        run_plan = engine.run_plan

        def held_run_plan(plan):
            # The leader evaluates only once every duplicate has joined
            # its flight; one arriving after it finished would be served
            # warm under its own identity.
            wait_until(lambda: sum(f.followers for f in
                                   coalescer._inflight.values()) >= n - 1)
            return run_plan(plan)

        monkeypatch.setattr(engine, "run_plan", held_run_plan)

        def fire(i):
            outputs[i] = post(server.url + "/run", request)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _, _ in outputs)
        bodies = {body for _, body, _ in outputs}
        assert len(bodies) == 1  # every client got identical bytes
        # One evaluation per sweep point — the duplicates did not
        # re-enter the engine (coalesced riders add zero evaluations).
        after = server.state.engine.metrics.as_dict()["evaluations"]
        single_plan_evals = after - before
        monkeypatch.undo()
        _, again, _ = post(server.url + "/run", request)  # fully warm now
        assert server.state.engine.metrics.as_dict()["evaluations"] == after
        assert again in bodies
        assert single_plan_evals > 0
        coalesced = serve_metrics.registry().total("serve_coalesced_total")
        assert coalesced > coalesced_before


class TestClearCache:
    def test_clear_cache_empties_serve_store(self, tmp_path):
        from repro.harness import clear_cache

        srv = create_server(port=0, cache_dir=str(tmp_path))
        srv.run_in_thread()
        try:
            request = {"app": "miniweather", "platform": "max9480"}
            engine = srv.state.engine
            status, first, _ = post(srv.url + "/run", request)
            assert status == 200
            evaluated = engine.metrics.evaluations
            assert evaluated > 0 and len(srv.state.store) > 0
            clear_cache()
            assert len(srv.state.store) == 0
            status, again, _ = post(srv.url + "/run", request)
            assert status == 200
            assert engine.metrics.evaluations == 2 * evaluated
            assert again == first
        finally:
            srv.stop()


class TestBackpressure:
    def test_saturated_server_answers_429_with_retry_after(self, tmp_path):
        srv = create_server(
            port=0, cache_dir=str(tmp_path),
            max_inflight=1, max_queue=0,
        )
        srv.run_in_thread()
        try:
            with ExitStack() as stack:
                stack.enter_context(srv.state.gate.admit())  # fill the gate
                status, body, headers = post(
                    srv.url + "/run",
                    {"app": "miniweather", "platform": "max9480"},
                )
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                payload = json.loads(body)
                assert payload["retry_after_s"] >= 1
                assert "saturated" in payload["error"]
            # Gate released: the same request is admitted again.
            status, _, _ = post(
                srv.url + "/run",
                {"app": "miniweather", "platform": "max9480"},
            )
            assert status == 200
            # Health checks bypass the gate entirely.
            with ExitStack() as stack:
                stack.enter_context(srv.state.gate.admit())
                assert get(srv.url + "/healthz")[0] == 200
        finally:
            srv.stop()


class TestMetricsIntegration:
    def test_cli_metrics_names_no_serve_family(self, server, capsys):
        """``repro metrics`` exports its own sweep only: a server that
        ran earlier in the same process adds nothing to it."""
        get(server.url + "/healthz")
        assert serve_metrics.registry().total("serve_requests_total") > 0
        assert cli_main(["metrics", "miniweather", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "perfmodel_loops_total" in out  # the sweep's own families
        assert "serve_" not in out


class TestVectorizedBatching:
    def test_merged_batch_hits_vectorized_path_once(self, tmp_path,
                                                   monkeypatch):
        """Cold ``/run`` requests that arrive while an evaluation runs
        merge into the next one: their pairs' misses, duplicates
        coalesced, are evaluated as exactly one vectorized batch."""
        srv = create_server(port=0, cache_dir=str(tmp_path))
        srv.run_in_thread()
        try:
            engine, coalescer = srv.state.engine, srv.state.coalescer
            started, release = threading.Event(), threading.Event()
            put = engine.store.put

            def held_put(key, est):
                # The first evaluation blocks in its first store write.
                if not started.is_set():
                    started.set()
                    assert release.wait(120)
                return put(key, est)

            monkeypatch.setattr(engine.store, "put", held_put)
            outputs = {}

            def fire(app):
                outputs.setdefault(app, []).append(post(
                    srv.url + "/run", {"app": app, "platform": "max9480"}))

            first = threading.Thread(target=fire, args=("miniweather",))
            first.start()
            assert started.wait(120)
            held_batches = engine.metrics.vec_batches
            threads = [threading.Thread(target=fire, args=(app,))
                       for app in ("cloverleaf2d", "mgcfd", "cloverleaf2d")]
            for t in threads:
                t.start()
            # Two distinct pairs queue in the engine; the duplicate
            # rides on its pair's flight in the coalescer.
            wait_until(lambda: len(engine._queued) == 2 and sum(
                f.followers for f in coalescer._inflight.values()) == 1)
            release.set()
            for t in [first, *threads]:
                t.join(120)
                assert not t.is_alive()
            assert all(status == 200 for out in outputs.values()
                       for status, _, _ in out)
            assert len({body for _, body, _ in outputs["cloverleaf2d"]}) == 1
            assert held_batches == 1
            assert engine.metrics.vec_batches == 2
            every = build_plan(["miniweather", "cloverleaf2d", "mgcfd"],
                               [get_platform("max9480")])
            assert engine.metrics.evaluations == len(every.jobs)
            assert engine.last_evaluator == "vectorized"
            assert engine.metrics.vec_jobs > 0
        finally:
            srv.stop()
