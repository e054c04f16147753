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

from repro.__main__ import main as cli_main
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
            'stage_seconds_count{layer="serve",stage="shard_exec"}',
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


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_evaluation(self, server):
        # A pair no other test touches, so it is genuinely cold here.
        request = {"app": "acoustic", "platform": "epyc7v73x"}
        before = server.state.engine.metrics.as_dict()["evaluations"]
        coalesced_before = serve_metrics.registry().total(
            "serve_coalesced_total"
        )
        n = 6
        outputs = [None] * n

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
        # re-enter the engine (coalesced riders + warm inline followers
        # add zero evaluations).
        after = server.state.engine.metrics.as_dict()["evaluations"]
        single_plan_evals = after - before
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
        """Cold run requests queued behind an in-flight flush merge into
        one plan — the pair-wise union, duplicates collapsed — and that
        plan is evaluated as exactly one vectorized batch."""
        srv = create_server(port=0, cache_dir=str(tmp_path))
        srv.run_in_thread()
        try:
            engine = srv.state.engine
            real_run_plan = engine.run_plan
            plans, batches = [], []
            started, release = threading.Event(), threading.Event()

            def held_run_plan(plan):
                plans.append(plan)
                if len(plans) == 1:
                    started.set()
                    assert release.wait(120)
                before = engine.metrics.vec_batches
                results = real_run_plan(plan)
                batches.append(engine.metrics.vec_batches - before)
                return results

            monkeypatch.setattr(engine, "run_plan", held_run_plan)
            from repro.engine import build_plan
            from repro.machine import get_platform

            max9480 = get_platform("max9480")
            first = srv.state.batcher.submit("miniweather", max9480)
            assert started.wait(120)
            futures = [
                srv.state.batcher.submit(app, max9480)
                for app in ("cloverleaf2d", "mgcfd", "cloverleaf2d")
            ]
            release.set()
            results = [f.result(timeout=120) for f in [first, *futures]]
            assert all(est is not None for _cfg, est in results)
            assert len(plans) == 2
            merged = plans[1]
            assert {j.app for j in merged.jobs} == {"cloverleaf2d", "mgcfd"}
            assert len(merged.jobs) == len(
                build_plan(["cloverleaf2d", "mgcfd"], [max9480]).jobs
            )
            assert batches == [1, 1]
            assert engine.last_evaluator == "vectorized"
            assert engine.metrics.vec_jobs > 0
        finally:
            srv.stop()
