"""End-to-end tests of the HTTP estimation service.

One module-scoped server (ephemeral port) over a process-default engine
on a fresh store backs most tests; the back-pressure test builds its
own tiny-capacity server so saturation is deterministic.  A test that
needs a cold store of its own installs a fresh engine as the process
default (the ``fresh_engine`` fixture), which every server serves.
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.core as engine_core
from repro.__main__ import main as cli_main
from repro.engine import SweepEngine, build_plan, configure_engine, reset_engine
from repro.engine.store import ResultStore
from repro.machine import get_platform
from repro.serve import create_server, payloads
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


def stored_once(engine) -> int:
    """How many estimate lines the engine's store file holds; each key
    must appear on one of them only."""
    lines = engine.store.path.read_text().splitlines()
    keys = [rec["key"] for rec in map(json.loads, lines)
            if "estimate" in rec]
    assert len(keys) == len(set(keys))
    return len(keys)


def fire_all(url: str, requests: list[tuple[str, dict]]) -> list:
    """POST every ``(path, body)`` at once; the replies, in order."""
    replies = [None] * len(requests)

    def one(i, path, body):
        replies[i] = post(url + path, body)

    threads = [threading.Thread(target=one, args=(i, path, body))
               for i, (path, body) in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
        assert not t.is_alive()
    return replies


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
    configure_engine(cache_dir=tmp_path_factory.mktemp("serve-store"))
    srv = create_server(port=0, max_inflight=8, max_queue=16)
    srv.run_in_thread()
    yield srv
    srv.stop()
    reset_engine()


@pytest.fixture
def fresh_engine(tmp_path, monkeypatch):
    """An engine on an empty store, the process default for one test."""
    engine = SweepEngine(cache_dir=tmp_path)
    monkeypatch.setattr(engine_core, "_default", engine)
    return engine


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

    def test_unknown_paths_share_one_label(self):
        """Unknown paths are recorded under one fixed label, so no
        client can grow ``/metrics`` or the exemplars without bound."""
        srv = create_server(port=0)
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

    def test_graceful_shutdown(self):
        srv = create_server(port=0)
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

    @pytest.mark.parametrize("apps", [0, "", [], None],
                             ids=["zero", "empty-string", "empty-list",
                                  "null"])
    def test_sweep_malformed_apps_400(self, server, apps):
        """Only a body without ``apps`` means every app."""
        status, body, _ = post(server.url + "/sweep",
                               {"apps": apps, "platforms": []})
        assert status == 400
        assert "'apps' must be a non-empty list" in json.loads(body)["error"]

    def test_bad_what_if_knob_400(self, server):
        status, body, _ = post(
            server.url + "/explain",
            {"app": "miniweather", "platform": "max9480",
             "what_if": {"warp_drive": 2.0}},
        )
        assert status == 400
        assert "what-if" in json.loads(body)["error"]


class TestDamagedStore:
    """A stored record whose loop line is torn, missing or garbled is a
    counted miss: ``/run`` re-evaluates it and answers the same body."""

    @pytest.mark.parametrize("damage", ["torn", "no_loop_line", "garbled"])
    def test_run_reevaluates(self, server, tmp_path, monkeypatch, damage):
        request = {"app": "miniweather", "platform": "max9480"}
        monkeypatch.setattr(engine_core, "_default",
                            SweepEngine(cache_dir=tmp_path))
        status, expected, _ = post(server.url + "/run", request)
        assert status == 200
        # Damage the loop line of the record the body renders.
        best = json.loads(expected)["config"]
        path = tmp_path / "results.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if b'"estimate"' in line
                 and json.loads(line)["estimate"]["config_label"] == best)
        loops = lines[i + 1]
        lines[i + 1] = {"torn": loops[:100],
                        "no_loop_line": b"",
                        "garbled": loops[:50] + b"#" + loops[51:]}[damage]
        path.write_bytes(b"".join(lines))
        engine = SweepEngine(cache_dir=tmp_path)
        monkeypatch.setattr(engine_core, "_default", engine)
        status, body, _ = post(server.url + "/run", request)
        assert status == 200 and body == expected
        assert engine.store.corrupt_lines >= 1
        assert 1 <= engine.metrics.evaluations <= 2
        health = json.loads(get(server.url + "/healthz")[1])
        assert health["store_corrupt_records"] == engine.store.corrupt_lines


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


#: The names ``/sweep`` and ``/explain`` fuzzing may resolve: every
#: pair of them is warmed first.  A body without ``apps`` sweeps every
#: app, and any string may resolve to a name by prefix, so the
#: strategies below always draw ``apps``, names only from these lists
#: and junk from non-string JSON; no example profiles an app or sweeps
#: cold.
WARM_APPS = ["miniweather", "cloverleaf2d"]
WARM_PLATFORMS = ["max9480", "icx8360y"]
_JUNK = _JSON.filter(lambda v: not isinstance(v, str))
_APP = st.sampled_from([*WARM_APPS, "linpack", ""]) | _JUNK
_PLATFORM = st.sampled_from([*WARM_PLATFORMS, "cray1", ""]) | _JUNK
_BAD_BODIES = (_JSON.filter(lambda v: not isinstance(v, dict))
               .map(json.dumps).map(str.encode) | st.binary(max_size=64))
_SWEEP_BODIES = st.fixed_dictionaries({
    "apps": (st.lists(_APP, max_size=3)
             | _JSON.filter(lambda v: not isinstance(v, list))),
}, optional={
    "platforms": (st.lists(_PLATFORM, max_size=2)
                  | _JSON.filter(lambda v: not isinstance(v, list)
                                 and v != "all")),
}).map(json.dumps).map(str.encode) | _BAD_BODIES
_FACTOR = st.floats() | st.integers() | st.sampled_from(["inf", "2"]) | _JSON
_EXPLAIN_BODIES = st.fixed_dictionaries({"app": _APP}, optional={
    "platform": _PLATFORM,
    "vs": _PLATFORM,
    "what_if": (st.dictionaries(st.sampled_from(["dram_bw", "mpi", "warp"])
                                | st.text(max_size=8), _FACTOR, max_size=2)
                | _JSON),
}).map(json.dumps).map(str.encode) | _BAD_BODIES


class TestFuzzedBodies:
    @pytest.fixture(scope="class")
    def warm(self, server):
        request = {"apps": WARM_APPS, "platforms": WARM_PLATFORMS}
        assert post(server.url + "/sweep", request)[0] == 200
        return server

    @settings(max_examples=40, deadline=None)
    @given(body=_RUN_BODIES)
    def test_run_never_answers_500(self, server, body):
        status, reply, _ = post(server.url + "/run", body)
        assert status in (200, 400), reply

    @settings(max_examples=30, deadline=None)
    @given(body=_SWEEP_BODIES)
    def test_sweep_never_answers_500(self, warm, body):
        status, reply, _ = post(warm.url + "/sweep", body)
        assert status in (200, 400), reply

    @settings(max_examples=30, deadline=None)
    @given(body=_EXPLAIN_BODIES)
    @example(body=json.dumps({"app": "miniweather",
                              "what_if": {"dram_bw": 10 ** 400}}).encode())
    def test_explain_never_answers_500(self, warm, body):
        status, reply, _ = post(warm.url + "/explain", body)
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
        # both surfaces are compared over a warm store (they share the
        # process's engine): both render identical all-"cached" rows.
        request = {"apps": ["miniweather"], "platforms": ["max9480"]}
        argv = ["sweep", "miniweather", "--platform", "max9480", "--json"]
        post(server.url + "/sweep", request)
        _, body, _ = post(server.url + "/sweep", request)
        assert body == cli_json(argv)


class TestWarmRun:
    def test_repeat_warm_run_is_one_store_read(self, server, monkeypatch):
        """A repeat warm ``/run`` reads the winner its pair's first
        sweep remembered: no address derived, no plan built, one read."""
        request = {"app": "miniweather", "platform": "icx8360y"}
        status, first, _ = post(server.url + "/run", request)
        assert status == 200  # warm it
        calls = {"result_address": 0, "build_plan": 0, "get": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(SweepEngine, "result_address", counting(
            "result_address", SweepEngine.result_address))
        monkeypatch.setattr(engine_core, "build_plan", counting(
            "build_plan", engine_core.build_plan))
        monkeypatch.setattr(ResultStore, "get",
                            counting("get", ResultStore.get))
        status, again, _ = post(server.url + "/run", request)
        assert (status, again) == (200, first)
        assert calls == {"result_address": 0, "build_plan": 0, "get": 1}

    def test_repeat_run_renders_nothing(self, server, monkeypatch):
        """A warm ``/run`` sends the body its estimate keeps, and so does
        ``repro run --json`` in the same process."""
        request = {"app": "mgcfd", "platform": "icx8360y"}
        status, first, _ = post(server.url + "/run", request)
        assert status == 200
        renders = []
        render = payloads.render_json

        def counting(payload):
            renders.append(payload)
            return render(payload)

        monkeypatch.setattr(payloads, "render_json", counting)
        for _ in range(3):
            assert post(server.url + "/run", request)[1] == first
        assert cli_json(["run", "mgcfd", "--platform", "icx8360y",
                         "--json"]) == first
        assert renders == []


class TestCoalescing:
    """Concurrent requests for one pair meet in the engine, which
    evaluates each of the pair's jobs once whatever the timing."""

    def test_identical_concurrent_requests_share_one_evaluation(
            self, server, fresh_engine):
        request = {"app": "acoustic", "platform": "epyc7v73x"}
        replies = fire_all(server.url, [("/run", request)] * 8)
        assert all(status == 200 for status, _, _ in replies)
        bodies = {body for _, body, _ in replies}
        assert len(bodies) == 1  # every client got identical bytes
        plan = build_plan(["acoustic"], [get_platform("epyc7v73x")])
        assert fresh_engine.metrics.evaluations == len(plan.jobs)
        assert stored_once(fresh_engine) == len(plan.jobs)
        # One body is kept, with the pair's best estimate.
        kept = [vars(r.estimate)["_run_json"]
                for r in fresh_engine.run_plan(plan)
                if r.estimate is not None and "_run_json" in vars(r.estimate)]
        assert [body.encode() for body in kept] == list(bodies)
        _, again, _ = post(server.url + "/run", request)  # fully warm now
        assert fresh_engine.metrics.evaluations == len(plan.jobs)
        assert again in bodies

    def test_run_sweep_and_explain_of_one_pair_evaluate_it_once(
            self, server, fresh_engine):
        app, platform = "cloverleaf2d", "max9480"
        pair = {"app": app, "platform": platform}
        replies = fire_all(server.url, [
            ("/run", pair),
            ("/sweep", {"apps": [app], "platforms": [platform]}),
            ("/explain", pair),
        ])
        assert [status for status, _, _ in replies] == [200, 200, 200]
        jobs = build_plan([app], [get_platform(platform)]).jobs
        # Each job was evaluated once and read back by the other
        # requests.  /run and /explain both ask best_run, so whichever
        # arrives after the other's sweep stored its winner reads that
        # one job instead of all of them.
        assert fresh_engine.metrics.jobs_executed in (3 * len(jobs),
                                                      2 * len(jobs) + 1)
        assert fresh_engine.metrics.evaluations == len(jobs)
        assert stored_once(fresh_engine) == len(jobs)


class TestOneEngine:
    def test_second_server_leaves_the_first_its_engine(self, fresh_engine):
        """Every server serves the process's one engine: starting and
        stopping another server changes nothing for the first, so its
        ``/explain`` warms its ``/run``."""
        first = create_server(port=0)
        first.run_in_thread()
        try:
            second = create_server(port=0)
            second.run_in_thread()
            second.stop()
            request = {"app": "miniweather", "platform": "max9480"}
            assert post(first.url + "/explain", request)[0] == 200
            evaluated = first.state.engine.metrics.evaluations
            assert evaluated > 0
            assert post(first.url + "/run", request)[0] == 200
            assert first.state.engine.metrics.evaluations == evaluated
            assert first.state.engine is fresh_engine
        finally:
            first.stop()


class TestClearCache:
    def test_clear_cache_empties_serve_store(self, fresh_engine):
        from repro.harness import clear_cache

        srv = create_server(port=0)
        srv.run_in_thread()
        try:
            request = {"app": "miniweather", "platform": "max9480"}
            engine = srv.state.engine
            status, first, _ = post(srv.url + "/run", request)
            assert status == 200
            evaluated = engine.metrics.evaluations
            assert evaluated > 0 and len(engine.store) > 0
            clear_cache()
            assert len(engine.store) == 0
            status, again, _ = post(srv.url + "/run", request)
            assert status == 200
            assert engine.metrics.evaluations == 2 * evaluated
            assert again == first
        finally:
            srv.stop()


class TestBackpressure:
    def test_saturated_server_answers_429_with_retry_after(self,
                                                           fresh_engine):
        srv = create_server(port=0, max_inflight=1, max_queue=0)
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
    def test_cli_metrics_names_no_serve_family(self, server, capsys,
                                               monkeypatch):
        """``repro metrics`` exports its own sweep only: a server that
        ran earlier in the same process adds nothing to it."""
        # --no-cache installs a process default of its own; the
        # server's comes back after the test.
        monkeypatch.setattr(engine_core, "_default", engine_core._default)
        get(server.url + "/healthz")
        assert serve_metrics.registry().total("serve_requests_total") > 0
        assert cli_main(["metrics", "miniweather", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "perfmodel_loops_total" in out  # the sweep's own families
        assert "serve_" not in out


class TestVectorizedBatching:
    def test_merged_batch_hits_vectorized_path_once(self, fresh_engine,
                                                   monkeypatch):
        """Cold ``/run`` requests that arrive while an evaluation runs
        merge into the next one: their pairs' misses are evaluated as
        exactly one vectorized batch, and the duplicate evaluates
        nothing."""
        srv = create_server(port=0)
        srv.run_in_thread()
        try:
            engine = srv.state.engine
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
            # Two distinct pairs queue in the engine; the duplicate rides
            # on its pair's pending addresses, or reads them once stored.
            wait_until(lambda: len(engine._queued) == 2)
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
