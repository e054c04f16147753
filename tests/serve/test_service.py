"""End-to-end tests of the HTTP estimation service.

One module-scoped server (ephemeral port, fresh store) backs most
tests; the back-pressure test builds its own tiny-capacity server so
saturation is deterministic.
"""

import io
import json
import threading
import urllib.error
import urllib.request
from contextlib import ExitStack, redirect_stdout

import pytest

from repro.__main__ import main as cli_main
from repro.serve import create_server
from repro.serve import metrics as serve_metrics

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


def cli_json(argv: list[str]) -> bytes:
    """Run a CLI verb in-process and return its stdout bytes."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc in (0, 1), f"CLI {argv} exited {rc}"
    return buf.getvalue().encode()


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
        get(server.url + "/healthz")  # ensure at least one sample
        status, body, headers = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text

    def test_unknown_path_404(self, server):
        status, body, _ = get(server.url + "/nope")
        assert status == 404
        assert "error" in json.loads(body)

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
    def test_cli_metrics_folds_in_serve_families(self, server, capsys):
        get(server.url + "/healthz")  # ensure serve counters are nonzero
        assert cli_main(["metrics", "miniweather", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "perfmodel_loops_total" in out  # the sweep's own families
        assert "serve_requests_total" in out  # merged serve families


class TestVectorizedBatching:
    def test_merged_batch_hits_vectorized_path_once(self, tmp_path):
        """Two cold run requests landing in one batching window merge
        into one plan and that plan is evaluated as exactly one
        vectorized batch (the amortization the 5 ms window exists for)."""
        srv = create_server(
            port=0, cache_dir=str(tmp_path),
            batch_window=0.25,
        )
        srv.run_in_thread()
        try:
            engine = srv.state.engine
            assert engine.metrics.vec_batches == 0
            from repro.machine import get_platform

            futures = [
                srv.state.batcher.submit(app, get_platform(p))
                for app, p in [("cloverleaf2d", "max9480"),
                               ("mgcfd", "max9480")]
            ]
            results = [f.result(timeout=120) for f in futures]
            assert all(est is not None for _cfg, est in results)
            assert engine.last_evaluator == "vectorized"
            assert engine.metrics.vec_batches == 1
            assert engine.metrics.vec_jobs > 0
        finally:
            srv.stop()

    def test_no_vec_server_runs_scalar(self, tmp_path):
        srv = create_server(
            port=0, cache_dir=str(tmp_path), vectorize=False,
        )
        srv.run_in_thread()
        try:
            status, body, _ = post(
                srv.url + "/sweep",
                {"apps": ["mgcfd"], "platforms": ["max9480"]},
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["evaluator"] == "scalar"
            assert srv.state.engine.metrics.vec_batches == 0
        finally:
            srv.stop()
