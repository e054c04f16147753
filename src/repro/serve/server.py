"""The HTTP estimation service: stdlib ``http.server`` over the engine.

``repro serve`` stands this server up as a long-running process; tests
and the bench harness embed it in-process on an ephemeral port.  One
:class:`ServeState` holds the serving stack:

- the process-default :class:`~repro.engine.core.SweepEngine`, the one
  the CLI verbs and the figure harnesses use, so they and the service
  share one engine and one content-addressed result store (the only
  warm tier; its map keeps each record decoded once).  The engine
  merges the cold misses of concurrent requests into one vectorized
  pass and evaluates each result address once: a request that waits
  for another's evaluation records ``batch_window``;
- an :class:`~repro.serve.backpressure.AdmissionGate` bounding
  concurrent evaluation work (HTTP 429 + ``Retry-After`` beyond it);
- the flight recorder and the access log.

Endpoints (see ``docs/SERVE.md``):

==========================  ===============================================
``GET /healthz``            liveness + store/queue introspection
``GET /metrics``            Prometheus text: serve + engine metric families
``GET /fidelity``           scorecard JSON (``?figures=...`` to restrict)
``POST /run``               best-run estimate of ``{"app", "platform"}``
``POST /sweep``             sweep of ``{"apps": [...], "platforms": [...]}``
``POST /explain``           attribution ``{"app", "platform", "vs", ...}``
``GET /debug/requests``     flight recorder: the last N requests
``GET /debug/requests/<id>``  one request's stage timings (404 if aged out)
==========================  ===============================================

Every response carries an ``X-Request-Id`` header; the same ID keys the
flight recorder and the JSONL access log (``--access-log``).

``/run``, ``/fidelity``, ``/sweep`` and ``/explain`` bodies are
byte-equivalent to the corresponding ``--json`` CLI outputs — both
surfaces render through :mod:`repro.serve.payloads`.  Malformed JSON
and unresolvable names map to HTTP 400 carrying the same message the
CLI would print before exiting with status 2.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..apps import APP_ORDER
from ..engine import SweepEngine, default_engine
from ..engine.store import model_version
from ..machine import ALL_PLATFORMS
from ..obs.metrics import (
    MetricsRegistry,
    collecting,
    prometheus_text,
    quantile_summary,
)
from ..obs.stages import STAGE_BUCKETS, clock, span
from ..obs.tracer import tracing
from . import flight
from . import metrics as sm
from . import payloads
from .backpressure import AdmissionGate, Saturated

__all__ = [
    "ServeConfig",
    "ServeState",
    "ReproServer",
    "create_server",
]

#: The served paths, besides ``/debug/requests/<id>``.
_ENDPOINTS = frozenset({"/healthz", "/metrics", "/fidelity", "/run",
                        "/sweep", "/explain", "/debug/requests"})

#: Largest request body the server reads.  Real bodies are a few
#: hundred bytes; a larger ``Content-Length`` is refused (413) unread.
MAX_BODY_BYTES = 1 << 20


class _Unframed(payloads.RequestError):
    """A ``Content-Length`` the body cannot be read by.  The rest of the
    stream can no longer be split into requests, so the answer closes
    the connection."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8000
    max_inflight: int = 8
    max_queue: int = 32
    #: Append one JSONL line per completed request to this file.
    access_log: str | None = None
    # Embedded use only (tests, the bench harness): a Tracer / session
    # MetricsRegistry installed around every request dispatch.  Handler
    # threads start with empty contexts, so observability scoped at the
    # embedding site would otherwise never reach the pipeline.
    tracer: object | None = None
    session_metrics: object | None = None


class ServeState:
    """The serving stack behind the HTTP handler."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.gate = AdmissionGate(
            max_inflight=config.max_inflight, max_queue=config.max_queue
        )
        self.recorder = flight.FlightRecorder()
        self._access_log = (
            open(config.access_log, "a", encoding="utf-8")
            if config.access_log else None
        )
        self._access_lock = threading.Lock()
        self.started = time.time()
        self._closed = False

    @property
    def engine(self) -> SweepEngine:
        """The process-default engine, which every payload builder (and
        so every endpoint) evaluates through."""
        return default_engine()

    def log_access(self, record: dict) -> None:
        """One JSONL line per completed request (``--access-log``)."""
        if self._access_log is None:
            return
        line = json.dumps({"ts": round(time.time(), 6), **record},
                          sort_keys=True)
        with self._access_lock:
            self._access_log.write(line + "\n")
            self._access_log.flush()

    def merged_registry(self) -> MetricsRegistry:
        """Serve families + the engine's counters, one registry.

        The flight recorder's slowest request per endpoint rides along
        as ``serve_slowest_request_seconds`` gauges whose ``request_id``
        label links the latency histograms to ``/debug/requests/<id>``.
        """
        merged = MetricsRegistry()
        merged.merge(sm.registry())
        merged.merge(self.engine.metrics.registry)
        for endpoint, rec in sorted(self.recorder.exemplars().items()):
            merged.set(
                "serve_slowest_request_seconds", rec["duration_s"],
                endpoint=endpoint, request_id=rec["id"],
            )
        return merged

    def health(self) -> dict:
        """Liveness plus store and admission-queue introspection."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started, 3),
            "model_version": model_version(),
            "store_records": len(self.engine.store),
            "store_corrupt_records": self.engine.store.corrupt_lines,
            "inflight": self.gate.depth,
        }

    def close(self) -> None:
        """Close the access log."""
        if self._closed:
            return
        self._closed = True
        if self._access_log is not None:
            self._access_log.close()
            self._access_log = None


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: with Nagle on, a write that
    # follows an unacknowledged one waits for the client's delayed ACK
    # (40 ms on Linux).  :meth:`_send` writes once; http.server's own
    # ``send_error`` writes headers and body separately.
    disable_nagle_algorithm = True
    # Seconds a socket read or write may block.  A client that stalls
    # mid-request, or idles on a kept-alive connection, is disconnected
    # instead of holding its handler thread for as long as it likes.
    timeout = 60

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # --access-log records requests
        pass

    # ---- response plumbing ----------------------------------------------

    def _send(self, code: int, body: str,
              content_type: str = "application/json",
              extra_headers: dict | None = None) -> int:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        inf = flight.current()
        if inf is not None:
            self.send_header("X-Request-Id", inf.id)
        for key, val in (extra_headers or {}).items():
            self.send_header(key, val)
        # Status line, headers and body leave in one write; end_headers()
        # would send the headers on their own.
        if self.request_version == "HTTP/0.9":  # no status line or headers
            self.wfile.write(data)
        else:
            self._headers_buffer.extend((b"\r\n", data))
            self.flush_headers()
        return code

    def _error(self, code: int, message: str,
               extra_headers: dict | None = None, **fields) -> int:
        return self._send(
            code, payloads.render_json({"error": message, **fields}),
            extra_headers=extra_headers,
        )

    def _json_body(self) -> dict:
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        if not (declared.isascii() and declared.isdigit()):
            raise _Unframed(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Unframed(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise payloads.RequestError("empty request body (expected JSON)")
        try:
            body = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder recurses.
            raise payloads.RequestError(f"malformed JSON body: {exc}")
        if not isinstance(body, dict):
            raise payloads.RequestError(
                f"request body must be a JSON object (got {type(body).__name__})"
            )
        return body

    # ---- endpoint implementations ---------------------------------------

    def _endpoint_healthz(self) -> int:
        return self._send(200, payloads.render_json(self.state.health()))

    def _endpoint_metrics(self) -> int:
        merged = self.state.merged_registry()
        text = prometheus_text(merged)
        summary = quantile_summary(merged)
        if summary:
            # Appended as comment lines: scrapers ignore them, humans
            # get p50/p95/p99 without histogram_quantile arithmetic.
            text += summary
        return self._send(200, text, content_type="text/plain; version=0.0.4")

    def _endpoint_fidelity(self, query: dict) -> int:
        figures = payloads.resolve_figures(
            ",".join(query.get("figures", [])) or None
        )
        with self.state.gate.admit():
            payload = payloads.fidelity_payload(figures)
        return self._send(200, payloads.render_json(payload))

    def _endpoint_run(self) -> int:
        body = self._json_body()
        name = payloads.resolve_app(body.get("app"))
        platform = payloads.resolve_platform(body.get("platform", "max9480"))
        with self.state.gate.admit():
            payload = payloads.run_payload(name, platform)
        return self._send(200, payloads.render_json(payload))

    def _endpoint_sweep(self) -> int:
        body = self._json_body()
        # Only a body without "apps" sweeps every app.
        apps = body.get("apps", list(APP_ORDER))
        if not isinstance(apps, list) or not apps:
            raise payloads.RequestError(
                f"'apps' must be a non-empty list (got {apps!r})")
        names = [payloads.resolve_app(a) for a in apps]
        raw_platforms = body.get("platforms", ["max9480"])
        if raw_platforms == "all":
            platforms = list(ALL_PLATFORMS)
        elif isinstance(raw_platforms, list):
            platforms = [payloads.resolve_platform(p) for p in raw_platforms]
        else:
            raise payloads.RequestError(
                f"'platforms' must be a list or 'all' (got {raw_platforms!r})"
            )
        with self.state.gate.admit():
            payload = payloads.sweep_payload(names, platforms)
        return self._send(200, payloads.render_json(payload))

    def _endpoint_explain(self) -> int:
        body = self._json_body()
        name = payloads.resolve_app(body.get("app"))
        platform = payloads.resolve_platform(body.get("platform", "max9480"))
        vs = body.get("vs")
        other = payloads.resolve_platform(vs) if vs is not None else None
        knobs = payloads.resolve_what_if(body.get("what_if") or {})
        with self.state.gate.admit():
            payload = payloads.explain_payload(name, platform, vs=other,
                                               what_if=knobs)
        return self._send(200, payloads.render_json(payload))

    def _endpoint_debug_requests(self, endpoint: str) -> int:
        """Flight recorder: ``/debug/requests`` (ring, newest first) or
        ``/debug/requests/<id>`` (one record; 404 when unknown or aged
        out of the ring, with the standard error-body shape)."""
        recorder = self.state.recorder
        if endpoint == "/debug/requests":
            return self._send(200, payloads.render_json({
                "capacity": recorder.capacity,
                "count": len(recorder),
                "requests": recorder.records(),
            }))
        request_id = endpoint.rpartition("/")[2]
        record = recorder.get(request_id)
        if record is None:
            return self._error(
                404, f"no flight record for request id {request_id!r}"
            )
        return self._send(200, payloads.render_json(record))

    # ---- dispatch --------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        endpoint = url.path.rstrip("/") or "/"
        # One metrics/flight label for every record detail lookup and
        # one for every unknown path — per-ID or per-path labels would
        # let any client grow the registry and the exemplars without
        # bound.
        if endpoint in _ENDPOINTS:
            label = endpoint
        elif endpoint.startswith("/debug/requests/"):
            label = "/debug/requests/<id>"
        else:
            label = "/<unknown>"
        t0 = clock()
        cfg = self.state.config
        with ExitStack() as stack:
            # Handler threads have empty contexts; install the embedded
            # observability scope (if any) before minting the request.
            if cfg.tracer is not None:
                stack.enter_context(tracing(cfg.tracer))
            if cfg.session_metrics is not None:
                stack.enter_context(collecting(cfg.session_metrics))
            inf = flight.begin(label, method)
            code = self._route(method, endpoint, label, url)
            t1 = clock()
            span("serve", f"{method} {label}", t0, t1,
                 request_id=inf.id, status=code)
            record = self.state.recorder.complete(inf, code, t1 - t0)
            self.state.log_access(record)
        # Outside the observability scope: a session registry already
        # saw each of these stages once, from the recorder.
        sm.inc("serve_requests_total", endpoint=label, status=code)
        sm.observe("serve_request_seconds", t1 - t0, endpoint=label)
        for layer, name, seconds in inf.stage_items():
            sm.observe("stage_seconds", seconds, buckets=STAGE_BUCKETS,
                       layer=layer, stage=name)

    def _route(self, method: str, endpoint: str, label: str, url) -> int:
        try:
            if method == "GET" and endpoint == "/healthz":
                code = self._endpoint_healthz()
            elif method == "GET" and endpoint == "/metrics":
                code = self._endpoint_metrics()
            elif method == "GET" and endpoint == "/fidelity":
                code = self._endpoint_fidelity(parse_qs(url.query))
            elif method == "POST" and endpoint == "/run":
                code = self._endpoint_run()
            elif method == "POST" and endpoint == "/sweep":
                code = self._endpoint_sweep()
            elif method == "POST" and endpoint == "/explain":
                code = self._endpoint_explain()
            elif method == "GET" and (
                endpoint == "/debug/requests"
                or endpoint.startswith("/debug/requests/")
            ):
                code = self._endpoint_debug_requests(endpoint)
            elif label != "/<unknown>":
                code = self._error(
                    405, f"{method} not allowed on {endpoint}",
                    extra_headers={"Allow":
                                   "POST" if endpoint in ("/run", "/sweep",
                                                          "/explain")
                                   else "GET"},
                )
            else:
                code = self._error(404, f"no such endpoint {endpoint!r}")
        except Saturated as exc:
            code = self._error(
                429, str(exc), retry_after_s=exc.retry_after,
                extra_headers={"Retry-After": str(exc.retry_after)},
            )
        except _Unframed as exc:
            code = self._error(exc.status, str(exc),
                               extra_headers={"Connection": "close"})
        except payloads.RequestError as exc:
            code = self._error(400, str(exc))
        except ValueError as exc:  # e.g. "no feasible configuration"
            code = self._error(400, str(exc))
        except BrokenPipeError:  # client went away; nothing to send
            code = 499
        except TimeoutError:  # the client stalled; hang up unanswered
            self.close_connection = True
            code = 408
        except Exception as exc:  # pragma: no cover - defensive
            code = self._error(500, f"internal error: {exc}")
        return code

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServeState`."""

    daemon_threads = True
    # http.server's default listen backlog of 5 drops SYNs under a
    # concurrent-client burst (each drop costs the client a ~1 s
    # retransmit); admission control belongs to the gate, not the
    # accept queue.
    request_queue_size = 128

    def __init__(self, config: ServeConfig):
        self.state = ServeState(config)
        super().__init__((config.host, config.port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close the socket and the
        access log."""
        self.shutdown()
        self.server_close()
        self.state.close()

    def run_in_thread(self) -> threading.Thread:
        """Serve from a daemon thread (tests and the bench harness)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread


def create_server(**config_kwargs) -> ReproServer:
    """Build a server from :class:`ServeConfig` keyword overrides
    (``port=0`` binds an ephemeral port)."""
    return ReproServer(ServeConfig(**config_kwargs))
