"""The HTTP estimation service: stdlib ``http.server`` over the engine.

``repro serve`` stands this server up as a long-running process; tests
and the bench harness embed it in-process on an ephemeral port.  One
:class:`ServeState` owns the whole serving stack:

- the content-addressed :class:`~repro.engine.store.ResultStore`, the
  only warm tier (its map keeps each record decoded once), installed as
  the process-default engine's store so the CLI verbs, the figure
  harnesses and the service share one cache; every ``get``/``put`` is
  timed as the request's ``store_io`` stage;
- a :class:`~repro.serve.batch.BatchQueue` folding concurrent run
  requests into merged plans, each executed by
  :meth:`ServeState.run_plan` (the ``shard_exec`` stage);
- a :class:`~repro.serve.coalesce.Coalescer` deduplicating identical
  in-flight requests;
- an :class:`~repro.serve.backpressure.AdmissionGate` bounding
  concurrent evaluation work (HTTP 429 + ``Retry-After`` beyond it).

Endpoints (see ``docs/SERVE.md``):

==========================  ===============================================
``GET /healthz``            liveness + SLO health (``ok|degraded|failing``)
``GET /metrics``            Prometheus text: serve + engine metric families
``GET /telemetry``          sampler rings as JSON (the dashboard's feed)
``GET /dashboard``          self-contained live HTML dashboard
``GET /fidelity``           scorecard JSON (``?figures=...`` to restrict)
``POST /run``               best-run estimate of ``{"app", "platform"}``
``POST /sweep``             sweep of ``{"apps": [...], "platforms": [...]}``
``POST /explain``           attribution ``{"app", "platform", "vs", ...}``
``GET /debug/requests``     flight recorder: the last N requests
``GET /debug/requests/<id>``  one request's stage timings (404 if aged out)
==========================  ===============================================

A :class:`~repro.obs.telemetry.TelemetrySampler` snapshots the merged
registry every ``--sample-interval`` seconds (default 1 s) into bounded
time-series rings, evaluates the default SLOs (:func:`default_slos`),
and optionally appends each sample to ``--telemetry-log``.  ``/healthz``
keeps its HTTP-200 liveness contract in every state — orchestrators
reading the status *body* get the three-state SLO verdict.

Every response carries an ``X-Request-Id`` header; the same ID keys the
flight recorder, the JSONL access log (``--access-log``) and, for
coalesced requests, the follower records pointing at their leader.

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
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..apps import APP_ORDER
from ..engine import configure_engine, reset_engine
from ..engine.core import default_cache_dir
from ..engine.jobs import JobPlan, JobResult, build_plan
from ..engine.store import ResultStore, model_version
from ..machine import ALL_PLATFORMS
from ..obs.metrics import (
    MetricsRegistry,
    collecting,
    prometheus_text,
    quantile_summary,
)
from ..obs.telemetry import SLO, TelemetrySampler
from ..obs.tracer import active_tracer, tracing
from . import flight
from . import metrics as sm
from . import payloads
from .dashboard import render_dashboard
from .backpressure import AdmissionGate, Saturated
from .batch import BatchQueue, best_of
from .coalesce import Coalescer

__all__ = [
    "ServeConfig",
    "ServeState",
    "ReproServer",
    "create_server",
    "default_slos",
]


def default_slos(config: "ServeConfig") -> tuple[SLO, ...]:
    """The server's built-in objectives (``docs/SERVE.md`` documents
    the schema):

    - ``run-latency-p99``: 99% of warm ``/run`` requests under 250 ms;
    - ``error-rate``: fewer than 1% of responses are 5xx;
    - ``queue-wait-p95``: 95% of batch-queue waits within the batch
      window (a longer wait means the queue, not the window, paces
      admission).
    """
    return (
        SLO(
            name="run-latency-p99",
            family="serve_request_seconds",
            labels=(("endpoint", "/run"),),
            threshold_s=0.25,
            target=0.99,
            description="99% of /run requests complete within 250 ms",
        ),
        SLO(
            name="error-rate",
            family="serve_requests_total",
            kind="errors",
            target=0.99,
            description="fewer than 1% of responses are 5xx",
        ),
        SLO(
            name="queue-wait-p95",
            family="serve_stage_seconds",
            labels=(("stage", "queue_wait"),),
            threshold_s=max(config.batch_window, 1e-4),
            target=0.95,
            description="95% of batch-queue waits within the batch window",
        ),
    )


@dataclass
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8000
    max_inflight: int = 8
    max_queue: int = 32
    batch_window: float = 0.005
    max_batch: int = 64
    cache_dir: str | None = None  # None: the engine's default resolution
    use_cache: bool = True
    vectorize: bool = True  # False: per-job scalar evaluation (--no-vec)
    verbose: bool = False
    #: Flight-recorder ring size (``--flight-records``).
    flight_records: int = flight.DEFAULT_CAPACITY
    #: Dump the flight-recorder ring to this JSONL file on shutdown.
    flight_log: str | None = None
    #: Append one JSONL line per completed request to this file.
    access_log: str | None = None
    #: Telemetry sampling interval in seconds (``--sample-interval``);
    #: <= 0 disables the sampler thread (ticks can still be driven
    #: manually — the service tests do).
    sample_interval: float = 1.0
    #: Ring capacity per time series (``--telemetry-ring``).
    telemetry_ring: int = 600
    #: Append one JSONL record per telemetry sample to this file.
    telemetry_log: str | None = None
    # Embedded use only (tests, the bench harness): a Tracer / session
    # MetricsRegistry installed around every request dispatch.  Handler
    # threads start with empty contexts, so observability scoped at the
    # embedding site would otherwise never reach the pipeline.
    tracer: object | None = None
    session_metrics: object | None = None


class TimedStore(ResultStore):
    """The result store with every ``get``/``put`` recorded as the
    current request's ``store_io`` stage."""

    def get(self, key):
        t0 = time.perf_counter()
        est = super().get(key)
        flight.add_stage("store_io", time.perf_counter() - t0)
        return est

    def put(self, key, estimate) -> None:
        t0 = time.perf_counter()
        super().put(key, estimate)
        flight.add_stage("store_io", time.perf_counter() - t0)


class ServeState:
    """The serving stack behind the HTTP handler."""

    def __init__(self, config: ServeConfig):
        self.config = config
        directory = (
            config.cache_dir if config.cache_dir is not None
            else default_cache_dir()
        )
        self.store = TimedStore(directory if config.use_cache else None)
        # Installed as the process default so the harness wrappers the
        # payload builders use (best_run, best_attribution, scorecard)
        # all evaluate through the serve cache and engine settings.
        self.engine = configure_engine(
            store=self.store, use_cache=config.use_cache,
            vectorize=config.vectorize,
        )
        self.batcher = BatchQueue(
            self.run_plan,
            window=config.batch_window,
            max_batch=config.max_batch,
        )
        self.coalescer = Coalescer()
        self.gate = AdmissionGate(
            max_inflight=config.max_inflight, max_queue=config.max_queue
        )
        self.recorder = flight.FlightRecorder(config.flight_records)
        self._access_log = (
            open(config.access_log, "a", encoding="utf-8")
            if config.access_log else None
        )
        self._access_lock = threading.Lock()
        # The sampler is always constructed (tests drive tick() by
        # hand with sample_interval=0); the thread only starts when the
        # interval is positive.
        self.sampler = TelemetrySampler(
            self.merged_registry,
            interval=config.sample_interval,
            capacity=config.telemetry_ring,
            log_path=config.telemetry_log,
            slos=default_slos(config),
            gauge_sink=sm.set_gauge,
        )
        self.sampler.start()
        self.started = time.time()
        self._closed = False
        self._fingerprints: dict[str, str] = {}

    def run_plan(self, plan: JobPlan) -> list[JobResult]:
        """``engine.run_plan``, recorded as the request's ``shard_exec``
        stage (the published stage name) and as a wall span."""
        t0 = time.perf_counter()
        results = self.engine.run_plan(plan)
        t1 = time.perf_counter()
        flight.add_stage("shard_exec", t1 - t0)
        tracer = active_tracer()
        if tracer is not None:
            tracer.wall_span(
                "serve", "shard_exec", t0, t1,
                track=("serve", threading.current_thread().name),
                jobs=len(plan.jobs), evaluator=self.engine.last_evaluator,
            )
        return results

    def _fingerprint(self, name: str) -> str:
        """Memoized spec fingerprint (recomputing it hashes the whole
        kernel list — ~20 ms — which would dominate warm requests)."""
        fp = self._fingerprints.get(name)
        if fp is None:
            fp = self._fingerprints[name] = self.engine.app_spec(name).fingerprint()
        return fp

    def run_key(self, name: str, platform) -> tuple:
        """Coalescing identity of a run request: spec fingerprint ×
        platform × model version (two clients asking for the same point
        under the same model share one evaluation)."""
        return ("run", self._fingerprint(name), platform.short_name,
                model_version())

    def best_run(self, name: str, platform) -> tuple:
        """Coalesced best-run evaluation of one pair.

        Fully-cached pairs run inline (every job of the pair's sweep is
        already in the store, so the plan is pure cache hits); anything
        needing real evaluation goes through the batch queue, where
        concurrent cold requests merge into one plan.  Batching exists
        to amortize expensive evaluation — warm requests skip its
        window entirely.
        """
        def compute():
            plan = build_plan([name], [platform])
            if self.engine.use_cache and plan.jobs and all(
                self.engine.result_address(j.app, j.platform, j.config)
                in self.store
                for j in plan.jobs
            ):
                sm.inc("serve_warm_inline_total")
                return best_of(self.engine.run_plan(plan), name,
                               platform.short_name)
            return self.batcher.submit(name, platform).result()

        (cfg, est), _coalesced = self.coalescer.do(
            self.run_key(name, platform), compute
        )
        return cfg, est

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
        """Liveness plus SLO health.

        ``status`` is the worst objective status (``ok`` when the SLO
        engine has nothing to say yet) — the HTTP code stays 200 in
        every state so orchestrator liveness probes keep passing while
        humans and alerting read the body.
        """
        slo = self.sampler.slo_status()
        return {
            "status": slo.get("status", "ok"),
            "slo": slo,
            "version": __version__,
            "uptime_s": round(time.time() - self.started, 3),
            "model_version": model_version(),
            "store_records": len(self.store),
            "store_corrupt_records": self.store.corrupt_lines,
            "inflight": self.gate.depth,
        }

    def close(self) -> None:
        """Stop the batcher, dump the flight log, release the
        process-default engine."""
        if self._closed:
            return
        self._closed = True
        # Final flush sample + log close before the engine goes away.
        self.sampler.stop()
        self.batcher.close()
        if self.config.flight_log:
            Path(self.config.flight_log).write_text(
                self.recorder.to_jsonl(), encoding="utf-8"
            )
        if self._access_log is not None:
            self._access_log.close()
            self._access_log = None
        reset_engine()


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        if self.state.config.verbose:
            super().log_message(fmt, *args)

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
        self.end_headers()
        self.wfile.write(data)
        return code

    def _error(self, code: int, message: str,
               extra_headers: dict | None = None, **fields) -> int:
        return self._send(
            code, payloads.render_json({"error": message, **fields}),
            extra_headers=extra_headers,
        )

    def _json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise payloads.RequestError("empty request body (expected JSON)")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
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

    def _endpoint_telemetry(self) -> int:
        payload = self.state.sampler.payload()
        payload["slowest"] = [
            rec for _, rec in sorted(self.state.recorder.exemplars().items())
        ]
        return self._send(200, payloads.render_json(payload))

    def _endpoint_dashboard(self) -> int:
        payload = self.state.sampler.payload()
        payload["slowest"] = [
            rec for _, rec in sorted(self.state.recorder.exemplars().items())
        ]
        return self._send(
            200, render_dashboard(payload),
            content_type="text/html; charset=utf-8",
        )

    def _endpoint_fidelity(self, query: dict) -> int:
        figures = payloads.resolve_figures(
            ",".join(query.get("figures", [])) or None
        )
        with self.state.gate.admit():
            payload, _ = self.state.coalescer.do(
                ("fidelity", tuple(figures), model_version()),
                lambda: payloads.fidelity_payload(figures),
            )
        return self._send(200, payloads.render_json(payload))

    def _endpoint_run(self) -> int:
        body = self._json_body()
        name = payloads.resolve_app(body.get("app"))
        platform = payloads.resolve_platform(body.get("platform", "max9480"))
        with self.state.gate.admit():
            cfg, est = self.state.best_run(name, platform)
        payload = payloads.best_run_payload(name, platform, cfg, est)
        return self._send(200, payloads.render_json(payload))

    def _endpoint_sweep(self) -> int:
        body = self._json_body()
        apps = body.get("apps") or list(APP_ORDER)
        if not isinstance(apps, list):
            raise payloads.RequestError(f"'apps' must be a list (got {apps!r})")
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
            payload, _ = self.state.coalescer.do(
                ("sweep", tuple(names),
                 tuple(p.short_name for p in platforms), model_version()),
                lambda: payloads.sweep_payload(
                    names, platforms, run_plan=self.state.run_plan
                ),
            )
        return self._send(200, payloads.render_json(payload))

    def _endpoint_explain(self) -> int:
        body = self._json_body()
        name = payloads.resolve_app(body.get("app"))
        platform = payloads.resolve_platform(body.get("platform", "max9480"))
        vs = body.get("vs")
        other = payloads.resolve_platform(vs) if vs is not None else None
        knobs = payloads.resolve_what_if(body.get("what_if") or {})
        with self.state.gate.admit():
            key = ("explain", name, platform.short_name,
                   other.short_name if other else None,
                   tuple(sorted(knobs.items())), model_version())
            payload, _ = self.state.coalescer.do(
                key,
                lambda: payloads.explain_payload(
                    name, platform, vs=other, what_if=knobs
                ),
            )
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
        # One metrics/flight label for every record detail lookup —
        # per-ID labels would grow the registry without bound.
        label = (
            "/debug/requests/<id>"
            if endpoint.startswith("/debug/requests/") else endpoint
        )
        t0 = time.perf_counter()
        cfg = self.state.config
        with ExitStack() as stack:
            # Handler threads have empty contexts; install the embedded
            # observability scope (if any) before minting the request.
            if cfg.tracer is not None:
                stack.enter_context(tracing(cfg.tracer))
            if cfg.session_metrics is not None:
                stack.enter_context(collecting(cfg.session_metrics))
            inf = flight.begin(label, method)
            code = self._route(method, endpoint, url)
            duration = time.perf_counter() - t0
            tracer = active_tracer()
            if tracer is not None:
                tracer.wall_span(
                    "serve", f"{method} {label}", t0, t0 + duration,
                    track=("serve", threading.current_thread().name),
                    request_id=inf.id, status=code,
                )
            record = self.state.recorder.complete(inf, code, duration)
            self.state.log_access(record)
        sm.inc("serve_requests_total", endpoint=label, status=code)
        sm.observe("serve_request_seconds", duration, endpoint=label)
        for stage, seconds in record["stages"].items():
            sm.observe(
                "serve_stage_seconds", seconds,
                buckets=sm.STAGE_BUCKETS, stage=stage,
            )

    def _route(self, method: str, endpoint: str, url) -> int:
        try:
            if method == "GET" and endpoint == "/healthz":
                code = self._endpoint_healthz()
            elif method == "GET" and endpoint == "/metrics":
                code = self._endpoint_metrics()
            elif method == "GET" and endpoint == "/telemetry":
                code = self._endpoint_telemetry()
            elif method == "GET" and endpoint == "/dashboard":
                code = self._endpoint_dashboard()
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
            elif endpoint in ("/healthz", "/metrics", "/telemetry",
                              "/dashboard", "/fidelity",
                              "/run", "/sweep", "/explain") or (
                endpoint == "/debug/requests"
                or endpoint.startswith("/debug/requests/")
            ):
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
        except payloads.RequestError as exc:
            code = self._error(400, str(exc))
        except ValueError as exc:  # e.g. "no feasible configuration"
            code = self._error(400, str(exc))
        except BrokenPipeError:  # client went away; nothing to send
            code = 499
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
        """Graceful shutdown: stop accepting, drain the batcher, release
        the process-default engine, close the socket."""
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
