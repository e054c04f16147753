"""Request batching: compatible run requests fold into one sweep plan.

A ``POST /run`` needs the whole default configuration sweep of its
(app, platform) pair to pick the best run.  Under concurrent load many
such requests arrive within milliseconds of each other; evaluating each
as its own plan would re-enter the engine once per request.  The
:class:`BatchQueue` instead accumulates requests for a short window
(``window`` seconds, or until ``max_batch`` requests are pending) and
builds *one* merged :class:`~repro.engine.jobs.JobPlan` covering every
distinct pair — duplicates collapse at planning time, the engine
evaluates the union once (one vectorized batch for its cold points), and
each request's future is resolved with its pair's best feasible run.

Requests are "compatible" by construction: every run request wants its
pair's default paper sweep, so any set of them merges into one plan.
Failures stay per-request — a pair with no feasible configuration
rejects only the futures that asked for it.

Context propagation: each request snapshots its submitter's
``contextvars`` context, and the flush runs the merged plan inside the
*first* request's context — so a tracer, session metrics registry or
flight record scoped at ingress survives the hop onto the
``serve-batcher`` thread (which, like every thread, starts with an
empty context).  The evaluation's stage timings land on that leading
request; every batched request additionally records the time it spent
waiting in the window as its ``batch_window`` stage.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..engine.jobs import JobPlan, JobResult, build_plan
from ..machine.spec import PlatformSpec
from . import flight
from . import metrics as sm

__all__ = ["BatchQueue", "best_of"]


@dataclass
class _Request:
    app: str
    platform: PlatformSpec
    future: Future = field(default_factory=Future)
    #: The submitter's context (tracer / metrics / flight record scoped
    #: at ingress) — entered by the flush that evaluates this request.
    ctx: contextvars.Context = field(default_factory=contextvars.copy_context)
    submitted: float = field(default_factory=time.perf_counter)
    inflight: flight.Inflight | None = field(default_factory=flight.current)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.app, self.platform.short_name)


def best_of(results: list[JobResult], app: str, platform: str):
    """The fastest feasible (config, estimate) of one pair's results;
    raises ``ValueError`` when nothing ran (the ``best_run`` contract)."""
    runs = [
        (r.job.config, r.estimate)
        for r in results
        if r.estimate is not None
        and r.job.app == app
        and r.job.platform.short_name == platform
    ]
    if not runs:
        raise ValueError(f"{app} has no feasible configuration on {platform}")
    return min(runs, key=lambda ce: ce[1].total_time)


class BatchQueue:
    """Accumulate run requests and execute them as merged sweep plans.

    ``run_plan`` is the plan-execution callback (the server passes
    :meth:`~repro.serve.server.ServeState.run_plan`); it receives one
    merged plan per flush and returns the engine's results.
    """

    def __init__(self, run_plan, *, window: float = 0.005, max_batch: int = 64):
        self._run_plan = run_plan
        self.window = window
        self.max_batch = max_batch
        self._q: "queue.Queue[_Request | None]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, app: str, platform: PlatformSpec) -> Future:
        """Enqueue one run request; the future resolves to the pair's
        best (config, estimate)."""
        req = _Request(app, platform)
        self._q.put(req)
        return req.future

    def close(self) -> None:
        """Flush pending requests and stop the batching thread."""
        self._q.put(None)
        self._thread.join()

    # ---- the batching loop ----------------------------------------------

    def _gather(self) -> tuple[list[_Request], bool]:
        """Block for the first request, then drain compatible arrivals
        until the window closes or the batch is full."""
        first = self._q.get()
        if first is None:
            return [], True
        batch = [first]
        deadline = time.monotonic() + self.window
        closing = False
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                req = self._q.get(timeout=remaining)
            except queue.Empty:
                break
            if req is None:
                closing = True
                break
            batch.append(req)
        return batch, closing

    def _merged_plan(self, batch: list[_Request]) -> JobPlan:
        """One plan covering every distinct (app, platform) pair's
        default sweep (pair-wise union, *not* an apps × platforms cross
        product — a batch of (a, p) and (b, q) must not drag in (a, q))."""
        merged = JobPlan()
        seen_pairs: set[tuple[str, str]] = set()
        for req in batch:
            if req.pair in seen_pairs:
                continue
            seen_pairs.add(req.pair)
            pair_plan = build_plan([req.app], [req.platform])
            merged.jobs.extend(pair_plan.jobs)
            merged.skipped.extend(pair_plan.skipped)
        return merged

    def _flush(self, batch: list[_Request]) -> None:
        sm.inc("serve_batches_total")
        sm.inc("serve_batched_requests_total", len(batch))
        flushed = time.perf_counter()
        for req in batch:
            if req.inflight is not None:
                req.inflight.add_stage("batch_window", flushed - req.submitted)
        try:
            # Evaluate inside the first request's snapshotted context so
            # ingress-scoped tracer/metrics/flight state reaches the
            # engine (this thread's own context is empty).
            results = batch[0].ctx.run(self._run_plan, self._merged_plan(batch))
        except BaseException as exc:
            for req in batch:
                req.future.set_exception(exc)
            return
        for req in batch:
            try:
                req.future.set_result(
                    best_of(results, req.app, req.platform.short_name)
                )
            except ValueError as exc:
                req.future.set_exception(exc)

    def _loop(self) -> None:
        while True:
            batch, closing = self._gather()
            if batch:
                self._flush(batch)
            if closing or not batch:  # sentinel seen (batch may be empty)
                return
