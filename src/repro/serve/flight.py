"""Request identity and the flight recorder.

Every request entering the serve pipeline gets an :class:`Inflight`
minted at ingress: a short random ID plus an accumulating map of
per-stage wall timings.  The record rides a :mod:`contextvars`
ContextVar, so the stages recorded deep inside the stack — queue wait
in the admission gate, the batch window, plan execution
(``shard_exec``), store I/O — land on the request that caused them
even when the work happens on a different thread (the batcher
propagates the ingress context; see ``batch.py``).

Requests merged away by the coalescer keep their own ID but record the
leader's, so a flight record always answers "who actually evaluated
this".

The :class:`FlightRecorder` keeps the last N completed requests in a
ring buffer, served by ``GET /debug/requests[/<id>]`` and dumped to
JSONL on shutdown via ``repro serve --flight-log``.  It also tracks the
slowest request per endpoint — the exemplars the latency histograms in
``/metrics`` link to.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import OrderedDict
from contextvars import ContextVar

__all__ = [
    "Inflight",
    "FlightRecorder",
    "begin",
    "current",
    "add_stage",
    "DEFAULT_CAPACITY",
]

#: Ring-buffer size of the flight recorder (``--flight-records``).
DEFAULT_CAPACITY = 256


class Inflight:
    """One request's identity and stage timings, while in flight."""

    __slots__ = ("id", "endpoint", "method", "start", "stages",
                 "leader_id", "coalesced", "_lock")

    def __init__(self, endpoint: str, method: str):
        self.id = uuid.uuid4().hex[:12]
        self.endpoint = endpoint
        self.method = method
        self.start = time.perf_counter()
        self.stages: dict[str, float] = {}
        #: ID of the request whose evaluation produced this response.
        #: Defaults to our own; the coalescer overwrites it on followers.
        self.leader_id = self.id
        self.coalesced = False
        self._lock = threading.Lock()

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``stage`` (stages can repeat —
        e.g. store I/O happens once per job of a merged plan)."""
        with self._lock:
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds


_current: ContextVar[Inflight | None] = ContextVar(
    "repro_inflight", default=None
)


def begin(endpoint: str, method: str) -> Inflight:
    """Mint a request record at ingress and install it in the context."""
    inf = Inflight(endpoint, method)
    _current.set(inf)
    return inf


def current() -> Inflight | None:
    """The request record of the current context, or None outside one."""
    return _current.get()


def add_stage(stage: str, seconds: float) -> None:
    """Record a stage timing on the current request, if there is one.

    The no-op path is one ContextVar read — cheap enough to leave
    unconditional at every instrumentation site.
    """
    inf = _current.get()
    if inf is not None:
        inf.add_stage(stage, seconds)


class FlightRecorder:
    """Bounded ring of the last N completed requests."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, int(capacity))
        self._ring: OrderedDict[str, dict] = OrderedDict()
        #: slowest completed request per endpoint: endpoint -> record
        self._slowest: dict[str, dict] = {}
        self._lock = threading.Lock()

    def complete(self, inf: Inflight, status: int,
                 duration_s: float) -> dict:
        """Finalize ``inf`` into an immutable record and ring it."""
        with inf._lock:
            stages = {k: round(v, 6) for k, v in sorted(inf.stages.items())}
        record = {
            "id": inf.id,
            "endpoint": inf.endpoint,
            "method": inf.method,
            "status": status,
            "duration_s": round(duration_s, 6),
            "coalesced": inf.coalesced,
            "leader_id": inf.leader_id,
            "stages": stages,
        }
        with self._lock:
            self._ring[inf.id] = record
            while len(self._ring) > self.capacity:
                self._ring.popitem(last=False)
            slow = self._slowest.get(inf.endpoint)
            if slow is None or record["duration_s"] > slow["duration_s"]:
                self._slowest[inf.endpoint] = record
        return record

    def records(self) -> list[dict]:
        """Completed records, newest first."""
        with self._lock:
            return list(reversed(self._ring.values()))

    def get(self, request_id: str) -> dict | None:
        with self._lock:
            return self._ring.get(request_id)

    def exemplars(self) -> dict[str, dict]:
        """Slowest completed request per endpoint (may have aged out of
        the ring; the exemplar keeps its own copy)."""
        with self._lock:
            return dict(self._slowest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def to_jsonl(self) -> str:
        """Ring contents as JSONL, oldest first (the ``--flight-log``
        dump format: one request per line, replayable with jq)."""
        with self._lock:
            lines = [json.dumps(r, sort_keys=True) for r in self._ring.values()]
        return "\n".join(lines) + ("\n" if lines else "")
