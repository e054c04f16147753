"""Request identity and the flight recorder.

Every request entering the serve pipeline gets an :class:`Inflight`
minted at ingress: a short random ID plus an accumulating map of
per-stage wall timings.  :func:`begin` makes it the current request of
the stage recorder (:mod:`repro.obs.stages`), so every stage recorded
deep inside the stack — queue wait in the admission gate, plan
execution, the wait for another request's merged evaluation, store
I/O, the vectorized evaluator's own stages — lands on the request that
caused it.  All of them run on the request's handler thread, in the
context :func:`begin` set.  The request whose handler evaluates a
merged batch also collects that batch's stages.

The :class:`FlightRecorder` keeps the last N completed requests in a
ring buffer, served by ``GET /debug/requests[/<id>]``; the access log
(``repro serve --access-log``) appends each record as it completes.  It
also tracks the slowest request per endpoint — the exemplars the
latency histograms in ``/metrics`` link to.
"""

from __future__ import annotations

import threading
import uuid
from collections import OrderedDict

from ..obs.stages import current_request, set_request

__all__ = [
    "Inflight",
    "FlightRecorder",
    "begin",
    "current",
    "DEFAULT_CAPACITY",
]

#: Ring-buffer size of the flight recorder.
DEFAULT_CAPACITY = 256


class Inflight:
    """One request's identity and stage timings, while in flight."""

    __slots__ = ("id", "endpoint", "method", "stages", "_lock")

    def __init__(self, endpoint: str, method: str):
        self.id = uuid.uuid4().hex[:12]
        self.endpoint = endpoint
        self.method = method
        #: (layer, stage) -> accumulated seconds
        self.stages: dict[tuple[str, str], float] = {}
        self._lock = threading.Lock()

    def add_stage(self, layer: str, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``layer``'s ``stage`` (stages can
        repeat — e.g. store I/O happens once per job of a merged plan)."""
        key = (layer, stage)
        with self._lock:
            self.stages[key] = self.stages.get(key, 0.0) + seconds

    def stage_items(self) -> list[tuple[str, str, float]]:
        """``(layer, stage, seconds)`` triples, sorted by stage name."""
        with self._lock:
            items = [(layer, stage, v)
                     for (layer, stage), v in self.stages.items()]
        return sorted(items, key=lambda item: item[1])


def begin(endpoint: str, method: str) -> Inflight:
    """Mint a request record at ingress and install it in the context."""
    inf = Inflight(endpoint, method)
    set_request(inf)
    return inf


def current() -> Inflight | None:
    """The request record of the current context, or None outside one."""
    return current_request()


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
        stages = {stage: round(v, 6) for _, stage, v in inf.stage_items()}
        record = {
            "id": inf.id,
            "endpoint": inf.endpoint,
            "method": inf.method,
            "status": status,
            "duration_s": round(duration_s, 6),
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
