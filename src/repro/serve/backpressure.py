"""Back-pressure: bounded admission of evaluation-bearing requests.

The server must degrade by *refusing* load it cannot absorb, not by
queueing unboundedly until every client times out.  The
:class:`AdmissionGate` allows ``max_inflight`` requests to evaluate
concurrently and at most ``max_queue`` more to wait for a slot; a
request beyond that is rejected immediately with :class:`Saturated`,
which the HTTP layer maps to ``429 Too Many Requests`` plus a
``Retry-After`` header sized to the current backlog.

Cheap endpoints (``/healthz``, ``/metrics``) bypass the gate — health
checks must keep answering precisely when the service is saturated.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

from ..obs.stages import stage
from . import metrics as sm

__all__ = ["AdmissionGate", "Saturated"]

#: Seconds one admitted request is assumed to take when sizing
#: ``Retry-After``.
EST_REQUEST_SECONDS = 0.25


class Saturated(Exception):
    """Raised when the gate is full; carries the suggested retry delay."""

    def __init__(self, retry_after: int, depth: int, capacity: int):
        self.retry_after = retry_after
        super().__init__(
            f"server saturated ({depth} requests against a capacity of "
            f"{capacity}); retry in {retry_after} s"
        )


class AdmissionGate:
    """Bounded two-stage gate: ``max_inflight`` running, ``max_queue``
    waiting, everything beyond rejected."""

    def __init__(self, max_inflight: int = 8, max_queue: int = 32):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1 (got {max_inflight})")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0 (got {max_queue})")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._depth = 0  # admitted requests: running + queued

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def capacity(self) -> int:
        return self.max_inflight + self.max_queue

    def retry_after(self) -> int:
        """Suggested client back-off: the backlog drained at the
        estimated per-request rate, at least one second."""
        return self._retry_after_for(self.depth)

    def _retry_after_for(self, depth: int) -> int:
        # Lock-free variant for callers already holding self._lock.
        queued = max(depth - self.max_inflight, 0)
        return max(
            1,
            math.ceil((queued + 1) * EST_REQUEST_SECONDS / self.max_inflight),
        )

    @contextmanager
    def admit(self):
        """Hold one admission for the duration of the block, waiting
        for an execution slot; raises :class:`Saturated` when both the
        running and the queued stages are full."""
        with self._lock:
            if self._depth >= self.capacity:
                sm.inc("serve_rejected_total")
                raise Saturated(
                    self._retry_after_for(self._depth), self._depth,
                    self.capacity,
                )
            self._depth += 1
            depth = self._depth
        sm.set_gauge("serve_queue_depth", max(depth - self.max_inflight, 0))
        with stage("serve", "queue_wait"):
            self._slots.acquire()
        sm.set_gauge("serve_inflight", min(depth, self.max_inflight))
        try:
            yield
        finally:
            self._slots.release()
            with self._lock:
                self._depth -= 1
                depth = self._depth
            sm.set_gauge("serve_queue_depth", max(depth - self.max_inflight, 0))
            sm.set_gauge("serve_inflight", min(depth, self.max_inflight))
