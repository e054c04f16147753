"""Engine counters and the end-of-sweep summary report.

One :class:`EngineMetrics` instance rides along with each
:class:`~repro.engine.core.SweepEngine`.  Since the
:mod:`repro.obs.metrics` registry landed, the counters themselves are
registry counters (named ``engine_<counter>_total``) held in a private
per-engine :class:`~repro.obs.metrics.MetricsRegistry`; attribute access
(``metrics.cache_hits``), :meth:`as_dict` and :meth:`summary` read from
it with byte-stable keys, so ``BENCH_sweep.json`` and the sweep CLI
footer keep their exact shape.  When a session registry is installed
via :func:`repro.obs.metrics.collecting`, every increment is mirrored
into it too (plus an ``engine_job_seconds`` duration histogram), which
is how ``python -m repro metrics`` surfaces engine activity alongside
the mem/simmpi/perfmodel/store counters.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..obs.metrics import MetricsRegistry, active_metrics

__all__ = ["EngineMetrics"]

_COUNTERS = (
    "spec_builds",
    "evaluations",
    "cache_hits",
    "cache_misses",
    "jobs_executed",
    "jobs_skipped",
    "jobs_failed",
)

# Counters outside the pinned :meth:`EngineMetrics.as_dict` shape (the
# 11-key dict is part of the BENCH_sweep.json / CLI-footer surface).
# They are still registry counters, still mirrored into a session
# registry, and still readable as attributes.
_EXTRA_COUNTERS = (
    "vec_batches",  # batched (vectorized) evaluation passes
    "vec_jobs",  # jobs evaluated inside those passes
)


class EngineMetrics:
    """Thread-safe counters plus wall-time accounting for sweep runs.

    Counter storage is delegated to a private registry; ``wall_time``
    and ``job_time`` stay plain floats under the instance lock (they
    are aggregates of ``timed_run`` scopes, not monotone counters).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.reset()

    def reset(self) -> None:
        self.registry.clear()
        with self._lock:
            self.wall_time = 0.0  # seconds inside run_plan
            self.job_time = 0.0  # summed per-job durations (all threads)

    def __getattr__(self, name: str) -> int:
        # Only reached when normal attribute lookup fails: the delegated
        # counters read straight from the registry.
        if name in _COUNTERS or name in _EXTRA_COUNTERS:
            return int(self.__dict__["registry"].value(f"engine_{name}_total"))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def count(self, name: str, n: int = 1) -> None:
        if name not in _COUNTERS and name not in _EXTRA_COUNTERS:
            raise KeyError(f"unknown engine counter {name!r}")
        self.registry.inc(f"engine_{name}_total", n)
        session = active_metrics()
        if session is not None and session is not self.registry:
            session.inc(f"engine_{name}_total", n)

    def add_job_time(self, seconds: float, n: int = 1) -> None:
        """Record ``n`` jobs of ``seconds`` each (batched evaluation
        amortizes one wall reading over the whole batch)."""
        with self._lock:
            self.job_time += seconds * n
        session = active_metrics()
        if session is not None:
            session.inc("engine_job_seconds_total", seconds * n)
            for _ in range(n):
                session.observe("engine_job_seconds", seconds)

    @contextmanager
    def timed_run(self):
        """Accumulate the wall time of one plan execution."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self.wall_time += dt
            session = active_metrics()
            if session is not None:
                session.inc("engine_wall_seconds_total", dt)
            from ..obs.tracer import active_tracer

            tracer = active_tracer()
            if tracer is not None:
                tracer.wall_event(
                    "engine", "plan:metrics", time.perf_counter(),
                    track=("engine", "dispatch"), **self.as_dict(),
                )

    # ---- derived ---------------------------------------------------------

    @property
    def jobs_total(self) -> int:
        return self.jobs_executed + self.jobs_skipped + self.jobs_failed

    @property
    def jobs_per_sec(self) -> float:
        return self.jobs_executed / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _COUNTERS}
        with self._lock:
            d["wall_time"] = self.wall_time
            d["job_time"] = self.job_time
        d["jobs_per_sec"] = self.jobs_per_sec
        d["hit_rate"] = self.hit_rate
        return d

    def summary(self) -> str:
        d = self.as_dict()
        return (
            "engine: {jobs_executed} jobs "
            "({cache_hits} cached, {evaluations} evaluated, "
            "{jobs_skipped} skipped, {jobs_failed} failed), "
            "{spec_builds} specs profiled, "
            "hit rate {hit_rate:.0%}, "
            "{wall_time:.2f} s wall ({jobs_per_sec:.1f} jobs/s)"
        ).format(**d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EngineMetrics {self.as_dict()}>"
