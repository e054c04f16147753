"""Sweep execution engine: job plans + persistent result store.

Every model sweep in the repository routes through this package:

- :mod:`~repro.engine.store` — content-addressed, on-disk estimate store
  keyed by (app-spec fingerprint, platform, config, model version); its
  in-memory map holds each record decoded once, shared by every caller.
  The same file keeps each app's profiled spec, keyed by a digest of the
  sources profiling runs;
- :mod:`~repro.engine.jobs` — job-plan construction (cross products,
  dedup, feasibility filtering, spec-before-estimate ordering);
- :mod:`~repro.engine.metrics` — hit/miss/evaluation counters and the
  summary report;
- :mod:`~repro.engine.core` — the :class:`SweepEngine` facade and the
  process-default instance behind :mod:`repro.harness.runner`.

See ``docs/ENGINE.md`` for the design and the cache-key scheme.

Layer role (docs/ARCHITECTURE.md): the execution layer above the
perfmodel — evaluates (app x platform x config) points with caching and
batched (vectorized) evaluation; the harness and CLI route every sweep
through it.
"""

from .core import (
    SweepEngine,
    configure_engine,
    default_cache_dir,
    default_engine,
    reset_engine,
)
from .jobs import Job, JobPlan, JobResult, build_plan, default_configs, sweep_plan
from .metrics import EngineMetrics
from .store import ResultStore, model_version, result_key

__all__ = [
    "SweepEngine",
    "default_engine",
    "configure_engine",
    "reset_engine",
    "default_cache_dir",
    "Job",
    "JobPlan",
    "JobResult",
    "build_plan",
    "sweep_plan",
    "default_configs",
    "EngineMetrics",
    "ResultStore",
    "model_version",
    "result_key",
]
