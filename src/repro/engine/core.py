"""The sweep engine: cached evaluation of model sweeps.

:class:`SweepEngine` owns the per-process application-spec and
memory-hierarchy caches, the persistent :class:`~repro.engine.store.
ResultStore`, and an :class:`~repro.engine.metrics.EngineMetrics`
instance.  Every sweep in the repository — the figure harnesses, the
benchmark suite, ``python -m repro sweep`` — runs through one of these;
:mod:`repro.harness.runner` keeps the classic ``run_application``/
``sweep``/``best_run`` functions as thin wrappers over the
process-default engine.

Evaluation of one job:

1. profile-or-fetch the :class:`AppSpec` (in-process cache; profiling
   runs the real numerics at test scale, so it is done once per app);
2. compute the content address from the spec fingerprint, platform,
   config, and model version, and consult the store;
3. on a miss, evaluate the roofline model and persist the estimate.

``run_plan`` prebuilds every spec and hierarchy model before any
estimate job runs, so evaluation only ever reads warm caches.

Cold evaluation is vectorized by default: ``run_plan`` looks every job
up in the store first, then hands all misses to
:class:`repro.vec.evaluate.VecEvaluator` as one batch (bit-for-bit
identical to the scalar path — see ``docs/VECTOR.md``).  The per-job
scalar path is used instead only when ``REPRO_NO_VEC``/``--no-vec``/
``vectorize=False`` opts out, and for any job the vectorized path
declines (returned as ``None`` from the batch).  Tracing and session
metrics ride the vectorized path: the batched evaluator synthesizes
the scalar span/metric taxonomy from its batch columns
(``docs/OBSERVABILITY.md`` "Observing the fast path").
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Callable

from ..apps.base import build_spec, get_app
from ..machine.config import RunConfig, check_feasible
from ..machine.spec import PlatformSpec
from ..mem.hierarchy import HierarchyModel
from ..obs.tracer import active_tracer
from ..perfmodel import calibration as cal
from ..perfmodel.kernelmodel import AppSpec
from ..perfmodel.roofline import AppEstimate, estimate_app
from .jobs import Job, JobPlan, JobResult, build_plan, sweep_plan
from .metrics import EngineMetrics
from .store import ResultStore, result_key

__all__ = [
    "SweepEngine",
    "default_engine",
    "configure_engine",
    "reset_engine",
    "default_cache_dir",
]

#: Set ``REPRO_CACHE_DIR`` to relocate the persistent store, or to the
#: empty string to disable persistence entirely.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set (to any non-empty value) to disable the vectorized cold path and
#: evaluate every job through the per-job scalar path (``--no-vec``).
NO_VEC_ENV = "REPRO_NO_VEC"


def default_cache_dir() -> Path | None:
    env = os.environ.get(CACHE_DIR_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "repro"


class SweepEngine:
    """Cached evaluator of model sweeps.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent result store; default from
        ``$REPRO_CACHE_DIR`` (falling back to ``~/.cache/repro``).
    use_cache:
        ``False`` bypasses the persistent store completely — every job
        is evaluated fresh and nothing is written.
    vectorize:
        ``False`` forces the per-job scalar path for plan execution;
        the default (``None``) reads ``$REPRO_NO_VEC`` (vectorized
        unless set).  Tracers and session metric registries observe
        the vectorized path directly — they no longer force scalar.
    progress:
        Optional ``progress(done, total, job, result)`` callback fired
        per completed job.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        store: ResultStore | None = None,
        use_cache: bool = True,
        vectorize: bool | None = None,
        progress: Callable[[int, int, Job, JobResult], None] | None = None,
    ):
        if store is None:
            store = ResultStore(
                cache_dir if cache_dir is not None else default_cache_dir()
            )
        self.store = store
        self.use_cache = use_cache
        if vectorize is None:
            vectorize = not os.environ.get(NO_VEC_ENV)
        self.vectorize = vectorize
        self.last_evaluator = "scalar"  # path of the most recent run_plan
        self._vec = None  # lazy VecEvaluator (skipped entirely under --no-vec)
        self.progress = progress
        self.metrics = EngineMetrics()
        # Optional TelemetrySampler poked at plan boundaries so long
        # multi-plan runs (figures, fidelity) sample between plans even
        # without the thread.  None (the default) costs one attribute
        # check per plan — never per job.
        self.sampler = None
        self._specs: dict[str, AppSpec] = {}
        self._hierarchies: dict[str, HierarchyModel] = {}
        self._platform_fps: dict[str, str] = {}  # short_name -> fingerprint
        self._spec_fps: dict[str, str] = {}  # app name -> spec fingerprint
        self._build_lock = threading.Lock()

    # ---- cached inputs ---------------------------------------------------

    def app_spec(self, name: str) -> AppSpec:
        """The (cached) paper-scale model spec of an application."""
        if name not in self._specs:
            with self._build_lock:
                if name not in self._specs:
                    self._specs[name] = build_spec(get_app(name))
                    self.metrics.count("spec_builds")
        return self._specs[name]

    def hierarchy(self, platform: PlatformSpec) -> HierarchyModel:
        if platform.short_name not in self._hierarchies:
            with self._build_lock:
                if platform.short_name not in self._hierarchies:
                    self._hierarchies[platform.short_name] = HierarchyModel(
                        platform, utilization=cal.CACHE_UTILIZATION
                    )
        return self._hierarchies[platform.short_name]

    def clear(self, store: bool = True) -> None:
        """Forget the profiled specs and hierarchy models; with
        ``store=True`` also wipe the persistent result store, so the next
        evaluation reruns the full pipeline (hermetic-test reset)."""
        with self._build_lock:
            self._specs.clear()
            self._hierarchies.clear()
            self._spec_fps.clear()
        if store:
            self.store.clear()

    # ---- single-point evaluation ----------------------------------------

    def result_address(
        self, name: str, platform: PlatformSpec, config: RunConfig
    ) -> str:
        """Content address of one (app, platform, config) point under the
        current model version — the key the store files its estimate
        under.  Fingerprints are memoized per engine, so hot callers
        (every store lookup) pay one dict lookup per component."""
        pfp = self._platform_fps.get(platform.short_name)
        if pfp is None:
            from .store import fingerprint as _fp

            pfp = self._platform_fps[platform.short_name] = _fp(platform)
        afp = self._spec_fps.get(name)
        if afp is None:
            afp = self._spec_fps[name] = self.app_spec(name).fingerprint()
        return result_key(afp, platform, config, platform_fingerprint=pfp)

    def _estimate(
        self, name: str, platform: PlatformSpec, config: RunConfig
    ) -> tuple[AppEstimate, bool]:
        """(estimate, was_cached) for one runnable point."""
        spec = self.app_spec(name)
        key = None
        if self.use_cache:
            key = self.result_address(name, platform, config)
            cached = self.store.get(key)
            if cached is not None:
                self.metrics.count("cache_hits")
                return cached, True
            self.metrics.count("cache_misses")
        est = estimate_app(spec, platform, config, self.hierarchy(platform))
        self.metrics.count("evaluations")
        if key is not None:
            self.store.put(key, est)
        return est, False

    def run(
        self, name: str, platform: PlatformSpec, config: RunConfig
    ) -> AppEstimate:
        """Estimate one run; raises ``ValueError`` for infeasible configs
        or compilers the app does not run under (the classic
        ``run_application`` contract)."""
        check_feasible(config, platform)
        if self.app_spec(name).affinity(config.compiler) <= 0.0:
            raise ValueError(
                f"{name} does not run under {config.compiler.value} "
                "(the paper reports the generated code stalls)"
            )
        return self._estimate(name, platform, config)[0]

    def evaluate(self, job: Job) -> JobResult:
        """Evaluate one planned job, capturing failures as results."""
        import time

        t0 = time.perf_counter()
        try:
            est, cached = self._estimate(job.app, job.platform, job.config)
        except Exception as exc:  # surfaced in the plan results, not raised
            self.metrics.count("jobs_failed")
            result = JobResult(job, None, "error", reason=str(exc),
                               duration=time.perf_counter() - t0)
        else:
            dt = time.perf_counter() - t0
            self.metrics.count("jobs_executed")
            self.metrics.add_job_time(dt)
            result = JobResult(job, est, "cached" if cached else "ok", duration=dt)
        tracer = active_tracer()
        if tracer is not None:
            tracer.wall_span(
                "engine",
                f"{job.app}@{job.platform.short_name}",
                t0,
                t0 + result.duration,
                track=("engine", threading.current_thread().name),
                status=result.status,
                config=job.config.label(),
            )
        return result

    # ---- batched (vectorized) evaluation ---------------------------------

    def lookup(self, job: Job) -> JobResult | None:
        """Store-only probe of one job: the cached result, or ``None``
        on a miss (the caller then batches the miss)."""
        if not self.use_cache:
            return None
        import time

        t0 = time.perf_counter()
        try:
            key = self.result_address(job.app, job.platform, job.config)
            cached = self.store.get(key)
        except Exception:
            return None  # let the evaluation path surface the failure
        if cached is None:
            return None
        dt = time.perf_counter() - t0
        self.metrics.count("cache_hits")
        self.metrics.count("jobs_executed")
        self.metrics.add_job_time(dt)
        tracer = active_tracer()
        if tracer is not None:
            tracer.wall_span(
                "engine",
                f"{job.app}@{job.platform.short_name}",
                t0,
                t0 + dt,
                track=("engine", threading.current_thread().name),
                status="cached",
                config=job.config.label(),
            )
        return JobResult(job, cached, "cached", duration=dt)

    def evaluate_batch(self, jobs: list[Job]) -> list[JobResult]:
        """Evaluate jobs as one vectorized batch (no store lookups —
        call :meth:`lookup` first).  Jobs the vectorized path declines
        fall back to :meth:`evaluate` individually, so error capture
        and counters match the scalar path exactly."""
        import time

        if not jobs:
            return []
        if self._vec is None:
            from ..vec import VecEvaluator

            self._vec = VecEvaluator()
        t0 = time.perf_counter()
        items = [
            (
                self.app_spec(job.app),
                job.platform,
                job.config,
                self.hierarchy(job.platform),
            )
            for job in jobs
        ]
        estimates = self._vec.evaluate_many(items)
        per = (time.perf_counter() - t0) / len(jobs)
        self.metrics.count("vec_batches")
        tracer = active_tracer()
        thread_name = threading.current_thread().name
        results: list[JobResult] = []
        n_vec = 0
        t_job = t0  # per-job spans tile the batch window, ``per`` each
        for job, est in zip(jobs, estimates):
            if est is None:
                results.append(self.evaluate(job))
                continue
            n_vec += 1
            if self.use_cache:
                self.store.put(
                    self.result_address(job.app, job.platform, job.config),
                    est,
                )
            if tracer is not None:
                tracer.wall_span(
                    "engine",
                    f"{job.app}@{job.platform.short_name}",
                    t_job,
                    t_job + per,
                    track=("engine", thread_name),
                    status="ok",
                    config=job.config.label(),
                )
                t_job += per
            results.append(JobResult(job, est, "ok", duration=per))
        # One counter update per batch, not per job — same totals as the
        # scalar path, without 3N mirrored registry increments.
        if n_vec:
            if self.use_cache:
                self.metrics.count("cache_misses", n_vec)
            self.metrics.count("evaluations", n_vec)
            self.metrics.count("jobs_executed", n_vec)
            self.metrics.add_job_time(per, n=n_vec)
        self.metrics.count("vec_jobs", n_vec)
        return results

    def _run_plan_vectorized(self, plan: JobPlan) -> list[JobResult]:
        """Lookup sweep, then one batched evaluation of all misses."""
        slots: list[JobResult | None] = [None] * len(plan.jobs)
        misses = []
        for i, job in enumerate(plan.jobs):
            res = self.lookup(job)
            if res is None:
                misses.append(i)
            else:
                slots[i] = res
        if misses:
            batch = self.evaluate_batch([plan.jobs[i] for i in misses])
            for i, res in zip(misses, batch):
                slots[i] = res
        if self.progress is not None:
            total = len(plan.jobs)
            for done, (job, res) in enumerate(zip(plan.jobs, slots), 1):
                self.progress(done, total, job, res)
        return slots

    # ---- plan execution --------------------------------------------------

    def run_plan(self, plan: JobPlan) -> list[JobResult]:
        """Execute a plan: specs first, then estimates (batched by
        default, one job at a time under ``vectorize=False``).
        Returns one result per *runnable* job in plan order;
        planned-but-skipped jobs are appended with status
        ``"skipped"``."""
        self.last_evaluator = "vectorized" if self.vectorize else "scalar"
        with self.metrics.timed_run():
            # Spec-before-estimate: evaluation only reads caches.
            for name in plan.apps:
                self.app_spec(name)
            for platform in plan.platforms:
                self.hierarchy(platform)
            if self.vectorize:
                results = self._run_plan_vectorized(plan)
            else:
                results = []
                total = len(plan.jobs)
                for done, job in enumerate(plan.jobs, 1):
                    results.append(self.evaluate(job))
                    if self.progress is not None:
                        self.progress(done, total, job, results[-1])
        self.metrics.count("jobs_skipped", len(plan.skipped))
        results.extend(
            JobResult(job, None, "skipped", reason=reason)
            for job, reason in plan.skipped
        )
        if self.sampler is not None:
            self.sampler.poke()
        return results

    # ---- sweep conveniences ----------------------------------------------

    def sweep(
        self, name: str, platform: PlatformSpec, configs: list[RunConfig]
    ) -> list[tuple[RunConfig, AppEstimate | None]]:
        """One row per input config, in order; ``None`` for configs the
        app cannot run."""
        return self.sweep_many([name], platform, configs)[name]

    def sweep_many(
        self, names: list[str], platform: PlatformSpec, configs: list[RunConfig]
    ) -> dict[str, list[tuple[RunConfig, AppEstimate | None]]]:
        """Sweep several apps over one config list as a single plan
        over the whole app x config matrix."""
        plan = build_plan(names, [platform], configs)
        by_key = {r.job.key: r for r in self.run_plan(plan)}
        out: dict[str, list[tuple[RunConfig, AppEstimate | None]]] = {}
        for name in names:
            rows = []
            for cfg in configs:
                r = by_key.get((name, platform.short_name, cfg))
                rows.append((cfg, r.estimate if r is not None else None))
            out[name] = rows
        return out

    def best_run(
        self, name: str, platform: PlatformSpec, configs: list[RunConfig]
    ) -> tuple[RunConfig, AppEstimate]:
        """The fastest feasible configuration of a sweep."""
        runs = [(c, e) for c, e in self.sweep(name, platform, configs) if e is not None]
        if not runs:
            raise ValueError(
                f"{name} has no feasible configuration on {platform.name}"
            )
        return min(runs, key=lambda ce: ce[1].total_time)


# ---------------------------------------------------------------------------
# Process-default engine

_default: SweepEngine | None = None
_default_lock = threading.Lock()


def default_engine() -> SweepEngine:
    """The lazily created process-wide engine the harness wrappers use."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = SweepEngine()
    return _default


def configure_engine(**kwargs) -> SweepEngine:
    """Replace the process-default engine (CLI ``--no-cache``/``--no-vec``)."""
    global _default
    with _default_lock:
        _default = SweepEngine(**kwargs)
    return _default


def reset_engine() -> None:
    """Drop the process-default engine; the next use builds a fresh one
    (re-reading the environment — used by tests to simulate a new
    process)."""
    global _default
    with _default_lock:
        _default = None
