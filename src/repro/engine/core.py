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

1. fetch-or-profile the :class:`AppSpec` (in-process cache, then the
   store; profiling runs the real numerics at test scale, so it is done
   once per app and source digest, and a warm process runs none);
2. compute the content address from the spec fingerprint, platform,
   config, and model version, and consult the store;
3. on a miss, evaluate the roofline model and persist the estimate.

``run_plan`` has one path: it prebuilds every spec and hierarchy model
(so evaluation only ever reads warm caches), looks every job up in the
store, then hands all misses to :meth:`SweepEngine.evaluate_batch`,
which evaluates them with :class:`repro.vec.evaluate.VecEvaluator` as
one batch (bit-for-bit identical to the scalar model — see
``docs/VECTOR.md``).  Concurrent callers' misses merge: whichever
caller finds no evaluation running evaluates everything queued as one
batch, and the others wait for it.  No address is evaluated twice at
once: a caller whose miss another caller has queued or is evaluating
waits for that evaluation and reads the estimate from the store.  A
job the batch declines falls back to the per-job
:meth:`SweepEngine.evaluate`; ``vectorize=False`` declines every job,
which is how the scalar reference is built.
Tracing and session metrics ride the vectorized path: the batched
evaluator synthesizes the scalar span/metric taxonomy from its batch
columns (``docs/OBSERVABILITY.md`` "Observing the fast path").  Engine
wall time is recorded as ``engine`` stages (:mod:`repro.obs.stages`):
one ``plan`` per ``run_plan`` (added to ``metrics.wall_time``), one
``lookup`` for its store probes, one ``batch_window`` per caller that
waited for another's evaluation, one ``batch`` per merged evaluation
and one ``evaluate`` per per-job evaluation.

:meth:`SweepEngine.best_run` remembers each full sweep's winning
configuration and result address, so a repeat call under the same
model version is one store read with no plan.  Hierarchy models,
platform fingerprints and remembered winners are keyed by platform
short name, so an engine binds each short name to one platform and
refuses another under it.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from ..apps.base import build_spec, get_app
from ..machine.config import RunConfig, check_feasible
from ..machine.spec import PlatformSpec
from ..mem.hierarchy import HierarchyModel
from ..obs.stages import clock, record, stage
from ..perfmodel import calibration as cal
from ..perfmodel.kernelmodel import AppSpec
from ..perfmodel.roofline import AppEstimate, estimate_app
from .jobs import Job, JobPlan, JobResult, bind_short_name, build_plan
from .metrics import EngineMetrics
from .store import ResultStore, model_version, result_key, spec_key

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
        is evaluated fresh, every app is profiled, and nothing is
        written; such an engine's store is in memory only.
    vectorize:
        ``False`` makes :meth:`evaluate_batch` decline every job to the
        per-job scalar :meth:`evaluate` — the scalar reference that
        equivalence checks compare the vectorized evaluator against.
        Tracers and session metric registries observe the vectorized
        path directly; they do not force scalar.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        use_cache: bool = True,
        vectorize: bool = True,
    ):
        # A no-cache engine never binds the persistent file, so its
        # clear() cannot delete what it promised to bypass.
        if not use_cache:
            cache_dir = None
        elif cache_dir is None:
            cache_dir = default_cache_dir()
        self.store = ResultStore(cache_dir)
        self.use_cache = use_cache
        self.vectorize = vectorize
        self.last_evaluator = "scalar"  # path of the most recent run_plan
        self._vec = None  # lazy VecEvaluator (never built when scalar)
        self.metrics = EngineMetrics()
        self._specs: dict[str, AppSpec] = {}
        # (short_name, CACHE_UTILIZATION) -> hierarchy model
        self._hierarchies: dict[tuple[str, float], HierarchyModel] = {}
        self._platforms: dict[str, PlatformSpec] = {}  # short_name -> bound
        self._platform_fps: dict[str, str] = {}  # short_name -> fingerprint
        # best_run's winners: (app, short_name, configs, model version)
        # -> (winning job, its result address).
        self._best: dict[tuple, tuple[Job, str]] = {}
        self._spec_fps: dict[str, str] = {}  # app name -> spec fingerprint
        self._build_lock = threading.Lock()
        # evaluate_batch's merge: callers' queued misses, the addresses
        # queued or being evaluated, and whether an evaluation is running.
        self._merge = threading.Condition()
        self._queued: list[_Queued] = []
        self._pending: set[str] = set()
        self._evaluating = False

    # ---- cached inputs ---------------------------------------------------

    def app_spec(self, name: str) -> AppSpec:
        """The (cached) paper-scale model spec of an application: read
        from the store when it holds one under :func:`spec_key`, else
        profiled and appended to it."""
        if name not in self._specs:
            with self._build_lock:
                if name not in self._specs:
                    self._specs[name] = self._stored_or_built_spec(name)
        return self._specs[name]

    def _stored_or_built_spec(self, name: str) -> AppSpec:
        key = spec_key(name) if self.use_cache else None
        if key is not None:
            spec = self.store.get_spec(key)
            if spec is not None:
                return spec
        spec = build_spec(get_app(name))
        self.metrics.count("spec_builds")
        if key is not None:
            self.store.put_spec(key, spec)
        return spec

    def spec_fingerprint(self, name: str) -> str:
        """Memoized ``app_spec(name).fingerprint()`` (it hashes every
        loop of the spec): the app component of each result address.
        :meth:`clear` forgets it."""
        fp = self._spec_fps.get(name)
        if fp is None:
            fp = self._spec_fps[name] = self.app_spec(name).fingerprint()
        return fp

    def _bound(self, platform: PlatformSpec) -> str:
        """``platform.short_name``, once the engine has bound that name
        to this platform (or to one equal to it).  The engine keys
        hierarchy models, platform fingerprints and remembered winners
        by short name, so another platform under a bound name would be
        served the first one's estimates: it raises ``ValueError``."""
        return bind_short_name(self._platforms, platform)

    def hierarchy(self, platform: PlatformSpec) -> HierarchyModel:
        """The (cached) memory-hierarchy model of a platform at the live
        ``CACHE_UTILIZATION``: the model is built with it, so the cache
        keys each model by short name and utilization, and a
        ``calibration.override`` of it prices with its own model.  A
        model takes microseconds to build, so no caller waits on the
        profiling lock for it; ``setdefault`` keeps the first of two
        racing builds."""
        key = (self._bound(platform), cal.CACHE_UTILIZATION)
        model = self._hierarchies.get(key)
        if model is None:
            model = self._hierarchies.setdefault(
                key, HierarchyModel(platform, utilization=key[1]),
            )
        return model

    def clear(self, store: bool = True) -> None:
        """Forget the profiled specs, hierarchy models and
        :meth:`best_run`'s winners; with ``store=True`` also wipe the
        persistent result store, stored specs included, so the next
        evaluation reruns the full pipeline (hermetic-test reset)."""
        with self._build_lock:
            self._specs.clear()
            self._hierarchies.clear()
            self._spec_fps.clear()
            self._best.clear()
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
        short_name = self._bound(platform)
        pfp = self._platform_fps.get(short_name)
        if pfp is None:
            from .store import fingerprint as _fp

            pfp = self._platform_fps[short_name] = _fp(platform)
        return result_key(self.spec_fingerprint(name), platform, config,
                          platform_fingerprint=pfp)

    def _estimate(
        self,
        name: str,
        platform: PlatformSpec,
        config: RunConfig,
        key: str | None = None,
    ) -> tuple[AppEstimate, bool]:
        """(estimate, was_cached) for one runnable point.  ``key`` is the
        point's address from a :meth:`lookup` that already missed: the
        estimate is put under it with no second derivation or read."""
        spec = self.app_spec(name)
        if self.use_cache:
            if key is None:
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

    def evaluate(self, job: Job, key: str | None) -> JobResult:
        """Evaluate one planned job that :meth:`lookup` missed, putting
        it under the ``key`` the lookup derived (no second derivation or
        store read), capturing failures as results."""
        with stage("engine", "evaluate", app=job.app,
                   platform=job.platform.short_name):
            try:
                est, _ = self._estimate(
                    job.app, job.platform, job.config, key
                )
            except Exception as exc:  # surfaced in the plan results
                self.metrics.count("jobs_failed")
                return JobResult(job, None, "error", reason=str(exc))
        self.metrics.count("jobs_executed")
        return JobResult(job, est, "ok")

    # ---- batched (vectorized) evaluation ---------------------------------

    def lookup(self, job: Job) -> tuple[JobResult | None, str | None]:
        """Store-only probe of one job: (the cached result or ``None``
        on a miss, the job's address).  The caller batches a miss and
        puts its estimate under that address.  The address is ``None``
        without a store, or when deriving it failed (evaluation then
        derives it again and surfaces the failure)."""
        if not self.use_cache:
            return None, None
        try:
            key = self.result_address(job.app, job.platform, job.config)
            return self._cached(job, key), key
        except Exception:
            return None, None

    def _cached(self, job: Job, key: str) -> JobResult | None:
        """The job's stored estimate as a ``cached`` result, or ``None``."""
        cached = self.store.get(key)
        if cached is None:
            return None
        self.metrics.count("cache_hits")
        self.metrics.count("jobs_executed")
        return JobResult(job, cached, "cached")

    def evaluate_batch(
        self, jobs: list[Job], keys: list[str | None]
    ) -> list[JobResult]:
        """Evaluate jobs that :meth:`lookup` missed, putting each
        estimate under the job's address from ``keys``.  Returns one
        result per job, in order.

        Concurrent callers merge, and each address is evaluated once.
        A caller *rides* on a miss whose address another caller has
        queued or is evaluating, or that was stored since its lookup:
        it waits for that evaluation and reads the job back from the
        store (a rider whose address was not stored, because that
        evaluation failed, evaluates the job itself).  It queues its
        other misses, and the caller that finds no evaluation running
        evaluates everything queued, its own misses included, as one
        batch.  A caller that had to wait records the wait as the
        ``engine``/``batch_window`` stage.  An exception that escapes a
        merged evaluation reaches every caller that queued jobs in it.
        Nothing the evaluation calls may re-enter this method."""
        if not jobs:
            return []
        own, riding = [], []
        with self._merge:
            for i, key in enumerate(keys):
                if key is not None and (key in self._pending
                                        or key in self.store):
                    riding.append(i)
                else:
                    own.append(i)
                    if key is not None:
                        self._pending.add(key)
            mine = _Queued([jobs[i] for i in own], [keys[i] for i in own])
            if own:
                self._queued.append(mine)
            waited = self._wait_while(
                lambda: own and self._evaluating and not mine.done)
            if own and not mine.done:
                batch, self._queued = self._queued, []
                self._evaluating = True
        if waited:
            record("engine", "batch_window", *waited)
        if own and not mine.done:
            self._evaluate_merged(batch)
        if mine.error is not None:
            raise mine.error
        results: list[JobResult | None] = [None] * len(jobs)
        for i, res in zip(own, mine.results):
            results[i] = res
        if riding:
            # No rider waits forever: an address pending when this
            # caller registered belongs to an entry queued earlier, and
            # that entry is evaluated in the same merged pass as this
            # caller's own entry or an earlier one.
            with self._merge:
                waited = self._wait_while(lambda: any(
                    keys[i] in self._pending for i in riding))
            if waited:
                record("engine", "batch_window", *waited)
            for i in riding:
                results[i] = (self._cached(jobs[i], keys[i])
                              or self.evaluate(jobs[i], keys[i]))
        return results

    def _wait_while(self, blocked) -> tuple[float, float] | None:
        """Wait on the merge condition (held) while ``blocked()``; the
        interval waited, or ``None`` when nothing blocked."""
        if not blocked():
            return None
        t0 = clock()
        while blocked():
            self._merge.wait()
        return t0, clock()

    def _evaluate_merged(self, batch: list[_Queued]) -> None:
        """Evaluate every queued caller's jobs as one batch, hand each
        its own slice of the results (or the error), and release the
        batch's addresses whether it succeeded or failed."""
        keys = [key for queued in batch for key in queued.keys]
        results: list[JobResult] = []
        error = None
        try:
            results = self._evaluate_jobs(
                [job for queued in batch for job in queued.jobs], keys)
        except BaseException as exc:
            error = exc
        with self._merge:
            start = 0
            for queued in batch:
                end = start + len(queued.jobs)
                queued.results, queued.error = results[start:end], error
                queued.done = True
                start = end
            self._pending.difference_update(keys)
            self._evaluating = False
            self._merge.notify_all()

    def _evaluate_jobs(
        self, jobs: list[Job], keys: list[str | None]
    ) -> list[JobResult]:
        """One vectorized batch over ``jobs``.  Jobs the vectorized path
        declines, and every job under ``vectorize=False``, fall back to
        :meth:`evaluate` individually, so error capture and counters
        match the scalar path exactly."""
        with stage("engine", "batch", jobs=len(jobs)):
            if not self.vectorize:
                return [self.evaluate(job, key)
                        for job, key in zip(jobs, keys, strict=True)]
            if self._vec is None:
                from ..vec import VecEvaluator

                self._vec = VecEvaluator()
            estimates = self._vec.evaluate_many([
                (
                    self.app_spec(job.app),
                    job.platform,
                    job.config,
                    self.hierarchy(job.platform),
                )
                for job in jobs
            ])
            self.metrics.count("vec_batches")
            results: list[JobResult] = []
            n_vec = 0  # estimates stored (or kept, without a store)
            try:
                for job, key, est in zip(jobs, keys, estimates, strict=True):
                    if est is None:
                        results.append(self.evaluate(job, key))
                        continue
                    if self.use_cache:
                        if key is None:
                            key = self.result_address(job.app, job.platform,
                                                      job.config)
                        self.store.put(key, est)
                    n_vec += 1
                    results.append(JobResult(job, est, "ok"))
            finally:
                # One counter update per batch, not per job — same totals
                # as the scalar path, without 3N mirrored registry
                # increments — made even when a put raises, so a failing
                # batch counts what it stored.
                if n_vec:
                    if self.use_cache:
                        self.metrics.count("cache_misses", n_vec)
                    self.metrics.count("evaluations", n_vec)
                    self.metrics.count("jobs_executed", n_vec)
                self.metrics.count("vec_jobs", n_vec)
        return results

    # ---- plan execution --------------------------------------------------

    def run_plan(self, plan: JobPlan) -> list[JobResult]:
        """Execute a plan: specs and hierarchies first, then one store
        lookup per job, then every miss through one
        :meth:`evaluate_batch`.  Returns one result per *runnable* job
        in plan order; planned-but-skipped jobs are appended with
        status ``"skipped"``."""
        self.last_evaluator = "vectorized" if self.vectorize else "scalar"
        with stage("engine", "plan", jobs=len(plan.jobs)) as timed:
            # Spec-before-estimate: evaluation only reads caches.
            for name in plan.apps:
                self.app_spec(name)
            for platform in plan.platforms:
                self.hierarchy(platform)
            with stage("engine", "lookup", jobs=len(plan.jobs)):
                looked = [self.lookup(job) for job in plan.jobs]
            results = [res for res, _ in looked]
            misses = [i for i, res in enumerate(results) if res is None]
            batch = self.evaluate_batch([plan.jobs[i] for i in misses],
                                        [looked[i][1] for i in misses])
            for i, res in zip(misses, batch):
                results[i] = res
        self.metrics.add_wall_time(timed.seconds)
        self.metrics.count("jobs_skipped", len(plan.skipped))
        results.extend(
            JobResult(job, None, "skipped", reason=reason)
            for job, reason in plan.skipped
        )
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
        """The fastest feasible configuration of a sweep.

        The engine remembers each full sweep's winning job and result
        address under (app, platform short name, configs, model
        version), so a repeat call reads that one record, counted as
        :meth:`_cached` counts a hit, and builds no plan.  A read that
        misses (the store was cleared, or the record dropped as
        corrupt) sweeps again.  A ``use_cache=False`` engine sweeps on
        every call, and a pair with no feasible configuration raises
        ``ValueError`` on every call."""
        key = None
        if self.use_cache:
            key = (name, self._bound(platform), tuple(configs),
                   model_version())
            won = self._best.get(key)
            if won is not None:
                hit = self._cached(*won)
                if hit is not None:
                    return hit.job.config, hit.estimate
        runs = [(c, e) for c, e in self.sweep(name, platform, configs) if e is not None]
        if not runs:
            raise ValueError(
                f"{name} has no feasible configuration on {platform.name}"
            )
        cfg, est = min(runs, key=lambda ce: ce[1].total_time)
        if key is not None:
            self._best[key] = (Job(name, platform, cfg),
                               self.result_address(name, platform, cfg))
        return cfg, est


class _Queued:
    """One caller's misses waiting in :meth:`SweepEngine.evaluate_batch`,
    and what their evaluation returned or raised."""

    __slots__ = ("jobs", "keys", "results", "error", "done")

    def __init__(self, jobs: list[Job], keys: list[str | None]):
        self.jobs = jobs
        self.keys = keys
        self.results: list[JobResult] = []
        self.error: BaseException | None = None
        self.done = False


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
    """Replace the process-default engine (CLI ``--no-cache``, or an
    embedding test or benchmark's own store)."""
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
