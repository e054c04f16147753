"""Job-plan construction for the sweep engine.

A :class:`Job` is one evaluable (application, platform, configuration)
point.  :func:`build_plan` turns cross products of those axes into a
:class:`JobPlan`: duplicates collapse to one job, configurations that
cannot run (platform feasibility rules, compilers the application stalls
under) are set aside with a reason instead of being dispatched, and the
runnable jobs are ordered application-major — every job of one app is
adjacent, and :attr:`JobPlan.apps` lists the spec-profiling work that
must happen *before* its estimates can run ("spec-before-estimate"
ordering; ``SweepEngine.run_plan`` prebuilds those first, so evaluation
only ever reads warm caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.base import get_app
from ..machine.config import (
    Compiler,
    Parallelization,
    RunConfig,
    feasible,
    structured_config_sweep,
    unstructured_config_sweep,
)
from ..machine.spec import DeviceKind, PlatformSpec
from ..perfmodel.roofline import AppEstimate

__all__ = [
    "Job",
    "JobResult",
    "JobPlan",
    "default_configs",
    "build_plan",
    "sweep_plan",
]

#: Skip reasons recorded in :attr:`JobPlan.skipped`.
SKIP_INFEASIBLE = "infeasible"
SKIP_COMPILER = "compiler-stall"


@dataclass(frozen=True)
class Job:
    """One (application, platform, configuration) evaluation point."""

    app: str
    platform: PlatformSpec
    config: RunConfig

    @property
    def key(self) -> tuple:
        """Dedup identity (platforms compare by short name)."""
        return (self.app, self.platform.short_name, self.config)

    def label(self) -> str:
        return f"{self.app} @ {self.platform.short_name} [{self.config.label()}]"


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: estimate (if any) and status."""

    job: Job
    estimate: AppEstimate | None
    status: str  # "ok" | "cached" | "skipped" | "error"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.estimate is not None


@dataclass
class JobPlan:
    """Deduped, feasibility-filtered, app-ordered set of jobs."""

    jobs: list[Job] = field(default_factory=list)
    skipped: list[tuple[Job, str]] = field(default_factory=list)

    @property
    def apps(self) -> list[str]:
        """Applications whose specs must exist before estimates run,
        in first-appearance order (covers skipped jobs too, so a sweep
        result can still report them)."""
        seen: dict[str, None] = {}
        for job in self.jobs:
            seen.setdefault(job.app, None)
        return list(seen)

    @property
    def platforms(self) -> list[PlatformSpec]:
        """Each distinct platform object of the runnable jobs, in
        first-appearance order (so an engine checks every platform's
        short name before it looks a job up)."""
        seen: dict[int, PlatformSpec] = {}
        for job in self.jobs:
            seen.setdefault(id(job.platform), job.platform)
        return list(seen.values())

    def __len__(self) -> int:
        return len(self.jobs)


def bind_short_name(bound: dict[str, PlatformSpec],
                    platform: PlatformSpec) -> str:
    """``platform.short_name``, bound in ``bound`` to this platform (or
    to one equal to it).  Jobs and engines name platforms by short name,
    so another platform under a bound name would take the first one's
    place: it raises ``ValueError``."""
    name = platform.short_name
    first = bound.setdefault(name, platform)
    if first is not platform and first != platform:
        raise ValueError(
            f"platform short name {name!r} already names {first.name!r}; "
            f"give {platform.name!r} a short name of its own"
        )
    return name


def _runnable(job: Job) -> str | None:
    """None if the job can run, else the skip reason.

    Compiler-stall detection uses the application *definition*'s affinity
    table (the same data the profiled spec carries), so planning never
    needs to profile anything.
    """
    if not feasible(job.config, job.platform):
        return SKIP_INFEASIBLE
    defn = get_app(job.app)
    if defn.compiler_affinity.get(job.config.compiler, 1.0) <= 0.0:
        return SKIP_COMPILER
    return None


def default_configs(app: str, platform: PlatformSpec) -> list[RunConfig]:
    """The paper's configuration sweep for an app on a platform: the
    Figure 3 structured / Figure 4 unstructured sweeps on CPUs, the
    single CUDA configuration on GPUs."""
    if platform.kind is DeviceKind.GPU:
        return [RunConfig(Compiler.NVCC, Parallelization.CUDA)]
    if get_app(app).structured:
        return structured_config_sweep(platform)
    return unstructured_config_sweep(platform)


def build_plan(
    apps: list[str],
    platforms: list[PlatformSpec],
    configs: list[RunConfig] | None = None,
) -> JobPlan:
    """Cross-product plan over apps x platforms x configs.

    ``configs=None`` uses each (app, platform)'s default paper sweep.
    Jobs come out grouped app-major in the given app order; duplicates
    (same app, platform, config) collapse to the first occurrence, and
    so do equal copies of a platform.  Two different platforms under
    one short name raise ``ValueError``.
    """
    plan = JobPlan()
    seen: set[tuple] = set()
    bound: dict[str, PlatformSpec] = {}
    for platform in platforms:
        bind_short_name(bound, platform)
    for name in apps:
        for platform in platforms:
            cfgs = configs if configs is not None else default_configs(name, platform)
            for cfg in cfgs:
                job = Job(name, platform, cfg)
                if job.key in seen:
                    continue
                seen.add(job.key)
                reason = _runnable(job)
                if reason is None:
                    plan.jobs.append(job)
                else:
                    plan.skipped.append((job, reason))
    return plan


def sweep_plan(
    app: str, platform: PlatformSpec, configs: list[RunConfig]
) -> JobPlan:
    """Plan for one app's configuration sweep, preserving config order
    (the classic ``sweep()`` contract returns one row per input config,
    ``None`` for the skipped ones)."""
    return build_plan([app], [platform], configs)
