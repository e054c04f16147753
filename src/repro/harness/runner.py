"""Benchmark runner: application x platform x configuration → estimate.

Since the sweep engine landed these are thin compatibility wrappers over
the process-default :class:`~repro.engine.core.SweepEngine`, which
profiles each application once (scaled-down run through the recording
DSL context, extrapolated to paper scale — see
:func:`repro.apps.base.build_spec`) and caches estimates in a persistent
content-addressed store.  All figure harnesses go through
:func:`run_application` / :func:`sweep` / :func:`best_run`; configure
caching and evaluation with ``repro.engine.configure_engine`` or the
CLI's ``--no-cache``/``--no-vec``.
"""

from __future__ import annotations

from ..engine import default_engine
from ..machine.config import RunConfig, best_practice_config
from ..machine.spec import PlatformSpec
from ..obs.tracer import Tracer, tracing
from ..perfmodel.kernelmodel import AppSpec
from ..perfmodel.roofline import AppEstimate, estimate_app

__all__ = [
    "app_spec",
    "run_application",
    "trace_application",
    "sweep",
    "best_run",
    "best_attribution",
    "default_sweep_configs",
    "clear_cache",
]


def app_spec(name: str) -> AppSpec:
    """The (cached) paper-scale model spec of an application."""
    return default_engine().app_spec(name)


def clear_cache() -> None:
    """Forget profiled specs and hierarchy models *and* wipe the engine's
    persistent result store, so tests stay hermetic.  A running server
    installs its store as the default engine's, so this clears it too."""
    default_engine().clear(store=True)


def run_application(
    name: str, platform: PlatformSpec, config: RunConfig
) -> AppEstimate:
    """Estimate one application run; raises for infeasible configs or
    compilers the app does not run under (miniBUDE + Classic)."""
    return default_engine().run(name, platform, config)


def trace_application(
    name: str,
    platform: PlatformSpec,
    config: RunConfig | None = None,
    *,
    tracer: Tracer | None = None,
    iterations: int = 1,
) -> tuple[AppEstimate, Tracer]:
    """Estimate one run with tracing enabled, returning the estimate and
    a populated :class:`~repro.obs.tracer.Tracer`.

    The evaluation bypasses the persistent result store (a cache hit
    would skip the instrumented model code and yield an empty trace) but
    still uses the engine's cached spec and hierarchy model.  Beyond the
    perfmodel events the roofline emits, the tracer gets a synthetic
    simulated-time timeline (one span per kernel loop and per halo
    exchange, repeated for ``iterations`` application iterations) built
    by :func:`repro.obs.apptrace.build_timeline` — the view ``python -m
    repro trace`` exports for Perfetto.
    """
    from ..obs.apptrace import build_timeline

    engine = default_engine()
    spec = engine.app_spec(name)
    if config is None:
        config = best_practice_config(platform)
    tr = tracer if tracer is not None else Tracer()
    with tracing(tr):
        est = estimate_app(spec, platform, config, engine.hierarchy(platform))
        build_timeline(tr, spec, est, iterations=iterations)
    return est, tr


def sweep(
    name: str, platform: PlatformSpec, configs: list[RunConfig]
) -> list[tuple[RunConfig, AppEstimate | None]]:
    """Run every feasible configuration; None for configs the app cannot
    run (e.g. the paper's stalling Classic-compiled miniBUDE)."""
    return default_engine().sweep(name, platform, configs)


def best_run(
    name: str, platform: PlatformSpec, configs: list[RunConfig]
) -> tuple[RunConfig, AppEstimate]:
    """The fastest feasible configuration of a sweep."""
    return default_engine().best_run(name, platform, configs)


def default_sweep_configs(name: str, platform: PlatformSpec) -> list[RunConfig]:
    """The configuration sweep an application gets by default on a
    platform: CUDA on GPUs, the structured or unstructured CPU sweep
    otherwise — the same resolution the CLI's ``run``/``explain`` verbs
    and the figure harnesses use."""
    from ..apps import get_app
    from ..machine import (
        Compiler,
        Parallelization,
        structured_config_sweep,
        unstructured_config_sweep,
    )
    from ..machine.spec import DeviceKind

    if platform.kind is DeviceKind.GPU:
        return [RunConfig(Compiler.NVCC, Parallelization.CUDA)]
    defn = get_app(name)
    return (structured_config_sweep(platform) if defn.structured
            else unstructured_config_sweep(platform))


def best_attribution(name: str, platform: PlatformSpec):
    """``(config, estimate, attribution tree)`` of an application's best
    feasible run on a platform — the unit ``python -m repro explain``
    and the HTML report build their views from."""
    from ..obs.attribution import attribute_estimate

    cfg, est = best_run(name, platform, default_sweep_configs(name, platform))
    return cfg, est, attribute_estimate(est)
