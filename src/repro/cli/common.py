"""Shared CLI plumbing: name resolution and engine configuration.

Every verb module resolves user-typed application/platform/figure names
through these helpers so the whole CLI has one matching contract:
exact names win, unambiguous prefixes (and, for platforms, substrings)
resolve with no fuss, ambiguous ones resolve to the first match with a
note on stderr, and unknown names return ``None`` after printing the
valid choices — the caller then exits with status 2.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from ..apps import APP_ORDER
from ..engine import configure_engine, default_engine
from ..machine import (
    ALL_PLATFORMS,
    Compiler,
    Parallelization,
    RunConfig,
    get_platform,
    structured_config_sweep,
    unstructured_config_sweep,
)

__all__ = [
    "match_app", "match_platform",
    "resolve_app", "resolve_platform", "resolve_figures",
    "config_sweep", "configure_engine_from_args", "telemetry_scope",
]


def match_app(name: str) -> tuple[str | None, str | None]:
    """Pure application-name matching: ``(resolved, error)``.

    The CLI wraps this with stderr reporting; the serve layer maps the
    error message to an HTTP 400 body, so both surfaces share one
    matching contract (ambiguous prefixes resolve to the first match).
    """
    if name in APP_ORDER:
        return name, None
    matches = [a for a in APP_ORDER if a.startswith(name)]
    if not matches:
        return None, (f"unknown application {name!r} "
                      f"(choose from: {', '.join(APP_ORDER)})")
    return matches[0], None


def match_platform(short_name: str) -> tuple[PlatformSpec | None, str | None]:
    """Pure platform matching (exact, prefix, then substring):
    ``(resolved spec, error)`` under the same contract as
    :func:`match_app`."""
    names = [p.short_name for p in ALL_PLATFORMS]
    try:
        return get_platform(short_name), None
    except KeyError:
        pass
    matches = [n for n in names if n.startswith(short_name)]
    if not matches:
        matches = [n for n in names if short_name in n]
    if not matches:
        return None, (f"unknown platform {short_name!r} "
                      f"(choose from: {', '.join(names)})")
    return get_platform(matches[0]), None


def resolve_app(name: str) -> str | None:
    """Canonical application name for ``name`` (exact or prefix match);
    None — with a stderr message listing the choices — when unknown."""
    resolved, error = match_app(name)
    if error is not None:
        print(error, file=sys.stderr)
        return None
    matches = [a for a in APP_ORDER if a.startswith(name)]
    if len(matches) > 1 and name not in APP_ORDER:
        print(f"note: {name!r} is ambiguous ({', '.join(matches)}); "
              f"using {matches[0]!r}", file=sys.stderr)
    return resolved


def resolve_platform(short_name: str):
    """Platform spec for ``short_name`` (exact, prefix, or substring
    match — ``8360y`` resolves to ``icx8360y``); None — with a stderr
    message listing the choices — when unknown."""
    resolved, error = match_platform(short_name)
    if error is not None:
        print(error, file=sys.stderr)
        return None
    names = [p.short_name for p in ALL_PLATFORMS]
    if short_name not in names:
        matches = [n for n in names if n.startswith(short_name)]
        if not matches:
            matches = [n for n in names if short_name in n]
        if len(matches) > 1:
            print(f"note: {short_name!r} is ambiguous ({', '.join(matches)}); "
                  f"using {matches[0]!r}", file=sys.stderr)
    return resolved


def resolve_figures(names: list[str]) -> list[str] | None:
    """Validate figure names; None — with a stderr message listing the
    choices — when any is unknown (same contract as ``resolve_app``)."""
    from ..obs.fidelity import FIGURE_ORDER

    out = []
    for name in names:
        if name not in FIGURE_ORDER:
            print(f"unknown figure {name!r} "
                  f"(choose from: {', '.join(FIGURE_ORDER)})", file=sys.stderr)
            return None
        out.append(name)
    return out


def config_sweep(defn, platform):
    """The configuration sweep modeled for one app on one platform."""
    if platform.kind.value == "gpu":
        return [RunConfig(Compiler.NVCC, Parallelization.CUDA)]
    return (structured_config_sweep(platform) if defn.structured
            else unstructured_config_sweep(platform))


def configure_engine_from_args(args):
    """Apply --no-cache/--no-vec to the process-default engine."""
    kwargs = {}
    if getattr(args, "no_cache", False):
        kwargs["use_cache"] = False
    if getattr(args, "no_vec", False):
        kwargs["vectorize"] = False
    if kwargs:
        return configure_engine(**kwargs)
    return default_engine()


@contextmanager
def telemetry_scope(args, engine):
    """Continuous sampling around a CLI run (``--telemetry[-log]``).

    When neither flag is set this yields None without importing the
    telemetry module — the zero-overhead path every untelemetered verb
    takes.  Otherwise it installs a metrics-collecting scope with a
    live sampler (:func:`repro.obs.telemetry.sampling`), attaches the
    sampler to ``engine`` so plan boundaries take extra samples, and
    prints a one-line summary to stderr on the way out.
    """
    log_path = getattr(args, "telemetry_log", None)
    if not getattr(args, "telemetry", False) and not log_path:
        yield None
        return
    from ..obs.telemetry import sampling

    with sampling(log_path=log_path) as sampler:
        engine.sampler = sampler
        try:
            yield sampler
        finally:
            engine.sampler = None
    suffix = f" -> {log_path}" if log_path else ""
    print(f"telemetry: {sampler.samples} samples at "
          f"{sampler.interval:g}s{suffix}", file=sys.stderr)
