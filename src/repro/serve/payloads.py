"""Canonical JSON payloads shared by the CLI and the HTTP service.

The golden-equivalence discipline (PR 5) demands that a number has one
rendering: ``POST /run`` must return byte-for-byte what ``python -m
repro run APP --platform P --json`` prints, and ``GET /fidelity`` what
``fidelity --json`` prints.  That equivalence is engineered here rather
than tested into existence: both surfaces call the same payload
builders and the same :func:`render_json` (``indent=2, sort_keys=True``
plus a trailing newline — the shape every ``--json`` verb already
emits), so they cannot drift apart.  Every builder evaluates through
the process-default engine, which is also the one the server serves.
A ``/run`` body is a function of its best estimate alone, so
:func:`run_json` renders it once and keeps it with the estimate.

Name resolution mirrors the CLI exactly through
:func:`repro.cli.common.match_app` / ``match_platform``; a failed match
raises :class:`RequestError`, which the CLI reports on stderr with exit
status 2 and the server maps to HTTP 400 — one error contract, two
transports.
"""

from __future__ import annotations

import json

from ..cli.common import match_app, match_platform
from ..engine import build_plan, default_configs, default_engine
from ..engine.store import estimate_to_dict
from ..machine.spec import PlatformSpec
from ..obs.stages import stage
from ..perfmodel.roofline import AppEstimate

__all__ = [
    "RequestError",
    "render_json",
    "resolve_app",
    "resolve_platform",
    "resolve_what_if",
    "resolve_figures",
    "run_payload",
    "run_json",
    "sweep_payload",
    "explain_payload",
    "fidelity_payload",
]


class RequestError(ValueError):
    """A request that cannot be served: unknown name, bad knob, bad
    figure — the serve-side twin of the CLI's exit-status-2 errors."""


def render_json(payload: dict) -> str:
    """The one JSON rendering every surface emits."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# request-field resolution (the CLI matching contract, raising form)


def resolve_app(name) -> str:
    if not isinstance(name, str) or not name:
        raise RequestError(f"'app' must be a non-empty string (got {name!r})")
    resolved, error = match_app(name)
    if error is not None:
        raise RequestError(error)
    return resolved


def resolve_platform(short_name) -> PlatformSpec:
    if not isinstance(short_name, str) or not short_name:
        raise RequestError(
            f"'platform' must be a non-empty string (got {short_name!r})"
        )
    resolved, error = match_platform(short_name)
    if error is not None:
        raise RequestError(error)
    return resolved


def resolve_what_if(knobs) -> dict[str, float]:
    """Validate a what-if mapping (the ``KNOB=FACTOR`` contract of
    ``repro explain --what-if``)."""
    from ..obs.attribution import WHAT_IF_KNOBS

    if not isinstance(knobs, dict):
        raise RequestError(f"'what_if' must be an object (got {knobs!r})")
    out: dict[str, float] = {}
    for key, val in knobs.items():
        if key not in WHAT_IF_KNOBS:
            raise RequestError(f"unknown what-if knob {key!r} "
                               f"(choose from: {', '.join(WHAT_IF_KNOBS)})")
        try:
            factor = float(val)
        except (TypeError, ValueError, OverflowError):
            raise RequestError(f"bad what-if factor {val!r} for {key!r} "
                               "(a float, or 'inf' to zero the leaves)")
        if not factor > 0:
            raise RequestError(
                f"what-if factor for {key!r} must be > 0 (got {val})"
            )
        out[key] = factor
    return out


def resolve_figures(figures) -> list[str]:
    from ..obs.fidelity import FIGURE_ORDER

    if figures is None:
        return []
    if isinstance(figures, str):
        figures = [f for f in figures.split(",") if f]
    if not isinstance(figures, list):
        raise RequestError(f"'figures' must be a list (got {figures!r})")
    for fig in figures:
        if fig not in FIGURE_ORDER:
            raise RequestError(f"unknown figure {fig!r} "
                               f"(choose from: {', '.join(FIGURE_ORDER)})")
    return list(figures)


# ---------------------------------------------------------------------------
# payload builders


def _best_estimate(name: str, platform: PlatformSpec) -> AppEstimate:
    """The best-run estimate of one pair, through the process-default
    engine."""
    return default_engine().best_run(name, platform,
                                     default_configs(name, platform))[1]


def _estimate_payload(est: AppEstimate) -> dict:
    """The run payload of one estimate, from its fields alone."""
    return {
        "app": est.app,
        "platform": est.platform,
        "config": est.config_label,
        "total_time_s": est.total_time,
        "compute_time_s": est.compute_time,
        "mpi_time_s": est.mpi_time,
        "mpi_fraction": est.mpi_fraction,
        "effective_bandwidth_gbs": est.effective_bandwidth / 1e9,
        "estimate": estimate_to_dict(est),
    }


def run_payload(name: str, platform: PlatformSpec) -> dict:
    """Best-run payload of one (app, platform) pair, evaluated through
    the process-default engine — one of ``repro run --compare --json``'s
    ``runs``; :func:`run_json` is its rendering."""
    return _estimate_payload(_best_estimate(name, platform))


#: The estimate ``__dict__`` entry that keeps its rendered ``/run`` body.
_RUN_JSON = "_run_json"


def run_json(name: str, platform: PlatformSpec) -> str:
    """``render_json(run_payload(name, platform))``: the body of ``POST
    /run`` and the text of ``repro run --json``.

    The store hands every caller one frozen estimate, so the body is
    rendered on its first request (a ``serve``/``render`` stage) and
    kept in that estimate's ``__dict__``, as a deferred estimate keeps
    its loop-table loader; it lives and dies with the estimate.  The
    entry is not a field: ``==``, ``hash``, ``repr`` and
    ``dataclasses.asdict`` ignore it, and ``dataclasses.replace`` drops
    it.  Concurrent first requests may each render, and ``setdefault``
    hands them all the body published first.
    """
    est = _best_estimate(name, platform)
    body = est.__dict__.get(_RUN_JSON)
    if body is None:
        with stage("serve", "render"):
            body = est.__dict__.setdefault(
                _RUN_JSON, render_json(_estimate_payload(est)))
    return body


def sweep_payload(apps: list[str], platforms: list[PlatformSpec]) -> dict:
    """Full-sweep payload over apps × platforms — ``repro sweep
    --json``'s body — evaluated through the process-default engine."""
    engine = default_engine()
    plan = build_plan(apps, platforms)
    results = engine.run_plan(plan)
    rows = []
    for r in sorted(
        results,
        key=lambda r: (r.job.app, r.job.platform.short_name,
                       r.job.config.label()),
    ):
        row = {
            "app": r.job.app,
            "platform": r.job.platform.short_name,
            "config": r.job.config.label(),
            "status": r.status,
        }
        if r.estimate is not None:
            row["total_time_s"] = r.estimate.total_time
            row["effective_bandwidth_gbs"] = r.estimate.effective_bandwidth / 1e9
            row["mpi_fraction"] = r.estimate.mpi_fraction
        if r.reason:
            row["reason"] = r.reason
        rows.append(row)
    return {
        "apps": list(apps),
        "platforms": [p.short_name for p in platforms],
        "jobs": len(plan.jobs),
        "planned_infeasible": len(plan.skipped),
        # Which evaluation path the plan ran through ("vectorized" or
        # "scalar") — disambiguates benchmarks and bug reports;
        # run_plan records it on the engine.
        "evaluator": engine.last_evaluator,
        "results": rows,
    }


def explain_payload(
    name: str,
    platform: PlatformSpec,
    vs: PlatformSpec | None = None,
    what_if: dict[str, float] | None = None,
) -> dict:
    """Attribution payload — ``repro explain --json``'s body."""
    from ..harness import best_attribution
    from ..obs.diff import diff_trees, project

    _cfg, _est, tree = best_attribution(name, platform)
    payload = {"tree": tree.as_dict()}
    if vs is not None:
        _cfg_b, _est_b, tree_b = best_attribution(name, vs)
        payload["diff"] = diff_trees(tree, tree_b).as_dict()
    if what_if:
        projection = project(tree, what_if)
        payload["what_if"] = {
            k: v for k, v in projection.items() if k != "tree"
        }
        payload["what_if"]["tree"] = projection["tree"].as_dict()
    return payload


def fidelity_payload(figures: list[str] | None = None) -> dict:
    """Scorecard payload — ``repro fidelity --json``'s body."""
    from ..obs.fidelity import scorecard

    return scorecard(figures or None).as_dict()
