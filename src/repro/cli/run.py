"""The run/sweep verb group: ``list``, ``run``, ``sweep``, ``figures``,
``validate`` — modeling applications and regenerating paper figures."""

from __future__ import annotations

import sys

from ..apps import APP_ORDER, get_app
from ..engine import build_plan, default_configs
from ..harness import best_run
from ..harness import figures as figmod
from ..machine import ALL_PLATFORMS
from .common import configure_engine_from_args, resolve_app, resolve_platform

__all__ = ["cmd_list", "cmd_run", "cmd_sweep", "cmd_figures", "cmd_validate"]


def cmd_list(_args) -> int:
    print("applications:")
    for name in APP_ORDER:
        d = get_app(name)
        print(f"  {name:14s} {d.description}")
    print("\nplatforms:")
    for p in ALL_PLATFORMS:
        print(f"  {p.short_name:10s} {p.name} — "
              f"{p.total_cores} cores, {p.stream_bandwidth / 1e9:.0f} GB/s STREAM")
    from ..obs.fidelity import FIGURE_ORDER

    print("\nfigures (accepted by figures/fidelity/drift):")
    for fig in FIGURE_ORDER:
        doc = (getattr(figmod, fig).__doc__ or "").strip().splitlines()[0]
        print(f"  {fig:10s} {doc}")
    doc = (figmod.fig7x.__doc__ or "").strip().splitlines()[0]
    print(f"  {'fig7x':10s} {doc} (figures/report only)")
    return 0


def cmd_run(args) -> int:
    name = resolve_app(args.app)
    if name is None:
        return 2
    defn = get_app(name)
    if args.compare:
        platforms = list(ALL_PLATFORMS)
    else:
        platform = resolve_platform(args.platform)
        if platform is None:
            return 2
        platforms = [platform]
    if getattr(args, "json", False):
        # The canonical payload the serve API's POST /run returns for
        # the same inputs — one builder, byte-equivalent by construction.
        from ..serve.payloads import render_json, run_payload

        if args.compare:
            payload = {"app": name,
                       "runs": [run_payload(name, p) for p in platforms]}
        else:
            payload = run_payload(name, platforms[0])
        print(render_json(payload), end="")
        return 0
    print(f"{defn.name}: {defn.description}")
    print(f"paper scale: {defn.paper_domain} x {defn.paper_iterations} iterations\n")
    for platform in platforms:
        cfg, est = best_run(name, platform, default_configs(name, platform))
        print(f"{platform.short_name:10s} {est.total_time:9.3f} s  "
              f"effBW {est.effective_bandwidth / 1e9:6.0f} GB/s  "
              f"MPI {est.mpi_fraction * 100:4.1f}%  [{cfg.label()}]")
    return 0


def cmd_figures(args) -> int:
    configure_engine_from_args(args)
    wanted = args.figures or [f"fig{i}" for i in range(1, 10)] + ["fig7x"]
    for name in wanted:
        known = name in figmod.__all__ and name != "all_figures"
        fn = getattr(figmod, name, None) if known else None
        if fn is None:
            print(f"unknown figure {name!r} (fig1..fig9, fig7x)",
                  file=sys.stderr)
            return 2
        print(fn().render())
        print()
    return 0


def cmd_sweep(args) -> int:
    engine = configure_engine_from_args(args)
    apps = []
    for a in args.apps or APP_ORDER:
        resolved = resolve_app(a)
        if resolved is None:
            return 2
        apps.append(resolved)
    if args.platform == "all":
        platforms = list(ALL_PLATFORMS)
    else:
        platforms = []
        for p in args.platform.split(","):
            platform = resolve_platform(p)
            if platform is None:
                return 2
            platforms.append(platform)
    if getattr(args, "json", False):
        from ..serve.payloads import render_json, sweep_payload

        print(render_json(sweep_payload(apps, platforms)), end="")
        return 0
    plan = build_plan(apps, platforms)
    print(f"sweep: {len(apps)} apps x {len(platforms)} platforms -> "
          f"{len(plan)} jobs ({len(plan.skipped)} planned-infeasible)")
    results = engine.run_plan(plan)
    rows = [r for r in results if r.status != "skipped"]
    rows.sort(key=lambda r: (r.job.app, r.job.platform.short_name,
                             r.estimate.total_time if r.estimate else float("inf")))
    print(f"{'app':14s} {'platform':10s} {'time s':>9s} {'effBW GB/s':>10s} "
          f"{'source':>6s}  configuration")
    for r in rows:
        if r.estimate is None:
            print(f"{r.job.app:14s} {r.job.platform.short_name:10s} "
                  f"{'-':>9s} {'-':>10s} {r.status:>6s}  "
                  f"{r.job.config.label()}  ({r.reason})")
            continue
        print(f"{r.job.app:14s} {r.job.platform.short_name:10s} "
              f"{r.estimate.total_time:9.3f} "
              f"{r.estimate.effective_bandwidth / 1e9:10.0f} "
              f"{r.status:>6s}  {r.job.config.label()}")
    print()
    print(engine.metrics.summary())
    if engine.store.persistent:
        print(f"store: {len(engine.store)} results at {engine.store.path}")
    return 0


def cmd_validate(args) -> int:
    name = resolve_app(args.app)
    if name is None:
        return 2
    defn = get_app(name)
    ctx = defn.make_context()
    diag = defn.run(ctx, defn.test_domain, defn.test_iterations)
    print(f"{defn.name} at {defn.test_domain} x {defn.test_iterations}:")
    for key, val in diag.items():
        if hasattr(val, "shape"):
            print(f"  {key}: array{tuple(val.shape)}")
        elif isinstance(val, list) and len(val) > 6:
            print(f"  {key}: [{val[0]:.4g} ... {val[-1]:.4g}] ({len(val)} entries)")
        elif isinstance(val, dict):
            print(f"  {key}: {{{', '.join(val)}}}")
        else:
            print(f"  {key}: {val}")
    recs = getattr(ctx, "records", {})
    print(f"  loops: {len(recs)} distinct, "
          f"{sum(r.calls for r in recs.values())} launches")
    return 0
