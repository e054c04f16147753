"""Regenerate every table and figure of the paper's evaluation.

Each ``figN()`` returns a :class:`~repro.harness.report.FigureResult`
whose rows hold the model's numbers next to the paper's published values
(:mod:`repro.harness.paperdata`).  ``python -m repro.harness`` prints all
of them; ``benchmarks/`` asserts the shape agreements per figure.
"""

from __future__ import annotations

import numpy as np

from ..apps.base import APP_ORDER
from ..engine import default_engine
from ..machine import (
    A100_40GB,
    CPU_PLATFORMS,
    EPYC_7V73X,
    XEON_8360Y,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
    structured_config_sweep,
    unstructured_config_sweep,
)
from ..machine.topology import CoreToCoreBenchmark
from ..mem.hierarchy import HierarchyModel, Scope
from ..mem.stream import plateau_bandwidth, triad_sweep
from ..ops.tiling import TiledChainModel
from . import paperdata as paper
from .report import FigureResult
from .runner import app_spec, best_run, run_application, sweep

__all__ = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig7x", "fig8",
    "fig9", "all_figures",
]

_CUDA = RunConfig(Compiler.NVCC, Parallelization.CUDA)


def _sweep_for(name: str, platform):
    if name in paper.UNSTRUCTURED_APPS:
        return unstructured_config_sweep(platform)
    return structured_config_sweep(platform)


# ---------------------------------------------------------------------------


def fig1(sizes: np.ndarray | None = None) -> FigureResult:
    """BabelStream Triad bandwidth: plateaus and size sweeps."""
    res = FigureResult(
        "fig1",
        "BabelStream Triad bandwidth (GB/s)",
        ("platform", "scope", "model GB/s", "paper GB/s"),
    )
    for p, key, tuned in (
        (XEON_MAX_9480, "max9480", False),
        (XEON_MAX_9480, "max9480_ss", True),
        (XEON_8360Y, "icx8360y", False),
        (EPYC_7V73X, "epyc7v73x", False),
        (A100_40GB, "a100", False),
    ):
        label = p.short_name + (" (SS flags)" if tuned else "")
        res.rows.append(
            (label, "node", plateau_bandwidth(p, tuned=tuned) / 1e9,
             paper.FIG1_STREAM_GBS[key])
        )
    for p in CPU_PLATFORMS:
        res.rows.append((p.short_name, "socket",
                         plateau_bandwidth(p, Scope.SOCKET) / 1e9, None))
        res.rows.append((p.short_name, "numa",
                         plateau_bandwidth(p, Scope.NUMA) / 1e9, None))
    for p in CPU_PLATFORMS:
        ratio = HierarchyModel(p).cache_to_memory_ratio()
        res.notes.append(
            f"{p.short_name} cache:memory plateau ratio {ratio:.2f}x "
            f"(paper {paper.FIG1_CACHE_RATIO[p.short_name]}x)"
        )
    if sizes is not None:
        for r in triad_sweep(XEON_MAX_9480, sizes):
            res.notes.append(f"max9480 n={r.n}: {r.gbs:.0f} GB/s")
    return res


def fig2() -> FigureResult:
    """Core-to-core message-passing latency per pair class (ns)."""
    res = FigureResult(
        "fig2",
        "Core-to-core message latency (ns, one way)",
        ("platform", "pair", "model ns"),
    )
    for p in CPU_PLATFORMS:
        bench = CoreToCoreBenchmark(p)
        for pair, lat in bench.representative_pairs().items():
            res.rows.append((p.short_name, pair, lat * 1e9))
    res.notes.append(
        "paper: no significant improvement vs 8360Y; EPYC cross-socket ~1.6x worse"
    )
    return res


def _config_matrix(apps: list[str], platform, sweep_fn) -> FigureResult:
    """Shared engine of Figures 3 and 4: slowdown vs per-app best.

    All apps go into one job plan so the sweep engine dedups, caches,
    and batch-evaluates the whole app x config matrix.
    """
    configs = sweep_fn(platform)
    runs_by_app = default_engine().sweep_many(apps, platform, configs)
    rows = {}
    for name in apps:
        runs = runs_by_app[name]
        times = {c.label(): (e.total_time if e else None) for c, e in runs}
        best = min(t for t in times.values() if t is not None)
        rows[name] = {lbl: (t / best if t else None) for lbl, t in times.items()}
    labels = [c.label() for c in configs]
    # Order rows by mean slowdown across apps (as the paper does).
    def rowmean(lbl):
        vals = [rows[a][lbl] for a in apps if rows[a][lbl] is not None]
        return float(np.mean(vals)) if vals else float("inf")

    labels.sort(key=rowmean)
    out = []
    for lbl in labels:
        out.append(tuple([lbl] + [rows[a][lbl] for a in apps]))
    return out, rows


def fig3(platform=XEON_MAX_9480) -> FigureResult:
    """Structured-mesh apps: slowdown vs best over the full config sweep."""
    apps = paper.STRUCTURED_APPS
    table, rows = _config_matrix(apps, platform, structured_config_sweep)
    res = FigureResult(
        "fig3",
        f"Structured-mesh configuration sweep on {platform.short_name} "
        "(slowdown vs per-app best)",
        tuple(["configuration"] + apps),
        table,
    )
    all_vals = [v for a in apps for v in rows[a].values() if v is not None]
    mean, median = float(np.mean(all_vals)), float(np.median(all_vals))
    ref = paper.FIG3_MEAN_SLOWDOWN.get(platform.short_name)
    res.notes.append(
        f"mean slowdown {mean:.2f}, median {median:.2f}"
        + (f" (paper: mean {ref['mean']}, median {ref['median']})" if ref else "")
    )
    return res


def fig4(platform=XEON_MAX_9480) -> FigureResult:
    """Unstructured-mesh apps: slowdown vs best, with the paper's table."""
    apps = paper.UNSTRUCTURED_APPS
    table, _ = _config_matrix(apps, platform, unstructured_config_sweep)
    res = FigureResult(
        "fig4",
        f"Unstructured-mesh configuration sweep on {platform.short_name} "
        "(slowdown vs per-app best)",
        ("configuration", "mgcfd", "volna", "paper mgcfd", "paper volna"),
    )
    for row in table:
        ref = paper.FIG4_TABLE.get(row[0], (None, None))
        res.rows.append((row[0], row[1], row[2], ref[0], ref[1]))
    return res


def fig5(platform=XEON_MAX_9480) -> FigureResult:
    """Relative speedup of parallelizations vs pure MPI on the Xeon MAX."""
    groups = {
        "MPI": [Parallelization.MPI],
        "MPI vec": [Parallelization.MPI_VEC],
        "MPI+OpenMP": [Parallelization.MPI_OMP],
        "MPI+SYCL flat": [Parallelization.MPI_SYCL_FLAT],
        "MPI+SYCL ndrange": [Parallelization.MPI_SYCL_NDRANGE],
    }
    res = FigureResult(
        "fig5",
        f"Speedup of parallelizations vs pure MPI on {platform.short_name}",
        tuple(["app"] + list(groups)),
    )
    for name in APP_ORDER:
        if name == "minibude":
            continue  # not an OPS/OP2 app; the paper's Fig 5 excludes it
        # One engine sweep over the full config set; the parallelization
        # groups are then sliced in memory (every group is a subset).
        runs = sweep(name, platform, _sweep_for(name, platform))
        by_group = {}
        for gname, pars in groups.items():
            times = [e.total_time for c, e in runs
                     if e is not None and c.parallelization in pars]
            by_group[gname] = min(times, default=None)
        base = by_group["MPI"]
        res.rows.append(tuple(
            [name] + [
                (base / t if (t and base) else None) for t in by_group.values()
            ]
        ))
    res.notes.append(
        "paper: MPI+OpenMP best on structured (esp. Acoustic); MPI vec "
        "1.6-1.8x on unstructured; SYCL behind OpenMP, worst on CloverLeaf"
    )
    return res


def fig6() -> FigureResult:
    """Best performance per app per platform and MAX-9480 speedups."""
    res = FigureResult(
        "fig6",
        "Best-configuration runtime (s) per platform; Xeon MAX speedups",
        ("app", "max9480", "icx8360y", "epyc7v73x", "a100",
         "vs 8360Y", "paper", "vs EPYC", "paper ", "A100/MAX"),
    )
    for name in APP_ORDER:
        times = {}
        for p in CPU_PLATFORMS:
            _, est = best_run(name, p, _sweep_for(name, p))
            times[p.short_name] = est.total_time
        times["a100"] = run_application(name, A100_40GB, _CUDA).total_time
        res.rows.append((
            name,
            times["max9480"], times["icx8360y"], times["epyc7v73x"], times["a100"],
            times["icx8360y"] / times["max9480"],
            paper.FIG6_SPEEDUP_VS_8360Y.get(name),
            times["epyc7v73x"] / times["max9480"],
            paper.FIG6_SPEEDUP_VS_EPYC.get(name),
            times["max9480"] / times["a100"],
        ))
    res.notes.append("paper: overall Xeon MAX speedup range 2.0x-4.3x; A100 1.1-2.1x faster")
    return res


def fig7() -> FigureResult:
    """Fraction of runtime spent in MPI, pure MPI vs MPI+OpenMP."""
    res = FigureResult(
        "fig7",
        "Fraction of runtime in MPI (%)",
        ("app", "platform", "MPI", "MPI+OpenMP"),
    )
    for name in APP_ORDER:
        if name == "minibude":
            continue
        for p in CPU_PLATFORMS:
            runs = sweep(name, p, _sweep_for(name, p))
            fracs = {}
            for par in (Parallelization.MPI, Parallelization.MPI_OMP):
                ests = [e for c, e in runs
                        if e is not None and c.parallelization is par]
                best = min(ests, key=lambda e: e.total_time, default=None)
                fracs[par] = best.mpi_fraction * 100 if best else None
            res.rows.append((name, p.short_name,
                             fracs[Parallelization.MPI],
                             fracs[Parallelization.MPI_OMP]))
    res.notes.append(
        "paper: MPI+OpenMP has lower MPI overhead for all but volna; the "
        "MAX's MPI fraction is 1.2-5.3x the 8360Y's"
    )
    return res


#: Node counts of the fig7x scaling study: 16–96 dual-socket nodes spans
#: ~1.8k–10.7k ranks on the 112-core Xeon MAX node (the Aurora-study
#: regime ROADMAP item 3 asks about).
FIG7X_NODE_COUNTS = (16, 32, 64, 96)

#: Apps extended beyond the node: the two structured codes Fig 7
#: identifies as halo-exchange dominated at scale.
FIG7X_APPS = ("cloverleaf3d", "miniweather")


def fig7x(node_counts: tuple[int, ...] = FIG7X_NODE_COUNTS) -> FigureResult:
    """Fig 7 extended to clusters: MPI fraction and parallel efficiency
    at 1k–10k ranks (strong scaling, pure MPI, Xeon MAX vs 8360Y)."""
    from ..perfmodel.scaling import cluster_strong_scaling

    res = FigureResult(
        "fig7x",
        "Strong scaling to 1k-10k ranks: MPI fraction and efficiency",
        ("app", "platform", "nodes", "ranks", "MPI %", "efficiency"),
    )
    cfg = RunConfig(Compiler.ONEAPI, Parallelization.MPI)
    for name in FIG7X_APPS:
        spec = app_spec(name)
        for p in (XEON_MAX_9480, XEON_8360Y):
            for pt in cluster_strong_scaling(spec, p, cfg, node_counts):
                res.rows.append((
                    name, p.short_name, pt.nodes, pt.ranks,
                    pt.mpi_fraction * 100, pt.efficiency,
                ))
    res.notes.append(
        "model extension beyond the paper: fixed paper-scale domains "
        "spread over HDR200-connected clusters; the MAX's cheaper compute "
        "pushes it into the MPI-bound regime at lower rank counts"
    )
    return res


def fig8() -> FigureResult:
    """Achieved effective bandwidth (fraction of STREAM) per app."""
    res = FigureResult(
        "fig8",
        "Effective bandwidth of kernels (fraction of STREAM peak)",
        ("app", "max9480", "paper", "icx8360y", "epyc7v73x"),
    )
    streams = {p.short_name: p.stream_bandwidth for p in CPU_PLATFORMS}
    for name in paper.STRUCTURED_APPS:
        row = [name]
        for p in CPU_PLATFORMS:
            _, est = best_run(name, p, _sweep_for(name, p))
            row.append(est.effective_bandwidth / streams[p.short_name])
            if p is XEON_MAX_9480:
                row.append(paper.FIG8_EFFICIENCY_MAX.get(name))
        res.rows.append(tuple(row))
    lo, hi = paper.FIG8_EFFICIENCY_RANGES["icx8360y"]
    res.notes.append(f"paper: 8360Y reaches {lo:.0%}-{hi:.0%} of STREAM")
    lo, hi = paper.FIG8_EFFICIENCY_RANGES["epyc7v73x"]
    res.notes.append(f"paper: EPYC reaches {lo:.0%}-{hi:.0%} of STREAM")
    return res


def fig9() -> FigureResult:
    """CloverLeaf 2D with cache-blocking tiling: speedups per platform."""
    spec = app_spec("cloverleaf2d")
    unique_bpp = spec.state_bytes / spec.gridpoints
    res = FigureResult(
        "fig9",
        "CloverLeaf 2D cache-blocking tiling speedup",
        ("platform", "untiled s", "tiled s", "speedup", "paper"),
    )
    tiled_max = None
    for p in CPU_PLATFORMS:
        cfg = RunConfig(
            Compiler.ONEAPI if p is not EPYC_7V73X else Compiler.AOCC,
            Parallelization.MPI,
            hyperthreading=p.smt > 1,
        )
        # ZMM high where available, as the paper's Fig. 9 runs used.
        if p.isa.width_bits >= 512:
            from ..machine.config import ZmmUsage

            cfg = cfg.with_(zmm=ZmmUsage.HIGH)
        base = run_application("cloverleaf2d", p, cfg)
        model = TiledChainModel(spec, p, cfg, unique_bytes_per_point=unique_bpp)
        speedup = model.speedup()
        tiled = base.total_time / speedup
        if p is XEON_MAX_9480:
            tiled_max = tiled
        res.rows.append((
            p.short_name, base.total_time, tiled, speedup,
            paper.FIG9_TILING_SPEEDUP[p.short_name],
        ))
    a100 = run_application("cloverleaf2d", A100_40GB, _CUDA).total_time
    res.rows.append(("a100 (untiled)", a100, None, None, None))
    if tiled_max:
        res.notes.append(
            f"tiled Xeon MAX vs A100: {a100 / tiled_max:.2f}x faster "
            "(paper: 1.5x)"
        )
    res.notes.append(
        "paper correlation: speedup tracks the cache:memory bandwidth "
        "ratio (3.8x / 6.3x / 14x)"
    )
    return res


def all_figures() -> list[FigureResult]:
    """Every figure in paper order (fig1..fig9, plus the fig7x cluster
    scaling extension)."""
    return [fig1(), fig2(), fig3(), fig4(), fig5(), fig6(), fig7(), fig7x(),
            fig8(), fig9()]
