"""Roofline-with-latency kernel timing and whole-application estimates.

The execution time of one parallel loop combines three bottleneck terms —
memory traffic over achievable bandwidth, flops over effective compute
throughput, and irregular accesses over gather throughput — blended with
a p-norm (see :data:`~repro.perfmodel.calibration.BOTTLENECK_PNORM`),
plus the per-loop runtime overhead.  Summing loops, adding the
communication estimate and rank imbalance, and multiplying by the
iteration count yields the application estimate whose derived metrics
map directly onto the paper's figures:

- ``total_time`` → Figures 3/4/5/6/9 (runtimes, normalized or absolute);
- ``mpi_fraction`` → Figure 7;
- ``effective_bandwidth`` (counted bytes / kernel time, the same
  accounting OPS reports) → Figure 8;
- ``achieved_flops`` → the miniBUDE 6 TFLOPS figure (Sec. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..machine.config import RunConfig
from ..machine.spec import DeviceKind, PlatformSpec
from ..mem.hierarchy import HierarchyModel, Scope
from ..obs.metrics import active_metrics
from ..obs.tracer import active_tracer
from . import calibration as cal
from .commmodel import CommEstimate, estimate_comm
from .configmodel import (
    app_memory_bandwidth,
    effective_flops,
    gather_throughput,
    loop_overhead,
    sycl_time_multiplier,
    traffic_multiplier,
)
from .kernelmodel import AppSpec, LoopSpec, stencil_traffic_factor

__all__ = ["LoopTime", "AppEstimate", "loop_time", "estimate_app"]


@dataclass(frozen=True)
class LoopTime:
    """Timing breakdown of one parallel loop (one invocation, node-wide).

    ``t_bandwidth``/``t_compute``/``t_latency`` are the raw roofline
    limb terms *before* the p-norm blend; :meth:`limb_seconds` projects
    them back onto the clock so they sum (with ``overhead``) exactly to
    ``time`` — the additive view ``repro.obs.attribution`` builds on.
    ``mem_level`` records which hierarchy level served the working set
    in the bandwidth lookup (``"memory"`` or a cache level name).
    """

    name: str
    time: float
    t_bandwidth: float
    t_compute: float
    t_latency: float
    overhead: float
    counted_bytes: float
    flops: float
    mem_level: str = "memory"

    @property
    def bottleneck(self) -> str:
        terms = {
            "bandwidth": self.t_bandwidth,
            "compute": self.t_compute,
            "latency": self.t_latency,
        }
        return max(terms, key=terms.get)

    def limb_seconds(self) -> dict[str, float]:
        """Additive attribution of ``time`` to the three roofline limbs.

        The core time (``time - overhead``) is distributed over the
        limbs in proportion to their p-norm weights ``t_i**p`` — the
        share each term contributed to the blended bottleneck.  The last
        nonzero share is computed as the remainder, so the dict's values
        plus ``overhead`` sum to ``time`` exactly (float identity, not
        just within epsilon).
        """
        core = self.time - self.overhead
        terms = {
            "bandwidth": self.t_bandwidth,
            "compute": self.t_compute,
            "latency": self.t_latency,
        }
        p = cal.BOTTLENECK_PNORM
        weights = {k: v**p for k, v in terms.items() if v > 0}
        total_w = sum(weights.values())
        out = {k: 0.0 for k in terms}
        if core <= 0 or total_w <= 0:
            return out
        keys = list(weights)
        assigned = 0.0
        for k in keys[:-1]:
            share = core * (weights[k] / total_w)
            out[k] = share
            assigned += share
        out[keys[-1]] = core - assigned
        return out


@dataclass(frozen=True)
class AppEstimate:
    """Whole-run estimate of an application on a platform/config.

    An estimate built by :meth:`deferred` (a result store's stored
    estimates) decodes its ``per_loop`` table on the first read of that
    field; every other field, ``==``, ``hash``, ``repr`` and
    ``dataclasses.asdict`` behave as on a fresh estimate.
    """

    app: str
    platform: str
    config_label: str
    total_time: float
    compute_time: float
    mpi_time: float
    per_loop: tuple[LoopTime, ...]
    counted_bytes: float
    flops: float
    comm: CommEstimate

    @property
    def mpi_fraction(self) -> float:
        return self.mpi_time / self.total_time if self.total_time else 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Counted data movement / kernel time, excluding MPI — the
        quantity OPS reports and Figure 8 plots."""
        return self.counted_bytes / self.compute_time if self.compute_time else 0.0

    @property
    def achieved_flops(self) -> float:
        return self.flops / self.compute_time if self.compute_time else 0.0

    @classmethod
    def deferred(cls, values: dict, load_per_loop) -> AppEstimate:
        """An estimate of ``values`` (every field but ``per_loop``) whose
        ``per_loop`` is ``load_per_loop()``, called on the first read of
        that field, so a loop table no caller reads is never decoded."""
        if values.keys() != _DEFERRED_FIELDS:
            raise TypeError(
                f"a deferred estimate takes the fields {sorted(_DEFERRED_FIELDS)}"
                f", not {sorted(values)}")
        est = cls.__new__(cls)
        est.__dict__.update(values)
        est.__dict__["_load_per_loop"] = load_per_loop
        return est

    def __getattr__(self, name: str):
        # Normal lookup finds every field of a fresh estimate, so this
        # runs only on the first read of a deferred estimate's per_loop.
        # The table is decoded before it is published: a concurrent first
        # read decodes it too, and setdefault hands every reader the one
        # published first.
        load = self.__dict__.get("_load_per_loop") if name == "per_loop" else None
        if load is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault("per_loop", load())


_DEFERRED_FIELDS = frozenset(
    f.name for f in fields(AppEstimate) if f.name != "per_loop")


def _pnorm(*terms: float, p: float = cal.BOTTLENECK_PNORM) -> float:
    s = sum(t**p for t in terms if t > 0)
    return s ** (1.0 / p) if s > 0 else 0.0


def loop_time(
    loop: LoopSpec,
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    hierarchy: HierarchyModel | None = None,
    working_set: float | None = None,
    app_bytes: float | None = None,
) -> LoopTime:
    """Time one invocation of one parallel loop, node-wide.

    ``working_set`` overrides the resident-set size used for the
    bandwidth lookup — the cache-blocking tiling optimization (Figure 9)
    passes its tile footprint here to price cache-resident traffic.
    ``app_bytes`` is ``app.bytes_per_iteration()``: a caller pricing
    every loop of an app sums them once and passes the sum, so pricing
    the app is linear in its loops.
    """
    hm = hierarchy or HierarchyModel(platform, utilization=cal.CACHE_UTILIZATION)
    affinity = app.affinity(config.compiler)
    if affinity <= 0.0:
        raise ValueError(
            f"{app.name} does not run under {config.compiler.value} "
            "(the paper reports the generated code stalls)"
        )

    traffic = (
        loop.bytes_total
        * traffic_multiplier(platform, config, app, loop)
        * stencil_traffic_factor(
            loop, platform, loop.points / platform.total_cores, app.ndims
        )
    )
    # Residency is governed by the reuse distance: a loop re-reads its
    # fields only after the rest of the chain has streamed a whole
    # iteration's traffic (>= the application state) through the caches.
    if working_set is not None:
        ws = working_set
    else:
        if app_bytes is None:
            app_bytes = app.bytes_per_iteration()
        ws = max(
            traffic,
            app.state_bytes,
            app_bytes * cal.REUSE_TRAFFIC_FACTOR,
            1.0,
        )
    bw = app_memory_bandwidth(
        platform, config, app, loop, hm.effective_bandwidth(ws)
    )
    # Which level served the lookup — carried on the LoopTime so the
    # attribution tree can split memory seconds per hierarchy level.
    mem_level = hm.serving_level(ws)[0]
    t_bw = traffic / bw if traffic > 0 else 0.0
    if (
        loop.indirect_bytes_per_point > 0
        and platform.kind is DeviceKind.CPU
        and working_set is None
    ):
        # Gathered-field residency: when the indirect target (~4
        # components per mesh point) fits the LLC, its traffic is served
        # from cache — the EPYC V-cache's locality advantage (Sec. 6).
        gathered = app.gridpoints * 4.0 * app.dtype_bytes
        llc_cap = (
            platform.cache_capacity_total(platform.last_level_cache.name)
            * cal.CACHE_UTILIZATION
        )
        if gathered <= llc_cap:
            ind_frac = min(loop.indirect_bytes_per_point / loop.bytes_per_point, 1.0)
            cache_bw = app_memory_bandwidth(
                platform, config, app, loop, hm.effective_bandwidth(gathered)
            )
            t_bw = traffic * (1.0 - ind_frac) / bw + traffic * ind_frac / cache_bw

    flops = loop.flops_total
    t_fl = flops / effective_flops(platform, config, app, loop) if flops > 0 else 0.0

    indirect = loop.points * loop.indirect_per_point
    t_lat = (
        indirect / gather_throughput(platform, config, app, loop)
        if indirect > 0
        else 0.0
    )

    core = _pnorm(t_bw, t_fl, t_lat) * sycl_time_multiplier(config) / affinity
    ovh = loop_overhead(platform, config) * max(loop.invocations, 1.0)
    lt = LoopTime(
        loop.name, core + ovh, t_bw, t_fl, t_lat, ovh, loop.bytes_total, flops,
        mem_level=mem_level,
    )
    m = active_metrics()
    if m is not None:
        # Winning-limb tally: which roofline term set each loop's time
        # (the model-vs-measured sanity check Figure 8 rests on).
        m.inc("perfmodel_loops_total",
              limb=lt.bottleneck, platform=platform.short_name)
        m.inc("perfmodel_loop_seconds_total", lt.time,
              limb=lt.bottleneck, platform=platform.short_name)
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(
            "perfmodel", loop.name, 0.0, track=("perfmodel", 0),
            t_bandwidth=t_bw, t_compute=t_fl, t_latency=t_lat,
            overhead=ovh, time=lt.time, limb=lt.bottleneck,
            traffic=traffic, bandwidth=bw,
            platform=platform.short_name, config=config.label(),
            **loop.trace_attrs(),
        )
    return lt


def estimate_app(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    hierarchy: HierarchyModel | None = None,
) -> AppEstimate:
    """Estimate the full run of ``app`` on ``platform`` under ``config``."""
    hm = hierarchy or HierarchyModel(platform, utilization=cal.CACHE_UTILIZATION)
    app_bytes = app.bytes_per_iteration()
    loops = tuple(loop_time(l, app, platform, config, hm, app_bytes=app_bytes)
                  for l in app.loops)
    compute_per_iter = sum(lt.time for lt in loops)
    comm = estimate_comm(app, platform, config)
    # Rank imbalance turns into MPI_Wait on the faster ranks; it grows
    # with the rank count (pure MPI pays more than one-rank-per-NUMA).
    nranks = config.ranks(platform)
    imbalance = (
        compute_per_iter * cal.IMBALANCE_PER_LOG2_RANKS * math.log2(nranks)
        if platform.kind is DeviceKind.CPU and nranks > 1
        else 0.0
    )
    mpi_per_iter = comm.time_per_iter + imbalance
    n = app.iterations
    m = active_metrics()
    if m is not None:
        m.inc("perfmodel_estimates_total",
              app=app.name, platform=platform.short_name)
    tracer = active_tracer()
    if tracer is not None:
        tracer.event(
            "perfmodel", f"estimate:{app.name}", 0.0, track=("perfmodel", 0),
            platform=platform.short_name, config=config.label(),
            compute_per_iter=compute_per_iter, mpi_per_iter=mpi_per_iter,
            comm_per_iter=comm.time_per_iter, imbalance=imbalance,
            iterations=n, loops=len(loops),
        )
    return AppEstimate(
        app=app.name,
        platform=platform.short_name,
        config_label=config.label(),
        total_time=(compute_per_iter + mpi_per_iter) * n,
        compute_time=compute_per_iter * n,
        mpi_time=mpi_per_iter * n,
        per_loop=loops,
        counted_bytes=sum(lt.counted_bytes for lt in loops) * n,
        flops=sum(lt.flops for lt in loops) * n,
        comm=comm,
    )
