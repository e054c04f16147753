"""Cache-blocking tiling: the OPS lazy-execution optimization (Figure 9).

The paper's final experiment applies OPS's run-time loop-chain tiling to
CloverLeaf 2D: "this algorithm re-arranges the execution of parallel
loops within and across different loops to improve memory locality"
(Sec. 6, citing Reguly et al., TPDS 2017).

Two pieces live here:

* :func:`execute_tiled` — the real transformation.  Queued loops are
  executed in *skewed tiles* over the outermost dimension: tile ``t``
  runs loop ``j`` on rows ``[t - S_j, t + W - S_j)`` where the skew
  ``S_j`` is the accumulated read radius of the chain up to loop ``j``.
  Every point of every loop executes exactly once (so INC arguments are
  safe) and all data dependencies are satisfied within the sweep, making
  the result bitwise identical to untiled execution — tests assert this.

* :class:`TiledChainModel` — the analytic traffic/time model the Figure 9
  benchmark uses: per tile, the chain's unique footprint is fetched from
  memory once and the remaining traffic is served at cache bandwidth,
  which is why the tiling speedup tracks each platform's cache:memory
  bandwidth ratio (1.84x at 3.8x on the Xeon MAX, 2.7x at 6.3x on the
  8360Y, 4x at 14x on the EPYC).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.config import RunConfig
from ..machine.spec import PlatformSpec
from ..mem.hierarchy import HierarchyModel, Scope
from ..perfmodel import calibration as cal
from ..perfmodel.configmodel import app_memory_bandwidth, loop_overhead
from ..perfmodel.kernelmodel import AppSpec
from .access import ArgDat

__all__ = ["TilePlan", "execute_tiled", "TiledChainModel"]


@dataclass(frozen=True)
class TilePlan:
    """Tiling parameters: tile width (rows of the outermost dimension)."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("tile width must be >= 1")


def _read_radius(args) -> int:
    return max(
        (a.stencil.radius for a in args if isinstance(a, ArgDat) and a.access.reads),
        default=0,
    )


def execute_tiled(ctx, queue: list[dict], plan: TilePlan) -> None:
    """Execute a queued loop chain in skewed tiles (see module docstring).

    ``ctx`` is the owning :class:`~repro.ops.runtime.OpsContext`; loops
    run through its normal ``_execute`` path with a restricted row range,
    so accounting, reductions and access checking all behave as usual.
    """
    if not queue:
        return
    # Skews: S_0 = 0, S_j = S_{j-1} + max(r_1..r_j).  Using the prefix
    # maximum of the read radii (rather than r_j alone) satisfies both
    # flow dependencies (loop j reads what loop i<j wrote: needs
    # S_j >= S_i + r_j) and anti-dependencies (loop j overwrites what
    # loop i<j read: needs S_j >= S_i + r_i).
    skews = [0]
    rmax = _read_radius(queue[0]["args"])
    for job in queue[1:]:
        rmax = max(rmax, _read_radius(job["args"]))
        skews.append(skews[-1] + rmax)
    lo_all = min(job["rng"][0][0] for job in queue)
    hi_all = max(job["rng"][0][1] + s for job, s in zip(queue, skews))
    w = plan.width
    t = lo_all
    while t < hi_all:
        for job, s in zip(queue, skews):
            lo_j, hi_j = job["rng"][0]
            a = max(lo_j, t - s)
            b = min(hi_j, t + w - s)
            if a >= b:
                continue
            rng = [(a, b)] + list(job["rng"][1:])
            ctx._execute(job, rng_override=rng)
        t += w


class TiledChainModel:
    """Analytic per-iteration time of a tiled vs. untiled loop chain.

    Parameters
    ----------
    app:
        The application spec (its loops define the chain; one iteration).
    unique_bytes_per_point:
        Distinct field bytes per grid point the chain touches (the tile
        footprint per point) — each fetched from memory once per tile
        sweep instead of once per loop.
    redundancy:
        Extra work fraction from skew overlap and the redundant halo-region
        computation the paper notes ("at the cost of redundant computations
        along the MPI boundaries").
    """

    def __init__(
        self,
        app: AppSpec,
        platform: PlatformSpec,
        config: RunConfig,
        unique_bytes_per_point: float,
        redundancy: float = 0.10,
        hierarchy: HierarchyModel | None = None,
    ) -> None:
        if unique_bytes_per_point <= 0:
            raise ValueError("unique_bytes_per_point must be positive")
        self.app = app
        self.platform = platform
        self.config = config
        self.unique_bpp = unique_bytes_per_point
        self.redundancy = redundancy
        self.hm = hierarchy or HierarchyModel(platform)

    def _chain_bpp(self) -> float:
        pts = max(l.points for l in self.app.loops)
        return sum(l.bytes_total for l in self.app.loops) / pts

    def tile_points(self, llc_fraction: float = 0.5) -> float:
        """Points per tile so the footprint fills ``llc_fraction`` of the
        last-level cache."""
        llc = self.platform.cache_capacity_total(self.platform.last_level_cache.name)
        return llc * llc_fraction / self.unique_bpp

    def untiled_time(self) -> float:
        """Per-iteration kernel bandwidth time without tiling.

        Uses the roofline's reuse-distance working set (the whole chain's
        per-iteration traffic), so incidental cache residency is judged
        exactly as :func:`repro.perfmodel.roofline.loop_time` judges it —
        the tiling speedup is then purely the effect of the deliberate
        blocking.
        """
        from ..perfmodel.roofline import loop_time

        app_bytes = self.app.bytes_per_iteration()
        total = 0.0
        for l in self.app.loops:
            total += loop_time(l, self.app, self.platform, self.config,
                               app_bytes=app_bytes).t_bandwidth
        return total

    def tiled_time(self, llc_fraction: float = 0.5) -> float:
        """Per-iteration kernel time with cache-blocking tiling.

        Each tile fetches its unique footprint from memory once; the
        chain's remaining traffic hits the last-level cache.  Cache-
        resident bandwidth passes through the same per-kernel application
        derates as memory bandwidth (complex kernels cannot consume the
        STREAM cache plateau either).
        """
        pts = max(l.points for l in self.app.loops)
        chain_bpp = self._chain_bpp()
        tile_pts = self.tile_points(llc_fraction)
        mem_bytes = pts * self.unique_bpp
        cache_bytes = pts * max(chain_bpp - self.unique_bpp, 0.0)

        ref = max(self.app.loops, key=lambda l: l.bytes_total)
        mem_bw = app_memory_bandwidth(
            self.platform, self.config, self.app, ref,
            self.hm.effective_bandwidth(max(mem_bytes, 1.0)),
        )
        tile_ws = tile_pts * self.unique_bpp
        cache_bw = app_memory_bandwidth(
            self.platform, self.config, self.app, ref,
            self.hm.effective_bandwidth(max(tile_ws, 1.0)),
        )
        t = mem_bytes / mem_bw + cache_bytes / cache_bw
        # Extra per-tile loop invocations.
        ntiles = max(1.0, pts / tile_pts)
        t += ntiles * len(self.app.loops) * loop_overhead(self.platform, self.config)
        return t * (1.0 + self.redundancy)

    def speedup(self, llc_fraction: float = 0.5) -> float:
        return self.untiled_time() / self.tiled_time(llc_fraction)
