"""OPS-like structured-mesh DSL.

Declare blocks and dats, write point-wise kernels, run them with
``par_loop`` — serially, distributed over simulated MPI with automatic
halo exchange, or cache-blocked with skewed tiling.  The runtime counts
every loop's data movement and flops; those records feed the performance
model that regenerates the paper's figures.

    from repro.ops import OpsContext, Access, arg_dat, arg_gbl, star_stencil, S2D_00

    ctx = OpsContext()
    grid = ctx.block("grid", (256, 256))
    u = grid.dat("u", halo=1)
    u_new = grid.dat("u_new", halo=1)
    S5 = star_stencil(2, 1)

    def jacobi(out, inp):
        out[0, 0] = 0.25 * (inp[1, 0] + inp[-1, 0] + inp[0, 1] + inp[0, -1])

    ctx.par_loop(jacobi, "jacobi", grid, grid.interior,
                 arg_dat(u_new, S2D_00, Access.WRITE),
                 arg_dat(u, S5, Access.READ), flops_per_point=4)

Layer role (docs/ARCHITECTURE.md): structured-mesh execution layer —
runs the real numerics over simmpi, measures the per-loop byte/flop
profiles the perfmodel consumes, and emits kernel spans to repro.obs.
"""

from .access import Access, ArgDat, ArgGbl, arg_dat, arg_gbl
from .block import Block, Dat
from .parloop import DatAccessor, GblAccessor
from .runtime import LoopRecord, OpsContext, TimingModel
from .stencil import (
    S1D_0,
    S2D_00,
    S3D_000,
    Stencil,
    box_stencil,
    point_stencil,
    star_stencil,
)
from .tiling import TiledChainModel, TilePlan

__all__ = [
    "OpsContext",
    "TimingModel",
    "LoopRecord",
    "Block",
    "Dat",
    "Access",
    "ArgDat",
    "ArgGbl",
    "arg_dat",
    "arg_gbl",
    "Stencil",
    "point_stencil",
    "star_stencil",
    "box_stencil",
    "S1D_0",
    "S2D_00",
    "S3D_000",
    "DatAccessor",
    "GblAccessor",
    "TilePlan",
    "TiledChainModel",
]
