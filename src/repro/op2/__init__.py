"""OP2-like unstructured-mesh DSL.

Sets, maps and dats describe the mesh; kernels run over sets with
gather/scatter through maps.  Race-prone indirect increments resolve
with one ``np.add.at`` scatter per argument (the coloring that OpenMP
and SYCL builds need is priced by the performance model's
``UNSTRUCT_OMP_LOCALITY_LOSS``, not executed); the owner-compute
distributed context runs the same application over simulated MPI with
halo import/export.

    from repro.op2 import Op2Context, Access, arg, arg_direct

    ctx = Op2Context()
    cells = ctx.set("cells", n_cells)
    edges = ctx.set("edges", n_edges)
    e2c = ctx.map("e2c", edges, cells, edge_to_cell)
    q = ctx.dat(cells, 4, "q")
    res = ctx.dat(cells, 4, "res")
    ctx.par_loop(flux_kernel, "flux", edges,
                 arg(q, e2c, 0, Access.READ), arg(q, e2c, 1, Access.READ),
                 arg(res, e2c, 0, Access.INC), arg(res, e2c, 1, Access.INC))

Layer role (docs/ARCHITECTURE.md): unstructured-mesh execution layer —
the gather/scatter counterpart of repro.ops, with the same measured
profile outputs and tracer instrumentation.
"""

from ..ops.access import Access
from .halo import DistOp2Context
from .mesh import Dat, Global, Map, Set
from .parloop import Arg, Op2Context, Op2LoopRecord, arg, arg_direct, arg_global
from .partition import (
    PartitionQuality,
    partition_quality,
    partition_rcb,
    partition_spectral,
)

__all__ = [
    "Access",
    "Set",
    "Map",
    "Dat",
    "Global",
    "Arg",
    "arg",
    "arg_direct",
    "arg_global",
    "Op2Context",
    "DistOp2Context",
    "Op2LoopRecord",
    "partition_rcb",
    "partition_spectral",
    "partition_quality",
    "PartitionQuality",
]
