"""The OPS-like runtime: contexts, loop execution, accounting, timing.

:class:`OpsContext` is the entry point of the structured-mesh DSL.  It
runs in three modes:

* **serial** (default) — the whole domain on one "rank"; loops execute
  directly and the context records per-loop byte/flop profiles (the data
  the performance model consumes);
* **distributed** — created with a simulated-MPI communicator and a
  Cartesian process grid; every rank owns a slab, reads through stencils
  trigger halo exchanges, and global reductions go through allreduce.
  Results are bitwise identical to serial execution;
* **tiled** (serial only) — loops are queued and executed in cache-sized
  skewed tiles over the outermost dimension (the OPS lazy-execution
  cache-blocking scheme of Figure 9); see :mod:`repro.ops.tiling`.

Optionally a :class:`TimingModel` attaches simulated kernel time to each
loop (per-rank share of the modeled node time), so a distributed run
reproduces compute/MPI time splits on a virtual platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..ir.executor import InstrumentedExecutor
from ..ir.ledger import LoopTraffic
from ..ir.plan import KernelPlan
from ..machine.config import RunConfig
from ..machine.spec import PlatformSpec
from ..perfmodel.kernelmodel import AppClass, AppSpec, LoopSpec
from ..simmpi.cart import CartGrid, exchange_halos
from ..simmpi.comm import Communicator
from .access import Access, ArgDat, ArgGbl
from .block import Block, Dat
from .parloop import DatAccessor, GblAccessor, execution_view, lower_access

__all__ = ["LoopRecord", "TimingModel", "OpsContext"]

#: Accumulated execution profile of one named loop — absorbed into the
#: DSL-neutral :class:`~repro.ir.ledger.LoopTraffic`; the name remains
#: for the DSL-facing API.
LoopRecord = LoopTraffic


@dataclass(frozen=True)
class TimingModel:
    """Attach modeled kernel times to loop executions.

    ``klass`` selects the configuration-effect behaviour; the app spec
    used internally is a minimal stand-in built per loop.
    """

    platform: PlatformSpec
    config: RunConfig
    klass: AppClass = AppClass.STRUCTURED_BW
    dtype_bytes: int = 8

    def rank_time(self, spec: LoopSpec, ndims: int, nranks: int) -> float:
        """Per-rank kernel time for this rank's local share."""
        from ..perfmodel.roofline import loop_time

        app = AppSpec(
            name="_timing",
            klass=self.klass,
            dtype_bytes=self.dtype_bytes,
            iterations=1,
            loops=(spec,),
            domain=(1,) * ndims,
        )
        node = loop_time(spec.scaled(max(nranks, 1)), app, self.platform, self.config)
        core = (node.time - node.overhead) / max(nranks, 1)
        return core + node.overhead


class OpsContext:
    """Runtime context of the structured-mesh DSL (see module docstring).

    Parameters
    ----------
    comm, grid:
        Simulated-MPI communicator and matching Cartesian process grid for
        distributed execution; both None for serial.
    timing:
        Optional :class:`TimingModel`; loop executions then advance the
        communicator's virtual clock (distributed) or accumulate in
        :attr:`simulated_time` (serial).
    tile:
        Optional :class:`repro.ops.tiling.TilePlan` enabling lazy tiled
        execution (serial only).
    """

    def __init__(
        self,
        comm: Communicator | None = None,
        grid: CartGrid | None = None,
        timing: TimingModel | None = None,
        tile=None,
    ) -> None:
        if (comm is None) != (grid is None):
            raise ValueError("distributed mode needs both comm and grid")
        if comm is not None and grid.size != comm.size:
            raise ValueError("process grid size must equal communicator size")
        if tile is not None and comm is not None:
            raise ValueError("tiled execution is serial-only in this DSL")
        self.comm = comm
        self.grid = grid
        self.timing = timing
        self.tile = tile
        #: The shared instrumented execution path (traffic ledger, timing
        #: charge, span emission) — see :mod:`repro.ir.executor`.
        self._exec = InstrumentedExecutor(self, "ops")
        self.halo_exchange_count = 0
        self.halo_fields_exchanged = 0
        self.reduction_count = 0
        #: Total bytes of allocated field (dat) interiors — the reuse
        #: footprint of one pass over the loop chain.
        self.state_bytes = 0
        self._queue: list[dict] = []  # pending loops in tiled mode

    # ------------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.comm.size if self.comm is not None else 1

    @property
    def records(self) -> dict[str, LoopRecord]:
        """Accumulated per-loop profiles (the executor's traffic ledger)."""
        return self._exec.ledger.records

    @property
    def loop_order(self) -> list[str]:
        """Loop names in first-execution order."""
        return self._exec.ledger.loop_order

    @property
    def simulated_time(self) -> float:
        """Accumulated modeled kernel seconds (serial timed runs)."""
        return self._exec.simulated_time

    def block(self, name: str, shape: tuple[int, ...]) -> Block:
        """Declare a global structured block."""
        return Block(self, name, shape)

    # ------------------------------------------------------------------

    def par_loop(
        self,
        kernel: Callable,
        name: str,
        block: Block,
        rng: Sequence[tuple[int, int]],
        *args: ArgDat | ArgGbl,
        flops_per_point: float = 0.0,
    ) -> None:
        """Execute (or enqueue, in tiled mode) one parallel loop.

        ``rng`` is the global iteration range, one ``(lo, hi)`` per block
        dimension; it may extend into the physical halo for boundary
        loops.  ``flops_per_point`` is the kernel author's flop count,
        recorded for the performance model.
        """
        if len(rng) != block.ndim:
            raise ValueError(f"loop {name!r}: range dimensionality mismatch")
        for a in args:
            if isinstance(a, ArgDat) and a.dat.block is not block:
                raise ValueError(f"loop {name!r}: dat {a.dat.name!r} on a different block")
            if isinstance(a, ArgDat) and a.access.reads and a.stencil.radius > a.dat.halo:
                raise ValueError(
                    f"loop {name!r}: stencil radius {a.stencil.radius} exceeds "
                    f"halo depth {a.dat.halo} of {a.dat.name!r}"
                )
        if self.tile is not None:
            # Lazy execution: READ globals must be captured *now* — the
            # caller may overwrite them (e.g. the per-iteration dt)
            # before the queue flushes.  This mirrors OPS, which copies
            # gbl read buffers at ops_par_loop time.
            args = tuple(
                ArgGbl(a.value.copy(), a.access)
                if isinstance(a, ArgGbl) and a.access is Access.READ
                else a
                for a in args
            )
        job = dict(
            kernel=kernel, name=name, block=block,
            rng=[tuple(r) for r in rng], args=args, flops=flops_per_point,
        )
        if self.tile is not None:
            has_reduction = any(isinstance(a, ArgGbl) and a.access is not Access.READ
                                for a in args)
            self._queue.append(job)
            if has_reduction:
                self.flush()
            return
        self._execute(job)

    def flush(self) -> None:
        """Execute any queued loops (tiled mode); no-op otherwise."""
        if not self._queue:
            return
        from .tiling import execute_tiled

        queue, self._queue = self._queue, []
        execute_tiled(self, queue, self.tile)

    # ------------------------------------------------------------------

    def _sync_halos(self, args: Sequence[ArgDat | ArgGbl], bulk: bool = True) -> None:
        """Exchange dirty halos read through non-trivial stencils.

        ``bulk`` marks loops spanning (most of) the interior; only those
        count toward the halo-exchange statistics the communication model
        consumes — tiny boundary-strip loops exchange for correctness but
        piggyback on the bulk exchanges in real OPS.
        """
        token = self._exec.begin()
        seen: set[int] = set()
        fields = 0
        exchanged: list[str] = []
        for a in args:
            if not isinstance(a, ArgDat):
                continue
            if not (a.access.reads and a.stencil.radius > 0 and a.dat.halo_dirty):
                continue
            if id(a.dat) in seen:
                continue
            seen.add(id(a.dat))
            fields += 1
            exchanged.append(a.dat.name)
            if self.comm is not None and self.grid.size > 1 and a.dat.halo > 0:
                exchange_halos(self.comm, self.grid, a.dat.data, a.dat.halo)
            a.dat.halo_dirty = False
        if fields and bulk:
            self.halo_exchange_count += 1
            self.halo_fields_exchanged += fields
        self._exec.halo_span(token, fields, tuple(exchanged), bulk)

    def _local_range(
        self, block: Block, rng: Sequence[tuple[int, int]], halo_needed: int
    ) -> list[tuple[int, int]] | None:
        """Intersect the global range with this rank's owned-extended
        region; None when empty."""
        owned = block.owned_extended(halo_needed)
        out = []
        for (lo, hi), (s, e) in zip(rng, owned):
            a, b = max(lo, s), min(hi, e)
            if a >= b:
                return None
            out.append((a, b))
        return out

    def _execute(self, job: dict, rng_override: list[tuple[int, int]] | None = None) -> None:
        block: Block = job["block"]
        args = job["args"]
        rng = rng_override if rng_override is not None else job["rng"]

        rng_points = 1
        for lo, hi in rng:
            rng_points *= max(hi - lo, 0)
        interior_points = 1
        for d in block.shape:
            interior_points *= d
        self._sync_halos(args, bulk=rng_points >= 0.5 * interior_points)
        token = self._exec.begin()

        # Halo reach of writes determines how far into physical ghosts the
        # range may extend on this rank.
        max_halo = 0
        for a in args:
            if isinstance(a, ArgDat) and a.dat.halo > max_halo:
                max_halo = a.dat.halo
        local = self._local_range(block, rng, max_halo)

        accessors: list[DatAccessor | GblAccessor] = []
        gbls: list[tuple[ArgGbl, GblAccessor]] = []
        npoints = 0
        if local is not None:
            npoints = 1
            for lo, hi in local:
                npoints *= hi - lo
            for a in args:
                if isinstance(a, ArgDat):
                    base, extent = execution_view(a.dat, local)
                    accessors.append(DatAccessor(a, base, extent))
                else:
                    acc = GblAccessor(a)
                    accessors.append(acc)
                    if a.access is not Access.READ:
                        gbls.append((a, acc))
            job["kernel"](*accessors)
        else:
            # Ranks with no points still participate in reductions.
            for a in args:
                if isinstance(a, ArgGbl) and a.access is not Access.READ:
                    acc = GblAccessor(a)
                    gbls.append((a, acc))

        # Mark written halos dirty.
        for a in args:
            if isinstance(a, ArgDat) and a.access.writes:
                a.dat.halo_dirty = True

        self._finish_reductions(gbls)
        # Lower to the IR and hand off: the shared executor accounts the
        # traffic, charges the timing model and emits the kernel span.
        # Extents come from the *global* range, so tiled sub-ranges still
        # report the loop's true span to the spec builder.
        plan = KernelPlan(
            job["name"], "ops", npoints, lower_access(args),
            flops_per_point=job["flops"],
            ndims=block.ndim,
            extents=tuple(hi - lo for lo, hi in job["rng"]),
            rank=self.comm.rank if self.comm is not None else 0,
        )
        self._exec.finish(plan, token)

    def _finish_reductions(self, gbls: list[tuple[ArgGbl, GblAccessor]]) -> None:
        for arg, acc in gbls:
            contribution = acc.acc
            if self.comm is not None:
                op = {"inc": "sum", "min": "min", "max": "max"}[arg.access.value]
                contribution = self.comm.allreduce(contribution, op=op)
            if arg.access is Access.INC:
                arg.value += contribution
            elif arg.access is Access.MIN:
                np.minimum(arg.value, contribution, out=arg.value)
            else:
                np.maximum(arg.value, contribution, out=arg.value)
            self.reduction_count += 1

    # ------------------------------------------------------------------

    def loop_specs(
        self,
        iterations: int = 1,
        point_scale: float | tuple[float, ...] = 1.0,
        run_domain: tuple[int, ...] | None = None,
    ) -> list[LoopSpec]:
        """Convert the accumulated records to per-iteration
        :class:`~repro.perfmodel.kernelmodel.LoopSpec` inputs.

        ``iterations`` divides the accumulated totals (records are
        whole-run).  ``point_scale`` extrapolates a scaled-down run to
        the paper's problem size: a scalar multiplies every loop; a
        per-dimension tuple (with ``run_domain``) scales each loop only
        along dimensions its range actually spans — so boundary strips
        grow with the surface while bulk loops grow with the volume.
        """
        self.flush()
        return self._exec.ledger.loop_specs(iterations, point_scale, run_domain)
