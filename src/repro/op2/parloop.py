"""OP2-style parallel loops over unstructured sets.

Kernels are written element-wise but execute vectorized: each argument
arrives as a numpy array over the whole iteration set.  Indirect
arguments gather through a :class:`~repro.op2.mesh.Map` before the
kernel and scatter after it:

    # edge kernel: flux increments into the two end cells
    def flux(state_l, state_r, inc_l, inc_r):
        f = 0.5 * (state_l - state_r)
        inc_l[:] = -f
        inc_r[:] = +f

    ctx.par_loop(flux, "flux", edges,
                 arg(q, edge2cell, 0, Access.READ),
                 arg(q, edge2cell, 1, Access.READ),
                 arg(res, edge2cell, 0, Access.INC),
                 arg(res, edge2cell, 1, Access.INC), flops_per_elem=4)

Indirect increments race between elements sharing a target; the runtime
resolves them with one ``np.add.at`` scatter per argument, the pure-MPI
execution model.  The coloring that the paper's OpenMP/SYCL builds use
(Section 4) changes the schedule, not the counted traffic, so it is not
executed here: the performance model prices its locality loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..ir.access import AccessDescriptor, describe
from ..ir.executor import InstrumentedExecutor
from ..ir.ledger import LoopTraffic
from ..ir.plan import KernelPlan
from ..ops.access import Access
from .mesh import Dat, Global, Map, Set

__all__ = [
    "Arg", "arg", "arg_direct", "arg_global", "Op2LoopRecord", "Op2Context",
    "lower_args", "describe_args",
]


def lower_args(args) -> tuple[AccessDescriptor, ...]:
    """Lower unstructured-loop arguments to DSL-neutral IR descriptors.

    One :class:`~repro.ir.access.AccessDescriptor` per argument: dats
    carry their transfer width (``dim * dtype_bytes``) and, when
    indirect, the gather map's name/arity/slot; globals lower to
    traffic-exempt ``"gbl"`` entries.  Everything downstream of the
    engine — byte accounting, spec construction, trace access strings —
    consumes these, never the :class:`Arg` objects.
    """
    out = []
    for a in args:
        if a.is_global:
            out.append(AccessDescriptor(name="gbl", access=a.access, is_global=True))
            continue
        width = a.dat.dim * a.dat.dtype_bytes
        if a.is_indirect:
            out.append(
                AccessDescriptor(
                    name=a.dat.name,
                    access=a.access,
                    width_bytes=width,
                    dtype_bytes=a.dat.dtype_bytes,
                    map_name=a.map.name,
                    map_arity=a.map.arity,
                    map_index=a.index,
                )
            )
        else:
            out.append(
                AccessDescriptor(
                    name=a.dat.name,
                    access=a.access,
                    width_bytes=width,
                    dtype_bytes=a.dat.dtype_bytes,
                )
            )
    return tuple(out)


def describe_args(args) -> tuple[str, ...]:
    """Compact per-argument access summary for tracing/diagnostics:
    ``"q@e2c[0]:read"`` (indirect), ``"res:inc"`` (direct),
    ``"gbl:inc"`` (global).  Kept as the DSL-facing name for
    :func:`repro.ir.access.describe` over the lowered arguments."""
    return describe(lower_args(args))


@dataclass(frozen=True)
class Arg:
    """One par_loop argument (direct, indirect, or global)."""

    dat: Dat | None
    map: Map | None
    index: int | None  # which map slot; None = all slots (n, arity, dim)
    access: Access
    glob: Global | None = None

    def __post_init__(self) -> None:
        if self.glob is not None:
            if self.access in (Access.RW, Access.WRITE):
                raise ValueError("globals support READ, INC, MIN, MAX")
            return
        if self.dat is None:
            raise ValueError("argument needs a dat or a global")
        if self.map is not None:
            if self.map.to_set is not self.dat.set:
                raise ValueError(
                    f"map {self.map.name!r} targets {self.map.to_set.name!r}, "
                    f"but dat {self.dat.name!r} lives on {self.dat.set.name!r}"
                )
            if self.index is not None and not (0 <= self.index < self.map.arity):
                raise ValueError(f"map index {self.index} out of arity {self.map.arity}")

    @property
    def is_indirect(self) -> bool:
        return self.map is not None

    @property
    def is_global(self) -> bool:
        return self.glob is not None


def arg(dat: Dat, map_: Map, index: int | None, access: Access) -> Arg:
    """An indirect argument: ``dat[map_[e, index]]``."""
    return Arg(dat, map_, index, access)


def arg_direct(dat: Dat, access: Access) -> Arg:
    """A direct argument on the iteration set itself."""
    return Arg(dat, None, None, access)


def arg_global(glob: Global, access: Access) -> Arg:
    """A global parameter (READ) or reduction (INC/MIN/MAX)."""
    return Arg(None, None, None, access, glob=glob)


#: Accumulated execution profile of one unstructured loop — absorbed
#: into the DSL-neutral :class:`~repro.ir.ledger.LoopTraffic` (which
#: keeps the ``elements``/``*_per_elem`` vocabulary as aliases); the
#: name remains for the DSL-facing API.
Op2LoopRecord = LoopTraffic


class Op2Context:
    """Runtime for unstructured parallel loops.

    Each loop executes all elements at once, resolving indirect
    increments with ``np.add.at`` (deterministic, order-independent up to
    fp rounding of the unordered reduction — the same caveat real OP2
    carries).
    """

    def __init__(self, timing=None) -> None:
        #: Optional :class:`repro.ops.runtime.TimingModel`: loop
        #: executions then accumulate simulated seconds (serial) or
        #: advance the communicator clock (distributed contexts).
        self.timing = timing
        #: The shared instrumented execution path (traffic ledger, timing
        #: charge, span emission) — see :mod:`repro.ir.executor`.
        self._exec = InstrumentedExecutor(self, "op2")
        self.reduction_count = 0
        #: Total bytes of allocated dats (the loop chain's reuse footprint).
        self.state_bytes = 0

    @property
    def records(self) -> dict[str, Op2LoopRecord]:
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

    # ---- declaration factories ---------------------------------------
    # (Overridden by the distributed context, which localizes each
    # declaration; writing apps against these methods makes them run
    # unchanged in serial and distributed mode.)

    def set(self, name: str, size: int) -> Set:
        return Set(name, size)

    def map(self, name: str, from_set: Set, to_set: Set, values: np.ndarray) -> Map:
        return Map(name, from_set, to_set, values)

    def dat(self, dset: Set, dim: int, name: str, dtype=np.float64,
            data: np.ndarray | None = None) -> Dat:
        d = Dat(dset, dim, name, dtype, data)
        self.state_bytes += d.data.nbytes
        return d

    # ------------------------------------------------------------------

    def _resolve_iterset(self, iterset: Set) -> Set:
        """Hook: map the app-facing set handle to the executed set (the
        distributed context iterates its owned prefix only)."""
        return iterset

    def _direct_set_ok(self, dat: Dat, iterset: Set) -> bool:
        """Hook: is ``dat`` a valid direct argument for ``iterset``?"""
        return dat.set is iterset

    def par_loop(
        self,
        kernel: Callable,
        name: str,
        iterset: Set,
        *args: Arg,
        flops_per_elem: float = 0.0,
    ) -> None:
        iterset = self._resolve_iterset(iterset)
        for a in args:
            if a.is_indirect and a.map.from_set is not iterset:
                raise ValueError(
                    f"loop {name!r}: map {a.map.name!r} is from "
                    f"{a.map.from_set.name!r}, not the iteration set"
                )
            if not a.is_global and not a.is_indirect and not self._direct_set_ok(a.dat, iterset):
                raise ValueError(
                    f"loop {name!r}: direct dat {a.dat.name!r} not on iteration set"
                )

        n = iterset.size
        # Global reduction buffers are finished exactly once per loop
        # (collective-safe in distributed mode).
        gbl_bufs = {i: _global_buffer(a) for i, a in enumerate(args) if a.is_global}
        self._execute(kernel, args, np.arange(n), gbl_bufs)
        for i, a in enumerate(args):
            if a.is_global and a.access is not Access.READ:
                self._finish_global(a, gbl_bufs[i])
        # Lower to the IR and hand off: the shared executor accounts the
        # traffic, charges the timing model and emits the kernel span
        # (opened here, after the collective reduction finish — the span
        # covers accounting only, matching the historical taxonomy).
        token = self._exec.begin()
        plan = KernelPlan(
            name, "op2", n, lower_args(args),
            flops_per_point=flops_per_elem, mode="seq",
        )
        self._exec.finish(plan, token)

    # ------------------------------------------------------------------

    def _execute(self, kernel, args, elems: np.ndarray, gbl_bufs: dict) -> None:
        if elems.size == 0:
            return
        buffers = []
        kernel_args = []
        for i, a in enumerate(args):
            if a.is_global:
                buf = gbl_bufs[i]
                kernel_args.append(buf)
            elif not a.is_indirect:
                view = a.dat.data[elems]  # fancy index: a gathered copy
                if a.access is Access.READ:
                    view.setflags(write=False)
                buffers.append((a, view, elems))
                kernel_args.append(view)
            else:
                idx = (
                    a.map.values[elems, a.index]
                    if a.index is not None
                    else a.map.values[elems]
                )
                if a.access is Access.INC:
                    shape = idx.shape + (a.dat.dim,)
                    buf = np.zeros(shape, dtype=a.dat.dtype)
                elif a.access is Access.WRITE:
                    shape = idx.shape + (a.dat.dim,)
                    buf = np.empty(shape, dtype=a.dat.dtype)
                else:  # READ / RW gather
                    buf = a.dat.data[idx].copy()
                    if a.access is Access.READ:
                        buf.setflags(write=False)
                buffers.append((a, buf, idx))
                kernel_args.append(buf)
        kernel(*kernel_args)
        # Scatter phase.
        for a, buf, idx in buffers:
            if not a.is_indirect:
                if a.access.writes:
                    a.dat.data[idx] = buf
            else:
                if a.access is Access.INC:
                    np.add.at(a.dat.data, idx.reshape(-1), buf.reshape(-1, a.dat.dim))
                elif a.access.writes:
                    a.dat.data[idx.reshape(-1)] = buf.reshape(-1, a.dat.dim)

    def _finish_global(self, a: Arg, buf: np.ndarray) -> None:
        if a.access is Access.READ:
            return
        if a.access is Access.INC:
            a.glob.value += buf
        elif a.access is Access.MIN:
            np.minimum(a.glob.value, buf, out=a.glob.value)
        elif a.access is Access.MAX:
            np.maximum(a.glob.value, buf, out=a.glob.value)
        self.reduction_count += 1

    # ------------------------------------------------------------------

    def loop_specs(self, iterations: int = 1, point_scale: float = 1.0):
        """Per-iteration :class:`~repro.perfmodel.kernelmodel.LoopSpec`
        inputs (unstructured loops carry indirect access counts and are
        non-vectorizable when they have racing increments)."""
        return self._exec.ledger.loop_specs(iterations, point_scale)


def _global_buffer(a: Arg) -> np.ndarray:
    if a.access is Access.READ:
        buf = a.glob.value.copy()
        buf.setflags(write=False)
        return buf
    if a.access is Access.INC:
        return np.zeros_like(a.glob.value)
    if a.access is Access.MIN:
        return np.full_like(a.glob.value, np.inf)
    return np.full_like(a.glob.value, -np.inf)
