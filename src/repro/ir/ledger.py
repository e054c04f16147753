"""Traffic ledger — the accumulated per-loop execution profile.

One :class:`TrafficLedger` per DSL context accumulates a
:class:`LoopTraffic` record per kernel name from the
:class:`~repro.ir.plan.KernelPlan` of every invocation.  This is the
single accounting scheme of the paper applied to both DSLs: bytes and
flops measured from access descriptors, indirect gather counts for
unstructured loops, stencil radii and range extents for structured ones.
The ledger also owns the conversion to per-iteration
:class:`~repro.perfmodel.kernelmodel.LoopSpec` model inputs — the
``LoopSpec``/``AppSpec`` construction path, so neither DSL carries its
own record-to-spec code (this absorbed the former ``ops.runtime.
LoopRecord`` and ``op2.parloop.Op2LoopRecord`` types, which remain as
aliases).
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import KernelPlan

__all__ = ["LoopTraffic", "TrafficLedger"]


@dataclass
class LoopTraffic:
    """Accumulated execution profile of one named loop (both dialects).

    Structured loops populate ``radius``/``extents``; unstructured ones
    populate the ``indirect_*`` counters and ``has_indirect_inc``.  The
    ``*_per_elem``/``elements`` aliases preserve the unstructured
    vocabulary of the absorbed ``Op2LoopRecord``.
    """

    name: str
    calls: int = 0
    points: float = 0.0
    bytes: float = 0.0
    flops: float = 0.0
    radius: int = 0
    streams: int = 0
    dtype_bytes: int = 8
    #: Largest iteration-range extent seen per dimension — lets the spec
    #: builder scale boundary strips by area and bulk loops by volume.
    extents: tuple = ()
    indirect_accesses: float = 0.0
    indirect_bytes: float = 0.0
    has_indirect_inc: bool = False

    @property
    def bytes_per_point(self) -> float:
        return self.bytes / self.points if self.points else 0.0

    @property
    def flops_per_point(self) -> float:
        return self.flops / self.points if self.points else 0.0

    # ---- unstructured-dialect aliases --------------------------------

    @property
    def elements(self) -> float:
        return self.points

    @property
    def bytes_per_elem(self) -> float:
        return self.bytes_per_point

    @property
    def flops_per_elem(self) -> float:
        return self.flops_per_point

    @property
    def indirect_per_elem(self) -> float:
        return self.indirect_accesses / self.points if self.points else 0.0


class TrafficLedger:
    """Per-context accumulator of :class:`LoopTraffic` records.

    ``dialect`` ("ops"/"op2") only resolves the one asymmetry the two
    absorbed record types carried — which argument's dtype a mixed-width
    loop reports — and the vocabulary of derived specs; all byte/flop
    arithmetic is shared.
    """

    def __init__(self, dialect: str) -> None:
        self.dialect = dialect
        self.records: dict[str, LoopTraffic] = {}
        self.loop_order: list[str] = []

    def record(self, plan: KernelPlan) -> float:
        """Fold one invocation into its loop's record; returns the
        invocation's byte count (consumed by the kernel span)."""
        rec = self.records.get(plan.name)
        if rec is None:
            rec = LoopTraffic(plan.name)
            self.records[plan.name] = rec
            self.loop_order.append(plan.name)
        nbytes = plan.nbytes
        rec.calls += 1
        rec.points += plan.points
        rec.bytes += nbytes
        rec.flops += plan.flops
        rec.radius = max(rec.radius, plan.read_radius)
        rec.streams = max(rec.streams, plan.streams)
        rec.indirect_accesses += plan.indirect_accesses
        rec.indirect_bytes += plan.indirect_bytes
        rec.has_indirect_inc = rec.has_indirect_inc or plan.has_indirect_inc
        extents = plan.extents
        if extents and extents != rec.extents:
            if not rec.extents:
                rec.extents = extents
            else:
                rec.extents = tuple(
                    max(a, b) for a, b in zip(rec.extents, extents)
                )
        dats = plan.dat_args
        if dats:
            # Structured loops historically report the first dat's dtype,
            # unstructured ones the last — identical for homogeneous
            # loops, preserved exactly for mixed-precision ones.
            rec.dtype_bytes = (
                dats[0] if self.dialect == "ops" else dats[-1]
            ).dtype_bytes
        return nbytes

    # ------------------------------------------------------------------

    def loop_specs(
        self,
        iterations: int = 1,
        point_scale: float | tuple[float, ...] = 1.0,
        run_domain: tuple[int, ...] | None = None,
    ):
        """Per-iteration :class:`~repro.perfmodel.kernelmodel.LoopSpec`
        model inputs from the accumulated records.

        ``iterations`` divides the whole-run totals.  ``point_scale``
        extrapolates a scaled-down run to the paper's problem size: a
        scalar multiplies every loop; a per-dimension tuple (with
        ``run_domain``) scales each loop only along dimensions its range
        actually spans — boundary strips grow with the surface while
        bulk loops grow with the volume.  Unstructured records carry
        their indirect-access profile into the spec and are flagged
        non-vectorizable when they have racing increments.
        """
        from ..perfmodel.kernelmodel import LoopSpec

        out = []
        for name in self.loop_order:
            rec = self.records[name]
            if rec.points == 0:
                continue
            if isinstance(point_scale, tuple):
                if run_domain is None or not rec.extents:
                    raise ValueError(
                        "per-dimension scaling needs run_domain and extents"
                    )
                scale = 1.0
                for d, ratio in enumerate(point_scale):
                    if d < len(rec.extents) and rec.extents[d] >= 0.5 * run_domain[d]:
                        scale *= ratio
            else:
                scale = point_scale
            out.append(LoopSpec.from_traffic(rec, iterations=iterations, scale=scale))
        return out
