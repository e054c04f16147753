"""Kernel execution plans — one lowered parallel-loop invocation.

A :class:`KernelPlan` is what either DSL hands the shared instrumented
executor per ``par_loop`` call: the kernel name, the iteration size this
rank executes, the lowered :class:`~repro.ir.access.AccessDescriptor`
tuple, the author-declared flop count, and the few dialect facts the
instrumentation needs (block dimensionality and global-range extents for
structured loops, the execution scheme for unstructured ones).  All
traffic arithmetic — the per-invocation byte tally, indirect access
counts, stream width — lives here as derived properties, so neither
parloop engine carries accounting code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .access import Access, AccessDescriptor, describe

__all__ = ["KernelPlan"]


@dataclass(frozen=True)
class KernelPlan:
    """One parallel-loop invocation, lowered to the DSL-neutral IR.

    ``dialect`` names the lowering DSL (``"ops"`` structured, ``"op2"``
    unstructured) and selects the span-attribute vocabulary the executor
    emits; ``points`` is the iteration size *this rank* executes (local
    points / owned elements).  ``extents`` are the global iteration-range
    extents of a structured loop (they let the spec builder scale
    boundary strips by area); ``mode`` is ``"seq"`` for an unstructured
    loop (OP2's one execution scheme) and ``None`` for a structured one;
    ``rank`` labels the emitting rank.
    """

    name: str
    dialect: str
    points: int
    args: tuple[AccessDescriptor, ...]
    flops_per_point: float = 0.0
    ndims: int = 1
    extents: tuple[int, ...] = ()
    mode: str | None = None
    rank: int = 0

    @property
    def dat_args(self) -> tuple[AccessDescriptor, ...]:
        """The traffic-bearing (non-global) arguments."""
        return tuple(d for d in self.args if not d.is_global)

    @property
    def nbytes(self) -> float:
        """Memory traffic of this invocation — the paper's accounting:
        points x transfer width x transfers-per-access, times the map
        arity for all-slot indirect arguments."""
        total = sum(
            self.points * d.width_bytes * d.access.transfers * d.slots
            for d in self.dat_args
        )
        # The unstructured dialect has always reported float byte counts
        # (the structured one integral); span attributes keep that shape.
        return float(total) if self.dialect == "op2" else total

    @property
    def flops(self) -> float:
        return self.points * self.flops_per_point

    @property
    def read_radius(self) -> int:
        """Widest stencil any argument is read through."""
        return max((d.radius for d in self.dat_args if d.access.reads), default=0)

    @property
    def streams(self) -> int:
        """Distinct arrays touched concurrently (concurrency dilution)."""
        return len(self.dat_args)

    @property
    def indirect_accesses(self) -> float:
        """Gather/scatter accesses of this invocation."""
        return sum(self.points * d.slots for d in self.dat_args if d.is_indirect)

    @property
    def indirect_bytes(self) -> float:
        """Share of :attr:`nbytes` moved through indirect accesses."""
        return sum(
            self.points * d.width_bytes * d.access.transfers * d.slots
            for d in self.dat_args
            if d.is_indirect
        )

    @property
    def has_indirect_inc(self) -> bool:
        """Racing indirect increments (defeats auto-vectorization)."""
        return any(d.is_indirect and d.access is Access.INC for d in self.args)

    def access_summary(self) -> tuple[str, ...]:
        """The per-argument access strings for the kernel span."""
        return describe(self.args)
