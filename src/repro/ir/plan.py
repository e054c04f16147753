"""Kernel execution plans — one lowered parallel-loop invocation.

A :class:`KernelPlan` is what either DSL hands the shared instrumented
executor per ``par_loop`` call: the kernel name, the iteration size this
rank executes, the lowered :class:`~repro.ir.access.AccessDescriptor`
tuple, the author-declared flop count, and the few dialect facts the
instrumentation needs (block dimensionality and global-range extents for
structured loops, the execution scheme for unstructured ones).  All
traffic arithmetic — the per-invocation byte tally, indirect access
counts, stream width — lives here as derived properties, so neither
parloop engine carries accounting code of its own.  The properties read
one tally, computed in a single pass over the arguments when the plan
is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .access import Access, AccessDescriptor, describe

__all__ = ["KernelPlan"]


class _Tally(NamedTuple):
    """Everything :class:`KernelPlan`'s traffic properties report."""

    dats: tuple[AccessDescriptor, ...]
    nbytes: int
    read_radius: int
    indirect_accesses: int
    indirect_bytes: int
    has_indirect_inc: bool


def _tally(points: int, args: tuple[AccessDescriptor, ...]) -> _Tally:
    """One pass over ``args``; the sums keep the per-argument order and
    the integer types of the properties' definitions."""
    dats = []
    nbytes = indirect_accesses = indirect_bytes = 0
    read_radius = None
    has_indirect_inc = False
    for d in args:
        indirect = d.is_indirect
        if indirect and d.access is Access.INC:
            has_indirect_inc = True
        if d.is_global:
            continue
        dats.append(d)
        slots = d.slots
        moved = points * d.width_bytes * d.access.transfers * slots
        nbytes += moved
        if indirect:
            indirect_accesses += points * slots
            indirect_bytes += moved
        if d.access.reads and (read_radius is None or d.radius > read_radius):
            read_radius = d.radius
    return _Tally(
        tuple(dats), nbytes, 0 if read_radius is None else read_radius,
        indirect_accesses, indirect_bytes, has_indirect_inc,
    )


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

    def __post_init__(self) -> None:
        # Every plan is recorded, and recording reads every traffic
        # property: tally them once, here (the dataclass is frozen).
        object.__setattr__(self, "_tally", _tally(self.points, self.args))

    @property
    def dat_args(self) -> tuple[AccessDescriptor, ...]:
        """The traffic-bearing (non-global) arguments."""
        return self._tally.dats

    @property
    def nbytes(self) -> float:
        """Memory traffic of this invocation — the paper's accounting:
        points x transfer width x transfers-per-access, times the map
        arity for all-slot indirect arguments."""
        # The unstructured dialect has always reported float byte counts
        # (the structured one integral); span attributes keep that shape.
        total = self._tally.nbytes
        return float(total) if self.dialect == "op2" else total

    @property
    def flops(self) -> float:
        return self.points * self.flops_per_point

    @property
    def read_radius(self) -> int:
        """Widest stencil any argument is read through."""
        return self._tally.read_radius

    @property
    def streams(self) -> int:
        """Distinct arrays touched concurrently (concurrency dilution)."""
        return len(self._tally.dats)

    @property
    def indirect_accesses(self) -> float:
        """Gather/scatter accesses of this invocation."""
        return self._tally.indirect_accesses

    @property
    def indirect_bytes(self) -> float:
        """Share of :attr:`nbytes` moved through indirect accesses."""
        return self._tally.indirect_bytes

    @property
    def has_indirect_inc(self) -> bool:
        """Racing indirect increments (defeats auto-vectorization)."""
        return self._tally.has_indirect_inc

    def access_summary(self) -> tuple[str, ...]:
        """The per-argument access strings for the kernel span."""
        return describe(self.args)
