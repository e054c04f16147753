"""DSL-neutral access descriptors — the leaves of the kernel IR.

Both mesh DSLs describe *how* a kernel touches each argument: the
structured DSL (:mod:`repro.ops`) with dat/stencil/access triples, the
unstructured one (:mod:`repro.op2`) with dat/map/index/access tuples.
The performance accounting they drive is identical — the paper's one
scheme, "estimated ... based on the iteration ranges, datasets accessed,
and types of access" (Sec. 6) — so the IR reduces both to one record:
an :class:`AccessDescriptor` carrying the argument's name, access mode,
per-transfer width, stencil radius (structured) and gather map
(unstructured).  Everything downstream — byte tallies, trace access
strings, :class:`~repro.perfmodel.kernelmodel.LoopSpec` construction —
reads descriptors, never DSL argument objects.

The :class:`Access` enum is canonical here; :mod:`repro.ops.access`
re-exports it for the DSL-facing API (and :mod:`repro.op2` re-exports it
from there), so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Access", "AccessDescriptor", "describe"]


#: Per access mode: (reads, writes, memory transfers charged per point
#: — OPS's Fig-8 accounting).  Global reductions (min/max) move nothing.
_PROFILE = {
    "read": (True, False, 1),
    "write": (False, True, 1),
    "rw": (True, True, 2),
    "inc": (True, True, 2),
    "min": (False, False, 0),
    "max": (False, False, 0),
}


class Access(Enum):
    """How a kernel touches an argument.  ``reads``, ``writes`` and
    ``transfers`` are plain member attributes, read from ``_PROFILE``
    once when the member is created (every loop argument consults them)."""

    READ = "read"
    WRITE = "write"
    RW = "rw"
    INC = "inc"
    MIN = "min"  # global reductions only
    MAX = "max"  # global reductions only

    def __init__(self, value: str) -> None:
        self.reads, self.writes, self.transfers = _PROFILE[value]


@dataclass(frozen=True)
class AccessDescriptor:
    """One kernel argument's access profile, stripped of DSL objects.

    Attributes
    ----------
    name:
        Dataset name (``"gbl"`` for globals, by convention).
    access:
        How the kernel touches it (drives the transfer count).
    is_global:
        Global parameter/reduction — exempt from traffic accounting.
    width_bytes:
        Bytes moved per element transfer: ``dim * dtype_bytes`` for
        unstructured dats, the scalar ``dtype_bytes`` for structured.
    dtype_bytes:
        Element size (4 = single precision, 8 = double).
    radius:
        Stencil radius the argument is read through (structured only).
    map_name, map_arity, map_index:
        Gather map of an indirect (unstructured) argument; ``map_index``
        None with a map means *all* arity slots are touched per element.
    """

    name: str
    access: Access
    is_global: bool = False
    width_bytes: int = 8
    dtype_bytes: int = 8
    radius: int = 0
    map_name: str | None = None
    map_arity: int = 1
    map_index: int | None = None

    @property
    def is_indirect(self) -> bool:
        return self.map_name is not None

    @property
    def slots(self) -> int:
        """Map slots touched per element (1 for direct/structured)."""
        if self.is_indirect and self.map_index is None:
            return self.map_arity
        return 1

    @property
    def bytes_per_point(self) -> float:
        """Traffic this argument charges per iteration point."""
        if self.is_global:
            return 0
        return self.width_bytes * self.access.transfers * self.slots

    def describe(self) -> str:
        """The compact access string the tracer attaches to kernel spans.

        Format (unchanged from the pre-IR per-DSL helpers):
        ``"gbl:inc"`` for globals, ``"q@e2c[0]:read"`` for indirect
        arguments (``*`` = all slots), ``"u:read/r1"`` for structured
        reads through a radius-1 stencil, ``"u:write"`` otherwise.
        """
        if self.is_global:
            return f"gbl:{self.access.value}"
        if self.is_indirect:
            slot = "*" if self.map_index is None else str(self.map_index)
            return f"{self.name}@{self.map_name}[{slot}]:{self.access.value}"
        desc = f"{self.name}:{self.access.value}"
        if self.radius > 0:
            desc += f"/r{self.radius}"
        return desc


def describe(descriptors) -> tuple[str, ...]:
    """Per-argument access summary of a descriptor sequence — the single
    implementation behind ``ops.parloop.describe_access`` and
    ``op2.parloop.describe_args``."""
    return tuple(d.describe() for d in descriptors)
