"""Accessors and the execution engine of structured parallel loops.

Kernels are plain Python functions receiving one accessor per argument.
A dat accessor is indexed with *relative stencil offsets* and returns a
numpy view over the whole iteration range — so kernels are written
point-wise but execute vectorized:

    def advance(u_new, u, c):
        u_new[0, 0] = u[0, 0] + c[0] * (u[1, 0] + u[-1, 0] - 2 * u[0, 0])

Accessors enforce the declared access modes: reading through a WRITE-only
accessor, writing through READ, or using an offset outside the declared
stencil all raise immediately.  Global accessors expose ``.val`` for READ
and accumulate INC/MIN/MAX contributions for reductions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ir.access import AccessDescriptor, describe
from .access import Access, ArgDat, ArgGbl
from .block import Dat

__all__ = [
    "DatAccessor", "GblAccessor", "execution_view", "lower_access",
    "describe_access",
]


#: Interned descriptors: one per dat (name, element width), access mode
#: and stencil radius, and one per access mode for globals.  Descriptors
#: are immutable, so every invocation of a loop shares its arguments';
#: the table grows with a program's distinct dat names only.
_DAT_DESCRIPTORS: dict[tuple, AccessDescriptor] = {}
_GBL_DESCRIPTORS = {
    acc: AccessDescriptor(name="gbl", access=acc, is_global=True) for acc in Access
}


def lower_access(args) -> tuple[AccessDescriptor, ...]:
    """Lower structured-loop arguments to DSL-neutral IR descriptors.

    One :class:`~repro.ir.access.AccessDescriptor` per argument: dats
    carry their name, scalar element width and the stencil radius they
    are accessed through; globals lower to traffic-exempt ``"gbl"``
    entries.  Everything downstream of the engine — byte accounting,
    spec construction, trace access strings — consumes these, never the
    ``ArgDat``/``ArgGbl`` objects.  Equal arguments lower to one
    interned descriptor.
    """
    out = []
    for a in args:
        if isinstance(a, ArgDat):
            dat, radius = a.dat, a.stencil.radius
            key = (dat.name, dat.dtype_bytes, a.access, radius)
            desc = _DAT_DESCRIPTORS.get(key)
            if desc is None:
                desc = _DAT_DESCRIPTORS.setdefault(key, AccessDescriptor(
                    name=dat.name,
                    access=a.access,
                    width_bytes=dat.dtype_bytes,
                    dtype_bytes=dat.dtype_bytes,
                    radius=radius,
                ))
            out.append(desc)
        else:
            out.append(_GBL_DESCRIPTORS[a.access])
    return tuple(out)


def describe_access(args) -> tuple[str, ...]:
    """Compact per-argument access summary for tracing/diagnostics.

    One entry per loop argument: ``"u:read/r1"`` (dat ``u``, READ through
    a radius-1 stencil) or ``"gbl:inc"`` for globals — the access-mode
    attribute the observability layer attaches to every kernel span.
    Kept as the DSL-facing name for :func:`repro.ir.access.describe`
    over the lowered arguments.
    """
    return describe(lower_access(args))


def _normalize_offset(offset, ndim: int) -> tuple[int, ...]:
    if isinstance(offset, (int, np.integer)):
        off = (int(offset),)
    else:
        off = tuple(int(o) for o in offset)
    if len(off) != ndim:
        raise IndexError(f"offset {offset!r} has wrong dimensionality (need {ndim})")
    return off


def _point(stencil, offset) -> tuple[int, ...] | None:
    """``offset`` normalized, if it is one of ``stencil``'s points as
    given; None for any other offset or offset type."""
    try:
        return stencil.offsets[offset]
    except (KeyError, TypeError):  # not a point, or unhashable
        return None


class DatAccessor:
    """Kernel-side handle for one dat argument over one iteration range."""

    __slots__ = ("_dat", "_arg", "_base", "_extent")

    def __init__(self, arg: ArgDat, base: tuple[int, ...], extent: tuple[int, ...]) -> None:
        self._dat = arg.dat
        self._arg = arg
        self._base = base
        self._extent = extent

    def _view(self, off: tuple[int, ...]) -> np.ndarray:
        data = self._dat.data
        idx = []
        for b, o, n, size in zip(self._base, off, self._extent, data.shape):
            start = b + o
            if start < 0 or start + n > size:
                raise IndexError(
                    f"{self._dat.name}: offset {off} reaches outside local "
                    f"storage in dim {len(idx)} (halo {self._dat.halo})"
                )
            idx.append(slice(start, start + n))
        return data[tuple(idx)]

    def __getitem__(self, offset) -> np.ndarray:
        # Offset 0 of a WRITE arg returns the (about to be overwritten)
        # view, so that ``a[0,0] = ...`` works via __setitem__; direct
        # reads of stale data are the kernel's responsibility, as in OPS.
        stencil = self._arg.stencil
        off = _point(stencil, offset)
        if off is None:
            off = _normalize_offset(offset, self._dat.block.ndim)
            if off not in stencil:
                raise IndexError(
                    f"{self._dat.name}: offset {off} not in stencil "
                    f"{stencil.name}"
                )
        if not self._arg.access.reads and any(off):
            raise PermissionError(
                f"{self._dat.name} is WRITE-only; only offset 0 may be assigned"
            )
        return self._view(off)

    def __setitem__(self, offset, value) -> None:
        off = _point(self._arg.stencil, offset)
        if off is None:
            off = _normalize_offset(offset, self._dat.block.ndim)
        if not self._arg.access.writes:
            raise PermissionError(f"{self._dat.name} is READ-only in this loop")
        if any(off):
            raise PermissionError(
                f"{self._dat.name}: writes must target offset 0 (got {off})"
            )
        # Plain assignment for every write mode: INC kernels use the
        # ``a[0,0] += x`` idiom, which reads the view, adds in a temporary
        # and assigns back — incrementing through __setitem__ here would
        # double-apply the increment.
        view = self._view(off)
        view[...] = value

    @property
    def extent(self) -> tuple[int, ...]:
        """Shape of the iteration range (for kernels needing coordinates)."""
        return self._extent


class GblAccessor:
    """Kernel-side handle for a global argument.

    READ: ``g.val`` is the (copied) value.  Reductions: ``g.acc`` is a
    zero/identity-initialized accumulator the kernel updates in place;
    the runtime combines accumulators across ranks afterwards.
    """

    __slots__ = ("_arg", "acc")

    def __init__(self, arg: ArgGbl) -> None:
        self._arg = arg
        if arg.access is Access.READ:
            self.acc = arg.value.copy()
            self.acc.setflags(write=False)
        elif arg.access is Access.INC:
            self.acc = np.zeros_like(arg.value)
        elif arg.access is Access.MIN:
            self.acc = np.full_like(arg.value, np.inf)
        elif arg.access is Access.MAX:
            self.acc = np.full_like(arg.value, -np.inf)
        else:  # pragma: no cover - rejected by ArgGbl
            raise ValueError(arg.access)

    @property
    def val(self) -> np.ndarray:
        return self.acc

    def __getitem__(self, idx):
        return self.acc[idx]

    def __setitem__(self, idx, value) -> None:
        if self._arg.access is Access.READ:
            raise PermissionError("global is READ-only in this loop")
        self.acc[idx] = value


def execution_view(
    dat: Dat, rng: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Translate a global-coordinate range to (base local index, extent)
    for one dat, validating that local storage covers it."""
    base = []
    extent = []
    for d, (lo, hi) in enumerate(rng):
        s, _ = dat.block.owned[d]
        b = lo - s + dat.halo
        n = hi - lo
        if b < 0 or b + n > dat.data.shape[d]:
            raise IndexError(
                f"{dat.name}: range [{lo},{hi}) (dim {d}) exceeds local "
                f"storage with halo {dat.halo}"
            )
        base.append(b)
        extent.append(n)
    return tuple(base), tuple(extent)
