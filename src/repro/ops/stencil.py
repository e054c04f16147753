"""Stencil descriptors: the set of relative offsets a kernel may touch.

A stencil is declared once and shared between loops, exactly as in OPS.
The DSL uses the stencil's radius for halo-exchange depth, for the
cache-pressure model, and to validate kernel accesses (an accessor
rejects offsets outside its declared stencil).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

__all__ = [
    "Stencil",
    "point_stencil",
    "star_stencil",
    "box_stencil",
    "S1D_0",
    "S2D_00",
    "S3D_000",
]


@dataclass(frozen=True)
class Stencil:
    """An immutable set of relative grid offsets."""

    name: str
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a stencil needs at least one point")
        ndim = len(self.points[0])
        if any(len(p) != ndim for p in self.points):
            raise ValueError("all stencil points must share dimensionality")
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"stencil {self.name!r} has duplicate points")

    @property
    def ndim(self) -> int:
        return len(self.points[0])

    @cached_property
    def radius(self) -> int:
        """Chebyshev radius: the halo depth the stencil requires (computed
        on the first read; the points are immutable)."""
        return max(max(abs(o) for o in p) for p in self.points)

    @cached_property
    def offsets(self) -> Mapping[tuple, tuple[int, ...]]:
        """Read-only map from each point to itself as a tuple of Python
        ints — the normalized form an accessor checks a kernel's offset
        in.  One hash lookup here replaces normalizing the offset and
        scanning :attr:`points` on every view (built on the first read)."""
        return MappingProxyType({p: tuple(int(o) for o in p) for p in self.points})

    def __contains__(self, offset: tuple[int, ...]) -> bool:
        return tuple(offset) in self.points

    def __len__(self) -> int:
        return len(self.points)


def point_stencil(ndim: int) -> Stencil:
    """The identity stencil (the only legal write stencil)."""
    return Stencil(f"S{ndim}D_0", ((0,) * ndim,))


def star_stencil(ndim: int, radius: int) -> Stencil:
    """Axis-aligned star of the given radius (classic FD stencils)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    pts = [(0,) * ndim]
    for d in range(ndim):
        for r in range(1, radius + 1):
            for sign in (-1, 1):
                p = [0] * ndim
                p[d] = sign * r
                pts.append(tuple(p))
    return Stencil(f"S{ndim}D_STAR{radius}", tuple(pts))


def box_stencil(ndim: int, radius: int) -> Stencil:
    """Full (2r+1)^d box."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    import itertools

    pts = tuple(itertools.product(range(-radius, radius + 1), repeat=ndim))
    return Stencil(f"S{ndim}D_BOX{radius}", pts)


#: Identity stencils, pre-built for convenience.
S1D_0 = point_stencil(1)
S2D_00 = point_stencil(2)
S3D_000 = point_stencil(3)
