"""Cartesian process grids and structured halo exchange.

The structured-mesh applications decompose their domain with "a standard
cartesian mesh decomposition ... over MPI, with ghost cell exchanges
triggered as needed before each bulk parallel computational step"
(paper Section 4).  This module provides:

- :func:`dims_create` — balanced factorization of the rank count into a
  process grid (the MPI_Dims_create algorithm), instant even at 10k+
  ranks because it prime-factorizes instead of searching divisors;
- :class:`CartGrid` — rank ↔ coordinate mapping and neighbor lookup;
- :func:`neighbor_table` — the whole grid's face-neighbor graph as flat
  arrays, built in O(nranks · ndims) (no per-rank coordinate loops);
- :func:`local_range` — block distribution of a global extent;
- :func:`exchange_halos_co` — depth-``d`` ghost-layer exchange of an
  N-d numpy array for generator programs, dimension by dimension so that
  corner ghosts arrive correctly; :func:`exchange_halos` is the same
  exchange for blocking programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm import Communicator
from .events import drive_blocking, op

__all__ = [
    "dims_create",
    "prime_factors",
    "CartGrid",
    "neighbor_table",
    "local_range",
    "exchange_halos",
    "exchange_halos_co",
]


def prime_factors(n: int) -> list[int]:
    """Prime factorization of ``n`` (ascending, with multiplicity) by
    trial division over 2 and the odd numbers up to √n — O(√n) total, so
    grid creation at 10k ranks costs microseconds even for primes."""
    if n < 1:
        raise ValueError("n must be positive")
    factors: list[int] = []
    while n % 2 == 0:
        factors.append(2)
        n //= 2
    f = 3
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 2
    if n > 1:
        factors.append(n)
    return factors


def dims_create(nranks: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nranks`` into ``ndims`` factors as evenly as possible,
    largest first — the MPI_Dims_create contract."""
    if nranks < 1 or ndims < 1:
        raise ValueError("nranks and ndims must be positive")
    dims = [1] * ndims
    # Peel each prime factor, largest first, onto the smallest dim.
    for p in sorted(prime_factors(nranks), reverse=True):
        dims[dims.index(min(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def local_range(global_n: int, parts: int, index: int) -> tuple[int, int]:
    """Block distribution of ``global_n`` items over ``parts`` owners;
    returns the half-open [start, end) of block ``index``.  The first
    ``global_n % parts`` blocks get one extra item."""
    if not (0 <= index < parts):
        raise ValueError(f"index {index} out of range for {parts} parts")
    base, extra = divmod(global_n, parts)
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return start, start + size


@dataclass(frozen=True)
class CartGrid:
    """A Cartesian process grid (row-major rank ordering, like MPI)."""

    dims: tuple[int, ...]
    periodic: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.dims):
            raise ValueError("all grid dimensions must be >= 1")
        if self.periodic is not None and len(self.periodic) != len(self.dims):
            raise ValueError("periodic flags must match dimensionality")

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def is_periodic(self, dim: int) -> bool:
        return bool(self.periodic and self.periodic[dim])

    def coords(self, rank: int) -> tuple[int, ...]:
        if not (0 <= rank < self.size):
            raise ValueError(f"rank {rank} out of range")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.ndims:
            raise ValueError("coordinate dimensionality mismatch")
        r = 0
        for c, d in zip(coords, self.dims):
            if not (0 <= c < d):
                raise ValueError(f"coordinate {coords} outside grid {self.dims}")
            r = r * d + c
        return r

    def neighbor(self, rank: int, dim: int, disp: int) -> int | None:
        """Rank displaced ``disp`` along ``dim``; None outside a
        non-periodic boundary."""
        coords = list(self.coords(rank))
        c = coords[dim] + disp
        if self.is_periodic(dim):
            c %= self.dims[dim]
        elif not (0 <= c < self.dims[dim]):
            return None
        coords[dim] = c
        return self.rank(tuple(coords))

    def neighbors(self, rank: int) -> dict[tuple[int, int], int]:
        """All face neighbors as {(dim, ±1): rank}."""
        out = {}
        for dim in range(self.ndims):
            for disp in (-1, 1):
                n = self.neighbor(rank, dim, disp)
                if n is not None:
                    out[(dim, disp)] = n
        return out


def neighbor_table(grid: CartGrid) -> dict[tuple[int, int], np.ndarray]:
    """Face-neighbor graph of the whole grid as flat arrays.

    Returns ``{(dim, ±1): neighbors}`` where ``neighbors[r]`` is the rank
    displaced ±1 along ``dim`` from rank ``r``, or ``-1`` outside a
    non-periodic boundary.  Built with vectorized index arithmetic — one
    O(nranks) pass per (dim, disp), so a 4096-rank 3-d grid costs six
    small array ops instead of ~25k ``coords``/``rank`` round-trips.
    """
    size = grid.size
    ranks = np.arange(size, dtype=np.int64)
    # Row-major strides: stride[d] = prod(dims[d+1:]).
    strides = np.ones(grid.ndims, dtype=np.int64)
    for d in range(grid.ndims - 2, -1, -1):
        strides[d] = strides[d + 1] * grid.dims[d + 1]
    table: dict[tuple[int, int], np.ndarray] = {}
    for dim in range(grid.ndims):
        extent = grid.dims[dim]
        coord = (ranks // strides[dim]) % extent
        for disp in (-1, 1):
            shifted = coord + disp
            if grid.is_periodic(dim):
                wrapped = shifted % extent
                table[(dim, disp)] = ranks + (wrapped - coord) * strides[dim]
            else:
                nbr = ranks + disp * strides[dim]
                valid = (shifted >= 0) & (shifted < extent)
                table[(dim, disp)] = np.where(valid, nbr, -1)
    return table


def _face_slices(shape: tuple[int, ...], dim: int, depth: int):
    """Send/recv slab slices for one dimension of a halo'd array.

    Returns (send_low, recv_low, send_high, recv_high): the interior slab
    adjacent to each ghost region and the ghost region itself.
    """
    full = [slice(None)] * len(shape)
    send_low = list(full)
    send_low[dim] = slice(depth, 2 * depth)
    recv_low = list(full)
    recv_low[dim] = slice(0, depth)
    send_high = list(full)
    send_high[dim] = slice(shape[dim] - 2 * depth, shape[dim] - depth)
    recv_high = list(full)
    recv_high[dim] = slice(shape[dim] - depth, shape[dim])
    return tuple(send_low), tuple(recv_low), tuple(send_high), tuple(recv_high)


def exchange_halos(
    comm: Communicator,
    grid: CartGrid,
    local: np.ndarray,
    depth: int,
    tag_base: int = 1000,
) -> None:
    """Blocking form of :func:`exchange_halos_co`, for plain-callable
    programs: the same messages, sent through the Communicator verbs."""
    drive_blocking(comm, exchange_halos_co(comm, grid, local, depth, tag_base))


def exchange_halos_co(
    comm: Communicator,
    grid: CartGrid,
    local: np.ndarray,
    depth: int,
    tag_base: int = 1000,
):
    """Exchange depth-``depth`` ghost layers of ``local`` with Cartesian
    neighbors, in place, from a generator program
    (``yield from exchange_halos_co(comm, grid, u, 1)``).

    ``local`` must include the ghost layers (shape = interior + 2*depth in
    every decomposed dimension).  Dimensions are exchanged one at a time,
    so corner/edge ghosts are correct after the full sweep.  Boundaries of
    a non-periodic grid are left untouched (the application applies its
    physical boundary condition there).
    """
    if depth < 1:
        raise ValueError("halo depth must be >= 1")
    if local.ndim != grid.ndims:
        raise ValueError("array dimensionality must match grid")
    rank = comm.rank
    for dim in range(grid.ndims):
        if local.shape[dim] < 3 * depth:
            raise ValueError(
                f"local extent {local.shape[dim]} too small for depth {depth} halos"
            )
        lo = grid.neighbor(rank, dim, -1)
        hi = grid.neighbor(rank, dim, +1)
        s_lo, r_lo, s_hi, r_hi = _face_slices(local.shape, dim, depth)
        tag_down = tag_base + 2 * dim
        tag_up = tag_base + 2 * dim + 1
        reqs = []
        if lo is not None:
            reqs.append((yield op.irecv(
                lo, tag_up, buffer=np.ascontiguousarray(local[r_lo]), comm=comm)))
        if hi is not None:
            reqs.append((yield op.irecv(
                hi, tag_down, buffer=np.ascontiguousarray(local[r_hi]), comm=comm)))
        if lo is not None:
            yield op.isend(np.ascontiguousarray(local[s_lo]), lo, tag_down, comm=comm)
        if hi is not None:
            yield op.isend(np.ascontiguousarray(local[s_hi]), hi, tag_up, comm=comm)
        # Complete receives and write the ghost slabs back (the irecv
        # buffers are contiguous copies because slabs are strided views).
        results = yield op.waitall(reqs, comm=comm)
        idx = 0
        if lo is not None:
            local[r_lo] = results[idx]
            idx += 1
        if hi is not None:
            local[r_hi] = results[idx]
