"""Distributed OP2: owner-compute decomposition with halo exchange.

Implements the paper's Section 4 scheme for unstructured meshes: elements
of every set are assigned to ranks by a partitioner
(:mod:`repro.op2.partition`); each rank executes loops over the source
elements it owns, *importing* a halo of off-rank target elements for
reads and *exporting* increment contributions back to their owners after
indirect-INC loops.

:class:`DistOp2Context` subclasses :class:`~repro.op2.parloop.Op2Context`
and overrides the declaration factories, so an application written once
against the context API runs serially or distributed without change —
tests assert both paths agree to fp-reduction tolerance.

Internals per global set: an *exec* set (this rank's owned elements, the
iteration space) and a *storage* set (owned elements followed by halo
imports — what dats are allocated on).  Declaration calls are collective:
every rank must declare the same sets/maps/dats in the same order (the
halo negotiation allgathers import requests).  Declare all maps of a set
before its dats, since maps grow the halo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ops.access import Access
from ..simmpi.comm import Communicator
from .mesh import Dat, Map, Set
from .parloop import Arg, Op2Context

__all__ = ["DistOp2Context"]


@dataclass
class _LocalSet:
    """Localization of one global set on one rank."""

    gset: Set
    exec_set: Set  # owned elements: the iteration space
    storage_set: Set  # owned + halo: what dats live on
    parts: np.ndarray  # global element -> owner rank
    owned: np.ndarray  # global ids of owned elements
    halo: np.ndarray  # global ids of imported elements (storage order)
    g2l: dict[int, int]
    imports: dict[int, np.ndarray] = field(default_factory=dict)  # src -> local idx
    exports: dict[int, np.ndarray] = field(default_factory=dict)  # dst -> local idx
    has_dats: bool = False

    @property
    def n_owned(self) -> int:
        return len(self.owned)


class DistOp2Context(Op2Context):
    """Owner-compute distributed execution of OP2 loops (module docstring)."""

    def __init__(
        self,
        comm: Communicator,
        partitions: dict[str, np.ndarray] | None = None,
        timing=None,
    ) -> None:
        super().__init__(timing=timing)
        self.comm = comm
        self.partitions = dict(partitions or {})
        self._locals: dict[int, _LocalSet] = {}  # by id(global set)
        self._dats: dict[int, tuple[Dat, _LocalSet]] = {}  # by id(local dat)
        self._dirty: set[int] = set()
        #: Dats whose halo rows currently mirror owner values (filled by
        #: initialization or a read-exchange) rather than being zeroed
        #: increment scratch.
        self._halo_filled: set[int] = set()

    # ---- declaration factories ---------------------------------------

    def set(self, name: str, size: int) -> Set:
        gset = Set(name, size)
        parts = self.partitions.get(name)
        if parts is None:
            parts = np.minimum(
                np.arange(size) * self.comm.size // max(size, 1),
                self.comm.size - 1,
            )
        parts = np.asarray(parts, dtype=np.int64)
        if parts.shape != (size,):
            raise ValueError(f"partition for set {name!r} must have {size} entries")
        if parts.size and (parts.min() < 0 or parts.max() >= self.comm.size):
            raise ValueError(f"partition for set {name!r} names invalid ranks")
        owned = np.nonzero(parts == self.comm.rank)[0]
        ls = _LocalSet(
            gset=gset,
            exec_set=Set(name, len(owned)),
            storage_set=Set(name + "+halo", len(owned)),
            parts=parts,
            owned=owned,
            halo=np.empty(0, dtype=np.int64),
            g2l={int(g): i for i, g in enumerate(owned)},
        )
        self._locals[id(gset)] = ls
        return gset

    def map(self, name: str, from_set: Set, to_set: Set, values: np.ndarray) -> Map:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim == 1:
            values = values[:, None]
        src = self._require_local(from_set, name)
        dst = self._require_local(to_set, name)
        if values.shape[0] != from_set.size:
            raise ValueError(f"map {name!r}: values must have {from_set.size} rows")
        needed = np.unique(values[src.owned].reshape(-1)) if src.owned.size else np.empty(0, np.int64)
        missing = np.array([g for g in needed if int(g) not in dst.g2l], dtype=np.int64)
        # Collective: every rank participates in the halo negotiation even
        # when it has nothing new to import.
        self._extend_halo(dst, missing)
        if src.owned.size:
            lookup = dst.g2l
            local_vals = np.array(
                [[lookup[int(g)] for g in row] for row in values[src.owned]],
                dtype=np.int64,
            )
        else:
            local_vals = np.empty((0, values.shape[1]), dtype=np.int64)
        return Map(name, src.exec_set, dst.storage_set, local_vals)

    def dat(self, dset: Set, dim: int, name: str, dtype=np.float64,
            data: np.ndarray | None = None) -> Dat:
        ls = self._require_local(dset, name)
        ls.has_dats = True
        local = Dat(ls.storage_set, dim, name, dtype)
        self.state_bytes += ls.gset.size * dim * local.dtype_bytes
        if data is not None:
            data = np.asarray(data, dtype=local.dtype)
            if data.ndim == 1:
                data = data[:, None]
            if data.shape[0] != ls.gset.size:
                raise ValueError(f"dat {name!r}: global data must have {ls.gset.size} rows")
            idx = np.concatenate([ls.owned, ls.halo]).astype(np.int64)
            local.data[...] = data[idx]
            self._halo_filled.add(id(local))
        self._dats[id(local)] = (local, ls)
        return local

    def _require_local(self, gset: Set, what: str) -> _LocalSet:
        try:
            return self._locals[id(gset)]
        except KeyError:
            raise ValueError(
                f"{what!r}: set {gset.name!r} was not declared through this context"
            ) from None

    def _extend_halo(self, ls: _LocalSet, new_globals: np.ndarray) -> None:
        if ls.has_dats and new_globals.size:
            raise RuntimeError(
                f"set {ls.gset.name!r}: declare all maps before dats "
                "(a later map would grow the halo under existing dats)"
            )
        start = ls.storage_set.size
        ls.halo = np.concatenate([ls.halo, new_globals])
        for i, g in enumerate(new_globals):
            ls.g2l[int(g)] = start + i
        ls.storage_set.size = ls.n_owned + len(ls.halo)
        self._rebuild_exchange_lists(ls)

    def _rebuild_exchange_lists(self, ls: _LocalSet) -> None:
        # imports: halo elements grouped by owner, ordered by global id so
        # they align with the owner's (also global-id-ordered) exports.
        ls.imports = {}
        order = np.argsort(ls.halo, kind="stable")
        for i in order:
            owner = int(ls.parts[ls.halo[i]])
            ls.imports.setdefault(owner, []).append(ls.n_owned + int(i))
        ls.imports = {r: np.asarray(v, dtype=np.int64) for r, v in ls.imports.items()}
        # Every rank announces the globals it imports (collective).
        wanted = self.comm.allgather(sorted(int(g) for g in ls.halo))
        ls.exports = {}
        for r, want in enumerate(wanted):
            if r == self.comm.rank:
                continue
            mine = [ls.g2l[g] for g in want if int(ls.parts[g]) == self.comm.rank]
            if mine:
                ls.exports[r] = np.asarray(mine, dtype=np.int64)

    # ---- hooks into the base executor ------------------------------------

    def _resolve_iterset(self, iterset: Set) -> Set:
        ls = self._locals.get(id(iterset))
        return ls.exec_set if ls is not None else iterset

    def _direct_set_ok(self, dat: Dat, iterset: Set) -> bool:
        # Direct dats live on the storage set whose owned prefix is the
        # exec set; matching names identify the pair.
        return dat.set.name == iterset.name + "+halo" or dat.set is iterset

    # ---- halo coherence -------------------------------------------------

    def _exchange_halo(self, dat: Dat) -> None:
        """Import fresh owned values from neighbor ranks into halo rows."""
        _, ls = self._dats[id(dat)]
        reqs = [(src, self.comm.irecv(src, tag=101)) for src in sorted(ls.imports)]
        for dst in sorted(ls.exports):
            self.comm.isend(dat.data[ls.exports[dst]], dst, tag=101)
        for src, req in reqs:
            dat.data[ls.imports[src]] = self.comm.wait(req)
        self._halo_filled.add(id(dat))

    def _flush_increments(self, dat: Dat, assign: bool = False) -> None:
        """Send halo-row contributions back to their owners (add, or
        assign for indirect writes) and clear the local halo rows."""
        _, ls = self._dats[id(dat)]
        reqs = [(src, self.comm.irecv(src, tag=102)) for src in sorted(ls.exports)]
        for dst in sorted(ls.imports):
            self.comm.isend(dat.data[ls.imports[dst]], dst, tag=102)
            dat.data[ls.imports[dst]] = 0.0
        self._halo_filled.discard(id(dat))
        for src, req in reqs:
            vals = self.comm.wait(req)
            if assign:
                dat.data[ls.exports[src]] = vals
            else:
                dat.data[ls.exports[src]] += vals

    # ---- execution ------------------------------------------------------

    def par_loop(self, kernel, name: str, iterset: Set, *args: Arg,
                 flops_per_elem: float = 0.0) -> None:
        for a in args:
            # Refresh halos for indirect READ/RW arguments.  INC must NOT
            # import: its halo rows are zero-initialized accumulators, and
            # importing owner values would double-count them at the next
            # flush (OP2's exec-halo works the same way).
            if (
                a.is_indirect
                and a.access in (Access.READ, Access.RW)
                and id(a.dat) in self._dirty
            ):
                self._exchange_halo(a.dat)
                self._dirty.discard(id(a.dat))
        for a in args:
            # INC halo rows are accumulation scratch: zero them if a read
            # exchange (or initialization) left owner copies there, else
            # the flush would return those values to their owner twice.
            if (
                a.is_indirect
                and a.access is Access.INC
                and id(a.dat) in self._halo_filled
            ):
                _, ls = self._dats[id(a.dat)]
                a.dat.data[ls.n_owned:] = 0.0
                self._halo_filled.discard(id(a.dat))
        super().par_loop(kernel, name, iterset, *args, flops_per_elem=flops_per_elem)
        for a in args:
            if a.is_indirect and a.access is Access.INC:
                self._flush_increments(a.dat)
                self._dirty.add(id(a.dat))
            elif a.is_indirect and a.access.writes:
                self._flush_increments(a.dat, assign=True)
                self._dirty.add(id(a.dat))
            elif a.dat is not None and a.access.writes:
                self._dirty.add(id(a.dat))

    def _finish_global(self, a: Arg, buf: np.ndarray) -> None:
        if a.access is Access.READ:
            return
        op = {"inc": "sum", "min": "min", "max": "max"}[a.access.value]
        total = self.comm.allreduce(buf, op=op)
        if a.access is Access.INC:
            a.glob.value += total
        elif a.access is Access.MIN:
            np.minimum(a.glob.value, total, out=a.glob.value)
        else:
            np.maximum(a.glob.value, total, out=a.glob.value)
        self.reduction_count += 1

    # ---- verification helpers -------------------------------------------

    def gather_dat(self, dat: Dat) -> np.ndarray | None:
        """Assemble the global owned values of a dat on rank 0."""
        _, ls = self._dats[id(dat)]
        pieces = self.comm.gather((ls.owned, dat.data[: ls.n_owned].copy()), root=0)
        if pieces is None:
            return None
        out = np.zeros((ls.gset.size, dat.dim), dtype=dat.dtype)
        for owned, chunk in pieces:
            out[owned] = chunk
        return out
