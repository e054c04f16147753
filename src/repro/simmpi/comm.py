"""Deterministic in-process simulated MPI with virtual time.

:class:`World` runs an SPMD ``program(comm, *args)`` on ``nranks`` ranks
under one scheduler, the virtual-clock event loop of
:mod:`repro.simmpi.events` (see ``docs/SIMMPI.md`` for the full
contract).  A program comes in one of two styles:

- a *generator* that yields :class:`~repro.simmpi.events.MpiOp`
  descriptors; the loop drives it directly, on no thread of its own;
- a *plain callable* that calls the blocking :class:`Communicator`
  verbs; it runs on its own rank thread, each verb is one ``MpiOp`` that
  the loop's step executes on that thread, and the thread parks until
  the loop resumes it whenever the rank blocks or a lower clock should
  run first.

Either way the loop runs the lowest-clock runnable rank next (ties
broken by rank id) and executes every op with the same handlers, over
the same accounting (:meth:`Communicator._isend`,
:meth:`World._try_complete_recv`, :meth:`World._complete_collective`),
so the two styles of one program give the same results and
bit-identical per-rank virtual clocks.

Virtual time: ranks advance their own :class:`~repro.simmpi.clock.VirtualClock`
for compute via :meth:`Communicator.compute`; communication calls charge
MPI time through the world's :class:`~repro.simmpi.clock.CostModel`.  The
per-rank busy/MPI split is what the paper's Figure 7 reports via
``MPI_Wait`` timing.

Semantics implemented: blocking/nonblocking point-to-point with tag and
ANY_SOURCE/ANY_TAG matching (FIFO per channel), ``sendrecv``,
``waitany``, barrier, broadcast, reduce/allreduce (sum/min/max),
gather/allgather/scatter/alltoall, communicator ``split`` (sub-groups
with isolated message contexts), and deadlock detection with a state
dump bounded at large worlds.
"""

from __future__ import annotations

import copy as _copy
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .clock import CostModel, VirtualClock, ZeroCostModel

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Status",
    "Request",
    "Communicator",
    "World",
    "DeadlockError",
    "CollectiveMismatchError",
    "RankFailedError",
]

ANY_SOURCE = -1
ANY_TAG = -1


class DeadlockError(RuntimeError):
    """No rank can make progress and at least one has not finished."""


class CollectiveMismatchError(RuntimeError):
    """Ranks disagree on which collective they are executing."""


class RankFailedError(RuntimeError):
    """A rank's program raised; carries the original exception."""

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} raised {type(original).__name__}: {original}")
        self.rank = rank
        self.original = original


@dataclass(frozen=True)
class Status:
    """Completion information of a receive."""

    source: int
    tag: int
    nbytes: int


def _payload_copy(data: Any) -> tuple[Any, int]:
    """Copy a message payload, returning (copy, size-in-bytes)."""
    if isinstance(data, np.ndarray):
        return data.copy(), data.nbytes
    if np.isscalar(data):
        return data, 8
    cp = _copy.deepcopy(data)
    return cp, 64  # nominal size for small pickled objects


@dataclass
class _Message:
    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float


class Request:
    """Handle for a nonblocking operation; complete with
    :meth:`Communicator.wait` / :meth:`Communicator.waitall`."""

    def __init__(self, kind: str, owner: int, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                 buffer: np.ndarray | None = None) -> None:
        self.kind = kind  # 'send' | 'recv'
        self.owner = owner
        self.src = src
        self.tag = tag
        self.buffer = buffer
        self.completed = kind == "send"  # eager sends complete at post
        self.data: Any = None
        self.status: Status | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"<Request {self.kind} owner={self.owner} src={self.src} tag={self.tag} {state}>"


@dataclass
class _BlockInfo:
    """Why a rank is blocked, consumed by the scheduler."""

    kind: str  # 'recv' | 'collective'
    request: Request | None = None
    post_time: float = 0.0
    coll_seq: int = -1
    coll_kind: str = ""
    coll_payload: Any = None
    coll_root: int = 0
    coll_op: str = ""
    coll_result: Any = None
    coll_group: tuple = ()
    coll_ctx: Any = 0
    comm: "Communicator | None" = None


@dataclass
class RankStats:
    """Per-rank traffic counters (Figure 7's raw material)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    collectives: int = 0


class Communicator:
    """Per-rank MPI-like interface. Created by :class:`World`; user
    programs receive one as their first argument.

    A communicator may be the world communicator or a sub-communicator
    created by :meth:`split`; sub-communicators share the rank's clock
    and statistics but have an isolated message context (tags do not
    cross communicators) and their own rank numbering.

    Each verb (:meth:`compute`, :meth:`isend` ... :meth:`split`) is one
    :class:`~repro.simmpi.events.MpiOp` that the event loop executes; it
    returns to the calling rank thread of a plain-callable program once
    the op has completed.  A generator program yields ``op.<verb>(...)``
    instead.
    """

    def __init__(
        self,
        world: "World",
        rank: int,
        group: tuple[int, ...] | None = None,
        ctx_id=0,
        clock: VirtualClock | None = None,
        stats: "RankStats | None" = None,
    ) -> None:
        self._world = world
        self._grank = rank  # global (world) rank
        # Member global ranks, and {global: local} for a split
        # communicator (None = the world, which maps ranks by identity),
        # built once so no per-message step costs O(world size).
        self._members = world._members if group is None else group
        self._local = None if group is None else {g: i for i, g in enumerate(group)}
        self._ctx = ctx_id
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = stats if stats is not None else RankStats()
        self._coll_seq = 0
        self._split_seq = 0

    # ---- identity ----------------------------------------------------

    @property
    def rank(self) -> int:
        return self._grank if self._local is None else self._local[self._grank]

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def group(self) -> tuple[int, ...]:
        """Global ranks of this communicator's members (the world
        communicator returns the one tuple its :class:`World` built)."""
        return self._members

    def _to_global(self, local: int) -> int:
        if not (0 <= local < len(self._members)):
            raise ValueError(f"rank {local} out of range 0..{len(self._members) - 1}")
        return self._members[local]

    def _to_local(self, global_rank: int) -> int:
        return global_rank if self._local is None else self._local[global_rank]

    def _split_result(self, data: list, color: int, seq: int) -> "Communicator | None":
        """Build the sub-communicator from an allgathered ``(color, key,
        rank)`` list — the post-collective half of the ``split`` op."""
        if color is None:
            return None
        members = sorted((k, r) for c, k, r in data if c == color)
        group = tuple(self._to_global(r) for _, r in members)
        return Communicator(
            self._world,
            self._grank,
            group=group,
            ctx_id=(self._ctx, seq, color),
            clock=self.clock,
            stats=self.stats,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator rank={self.rank}/{self.size} ctx={self._ctx}>"

    # ---- verbs ---------------------------------------------------------

    def _call(self, name: str, *args: Any) -> Any:
        loop = self._world._loop
        if loop is None:
            raise RuntimeError(f"Communicator.{name}() runs only inside World.run")
        return loop.call(self, name, args)

    def compute(self, seconds: float) -> None:
        """Advance this rank's virtual clock by a compute phase."""
        return self._call("compute", seconds)

    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking (eager/buffered) send; completes immediately."""
        return self._call("isend", data, dest, tag)

    def send(self, data: Any, dest: int, tag: int = 0) -> None:
        """Blocking send (buffered, so identical to isend+wait)."""
        return self._call("send", data, dest, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              buffer: np.ndarray | None = None) -> Request:
        """Post a nonblocking receive.  If ``buffer`` is given the payload
        is copied into it on completion, else it is returned by wait()."""
        return self._call("irecv", source, tag, buffer)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             buffer: np.ndarray | None = None) -> Any:
        """Blocking receive; returns the payload (or fills ``buffer``)."""
        return self._call("recv", source, tag, buffer)

    def sendrecv(self, senddata: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG,
                 buffer: np.ndarray | None = None) -> Any:
        """Combined send+receive (deadlock-free halo-exchange primitive)."""
        return self._call("sendrecv", senddata, dest, source, sendtag, recvtag, buffer)

    def wait(self, request: Request) -> Any:
        """Complete one request, blocking as needed; returns recv payload."""
        return self._call("wait", request)

    def waitall(self, requests: list[Request]) -> list[Any]:
        """Complete a list of requests in order; returns recv payloads."""
        return self._call("waitall", requests)

    def waitany(self, requests: list[Request]) -> tuple[int, Any]:
        """Complete (at least) one request; returns (index, payload).

        Completed requests are preferred; otherwise pending receives are
        polled in order and the first that can complete is returned,
        blocking on the first request only when none is ready (a fair
        deterministic approximation of MPI_Waitany).
        """
        return self._call("waitany", requests)

    def test(self, request: Request) -> bool:
        """Nonblocking completion test (no time charged unless completed)."""
        return self._call("test", request)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Check for a matching message without receiving it."""
        return self._call("probe", source, tag)

    def barrier(self) -> None:
        return self._call("barrier")

    def bcast(self, data: Any, root: int = 0) -> Any:
        return self._call("bcast", data, root)

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Any:
        """Reduce to root; other ranks get None."""
        return self._call("reduce", value, op, root)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        return self._call("allreduce", value, op)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        return self._call("gather", value, root)

    def allgather(self, value: Any) -> list[Any]:
        return self._call("allgather", value)

    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        return self._call("scatter", values, root)

    def alltoall(self, values: list[Any]) -> list[Any]:
        """Each rank supplies one value per peer; receives one from each
        (result[i] is what rank i sent to this rank)."""
        return self._call("alltoall", values)

    def split(self, color: int, key: int | None = None) -> "Communicator | None":
        """Collective: partition this communicator by ``color``; members
        of the same color form a new communicator ordered by ``key``
        (default: current rank).  ``color=None`` returns None (the MPI
        ``MPI_UNDEFINED`` idiom)."""
        return self._call("split", color, key)

    # ---- accounting behind the loop's op handlers ----------------------

    def _isend(self, data: Any, gdest: int, tag: int) -> Request:
        """Mail a copy of ``data`` to world rank ``gdest``, charging the
        send overhead to this rank."""
        w = self._world
        payload, nbytes = _payload_copy(data)
        self.clock.charge_mpi(w.cost_model.message_overhead(self._grank, gdest))
        msg = _Message(self._grank, gdest, tag, payload, nbytes, self.clock.now)
        w._mailboxes.setdefault((self._grank, gdest, self._ctx), deque()).append(msg)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        if self.clock.tracer is not None:
            self.clock.tracer.event(
                "mpi", "send", self.clock.now,
                track=self.clock.track or ("rank", self._grank),
                dst=gdest, tag=tag, bytes=nbytes,
            )
        return Request("send", self._grank)

    def _irecv(self, source: int, tag: int, buffer: np.ndarray | None) -> Request:
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        req = Request("recv", self._grank, gsource, tag, buffer)
        req.comm = self
        return req

    def _test(self, request: Request) -> bool:
        if request.completed:
            return True
        return self._world._try_complete_recv(self, request, post_time=self.clock.now)

    def _probe(self, source: int, tag: int) -> Status | None:
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        found = self._world._find_message(self._grank, gsource, tag, self._ctx)
        if found is None:
            return None
        _, _, msg = found
        return Status(self._to_local(msg.src), msg.tag, msg.nbytes)

    def _make_coll_info(self, kind: str, payload: Any, root: int = 0,
                        reduce_op: str = "sum") -> _BlockInfo:
        """Record entry into a collective (sequence number, stats, frozen
        payload copy)."""
        seq = self._coll_seq
        self._coll_seq += 1
        self.stats.collectives += 1
        return _BlockInfo(
            "collective",
            post_time=self.clock.now,
            coll_seq=seq,
            coll_kind=kind,
            coll_payload=_payload_copy(payload)[0] if payload is not None else None,
            coll_root=root,
            coll_op=reduce_op,
            coll_group=self.group,
            coll_ctx=self._ctx,
            comm=self,
        )


#: Blocked ranks shown verbatim at each end of a deadlock dump; larger
#: worlds are summarized (a 4096-rank deadlock must not print megabytes).
_DEADLOCK_DUMP_RANKS = 10


def _format_blocked(rank: int, info: _BlockInfo) -> str:
    if info.kind == "recv":
        req = info.request
        return (
            f"  rank {rank}: recv(source={req.src}, tag={req.tag}) "
            f"at t={info.post_time:.3e}"
        )
    return f"  rank {rank}: collective #{info.coll_seq} {info.coll_kind!r}"


def _deadlock_message(blocked: dict[int, _BlockInfo]) -> str:
    """Deadlock state dump, bounded at large worlds: every blocked rank
    up to ``2 * _DEADLOCK_DUMP_RANKS``, else the first/last 10 plus
    per-kind counts of the elided middle."""
    lines = [f"deadlock: {len(blocked)} rank(s) blocked, none can progress"]
    items = sorted(blocked.items())
    if len(items) <= 2 * _DEADLOCK_DUMP_RANKS:
        lines.extend(_format_blocked(r, info) for r, info in items)
        return "\n".join(lines)
    head = items[:_DEADLOCK_DUMP_RANKS]
    tail = items[-_DEADLOCK_DUMP_RANKS:]
    elided = items[_DEADLOCK_DUMP_RANKS:-_DEADLOCK_DUMP_RANKS]
    counts = Counter(info.kind for _, info in elided)
    summary = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    lines.extend(_format_blocked(r, info) for r, info in head)
    lines.append(f"  ... {len(elided)} more blocked rank(s) elided ({summary}) ...")
    lines.extend(_format_blocked(r, info) for r, info in tail)
    return "\n".join(lines)


class World:
    """An ``nranks``-rank simulated MPI world.

    Parameters
    ----------
    nranks:
        Number of ranks.
    cost_model:
        Prices messages and collectives;
        defaults to :class:`~repro.simmpi.clock.ZeroCostModel`.
    """

    def __init__(self, nranks: int, cost_model: CostModel | None = None) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.cost_model = cost_model or ZeroCostModel()
        self._members = tuple(range(nranks))
        self._mailboxes: dict[tuple[int, int], deque[_Message]] = {}
        self.comms = [Communicator(self, r) for r in range(nranks)]
        #: The event loop of the run in progress; None between runs.
        self._loop = None

    # ---- public API ----------------------------------------------------

    def run(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
        """Run ``program(comm, *args, **kwargs)`` on every rank; returns
        the per-rank return values.  ``program`` is a generator function
        that yields ``op`` descriptors, or a plain callable that calls the
        blocking :class:`Communicator` verbs."""
        from ..obs.metrics import active_metrics
        from ..obs.tracer import active_tracer
        from .events import EventLoop

        # Rank threads do not inherit the caller's ContextVar scope, so
        # hand an active tracer to each rank's clock for the duration of
        # the run (spans land on per-rank tracks).
        tracer = active_tracer()
        if tracer is not None:
            for r, comm in enumerate(self.comms):
                comm.clock.tracer = tracer
                comm.clock.track = ("rank", r)

        # Per-rank counters are published as deltas over the whole run
        # (clocks and RankStats accumulate across runs of one World), so
        # rank threads never touch the registry.
        metrics = active_metrics()
        if metrics is not None:
            baseline = [
                (c.clock.mpi_time, c.stats.messages_sent, c.stats.bytes_sent,
                 c.stats.messages_received, c.stats.bytes_received,
                 c.stats.collectives)
                for c in self.comms
            ]

        self._loop = EventLoop(self)
        try:
            return self._loop.run(program, args, kwargs)
        finally:
            self._loop = None
            if tracer is not None:
                for comm in self.comms:
                    comm.clock.tracer = None
            if metrics is not None:
                for r, c in enumerate(self.comms):
                    wait0, ms0, bs0, mr0, br0, coll0 = baseline[r]
                    metrics.inc("simmpi_messages_total",
                                c.stats.messages_sent - ms0,
                                rank=r, direction="sent")
                    metrics.inc("simmpi_messages_total",
                                c.stats.messages_received - mr0,
                                rank=r, direction="received")
                    metrics.inc("simmpi_bytes_total",
                                c.stats.bytes_sent - bs0,
                                rank=r, direction="sent")
                    metrics.inc("simmpi_bytes_total",
                                c.stats.bytes_received - br0,
                                rank=r, direction="received")
                    metrics.inc("simmpi_collectives_total",
                                c.stats.collectives - coll0, rank=r)
                    metrics.inc("simmpi_wait_seconds_total",
                                c.clock.mpi_time - wait0, rank=r)
                metrics.inc("simmpi_runs_total", ranks=self.nranks)

    @property
    def clocks(self) -> list[VirtualClock]:
        return [c.clock for c in self.comms]

    @property
    def stats(self) -> list[RankStats]:
        return [c.stats for c in self.comms]

    @property
    def max_time(self) -> float:
        return max(c.clock.now for c in self.comms)

    def mpi_fraction(self) -> float:
        """Mean fraction of rank time spent in MPI (Figure 7's metric)."""
        fracs = [c.clock.mpi_fraction for c in self.comms]
        return float(np.mean(fracs))

    # ---- internal: message and collective accounting ---------------------

    def _find_message(self, dst: int, source: int, tag: int, ctx=0) -> tuple[tuple, int, _Message] | None:
        """Locate the first matching message; returns (key, index, msg)."""
        sources = [source] if source != ANY_SOURCE else list(range(self.nranks))
        for src in sources:
            q = self._mailboxes.get((src, dst, ctx))
            if not q:
                continue
            for i, msg in enumerate(q):
                if tag == ANY_TAG or msg.tag == tag:
                    return (src, dst, ctx), i, msg
        return None

    def _try_complete_recv(self, comm: Communicator, req: Request, post_time: float) -> bool:
        rcomm = getattr(req, "comm", None) or comm
        found = self._find_message(rcomm._grank, req.src, req.tag, rcomm._ctx)
        if found is None:
            return False
        key, idx, msg = found
        q = self._mailboxes[key]
        del q[idx]
        arrival = msg.send_time + self.cost_model.transfer_time(msg.src, msg.dst, msg.nbytes)
        comm.clock.advance_mpi(max(arrival, post_time))
        comm.clock.charge_mpi(self.cost_model.message_overhead(msg.src, msg.dst))
        if req.buffer is not None and isinstance(msg.payload, np.ndarray):
            np.copyto(req.buffer, msg.payload.reshape(req.buffer.shape))
            req.data = req.buffer
        else:
            req.data = msg.payload
        req.status = Status(rcomm._to_local(msg.src), msg.tag, msg.nbytes)
        req.completed = True
        comm.stats.messages_received += 1
        comm.stats.bytes_received += msg.nbytes
        if comm.clock.tracer is not None:
            comm.clock.tracer.event(
                "mpi", "recv", comm.clock.now,
                track=comm.clock.track or ("rank", comm._grank),
                src=msg.src, tag=msg.tag, bytes=msg.nbytes,
            )
        return True

    def _complete_collective(self, infos: list[_BlockInfo], comms: list[Communicator]) -> None:
        kind = infos[0].coll_kind
        root = infos[0].coll_root
        op = infos[0].coll_op
        payloads = [i.coll_payload for i in infos]
        nbytes = max(
            (p.nbytes if isinstance(p, np.ndarray) else 8)
            for p in payloads
        ) if any(p is not None for p in payloads) else 0

        if kind == "barrier":
            results = [None] * len(infos)
        elif kind == "bcast":
            data = payloads[root]
            results = [_payload_copy(data)[0] for _ in infos]
        elif kind in ("reduce", "allreduce"):
            total = _reduce_payloads(payloads, op)
            if kind == "allreduce":
                results = [_payload_copy(total)[0] for _ in infos]
            else:
                results = [
                    _payload_copy(total)[0] if c.rank == root else None for c in comms
                ]
        elif kind == "gather":
            gathered = [_payload_copy(p)[0] for p in payloads]
            results = [gathered if c.rank == root else None for c in comms]
        elif kind == "allgather":
            gathered = [_payload_copy(p)[0] for p in payloads]
            results = [list(gathered) for _ in infos]
        elif kind == "scatter":
            results = [_payload_copy(v)[0] for v in payloads[root]]
        elif kind == "alltoall":
            results = [
                [_payload_copy(payloads[i][j])[0] for i in range(len(comms))]
                for j in range(len(comms))
            ]
        else:  # pragma: no cover - guarded by Communicator API
            raise ValueError(f"unknown collective {kind!r}")

        t_done = max(c.clock.now for c in comms) + self.cost_model.collective_time(
            len(comms), nbytes
        )
        for info, c, res in zip(infos, comms, results):
            c.clock.advance_mpi(t_done)
            info.coll_result = res
            if c.clock.tracer is not None:
                c.clock.tracer.event(
                    "mpi", f"collective:{kind}", c.clock.now,
                    track=c.clock.track or ("rank", c._grank),
                    ranks=len(comms), bytes=nbytes, op=op,
                )


#: Reduction ops by name; each rank's op name is checked at its call.
_REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
}


def _reduce_payloads(payloads: list[Any], op: str) -> Any:
    f = _REDUCE_OPS[op]
    acc = payloads[0]
    for p in payloads[1:]:
        acc = f(acc, p)
    return acc
