"""Event-driven coroutine backend of the simulated MPI world.

Rank programs are *generator coroutines*: instead of calling blocking
:class:`~repro.simmpi.comm.Communicator` methods, they ``yield``
:class:`MpiOp` descriptors (built with the :class:`op` constructors) and
receive each operation's result as the value of the ``yield``
expression::

    def program(comm):
        req = yield op.irecv(src, tag)
        yield op.isend(data, dst, tag)
        payload = yield op.wait(req)
        yield op.compute(0.5)
        total = yield op.allreduce(payload.sum())
        return total

A single-threaded :class:`EventLoop` drives all ranks: the runnable rank
with the lowest virtual clock runs next (ties broken by rank id), each
rank running until it blocks on an unmatched receive or an incomplete
collective.  No OS threads are created, so 4096-rank worlds cost what
4096 generators cost.  All time/traffic accounting goes through the same
code paths as the threaded backend (``Communicator.isend``,
``World._try_complete_recv``, ``World._complete_collective``), and the
arrival-time rule ``advance_mpi(max(send_time + transfer, post_time))``
is schedule-independent, so per-rank clocks are bit-identical between
the two backends for deterministic (source- and tag-specific) programs.

Sub-communicators: ``sub = yield op.split(color, key)`` returns a real
:class:`Communicator`; address it with the ``comm=`` keyword accepted by
every constructor (``yield op.allreduce(x, comm=sub)``).

:func:`drive_blocking` is the threaded backend's trampoline: it executes
the same generator program through the blocking Communicator API — the
oracle the clock-parity tests compare the event loop against.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    Communicator,
    DeadlockError,
    RankFailedError,
    Request,
    _BlockInfo,
    _deadlock_message,
)

__all__ = ["MpiOp", "op", "EventLoop", "drive_blocking"]


class MpiOp:
    """One yielded MPI operation: a Communicator method name, its
    arguments, and optionally the sub-communicator to run it on."""

    __slots__ = ("name", "args", "kwargs", "comm")

    def __init__(self, name: str, args: tuple = (), kwargs: dict | None = None,
                 comm: Communicator | None = None) -> None:
        self.name = name
        self.args = args
        self.kwargs = kwargs or {}
        self.comm = comm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"op.{self.name}({', '.join(parts)})"


def _make_op(name: str) -> Callable[..., MpiOp]:
    def build(*args: Any, comm: Communicator | None = None, **kwargs: Any) -> MpiOp:
        return MpiOp(name, args, kwargs, comm)

    build.__name__ = name
    build.__qualname__ = f"op.{name}"
    build.__doc__ = f"Descriptor for ``Communicator.{name}(...)``."
    return build


class op:
    """Namespace of :class:`MpiOp` constructors, one per Communicator
    verb.  Every constructor accepts ``comm=`` to address a
    sub-communicator returned by ``yield op.split(...)``."""

    compute = staticmethod(_make_op("compute"))
    send = staticmethod(_make_op("send"))
    isend = staticmethod(_make_op("isend"))
    recv = staticmethod(_make_op("recv"))
    irecv = staticmethod(_make_op("irecv"))
    sendrecv = staticmethod(_make_op("sendrecv"))
    wait = staticmethod(_make_op("wait"))
    waitall = staticmethod(_make_op("waitall"))
    waitany = staticmethod(_make_op("waitany"))
    test = staticmethod(_make_op("test"))
    probe = staticmethod(_make_op("probe"))
    barrier = staticmethod(_make_op("barrier"))
    bcast = staticmethod(_make_op("bcast"))
    reduce = staticmethod(_make_op("reduce"))
    allreduce = staticmethod(_make_op("allreduce"))
    gather = staticmethod(_make_op("gather"))
    allgather = staticmethod(_make_op("allgather"))
    scatter = staticmethod(_make_op("scatter"))
    alltoall = staticmethod(_make_op("alltoall"))
    split = staticmethod(_make_op("split"))


def drive_blocking(comm: Communicator, gen: GeneratorType) -> Any:
    """Run a generator program to completion through the *blocking*
    Communicator API (used by ``World(backend="threads")`` for generator
    programs).  Every op name is a Communicator method, so the threaded
    scheduler sees exactly the calls a plain-function program would make.
    """
    value: Any = None
    while True:
        try:
            item = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if not isinstance(item, MpiOp):
            raise TypeError(
                f"generator programs must yield MpiOp descriptors, got {item!r}"
            )
        target = item.comm if item.comm is not None else comm
        value = getattr(target, item.name)(*item.args, **item.kwargs)


#: Sentinel returned by op executors when the rank blocked.
_BLOCKED = object()


class EventLoop:
    """Single-threaded virtual-clock scheduler over generator ranks.

    Fills ``world._results`` / ``world._failure`` exactly like the
    threaded scheduler; :meth:`repro.simmpi.comm.World.run` handles the
    shared tracer/metrics wiring around it.
    """

    def __init__(self, world) -> None:
        self.world = world
        n = world.nranks
        self._gens: list[GeneratorType | None] = [None] * n
        self._value: list[Any] = [None] * n
        # Blocked-op continuations, keyed by world rank:
        #   ("wait", req) / ("waitall", comm, reqs, index) /
        #   ("waitany", reqs) / ("coll",) / ("split", comm, color, seq)
        self._cont: dict[int, tuple] = {}
        # Collective rendezvous: ctx -> {global rank: (info, comm)}.
        self._coll: dict[Any, dict[int, tuple[_BlockInfo, Communicator]]] = {}
        self._heap: list[tuple[float, int]] = []

    # ---- main loop ---------------------------------------------------

    def run(self, program: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        w = self.world
        for r in range(w.nranks):
            gen = program(w.comms[r], *args, **kwargs)
            if not isinstance(gen, GeneratorType):  # pragma: no cover - guarded by World
                raise TypeError("event-loop programs must be generator functions")
            self._gens[r] = gen
        heap = self._heap
        for r in range(w.nranks):
            heap.append((w.comms[r].clock.now, r))
        heapq.heapify(heap)
        while heap:
            now, r = heapq.heappop(heap)
            if r in w._finished or r in w._blocked:
                continue  # stale entry (rank already advanced or blocked)
            self._step(r)
            if w._failure is not None:
                return
        if len(w._finished) < w.nranks:
            err = DeadlockError(_deadlock_message(w._blocked))
            w._failure = RankFailedError(-1, err)
            w._failure.__cause__ = err
            w._blocked.clear()
            raise err

    def _runnable(self, rank: int) -> None:
        heapq.heappush(self._heap, (self.world.comms[rank].clock.now, rank))

    def _step(self, rank: int) -> None:
        """Run one rank until it blocks, finishes, or stops being the
        lowest-clock runnable rank."""
        w = self.world
        gen = self._gens[rank]
        clock = w.comms[rank].clock
        pending_exc: BaseException | None = None
        while True:
            try:
                if pending_exc is not None:
                    # Deliver API misuse into the program, like the
                    # blocking backend raising from the Communicator call
                    # would; a program that catches it yields its next op.
                    item = gen.throw(pending_exc)
                    pending_exc = None
                else:
                    item = gen.send(self._value[rank])
            except StopIteration as stop:
                w._results[rank] = stop.value
                w._finished.add(rank)
                return
            except BaseException as exc:  # noqa: BLE001 - report rank failure
                if w._failure is None:
                    w._failure = RankFailedError(rank, exc)
                w._finished.add(rank)
                return
            if not isinstance(item, MpiOp):
                exc = TypeError(
                    f"generator programs must yield MpiOp descriptors, got {item!r}"
                )
                if w._failure is None:
                    w._failure = RankFailedError(rank, exc)
                w._finished.add(rank)
                return
            try:
                result = self._execute(rank, item)
            except (ValueError, TypeError) as exc:
                pending_exc = exc
                continue
            if result is _BLOCKED:
                return
            self._value[rank] = result
            # Peek optimization: keep running this rank while it is still
            # the lowest-(clock, rank) runnable rank; otherwise requeue.
            if self._heap and (clock.now, rank) > self._heap[0]:
                heapq.heappush(self._heap, (clock.now, rank))
                return

    # ---- op execution ------------------------------------------------

    def _execute(self, rank: int, item: MpiOp) -> Any:
        comm = item.comm if item.comm is not None else self.world.comms[rank]
        handler = getattr(self, f"_op_{item.name}", None)
        if handler is None:
            raise TypeError(f"unknown MPI op {item.name!r}")
        return handler(rank, comm, *item.args, **item.kwargs)

    # -- non-blocking verbs (direct Communicator calls) --

    def _op_compute(self, rank: int, comm: Communicator, seconds: float) -> None:
        comm.compute(seconds)

    def _op_isend(self, rank: int, comm: Communicator, data: Any, dest: int,
                  tag: int = 0) -> Request:
        gdest = comm._to_global(dest)
        req = comm.isend(data, dest, tag)
        self._wake_receiver(gdest)
        return req

    def _op_send(self, rank: int, comm: Communicator, data: Any, dest: int,
                 tag: int = 0) -> None:
        self._op_isend(rank, comm, data, dest, tag)
        return None

    def _op_irecv(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG, buffer=None) -> Request:
        return comm.irecv(source, tag, buffer)

    def _op_test(self, rank: int, comm: Communicator, request: Request) -> bool:
        return comm.test(request)

    def _op_probe(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG):
        return comm.probe(source, tag)

    # -- potentially blocking point-to-point --

    def _block_recv(self, rank: int, comm: Communicator, request: Request,
                    cont: tuple) -> Any:
        w = self.world
        if w._try_complete_recv(comm, request, post_time=comm.clock.now):
            return None  # caller resolves the value itself
        w._blocked[rank] = _BlockInfo("recv", request, comm.clock.now)
        self._cont[rank] = cont
        return _BLOCKED

    def _op_wait(self, rank: int, comm: Communicator, request: Request) -> Any:
        if request.owner != comm._grank:
            raise ValueError("cannot wait on another rank's request")
        if request.completed:
            return request.data
        if self._block_recv(rank, comm, request, ("wait", request)) is _BLOCKED:
            return _BLOCKED
        return request.data

    def _op_recv(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG, buffer=None) -> Any:
        return self._op_wait(rank, comm, comm.irecv(source, tag, buffer))

    def _op_sendrecv(self, rank: int, comm: Communicator, senddata: Any, dest: int,
                     source: int = ANY_SOURCE, sendtag: int = 0,
                     recvtag: int = ANY_TAG, buffer=None) -> Any:
        self._op_isend(rank, comm, senddata, dest, sendtag)
        return self._op_recv(rank, comm, source, recvtag, buffer)

    def _op_waitall(self, rank: int, comm: Communicator,
                    requests: list[Request]) -> Any:
        return self._advance_waitall(rank, comm, requests, 0)

    def _advance_waitall(self, rank: int, comm: Communicator,
                         requests: list[Request], start: int) -> Any:
        for i in range(start, len(requests)):
            req = requests[i]
            if req.owner != comm._grank:
                raise ValueError("cannot wait on another rank's request")
            if req.completed:
                continue
            if self._block_recv(
                rank, comm, req, ("waitall", comm, requests, i)
            ) is _BLOCKED:
                return _BLOCKED
        return [r.data for r in requests]

    def _op_waitany(self, rank: int, comm: Communicator,
                    requests: list[Request]) -> Any:
        if not requests:
            raise ValueError("waitany needs at least one request")
        for i, r in enumerate(requests):
            if r.completed:
                return i, r.data
        for i, r in enumerate(requests):
            if comm.test(r):
                return i, r.data
        first = requests[0]
        if first.owner != comm._grank:
            raise ValueError("cannot wait on another rank's request")
        if self._block_recv(rank, comm, first, ("waitany", requests)) is _BLOCKED:
            return _BLOCKED
        return 0, first.data

    # -- collectives --

    def _op_barrier(self, rank: int, comm: Communicator) -> Any:
        return self._collective(rank, comm, "barrier", None)

    def _op_bcast(self, rank: int, comm: Communicator, data: Any, root: int = 0) -> Any:
        return self._collective(rank, comm, "bcast", data, root=root)

    def _op_reduce(self, rank: int, comm: Communicator, value: Any,
                   op: str = "sum", root: int = 0) -> Any:
        return self._collective(rank, comm, "reduce", value, root=root,
                                reduce_op=op)

    def _op_allreduce(self, rank: int, comm: Communicator, value: Any,
                      op: str = "sum") -> Any:
        return self._collective(rank, comm, "allreduce", value, reduce_op=op)

    def _op_gather(self, rank: int, comm: Communicator, value: Any,
                   root: int = 0) -> Any:
        return self._collective(rank, comm, "gather", value, root=root)

    def _op_allgather(self, rank: int, comm: Communicator, value: Any) -> Any:
        return self._collective(rank, comm, "allgather", value)

    def _op_scatter(self, rank: int, comm: Communicator, values, root: int = 0) -> Any:
        return self._collective(rank, comm, "scatter", values, root=root)

    def _op_alltoall(self, rank: int, comm: Communicator, values: list) -> Any:
        if len(values) != comm.size:
            raise ValueError("alltoall needs exactly one value per rank")
        return self._collective(rank, comm, "alltoall", values)

    def _op_split(self, rank: int, comm: Communicator, color: int,
                  key: int | None = None) -> Any:
        me = (color, key if key is not None else comm.rank, comm.rank)
        seq = comm._split_seq
        comm._split_seq += 1
        return self._collective(rank, comm, "allgather", me,
                                cont=("split", comm, color, seq))

    def _collective(self, rank: int, comm: Communicator, kind: str, payload: Any,
                    root: int = 0, reduce_op: str = "sum",
                    cont: tuple | None = None) -> Any:
        w = self.world
        info = comm._make_coll_info(kind, payload, root, reduce_op)
        if comm.size == 1:
            w._complete_collective([info], [comm])
            return self._coll_value(info, cont)
        w._blocked[rank] = info
        self._cont[rank] = cont or ("coll",)
        waiting = self._coll.setdefault(info.coll_ctx, {})
        waiting[comm._grank] = (info, comm)
        group = info.coll_group
        # Members arrive once each and only members share the context, so
        # the last arrival is the one that makes the count the group size.
        if len(waiting) < len(group):
            return _BLOCKED
        # Last member arrived: complete the collective for the whole group.
        infos = [waiting[g][0] for g in group]
        kinds = {i.coll_kind for i in infos}
        roots = {i.coll_root for i in infos}
        if len(kinds) > 1 or len(roots) > 1:
            # Leave the group blocked (mirrors the threaded backend, where
            # the mismatch aborts the world) and surface the error.
            raise CollectiveMismatchError(
                f"ranks disagree on collective: kinds={kinds}, roots={roots}"
            )
        comms = [waiting[g][1] for g in group]
        w._complete_collective(infos, comms)
        del self._coll[info.coll_ctx]
        own_value: Any = None
        for g, member_info in zip(group, infos):
            w._blocked.pop(g, None)
            member_cont = self._cont.pop(g, ("coll",))
            value = self._coll_value(member_info, member_cont)
            if g == rank:
                own_value = value
            else:
                self._value[g] = value
                self._runnable(g)
        return own_value

    @staticmethod
    def _coll_value(info: _BlockInfo, cont: tuple | None) -> Any:
        if cont is not None and cont[0] == "split":
            _, comm, color, seq = cont
            return comm._split_result(info.coll_result, color, seq)
        return info.coll_result

    # ---- wakeups -----------------------------------------------------

    def _wake_receiver(self, grank: int) -> None:
        """A message was just mailed to ``grank``: if it is blocked on a
        matching receive, complete it (the arrival-time accounting is
        independent of *when* the completion runs) and requeue it."""
        w = self.world
        info = w._blocked.get(grank)
        if info is None or info.kind != "recv":
            return
        comm = w.comms[grank]
        if not w._try_complete_recv(comm, info.request, info.post_time):
            return
        del w._blocked[grank]
        cont = self._cont.pop(grank)
        value = self._resume_p2p(grank, comm, cont)
        if value is _BLOCKED:
            return  # re-blocked (waitall moved to a later request)
        self._value[grank] = value
        self._runnable(grank)

    def _resume_p2p(self, rank: int, comm: Communicator, cont: tuple) -> Any:
        kind = cont[0]
        if kind == "wait":
            return cont[1].data
        if kind == "waitany":
            return 0, cont[1][0].data
        # waitall: continue completing the remaining requests in order.
        _, wcomm, requests, index = cont
        return self._advance_waitall(rank, wcomm, requests, index + 1)
