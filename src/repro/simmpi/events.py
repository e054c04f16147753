"""The event loop: the one scheduler of the simulated MPI world.

A rank program comes in one of two styles.  A *generator* program
``yield``\\ s :class:`MpiOp` descriptors (built with the :class:`op`
constructors) and receives each operation's result as the value of the
``yield`` expression::

    def program(comm):
        req = yield op.irecv(src, tag)
        yield op.isend(data, dst, tag)
        payload = yield op.wait(req)
        yield op.compute(0.5)
        total = yield op.allreduce(payload.sum())
        return total

A *plain callable* makes the same calls on the blocking
:class:`~repro.simmpi.comm.Communicator` verbs (``payload =
comm.wait(req)``).  It runs on its own rank thread behind a
generator-like adapter, and only one of the loop and the rank threads
runs at a time: each call is one ``MpiOp``, executed on the rank thread
while the loop waits, and the thread parks, handing the turn back to
the loop, whenever the rank has to stop running.

One :class:`EventLoop` drives the ranks of either style: the runnable
rank with the lowest virtual clock runs next (ties broken by rank id),
each rank running until it blocks on an unmatched receive or an
incomplete collective, or stops being the lowest.  Every op of either
style goes through the one :meth:`EventLoop._advance`, which executes
it and makes that decision.  Generator ranks create no OS threads, so
4096-rank worlds cost what 4096 generators cost.  Both styles take the
same schedule through the same op handlers, and the arrival-time rule
``advance_mpi(max(send_time + transfer, post_time))`` is
schedule-independent anyway, so per-rank clocks are bit-identical
between the styles.

Sub-communicators: ``sub = yield op.split(color, key)`` returns a real
:class:`Communicator`; address it with the ``comm=`` keyword accepted by
every constructor (``yield op.allreduce(x, comm=sub)``).

:func:`drive_blocking` runs a generator program as a blocking one (each
yielded op becomes the Communicator call it names): the parity tests
compare the two styles with it, and
:func:`~repro.simmpi.cart.exchange_halos` is ``exchange_halos_co``
driven this way.
"""

from __future__ import annotations

import heapq
import inspect
import threading
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
    _REDUCE_OPS,
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
    """Run a generator program to completion through the blocking
    Communicator verbs, from a plain-callable program: each yielded op
    becomes the Communicator call it names, so
    ``lambda comm: drive_blocking(comm, program(comm))`` is ``program``
    in the blocking style.
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


class _Abort(BaseException):
    """Unwinds a parked rank thread after the run failed."""


class _RankThread:
    """Generator-like adapter that runs a plain-callable rank program on
    its own thread.

    :meth:`EventLoop._step` drives it like a generator: :meth:`send`
    resumes the program with the result of the call it is parked in and
    waits until it parks again (returning ``_PARKED``), returns (raising
    ``StopIteration`` with its value) or raises (re-raised).  Only one
    of the loop and the rank threads runs at a time, so while the
    program runs, each of its calls executes its op on the rank thread
    (:meth:`EventLoop.call`) and parks only when the rank blocks or has
    to let a lower clock run first.
    """

    def __init__(self, program: Callable[..., Any], comm: Communicator,
                 args: tuple, kwargs: dict) -> None:
        self._thread = threading.Thread(
            target=self._body, args=(program, comm, args, kwargs),
            name=f"simmpi-rank-{comm.rank}", daemon=True,
        )
        # Two locks held while the other side runs: the rank thread parks
        # on ``_resume``, the loop waits on ``_handed``.
        self._resume = threading.Lock()
        self._handed = threading.Lock()
        self._resume.acquire()
        self._handed.acquire()
        self._value: Any = None
        # The exception that ended the program (StopIteration(result) when
        # it returned); None while it runs or is parked.  Closing goes by
        # this and never by ``Thread.is_alive()``: the thread stays alive
        # a moment after the program ended, and resuming it then hangs.
        self._outcome: BaseException | None = None
        #: Set by :meth:`close`: the parked call and any later one raise.
        self.aborted = False

    def send(self, value: Any) -> Any:
        """Resume the program (start it, the first time) until it parks."""
        self._value = value
        if self._thread.ident is None:
            self._thread.start()
        else:
            self._resume.release()
        self._handed.acquire()
        if self._outcome is None:
            return _PARKED
        raise self._outcome

    def park(self) -> Any:
        """On the rank thread: give the turn back to the loop and wait to
        be resumed; returns the value the loop resumed the rank with."""
        self._handed.release()
        self._resume.acquire()
        if self.aborted:
            raise _Abort()
        return self._value

    def close(self) -> None:
        """Unwind a program still parked in a call; join the thread."""
        if self._thread.ident is None:
            return
        if self._outcome is None:
            self.aborted = True
            self._resume.release()
            self._handed.acquire()
        self._thread.join()

    def _body(self, program: Callable[..., Any], comm: Communicator,
              args: tuple, kwargs: dict) -> None:
        try:
            result = program(comm, *args, **kwargs)
            if isinstance(result, GeneratorType):
                result = drive_blocking(comm, result)
            self._outcome = StopIteration(result)
        except _Abort:
            self._outcome = StopIteration()
        except BaseException as exc:  # noqa: BLE001 - the loop re-raises it
            self._outcome = exc
        self._handed.release()


#: Sentinel returned when a rank stopped running: it blocked on a
#: receive or a collective, or it was requeued behind a lower clock.
_PARKED = object()


class EventLoop:
    """Virtual-clock scheduler over the ranks of one
    :meth:`repro.simmpi.comm.World.run`, which handles the tracer and
    metrics wiring around it.  One thread runs at a time: the loop's, or
    a thread-backed rank's while the loop waits for it to park."""

    def __init__(self, world) -> None:
        self.world = world
        n = world.nranks
        self._gens: list[GeneratorType | _RankThread] = []
        self._value: list[Any] = [None] * n
        self._results: list[Any] = [None] * n
        self._finished: set[int] = set()
        self._failure: RankFailedError | None = None
        # An error a thread-backed rank's op raised that ends the run.
        self._error: Exception | None = None
        # Why each blocked rank is blocked, and its continuation:
        #   ("wait", req) / ("waitall", comm, reqs, index) /
        #   ("waitany", reqs) / ("coll",) / ("split", comm, color, seq)
        self._blocked: dict[int, _BlockInfo] = {}
        self._cont: dict[int, tuple] = {}
        # Collective rendezvous: ctx -> {global rank: info}.
        self._coll: dict[Any, dict[int, _BlockInfo]] = {}
        self._heap: list[tuple[float, int]] = []

    # ---- main loop ---------------------------------------------------

    def run(self, program: Callable[..., Any], args: tuple, kwargs: dict) -> list[Any]:
        """Run every rank to completion; returns the per-rank results.
        Raises :class:`RankFailedError` when a rank raised and
        :class:`DeadlockError` when no rank can progress."""
        comms = self.world.comms
        if inspect.isgeneratorfunction(program):
            self._gens = [program(c, *args, **kwargs) for c in comms]
        else:
            self._gens = [_RankThread(program, c, args, kwargs) for c in comms]
        heap = self._heap
        heap.extend((c.clock.now, r) for r, c in enumerate(comms))
        heapq.heapify(heap)
        try:
            while heap:
                _, r = heapq.heappop(heap)
                if r in self._finished or r in self._blocked:
                    continue  # stale entry (rank already advanced or blocked)
                self._step(r)
                if self._failure is not None:
                    raise self._failure
            if len(self._finished) < len(comms):
                raise DeadlockError(_deadlock_message(self._blocked))
        finally:
            for gen in self._gens:
                if isinstance(gen, _RankThread):
                    gen.close()
        return self._results

    def call(self, comm: Communicator, name: str, args: tuple) -> Any:
        """Run one blocking Communicator verb of a plain-callable rank.

        Called on the rank's thread while the loop waits: the op runs
        through :meth:`_advance`, as a yielded op would, and the thread
        parks when the rank has to stop running."""
        rank = comm._grank
        runner = self._gens[rank]
        if not isinstance(runner, _RankThread):
            raise RuntimeError(
                f"Communicator.{name}() blocks a plain-callable program; "
                f"a generator program yields op.{name}(...)"
            )
        if runner.aborted:
            raise _Abort()
        try:
            value = self._advance(rank, MpiOp(name, args, None, comm))
        except (ValueError, TypeError):
            raise  # API misuse raises in the program, as _step throws it in
        except Exception as exc:  # noqa: BLE001 - re-raised by the loop
            # Anything else ends the run, as from a generator's op.
            self._error = exc
            value = _PARKED
        return runner.park() if value is _PARKED else value

    def _runnable(self, rank: int) -> None:
        heapq.heappush(self._heap, (self.world.comms[rank].clock.now, rank))

    def _step(self, rank: int) -> None:
        """Run one rank until it blocks, finishes, or stops being the
        lowest-clock runnable rank."""
        gen = self._gens[rank]
        value = self._value[rank]
        pending_exc: BaseException | None = None
        while True:
            try:
                if pending_exc is not None:
                    # Deliver API misuse into the program, where the
                    # Communicator call would raise it; a program that
                    # catches it goes on to its next op.
                    item = gen.throw(pending_exc)
                    pending_exc = None
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                self._results[rank] = stop.value
                self._finished.add(rank)
                return
            except BaseException as exc:  # noqa: BLE001 - report rank failure
                if self._failure is None:
                    self._failure = RankFailedError(rank, exc)
                self._finished.add(rank)
                return
            if item is _PARKED:
                # A thread-backed rank ran its own ops until it parked.
                if self._error is not None:
                    raise self._error
                return
            if not isinstance(item, MpiOp):
                exc = TypeError(
                    f"generator programs must yield MpiOp descriptors, got {item!r}"
                )
                if self._failure is None:
                    self._failure = RankFailedError(rank, exc)
                self._finished.add(rank)
                return
            try:
                value = self._advance(rank, item)
            except (ValueError, TypeError) as exc:
                pending_exc = exc
                continue
            if value is _PARKED:
                return

    # ---- op execution ------------------------------------------------

    def _advance(self, rank: int, item: MpiOp) -> Any:
        """Execute one op of ``rank``.  Returns its result while the rank
        may keep running, or ``_PARKED`` once it blocked or stopped being
        the lowest-(clock, rank) runnable rank, when it is requeued with
        the result kept for its next resume."""
        comm = item.comm if item.comm is not None else self.world.comms[rank]
        handler = getattr(self, f"_op_{item.name}", None)
        if handler is None:
            raise TypeError(f"unknown MPI op {item.name!r}")
        result = handler(rank, comm, *item.args, **item.kwargs)
        now = comm.clock.now
        if result is not _PARKED and self._heap and (now, rank) > self._heap[0]:
            self._value[rank] = result
            heapq.heappush(self._heap, (now, rank))
            return _PARKED
        return result

    # -- non-blocking verbs --

    def _op_compute(self, rank: int, comm: Communicator, seconds: float) -> None:
        comm.clock.advance_compute(seconds)

    def _op_isend(self, rank: int, comm: Communicator, data: Any, dest: int,
                  tag: int = 0) -> Request:
        gdest = comm._to_global(dest)
        req = comm._isend(data, gdest, tag)
        self._wake_receiver(gdest)
        return req

    def _op_send(self, rank: int, comm: Communicator, data: Any, dest: int,
                 tag: int = 0) -> None:
        self._op_isend(rank, comm, data, dest, tag)

    def _op_irecv(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG, buffer=None) -> Request:
        return comm._irecv(source, tag, buffer)

    def _op_test(self, rank: int, comm: Communicator, request: Request) -> bool:
        return comm._test(request)

    def _op_probe(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG):
        return comm._probe(source, tag)

    # -- potentially blocking point-to-point --

    def _block_recv(self, rank: int, comm: Communicator, request: Request,
                    cont: tuple) -> Any:
        if self.world._try_complete_recv(comm, request, post_time=comm.clock.now):
            return None  # caller resolves the value itself
        self._blocked[rank] = _BlockInfo("recv", request, comm.clock.now)
        self._cont[rank] = cont
        return _PARKED

    def _op_wait(self, rank: int, comm: Communicator, request: Request) -> Any:
        if request.owner != comm._grank:
            raise ValueError("cannot wait on another rank's request")
        if request.completed:
            return request.data
        if self._block_recv(rank, comm, request, ("wait", request)) is _PARKED:
            return _PARKED
        return request.data

    def _op_recv(self, rank: int, comm: Communicator, source: int = ANY_SOURCE,
                 tag: int = ANY_TAG, buffer=None) -> Any:
        return self._op_wait(rank, comm, comm._irecv(source, tag, buffer))

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
            ) is _PARKED:
                return _PARKED
        return [r.data for r in requests]

    def _op_waitany(self, rank: int, comm: Communicator,
                    requests: list[Request]) -> Any:
        if not requests:
            raise ValueError("waitany needs at least one request")
        for i, r in enumerate(requests):
            if r.completed:
                return i, r.data
        for i, r in enumerate(requests):
            if comm._test(r):
                return i, r.data
        first = requests[0]
        if first.owner != comm._grank:
            raise ValueError("cannot wait on another rank's request")
        if self._block_recv(rank, comm, first, ("waitany", requests)) is _PARKED:
            return _PARKED
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
        if comm.rank == root and (values is None or len(values) != comm.size):
            raise ValueError("scatter root must supply one value per rank")
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
        # What this rank's own arguments decide fails here, in the rank's
        # program, before it joins the rendezvous: a rank that catches
        # the error leaves no entry behind for the group to wait on.
        size = comm.size
        if not 0 <= root < size:
            raise ValueError(f"root {root} out of range for {size} rank(s)")
        if reduce_op not in _REDUCE_OPS:
            raise ValueError(
                f"unsupported reduction op {reduce_op!r}; use sum/min/max"
            )
        info = comm._make_coll_info(kind, payload, root, reduce_op)
        if size == 1:
            self._complete(rank, [info], ())
            return self._coll_value(info, cont)
        self._blocked[rank] = info
        self._cont[rank] = cont or ("coll",)
        waiting = self._coll.setdefault(info.coll_ctx, {})
        waiting[comm._grank] = info
        group = info.coll_group
        # Members arrive once each and only members share the context, so
        # the last arrival is the one that makes the count the group size.
        if len(waiting) < len(group):
            return _PARKED
        # Last member arrived: complete the collective for the whole group.
        infos = [waiting[g] for g in group]
        kinds = {i.coll_kind for i in infos}
        roots = {i.coll_root for i in infos}
        if len(kinds) > 1 or len(roots) > 1:
            # Leave the group blocked and surface the error.
            raise CollectiveMismatchError(
                f"ranks disagree on collective: kinds={kinds}, roots={roots}"
            )
        del self._coll[info.coll_ctx]
        self._complete(rank, infos, group)
        own_value: Any = None
        for g, member_info in zip(group, infos):
            del self._blocked[g]
            value = self._coll_value(member_info, self._cont.pop(g))
            if g == rank:
                own_value = value
            else:
                self._value[g] = value
                self._runnable(g)
        return own_value

    def _complete(self, rank: int, infos: list[_BlockInfo],
                  group: tuple[int, ...]) -> None:
        """Complete a collective whose last member is ``rank``.  What
        only the whole group's payloads can show (arrays whose shapes do
        not reduce) ends the run as a failure of that rank, with no
        member of ``group`` left blocked."""
        try:
            self.world._complete_collective(infos, [i.comm for i in infos])
        except Exception as exc:  # noqa: BLE001 - reported as a rank failure
            for g in group:
                del self._blocked[g]
                del self._cont[g]
            raise RankFailedError(rank, exc) from exc

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
        info = self._blocked.get(grank)
        if info is None or info.kind != "recv":
            return
        comm = self.world.comms[grank]
        if not self.world._try_complete_recv(comm, info.request, info.post_time):
            return
        del self._blocked[grank]
        cont = self._cont.pop(grank)
        value = self._resume_p2p(grank, comm, cont)
        if value is _PARKED:
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
