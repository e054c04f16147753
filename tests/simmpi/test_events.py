"""The event loop: op coverage, dispatch by program style, results and
clocks equal between a generator program and the same program as a
blocking callable, thread-backed ranks on the abort paths, bounded
deadlock dumps, and large-world distributed == serial equivalence."""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    CartGrid,
    DeadlockError,
    MachineCostModel,
    MpiOp,
    RankFailedError,
    World,
    ZeroCostModel,
    default_placement,
    dims_create,
    exchange_halos,
    exchange_halos_co,
    op,
)
from repro.simmpi.comm import _BlockInfo, _deadlock_message
from repro.simmpi.events import drive_blocking

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "baselines" / "golden_equivalence.json"


def clock_state(world):
    """Per-rank (now, compute, mpi) plus traffic counters — everything
    both program styles must agree on bit-for-bit."""
    return [
        (
            c.clock.now, c.clock.compute_time, c.clock.mpi_time,
            c.stats.messages_sent, c.stats.bytes_sent,
            c.stats.messages_received, c.stats.bytes_received,
            c.stats.collectives,
        )
        for c in world.comms
    ]


def blocking(program):
    """The same program as a plain callable, run on thread-backed ranks:
    each yielded op becomes the blocking Communicator call it names."""

    def prog(comm, *args):
        return drive_blocking(comm, program(comm, *args))

    return prog


def run_both(program, nranks, cost_model=None, args=()):
    """Run a generator program and the same program as a blocking
    callable on two fresh worlds; return the worlds and their results."""
    wg = World(nranks, cost_model=cost_model)
    rg = wg.run(program, *args)
    wb = World(nranks, cost_model=cost_model)
    rb = wb.run(blocking(program), *args)
    return wg, rg, wb, rb


def rank_threads():
    return [t for t in threading.enumerate() if t.name.startswith("simmpi-rank-")]


def assert_no_rank_threads():
    for t in rank_threads():
        t.join(timeout=5.0)
    assert not [t for t in rank_threads() if t.is_alive()]


class TestBackendDispatch:
    """One scheduler, two program styles: generators run on the loop's
    thread, plain callables on a rank thread each."""

    def test_auto_routes_generators_to_events(self):
        def gen(comm):
            yield op.barrier()
            return comm.rank, threading.current_thread()

        results = World(3).run(gen)
        assert [r for r, _ in results] == [0, 1, 2]
        assert {t for _, t in results} == {threading.current_thread()}

    def test_auto_routes_plain_functions_to_threads(self):
        def plain(comm):
            comm.barrier()
            return comm.rank, threading.current_thread().name

        results = World(3).run(plain)
        assert results == [(r, f"simmpi-rank-{r}") for r in range(3)]
        assert_no_rank_threads()

    def test_blocking_rank_drives_generators(self):
        def gen(comm):
            total = yield op.allreduce(comm.rank)
            return total

        assert World(4).run(blocking(gen)) == [6, 6, 6, 6]
        # A plain callable that returns a generator has it driven too.
        assert World(4).run(lambda comm: gen(comm)) == [6, 6, 6, 6]

    def test_non_op_yield_raises(self):
        def bad(comm):
            yield 42

        w = World(2)
        with pytest.raises(RankFailedError, match="MpiOp"):
            w.run(bad)

    def test_drive_blocking_rejects_non_op(self):
        def bad(comm):
            yield "nope"

        w = World(1)
        with pytest.raises(RankFailedError, match="MpiOp"):
            w.run(blocking(bad))

    def test_generator_calling_a_blocking_verb_fails(self):
        def gen(comm):
            yield op.compute(1e-6)
            comm.barrier()

        with pytest.raises(RankFailedError, match=r"yields op\.barrier"):
            World(2).run(gen)

    def test_verb_outside_run_fails(self):
        w = World(2)
        with pytest.raises(RuntimeError, match="inside World.run"):
            w.comms[0].barrier()


class TestOpCoverage:
    """Each verb works in both program styles, with equal results and
    clocks."""

    def test_point_to_point_and_waits(self):
        def prog(comm):
            rank, size = comm.rank, comm.size
            yield op.compute(1e-6 * (rank + 1))
            nxt, prv = (rank + 1) % size, (rank - 1) % size
            reqs = [
                (yield op.irecv(prv, 1)),
                (yield op.irecv(prv, 2)),
            ]
            yield op.isend(np.arange(4) + rank, nxt, 1)
            yield op.isend(rank * 10, nxt, 2)
            a = yield op.wait(reqs[0])
            idx, b = yield op.waitany([reqs[1]])
            assert idx == 0
            got = yield op.sendrecv(rank, nxt, prv, sendtag=3, recvtag=3)
            return float(a.sum()) + b + got

        wg, rg, wb, rb = run_both(prog, 5)
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)

    def test_send_recv_blocking_forms(self):
        def prog(comm):
            if comm.rank == 0:
                yield op.send(b"payload", 1, 7)
                return None
            if comm.rank == 1:
                data = yield op.recv(0, 7)
                return bytes(data)
            return None

        wg, rg, wb, rb = run_both(prog, 3)
        assert rg == rb == [None, b"payload", None]

    def test_waitall_ordered(self):
        def prog(comm):
            rank, size = comm.rank, comm.size
            reqs = []
            for src in range(size):
                if src != rank:
                    reqs.append((yield op.irecv(src, 5)))
            for dst in range(size):
                if dst != rank:
                    yield op.isend(rank, dst, 5)
            vals = yield op.waitall(reqs)
            return sorted(vals)

        wg, rg, wb, rb = run_both(prog, 4)
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)

    def test_probe_and_test(self):
        def prog(comm):
            if comm.rank == 0:
                yield op.isend(99, 1, 4)
                yield op.barrier()
                return None
            if comm.rank == 1:
                req = yield op.irecv(0, 4)
                flag = yield op.test(req)
                val = req.data if flag else (yield op.wait(req))
                st = yield op.probe(0, 4)
                assert st is None  # already consumed by the irecv
                yield op.barrier()
                return val
            yield op.barrier()
            return None

        wg, rg, wb, rb = run_both(prog, 2)
        assert rg[1] == rb[1] == 99

    def test_collectives(self):
        def prog(comm):
            rank = comm.rank
            yield op.barrier()
            b = yield op.bcast(rank * 2 if rank == 1 else None, root=1)
            s = yield op.reduce(rank, op="sum", root=0)
            m = yield op.allreduce(rank, op="max")
            g = yield op.gather(rank, root=2)
            ag = yield op.allgather(rank * rank)
            sc = yield op.scatter(list(range(comm.size)) if rank == 0 else None,
                                  root=0)
            at = yield op.alltoall([rank * 10 + i for i in range(comm.size)])
            return (b, s, m, g, ag, sc, at)

        wg, rg, wb, rb = run_both(prog, 4)
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)

    def test_split_subcommunicator(self):
        def prog(comm):
            color = comm.rank % 2
            sub = yield op.split(color, comm.rank)
            total = yield op.allreduce(comm.rank, comm=sub)
            yield op.barrier(comm=sub)
            return (sub.size, total)

        wg, rg, wb, rb = run_both(prog, 6)
        assert rg == rb
        assert rg[0] == (3, 0 + 2 + 4)
        assert rg[1] == (3, 1 + 3 + 5)
        assert clock_state(wg) == clock_state(wb)

    def test_split_none_color(self):
        def prog(comm):
            sub = yield op.split(None if comm.rank == 0 else 1, comm.rank)
            if sub is None:
                return None
            return (yield op.allreduce(1, comm=sub))

        wg, rg, wb, rb = run_both(prog, 3)
        assert rg == rb == [None, 2, 2]

    def test_collective_mismatch_raises(self):
        from repro.simmpi import CollectiveMismatchError

        def prog(comm):
            if comm.rank == 0:
                yield op.barrier()
            else:
                yield op.allreduce(1)

        for program in (prog, blocking(prog)):
            with pytest.raises(CollectiveMismatchError):
                World(2).run(program)
        assert_no_rank_threads()

    def test_error_propagates_as_rank_failure(self):
        def prog(comm):
            yield op.compute(1e-6)
            if comm.rank == 1:
                raise RuntimeError("boom")
            yield op.barrier()

        for program in (prog, blocking(prog)):
            with pytest.raises(RankFailedError, match="rank 1"):
                World(3).run(program)

    def test_irecv_wait_ring(self):
        def prog(comm):
            prv = (comm.rank - 1) % comm.size
            nxt = (comm.rank + 1) % comm.size
            req = yield op.irecv(prv, 1)
            yield op.isend(comm.rank * 2, nxt, 1)
            return (yield op.wait(req))

        wg, rg, wb, rb = run_both(prog, 4)
        assert rg == rb == [6, 0, 2, 4]


def catching(call):
    """One collective call as a generator program and as a blocking one,
    each returning "caught" when the call raises ValueError.  ``call``
    gets the namespace to call through (``op`` or the Communicator) and
    the communicator."""

    def generator(comm):
        try:
            yield call(op, comm)
        except ValueError:
            return "caught"
        return "done"

    def plain(comm):
        try:
            call(comm, comm)
        except ValueError:
            return "caught"
        return "done"

    return {"generator": generator, "blocking": plain}


class TestCollectiveArguments:
    """A collective with bad arguments never strands its group: what one
    rank's own arguments decide fails at that rank's call, before it
    joins the rendezvous; what only completion finds ends the run."""

    @pytest.mark.parametrize("style", ["generator", "blocking"])
    def test_short_scatter_root_fails_alone(self, style):
        prog = catching(
            lambda ns, comm: ns.scatter([1] if comm.rank == 0 else None))[style]
        w = World(3)
        with pytest.raises(DeadlockError) as exc:
            w.run(prog)
        msg = str(exc.value)
        assert "2 rank(s) blocked" in msg
        assert "rank 1:" in msg and "rank 2:" in msg
        assert "rank 0:" not in msg
        assert_no_rank_threads()

    @pytest.mark.parametrize("style", ["generator", "blocking"])
    def test_unknown_reduction_op_raises_in_every_rank(self, style):
        prog = catching(lambda ns, comm: ns.allreduce(1, op="prod"))[style]
        w = World(3)
        assert w.run(prog) == ["caught"] * 3
        # Nobody joined the rendezvous: the world's next collective works.
        assert w.run(lambda comm: comm.allreduce(comm.rank)) == [3] * 3

    @pytest.mark.parametrize("style", ["generator", "blocking"])
    def test_root_out_of_range_raises_at_the_call(self, style):
        prog = catching(lambda ns, comm: ns.bcast(comm.rank, root=3))[style]
        assert World(3).run(prog) == ["caught"] * 3

    @pytest.mark.parametrize("style", ["generator", "blocking"])
    def test_shapes_that_do_not_reduce_fail_the_run(self, style):
        prog = catching(
            lambda ns, comm: ns.allreduce(np.ones(comm.rank + 1)))[style]
        w = World(3)
        with pytest.raises(RankFailedError, match="could not be broadcast") as exc:
            w.run(prog)
        assert isinstance(exc.value.original, ValueError)
        assert_no_rank_threads()
        assert w._loop is None
        assert w.run(lambda comm: comm.allreduce(np.ones(2)).tolist()) == [[3.0, 3.0]] * 3


class TestClockParity:
    """Per-rank clocks bit-identical between the two program styles."""

    @pytest.mark.parametrize("nranks", [2, 3, 8, 13])
    def test_ring_parity_zero_cost(self, nranks):
        def ring(comm):
            rank, size = comm.rank, comm.size
            total = 0.0
            for it in range(3):
                yield op.compute(1e-6 * (rank % 3 + 1))
                got = yield op.sendrecv(
                    float(rank), (rank + 1) % size, (rank - 1) % size,
                    sendtag=it, recvtag=it)
                total += got
                total = yield op.allreduce(total)
            return total

        wg, rg, wb, rb = run_both(ring, nranks, ZeroCostModel())
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)

    def test_halo_parity_machine_cost(self):
        from repro.machine import XEON_MAX_9480

        cm = MachineCostModel(
            XEON_MAX_9480, default_placement(XEON_MAX_9480, 16))
        grid = CartGrid(dims_create(16, 2))

        def prog_co(comm):
            local = np.full((6, 6), float(comm.rank))
            for _ in range(2):
                yield op.compute(2e-6)
                yield from exchange_halos_co(comm, grid, local, 1)
            return float(local.sum())

        def prog_block(comm):
            local = np.full((6, 6), float(comm.rank))
            for _ in range(2):
                comm.compute(2e-6)
                exchange_halos(comm, grid, local, 1)
            return float(local.sum())

        wg = World(16, cost_model=cm)
        rg = wg.run(prog_co)
        wb = World(16, cost_model=cm)
        rb = wb.run(prog_block)
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)
        assert wg.max_time == wb.max_time
        assert wg.mpi_fraction() == wb.mpi_fraction()

    def test_any_source_order_ignores_program_style(self):
        """Ranks 1-3 compute (size - rank) us and send to rank 0: the
        lowest clock sends first, so rank 0's ANY_SOURCE receives return
        [3, 2, 1] whichever style the program is written in."""

        def prog(comm):
            if comm.rank == 0:
                got = []
                for _ in range(comm.size - 1):
                    got.append((yield op.recv(ANY_SOURCE)))
                return got
            yield op.compute(1e-6 * (comm.size - comm.rank))
            yield op.send(comm.rank, 0)
            return None

        wg, rg, wb, rb = run_both(prog, 4, ZeroCostModel())
        assert rg[0] == rb[0] == [3, 2, 1]
        assert clock_state(wg) == clock_state(wb)


def _golden_pairs():
    data = json.loads(GOLDEN.read_text())
    return [
        (app, platform)
        for app, platforms in sorted(data["estimates"].items())
        for platform in sorted(platforms)
    ]


class TestGoldenPairParity:
    """Bit-identical clocks on the existing golden app x platform pairs:
    for each pair, a halo-exchange program shaped like the app's domain
    runs on the pair's platform cost model in both program styles."""

    @pytest.mark.parametrize(
        "app,platform", _golden_pairs(),
        ids=[f"{a}-{p}" for a, p in _golden_pairs()])
    def test_pair_clocks_bit_identical(self, app, platform):
        from repro.apps import get_app
        from repro.machine import get_platform

        defn = get_app(app)
        spec = get_platform(platform)
        ndims = min(len(defn.paper_domain), 3)
        nranks = 8
        if spec.kind.value == "gpu":
            cm = ZeroCostModel()
        else:
            cm = MachineCostModel(spec, default_placement(spec, nranks))
        grid = CartGrid(dims_create(nranks, ndims))

        def prog(comm):
            shape = tuple(4 for _ in range(ndims))
            local = np.full(shape, float(comm.rank + 1))
            for it in range(2):
                yield op.compute(1e-6)
                yield from exchange_halos_co(comm, grid, local, 1)
                total = yield op.allreduce(float(local.sum()))
            return total

        wg, rg, wb, rb = run_both(prog, nranks, cm)
        assert rg == rb
        assert clock_state(wg) == clock_state(wb)


class TestDeadlock:
    def test_events_deadlock_detected(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(3)
        with pytest.raises(DeadlockError, match="deadlock"):
            w.run(prog)
        assert w._loop is None

    def test_small_world_dump_lists_every_rank(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(4)
        with pytest.raises(DeadlockError, match="rank 0"):
            w.run(prog)

    def test_large_world_dump_is_bounded(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(30)
        with pytest.raises(DeadlockError) as exc:
            w.run(prog)
        msg = str(exc.value)
        assert "30 rank(s) blocked" in msg
        assert "10 more blocked rank(s) elided (10 recv)" in msg
        assert "rank 0:" in msg and "rank 29:" in msg
        assert "rank 15:" not in msg

    def test_4096_rank_dump_stays_22_lines(self):
        """Even ranks wait in a barrier the odd ranks never join; odd
        ranks wait for a message nobody sends."""

        def prog(comm):
            if comm.rank % 2:
                yield op.recv(comm.rank - 1, 9)
            else:
                yield op.barrier()

        w = World(4096)
        with pytest.raises(DeadlockError) as exc:
            w.run(prog)
        lines = str(exc.value).splitlines()
        assert len(lines) == 22
        assert "4096 rank(s) blocked" in lines[0]
        assert lines[11] == (
            "  ... 4076 more blocked rank(s) elided "
            "(2038 collective, 2038 recv) ..."
        )

    def test_deadlock_message_unit(self):
        blocked = {
            r: _BlockInfo("recv" if r % 3 else "collective")
            for r in range(50)
        }
        for info in blocked.values():
            if info.kind == "recv":
                info.request = type(
                    "R", (), {"src": 1, "tag": 2})()
        msg = _deadlock_message(blocked)
        lines = msg.splitlines()
        # header + 10 head + 1 elision + 10 tail
        assert len(lines) == 22
        assert "30 more blocked rank(s) elided" in msg
        assert "collective" in msg and "recv" in msg

    def test_small_dump_not_elided(self):
        blocked = {
            r: _BlockInfo("collective", coll_seq=1, coll_kind="barrier")
            for r in range(20)
        }
        msg = _deadlock_message(blocked)
        assert "elided" not in msg
        assert len(msg.splitlines()) == 21


class TestThreadBackedRanks:
    """The abort paths of blocking programs: every rank thread unwinds
    and the same World runs again."""

    def test_failure_while_others_wait_in_a_barrier(self):
        def prog(comm):
            if comm.rank == 1:
                comm.compute(1e-6)
                raise RuntimeError("boom")
            comm.barrier()

        w = World(4)
        with pytest.raises(RankFailedError, match="rank 1 raised RuntimeError: boom"):
            w.run(prog)
        assert_no_rank_threads()
        assert w.run(lambda comm: comm.allreduce(comm.rank)) == [6] * 4
        assert_no_rank_threads()

    def test_ring_deadlock_dump_is_bounded(self):
        def prog(comm):
            comm.recv((comm.rank + 1) % comm.size, 9)

        w = World(30)
        with pytest.raises(DeadlockError) as exc:
            w.run(prog)
        msg = str(exc.value)
        assert "30 rank(s) blocked" in msg
        assert "10 more blocked rank(s) elided (10 recv)" in msg
        assert_no_rank_threads()
        assert w.run(lambda comm: comm.sendrecv(
            comm.rank, (comm.rank + 1) % comm.size,
            (comm.rank - 1) % comm.size)) == [(r - 1) % 30 for r in range(30)]
        assert_no_rank_threads()

    def test_64_rank_ring_under_short_switch_interval(self):
        """More rank threads than cores, preempted every microsecond:
        a 64-rank ring's results and clocks equal the generator form, and
        thousands of one-rank runs each close a rank thread the moment
        its program returned (when the thread is still alive), all in
        bounded time."""
        from repro.machine import XEON_MAX_9480

        cm = MachineCostModel(XEON_MAX_9480, default_placement(XEON_MAX_9480, 64))

        def ring(comm):
            rank, size = comm.rank, comm.size
            total = 0.0
            for it in range(3):
                yield op.compute(1e-6 * (rank % 5 + 1))
                got = yield op.sendrecv(
                    float(rank), (rank + 1) % size, (rank - 1) % size,
                    sendtag=it, recvtag=it)
                total = yield op.allreduce(total + got)
            return total

        wg = World(64, cost_model=cm)
        expected = wg.run(ring)
        wb = World(64, cost_model=cm)
        single = World(1)
        out = {"single": 0}

        def stress():
            out["ring"] = wb.run(blocking(ring))
            for _ in range(3000):
                single.run(lambda comm: comm.rank)
                out["single"] += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress, daemon=True)
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive(), f"stuck after {out['single']} one-rank runs"
        assert out["ring"] == expected
        assert clock_state(wb) == clock_state(wg)
        assert_no_rank_threads()


class TestLargeWorlds:
    def test_1024_rank_distributed_equals_serial(self):
        """Jacobi smoothing on a periodic 64x64 grid: 1024 ranks of 2x2
        cells each must reproduce the serial stencil bit-for-bit."""
        nranks = 1024
        dims = dims_create(nranks, 2)  # (32, 32)
        grid = CartGrid(dims, periodic=(True, True))
        h = w = 2
        H, W = dims[0] * h, dims[1] * w
        iters = 2

        init = (np.arange(H * W, dtype=np.float64).reshape(H, W) * 131 % 23)

        def smooth(local):
            return (
                local[:-2, 1:-1] + local[2:, 1:-1]
                + local[1:-1, :-2] + local[1:-1, 2:]
                + local[1:-1, 1:-1]
            ) * 0.2

        def prog(comm):
            i, j = grid.coords(comm.rank)
            local = np.zeros((h + 2, w + 2))
            local[1:-1, 1:-1] = init[i * h:(i + 1) * h, j * w:(j + 1) * w]
            for _ in range(iters):
                yield from exchange_halos_co(comm, grid, local, 1)
                local[1:-1, 1:-1] = smooth(local)
            gathered = yield op.gather(local[1:-1, 1:-1].copy(), root=0)
            return gathered

        world = World(nranks)
        results = world.run(prog)

        blocks = results[0]
        out = np.zeros((H, W))
        for r, block in enumerate(blocks):
            i, j = grid.coords(r)
            out[i * h:(i + 1) * h, j * w:(j + 1) * w] = block

        serial = init.copy()
        for _ in range(iters):
            padded = np.pad(serial, 1, mode="wrap")
            serial = smooth(padded)

        assert np.array_equal(out, serial)

    def test_4096_rank_world_is_cheap_to_build(self):
        w = World(4096)
        assert len(w.comms) == 4096
        assert w.max_time == 0.0
        assert w.mpi_fraction() == 0.0


class TestHelpers:
    def test_mpi_op_repr(self):
        o = op.isend(1, 2, tag=3)
        assert isinstance(o, MpiOp)
        assert "isend" in repr(o)

    def test_drive_blocking_returns_generator_value(self):
        def gen(comm):
            yield op.compute(1e-6)
            return "done"

        assert World(1).run(blocking(gen)) == ["done"]
