"""Event-driven backend: op coverage, backend dispatch, clock parity
with the threaded oracle, bounded deadlock dumps, and large-world
distributed == serial equivalence."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.simmpi import (
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
    both backends must agree on bit-for-bit."""
    return [
        (
            c.clock.now, c.clock.compute_time, c.clock.mpi_time,
            c.stats.messages_sent, c.stats.bytes_sent,
            c.stats.messages_received, c.stats.bytes_received,
            c.stats.collectives,
        )
        for c in world.comms
    ]


def run_both(program, nranks, cost_model=None, args=()):
    """Run one generator program on both backends; return the worlds
    and their results."""
    we = World(nranks, cost_model=cost_model, backend="events")
    re_ = we.run(program, *args)
    wt = World(nranks, cost_model=cost_model, backend="threads")
    rt = wt.run(program, *args)
    return we, re_, wt, rt


class TestBackendDispatch:
    def test_auto_routes_generators_to_events(self):
        def gen(comm):
            yield op.barrier()
            return comm.rank

        w = World(3)
        assert w.run(gen) == [0, 1, 2]
        assert w.last_backend == "events"

    def test_auto_routes_plain_functions_to_threads(self):
        def plain(comm):
            comm.barrier()
            return comm.rank

        w = World(3)
        assert w.run(plain) == [0, 1, 2]
        assert w.last_backend == "threads"

    def test_events_backend_rejects_plain_functions(self):
        w = World(2, backend="events")
        with pytest.raises(TypeError, match="generator"):
            w.run(lambda comm: comm.rank)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            World(2, backend="fibers")

    def test_threads_backend_drives_generators(self):
        def gen(comm):
            total = yield op.allreduce(comm.rank)
            return total

        w = World(4, backend="threads")
        assert w.run(gen) == [6, 6, 6, 6]
        assert w.last_backend == "threads"

    def test_events_world_uses_array_ledger(self):
        w = World(5, backend="events")
        assert w.ledger is not None and w.ledger.nranks == 5
        assert World(5).ledger is None

    def test_non_op_yield_raises(self):
        def bad(comm):
            yield 42

        w = World(2, backend="events")
        with pytest.raises(RankFailedError, match="MpiOp"):
            w.run(bad)

    def test_drive_blocking_rejects_non_op(self):
        def bad(comm):
            yield "nope"

        w = World(1, backend="threads")
        with pytest.raises(RankFailedError, match="MpiOp"):
            w.run(bad)


class TestOpCoverage:
    """Each verb works on the event loop and matches the oracle."""

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

        we, re_, wt, rt = run_both(prog, 5)
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)

    def test_send_recv_blocking_forms(self):
        def prog(comm):
            if comm.rank == 0:
                yield op.send(b"payload", 1, 7)
                return None
            if comm.rank == 1:
                data = yield op.recv(0, 7)
                return bytes(data)
            return None

        we, re_, wt, rt = run_both(prog, 3)
        assert re_ == rt == [None, b"payload", None]

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

        we, re_, wt, rt = run_both(prog, 4)
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)

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

        we, re_, wt, rt = run_both(prog, 2)
        assert re_[1] == rt[1] == 99

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

        we, re_, wt, rt = run_both(prog, 4)
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)

    def test_split_subcommunicator(self):
        def prog(comm):
            color = comm.rank % 2
            sub = yield op.split(color, comm.rank)
            total = yield op.allreduce(comm.rank, comm=sub)
            yield op.barrier(comm=sub)
            return (sub.size, total)

        we, re_, wt, rt = run_both(prog, 6)
        assert re_ == rt
        assert re_[0] == (3, 0 + 2 + 4)
        assert re_[1] == (3, 1 + 3 + 5)
        assert clock_state(we) == clock_state(wt)

    def test_split_none_color(self):
        def prog(comm):
            sub = yield op.split(None if comm.rank == 0 else 1, comm.rank)
            if sub is None:
                return None
            return (yield op.allreduce(1, comm=sub))

        we, re_, wt, rt = run_both(prog, 3)
        assert re_ == rt == [None, 2, 2]

    def test_collective_mismatch_raises(self):
        from repro.simmpi import CollectiveMismatchError

        def prog(comm):
            if comm.rank == 0:
                yield op.barrier()
            else:
                yield op.allreduce(1)

        w = World(2, backend="events")
        with pytest.raises(CollectiveMismatchError):
            w.run(prog)

    def test_error_propagates_as_rank_failure(self):
        def prog(comm):
            yield op.compute(1e-6)
            if comm.rank == 1:
                raise RuntimeError("boom")
            yield op.barrier()

        w = World(3, backend="events")
        with pytest.raises(RankFailedError, match="rank 1"):
            w.run(prog)

    def test_irecv_wait_ring(self):
        def prog(comm):
            prv = (comm.rank - 1) % comm.size
            nxt = (comm.rank + 1) % comm.size
            req = yield op.irecv(prv, 1)
            yield op.isend(comm.rank * 2, nxt, 1)
            return (yield op.wait(req))

        we, re_, wt, rt = run_both(prog, 4)
        assert re_ == rt == [6, 0, 2, 4]


class TestClockParity:
    """Per-rank clocks bit-identical between the two backends."""

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

        we, re_, wt, rt = run_both(ring, nranks, ZeroCostModel())
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)

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

        we = World(16, cost_model=cm, backend="events")
        re_ = we.run(prog_co)
        wt = World(16, cost_model=cm, backend="threads")
        rt = wt.run(prog_block)
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)
        assert we.max_time == wt.max_time
        assert we.mpi_fraction() == wt.mpi_fraction()


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
    runs on the pair's platform cost model under both backends."""

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

        we, re_, wt, rt = run_both(prog, nranks, cm)
        assert re_ == rt
        assert clock_state(we) == clock_state(wt)


class TestDeadlock:
    def test_events_deadlock_detected(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(3, backend="events")
        with pytest.raises(DeadlockError, match="deadlock"):
            w.run(prog)
        assert isinstance(w._failure, RankFailedError)

    def test_small_world_dump_lists_every_rank(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(4, backend="events")
        with pytest.raises(DeadlockError, match="rank 0"):
            w.run(prog)

    def test_large_world_dump_is_bounded(self):
        def prog(comm):
            yield op.recv((comm.rank + 1) % comm.size, 9)

        w = World(30, backend="events")
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

        w = World(4096, backend="events")
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

        world = World(nranks, backend="events")
        results = world.run(prog)
        assert world.last_backend == "events"

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
        w = World(4096, backend="events")
        assert w.ledger.nranks == 4096
        assert w.ledger.max_now() == 0.0
        assert w.ledger.mean_mpi_fraction() == 0.0


class TestLedgerViews:
    def test_views_alias_ledger_arrays(self):
        def prog(comm):
            yield op.compute(3e-6)
            yield op.barrier()
            return None

        w = World(4, backend="events")
        w.run(prog)
        for r, c in enumerate(w.comms):
            assert c.clock.now == w.ledger.now[r]
            assert c.stats.collectives == int(w.ledger.collectives[r])
        assert w.max_time == float(w.ledger.now.max())

    def test_mpi_op_repr(self):
        o = op.isend(1, 2, tag=3)
        assert isinstance(o, MpiOp)
        assert "isend" in repr(o)

    def test_drive_blocking_returns_generator_value(self):
        def gen(comm):
            yield op.compute(1e-6)
            return "done"

        w = World(1, backend="threads")
        assert w.run(gen) == ["done"]
