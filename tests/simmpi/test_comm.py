"""Semantics tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    DeadlockError,
    RankFailedError,
    World,
    op,
)

from .test_events import blocking

#: A generator program, and the same program in the blocking style.
STYLES = {"generator": lambda program: program, "blocking": blocking}


class TestPointToPoint:
    def test_ring_pass(self):
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.isend(np.array([comm.rank]), right, tag=7)
            got = comm.recv(left, tag=7)
            return int(got[0])

        results = World(4).run(program)
        assert results == [3, 0, 1, 2]

    def test_blocking_send_recv_pair(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1)
                return None
            return comm.recv(source=0)

        results = World(2).run(program)
        assert results[1] == {"x": 42}

    def test_payloads_are_copied(self):
        """Mutating the send buffer after isend must not corrupt the message."""

        def program(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.isend(data, 1)
                data[:] = -1.0
                return None
            return comm.recv(0)

        results = World(2).run(program)
        np.testing.assert_array_equal(results[1], np.ones(4))

    def test_recv_into_buffer(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(6, dtype=np.float64), 1)
                return None
            buf = np.empty((2, 3))
            comm.recv(0, buffer=buf)
            return buf

        results = World(2).run(program)
        np.testing.assert_array_equal(results[1], np.arange(6.0).reshape(2, 3))

    def test_tag_matching_is_selective(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend("tagged-5", 1, tag=5)
                comm.isend("tagged-9", 1, tag=9)
                return None
            first = comm.recv(0, tag=9)
            second = comm.recv(0, tag=5)
            return (first, second)

        results = World(2).run(program)
        assert results[1] == ("tagged-9", "tagged-5")

    def test_fifo_order_per_channel(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.isend(i, 1, tag=3)
                return None
            return [comm.recv(0, tag=3) for _ in range(5)]

        results = World(2).run(program)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_any_source_any_tag(self):
        def program(comm):
            if comm.rank == 0:
                got = [comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(comm.size - 1)]
                return sorted(got)
            comm.send(comm.rank * 10, 0, tag=comm.rank)
            return None

        results = World(4).run(program)
        assert results[0] == [10, 20, 30]

    def test_sendrecv_bidirectional_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            return comm.sendrecv(f"from-{comm.rank}", other, source=other)

        results = World(2).run(program)
        assert results == ["from-1", "from-0"]

    def test_probe(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend(np.zeros(10), 1, tag=2)
                return None
            # Rank 1 blocks on an unrelated recv first so rank 0 runs.
            comm.barrier()
            st = comm.probe()
            assert st is not None and st.source == 0 and st.tag == 2
            comm.recv(0)
            return st.nbytes

        def program2(comm):
            if comm.rank == 0:
                comm.isend(np.zeros(10), 1, tag=2)
                comm.barrier()
                return None
            comm.barrier()
            st = comm.probe()
            comm.recv(0)
            return (st.source, st.tag, st.nbytes)

        results = World(2).run(program2)
        assert results[1] == (0, 2, 80)

    def test_waitall_returns_in_request_order(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend("a", 1, tag=1)
                comm.isend("b", 1, tag=2)
                return None
            reqs = [comm.irecv(0, 2), comm.irecv(0, 1)]
            return comm.waitall(reqs)

        results = World(2).run(program)
        assert results[1] == ["b", "a"]

    def test_invalid_destination(self):
        def program(comm):
            comm.isend(1, 99)

        with pytest.raises(RankFailedError, match="out of range"):
            World(2).run(program)

    def test_wait_on_foreign_request_rejected(self):
        def program(comm):
            req = comm.irecv(0)
            req.owner = (comm.rank + 1) % comm.size  # corrupt it
            comm.wait(req)

        with pytest.raises(RankFailedError, match="another rank"):
            World(2).run(program)


class TestCollectives:
    def test_barrier_all_proceed(self):
        def program(comm):
            comm.barrier()
            return comm.rank

        assert World(5).run(program) == list(range(5))

    def test_bcast(self):
        def program(comm):
            data = np.arange(3) if comm.rank == 1 else None
            return comm.bcast(data, root=1)

        results = World(4).run(program)
        for r in results:
            np.testing.assert_array_equal(r, np.arange(3))

    def test_allreduce_sum(self):
        def program(comm):
            return comm.allreduce(comm.rank + 1)

        assert World(4).run(program) == [10, 10, 10, 10]

    def test_allreduce_min_max(self):
        def program(comm):
            return (comm.allreduce(comm.rank, op="min"), comm.allreduce(comm.rank, op="max"))

        assert World(3).run(program) == [(0, 2)] * 3

    def test_allreduce_arrays(self):
        def program(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        results = World(3).run(program)
        for r in results:
            np.testing.assert_array_equal(r, np.full(3, 3.0))

    def test_reduce_only_root_gets_result(self):
        def program(comm):
            return comm.reduce(1, root=2)

        results = World(4).run(program)
        assert results == [None, None, 4, None]

    def test_gather(self):
        def program(comm):
            return comm.gather(comm.rank**2, root=0)

        results = World(4).run(program)
        assert results[0] == [0, 1, 4, 9]
        assert results[1:] == [None, None, None]

    def test_allgather(self):
        def program(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        assert World(3).run(program) == [["a", "b", "c"]] * 3

    def test_scatter(self):
        def program(comm):
            values = [i * 2 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        assert World(4).run(program) == [0, 2, 4, 6]

    def test_scatter_wrong_length_rejected(self):
        def program(comm):
            values = [1] if comm.rank == 0 else None
            return comm.scatter(values, root=0)

        with pytest.raises((RankFailedError, Exception)):
            World(3).run(program)

    def test_unsupported_reduction_op(self):
        def program(comm):
            return comm.allreduce(1, op="prod")

        with pytest.raises(Exception, match="sum/min/max"):
            World(2).run(program)

    def test_single_rank_collectives(self):
        def program(comm):
            assert comm.allreduce(5) == 5
            assert comm.bcast("x") == "x"
            assert comm.gather(1) == [1]
            comm.barrier()
            return True

        assert World(1).run(program) == [True]


class TestErrors:
    def test_deadlock_detected(self):
        def program(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)  # everyone waits

        with pytest.raises(DeadlockError, match="deadlock"):
            World(3).run(program)

    def test_deadlock_message_names_blocked_ranks(self):
        def program(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=42)

        with pytest.raises(DeadlockError, match="rank 0"):
            World(2).run(program)

    def test_rank_exception_propagates(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.recv(source=1)  # would deadlock without failure handling

        with pytest.raises(RankFailedError, match="boom on rank 1") as ei:
            World(3).run(program)
        assert ei.value.rank == 1

    def test_world_requires_positive_ranks(self):
        with pytest.raises(ValueError):
            World(0)

    def test_results_returned_per_rank(self):
        def program(comm, base):
            return base + comm.rank

        assert World(3).run(program, 100) == [100, 101, 102]


class TestDeterminism:
    def test_repeat_runs_identical(self):
        def program(comm):
            token = comm.rank
            for _ in range(3):
                token = comm.sendrecv(
                    token, (comm.rank + 1) % comm.size,
                    source=(comm.rank - 1) % comm.size,
                )
            return token

        first = World(6).run(program)
        for _ in range(3):
            assert World(6).run(program) == first

    def test_any_source_resolution_deterministic(self):
        def program(comm):
            if comm.rank == 0:
                return [comm.recv(ANY_SOURCE) for _ in range(comm.size - 1)]
            comm.send(comm.rank, 0)
            return None

        runs = {tuple(World(5).run(program)[0]) for _ in range(3)}
        assert len(runs) == 1


class TestAlltoall:
    def test_transpose_semantics(self):
        def program(comm):
            values = [comm.rank * 10 + j for j in range(comm.size)]
            return comm.alltoall(values)

        results = World(3).run(program)
        # result[j][i] == what rank i sent to rank j == i*10 + j
        for j, row in enumerate(results):
            assert row == [i * 10 + j for i in range(3)]

    def test_wrong_length_rejected(self):
        def program(comm):
            comm.alltoall([1])

        with pytest.raises(RankFailedError, match="one value per rank"):
            World(3).run(program)

    def test_single_rank(self):
        def program(comm):
            return comm.alltoall(["x"])

        assert World(1).run(program) == [["x"]]


class TestRankMapping:
    def test_out_of_range_local_rank_rejected(self):
        def program(comm):
            sub = comm.split(comm.rank % 2)
            for c in (comm, sub):
                for bad in (-1, c.size):
                    with pytest.raises(ValueError, match="out of range"):
                        c._to_global(bad)
                    with pytest.raises(ValueError, match="out of range"):
                        c.isend("x", bad)
            return True

        assert World(5).run(program) == [True] * 5

    @pytest.mark.parametrize("style", STYLES)
    def test_world_communicators_share_one_group(self, style):
        def prog(comm):
            yield op.barrier()
            return comm.group

        w = World(8)
        first = w.comms[0].group
        assert first == tuple(range(8))
        assert all(c.group is first for c in w.comms)
        assert all(g is first for g in w.run(STYLES[style](prog)))


class TestGroupReads:
    """Per-message steps never read ``Communicator.group``; a collective
    reads it at most once per member."""

    N = 1024

    @pytest.fixture
    def reads(self, monkeypatch):
        counter = {"n": 0}
        group = Communicator.group

        def counted(comm):
            counter["n"] += 1
            return group.fget(comm)

        monkeypatch.setattr(Communicator, "group", property(counted))
        return counter

    def test_sendrecv_ring_reads_group_zero_times(self, reads):
        n = self.N

        def prog(comm):
            right, left = (comm.rank + 1) % n, (comm.rank - 1) % n
            return (yield op.sendrecv(comm.rank, right, left))

        assert World(n).run(prog) == [(r - 1) % n for r in range(n)]
        assert reads["n"] == 0

    def test_collectives_read_group_once_per_member(self, reads):
        n = self.N

        def prog(comm):
            yield op.barrier()
            return (yield op.allreduce(1))

        assert World(n).run(prog) == [n] * n
        assert reads["n"] <= 2 * n


@pytest.mark.parametrize("style", STYLES)
class TestAnySourceMatching:
    """ANY_SOURCE takes the lowest-numbered source holding a match,
    whatever order the messages were queued in."""

    def test_lowest_source_first(self, style):
        chain = [9, 5, 2]  # queue order, enforced by a token

        def prog(comm):
            if comm.rank in chain:
                i = chain.index(comm.rank)
                if i:
                    yield op.recv(chain[i - 1], tag=1)
                yield op.send(f"from-{comm.rank}", 0, tag=0)
                if i + 1 < len(chain):
                    yield op.send(None, chain[i + 1], tag=1)
            yield op.barrier()
            if comm.rank != 0:
                return None
            status = yield op.probe(ANY_SOURCE)
            got = []
            for _ in chain:
                got.append((yield op.recv(ANY_SOURCE)))
            return status.source, got

        results = World(10).run(STYLES[style](prog))
        assert results[0] == (2, ["from-2", "from-5", "from-9"])

    def test_tag_filter_skips_lower_source(self, style):
        def prog(comm):
            if comm.rank == 1:
                yield op.send("low, other tag", 0, tag=5)
            if comm.rank == 3:
                yield op.send("high, wanted tag", 0, tag=7)
            yield op.barrier()
            if comm.rank != 0:
                return None
            req = yield op.irecv(ANY_SOURCE, 7)
            wanted = yield op.wait(req)
            rest = yield op.recv(ANY_SOURCE)
            return wanted, req.status.source, rest

        results = World(4).run(STYLES[style](prog))
        assert results[0] == ("high, wanted tag", 3, "low, other tag")

    def test_reused_world_matches_leftover_message(self, style):
        def leave(comm):
            if comm.rank == 2:
                yield op.send("left over", 0, tag=4)

        def collect(comm):
            if comm.rank != 0:
                return None
            got = yield op.recv(ANY_SOURCE, 4)
            return got, (yield op.probe(ANY_SOURCE))

        w = World(3)
        assert w.run(STYLES[style](leave)) == [None] * 3
        assert w.run(STYLES[style](collect))[0] == ("left over", None)
