"""Tests for sub-communicators (split), waitany, and message contexts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import ANY_SOURCE, DeadlockError, World, op


class TestSplit:
    def test_split_by_parity(self):
        def program(comm):
            sub = comm.split(comm.rank % 2)
            return (sub.rank, sub.size, sub.group)

        results = World(6).run(program)
        assert results[0] == (0, 3, (0, 2, 4))
        assert results[1] == (0, 3, (1, 3, 5))
        assert results[4] == (2, 3, (0, 2, 4))

    def test_split_with_key_reorders(self):
        def program(comm):
            sub = comm.split(0, key=comm.size - comm.rank)
            return sub.rank

        results = World(4).run(program)
        assert results == [3, 2, 1, 0]  # reversed ordering

    def test_split_none_returns_none(self):
        def program(comm):
            sub = comm.split(None if comm.rank == 0 else 1)
            return sub if sub is None else sub.size

        results = World(3).run(program)
        assert results[0] is None
        assert results[1] == results[2] == 2

    def test_subgroup_collectives(self):
        """Each half reduces independently."""

        def program(comm):
            sub = comm.split(comm.rank // 2)
            return sub.allreduce(comm.rank + 1)

        results = World(4).run(program)
        assert results == [3, 3, 7, 7]  # (1+2), (1+2), (3+4), (3+4)

    def test_subgroup_p2p_uses_local_ranks(self):
        def program(comm):
            sub = comm.split(comm.rank % 2)
            # Local ring within the subgroup.
            right = (sub.rank + 1) % sub.size
            left = (sub.rank - 1) % sub.size
            sub.isend(comm.rank * 100, right, tag=1)
            return sub.recv(left, tag=1)

        results = World(4).run(program)
        assert results == [200, 300, 0, 100]

    def test_contexts_isolate_messages(self):
        """A message sent on one communicator is invisible to another,
        even with matching source and tag."""

        def program(comm):
            sub = comm.split(0)  # same membership as world, new context
            if comm.rank == 0:
                comm.isend("world-msg", 1, tag=9)
                sub.isend("sub-msg", 1, tag=9)
                return None
            if comm.rank == 1:
                got_sub = sub.recv(0, tag=9)
                got_world = comm.recv(0, tag=9)
                return (got_sub, got_world)
            return None

        results = World(2).run(program)
        assert results[1] == ("sub-msg", "world-msg")

    def test_nested_split(self):
        def program(comm):
            half = comm.split(comm.rank // 2)
            solo = half.split(half.rank)
            return (half.size, solo.size)

        results = World(4).run(program)
        assert all(r == (2, 1) for r in results)

    def test_clock_shared_with_parent(self):
        def program(comm):
            sub = comm.split(0)
            sub.compute(1.0)
            return comm.clock.now

        results = World(2).run(program)
        assert all(t >= 1.0 for t in results)

    def test_mismatched_subgroup_collective_deadlocks(self):
        """A subgroup collective that a member never joins must deadlock
        (not silently complete)."""

        def program(comm):
            sub = comm.split(0)
            if comm.rank == 0:
                sub.barrier()  # rank 1 never joins

        with pytest.raises(DeadlockError):
            World(2).run(program)

    @given(nranks=st.integers(2, 8), ncolors=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_property_split_partitions(self, nranks, ncolors):
        def program(comm):
            sub = comm.split(comm.rank % ncolors)
            return sorted(sub.group)

        results = World(nranks).run(program)
        seen = sorted(r for group in {tuple(g) for g in results} for r in group)
        assert seen == list(range(nranks))


class TestRankMapping:
    """A split communicator's ``rank``, ``_to_global`` and ``_to_local``
    give the answers of its member tuple (``group.index`` and
    ``group[i]``), one level and two levels below the world."""

    @staticmethod
    def mapping(sub):
        group = sub.group
        return (group, sub.rank, [sub._to_global(i) for i in range(sub.size)],
                [sub._to_local(g) for g in group])

    @given(data=st.data(), nranks=st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_split_mapping_matches_member_tuple(self, data, nranks):
        colors = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 3)),
                                    min_size=nranks, max_size=nranks))
        keys = data.draw(st.lists(st.integers(-3, 3),
                                  min_size=nranks, max_size=nranks))

        def prog(comm):
            sub = yield op.split(colors[comm.rank], keys[comm.rank])
            if sub is None:
                return None
            inner = yield op.split(sub.rank % 2, -sub.rank, comm=sub)
            return self.mapping(sub), self.mapping(inner)

        def expect(members, me):
            group = tuple(members)
            return (group, group.index(me), list(group),
                    [group.index(g) for g in group])

        for r, got in enumerate(World(nranks).run(prog)):
            if colors[r] is None:
                assert got is None
                continue
            outer = sorted((keys[g], g) for g in range(nranks)
                           if colors[g] == colors[r])
            outer = [g for _, g in outer]
            parity = outer.index(r) % 2
            inner = [g for i, g in enumerate(outer) if i % 2 == parity][::-1]
            assert got == (expect(outer, r), expect(inner, r))


class TestWaitany:
    def test_prefers_completed(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend("a", 1, tag=1)
                comm.isend("b", 1, tag=2)
                return None
            r1 = comm.irecv(0, tag=1)
            r2 = comm.irecv(0, tag=2)
            comm.wait(r2)
            idx, data = comm.waitany([r1, r2])
            return (idx, data)

        results = World(2).run(program)
        assert results[1] == (1, "b")

    def test_polls_ready_request(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend("later", 1, tag=5)
                return None
            slow = comm.irecv(0, tag=99)  # never arrives... until deadlock
            fast = comm.irecv(0, tag=5)
            idx, data = comm.waitany([slow, fast])
            comm.isend("unblock", 0, tag=99) if False else None
            return (idx, data)

        # rank 1 returns from waitany via the ready request; the never-
        # matched irecv is abandoned (legal: requests needn't complete).
        results = World(2).run(program)
        assert results[1] == (1, "later")

    def test_empty_list_rejected(self):
        def program(comm):
            comm.waitany([])

        from repro.simmpi import RankFailedError

        with pytest.raises(RankFailedError, match="at least one"):
            World(1).run(program)


class TestCartOnSubcomm:
    def test_halo_exchange_within_split(self):
        """Cartesian halo exchange works on a sub-communicator: the other
        color's ranks are unaffected."""
        import numpy as np

        from repro.simmpi import CartGrid, exchange_halos

        def program(comm):
            sub = comm.split(0 if comm.rank < 4 else 1)
            if comm.rank >= 4:
                return None  # idle color
            grid = CartGrid((2, 2))
            local = np.full((6, 6), float(sub.rank))
            local[1:-1, 1:-1] = sub.rank
            exchange_halos(sub, grid, local, 1)
            # The ghost toward the +x neighbor holds that neighbor's value.
            nbr = grid.neighbor(sub.rank, 1, 1)
            if nbr is not None:
                assert local[1, -1] == float(nbr)
            return True

        results = World(6).run(program)
        assert results[:4] == [True] * 4
        assert results[4:] == [None, None]
