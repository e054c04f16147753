"""Tests for virtual clocks, cost models, and MPI time accounting."""

import dataclasses

import numpy as np
import pytest

from repro.machine import EPYC_7V73X, XEON_8360Y, XEON_MAX_9480, PairKind, classify_pair
from repro.machine.topology import pair_latency
from repro.simmpi import (
    MachineCostModel,
    VirtualClock,
    World,
    ZeroCostModel,
    default_placement,
)


class TestVirtualClock:
    def test_compute_accumulates(self):
        c = VirtualClock()
        c.advance_compute(1.0)
        c.advance_compute(0.5)
        assert c.now == pytest.approx(1.5)
        assert c.compute_time == pytest.approx(1.5)
        assert c.mpi_time == 0.0

    def test_advance_mpi_only_forward(self):
        c = VirtualClock()
        c.advance_compute(2.0)
        c.advance_mpi(1.0)  # in the past: no-op
        assert c.now == pytest.approx(2.0)
        c.advance_mpi(3.0)
        assert c.now == pytest.approx(3.0)
        assert c.mpi_time == pytest.approx(1.0)

    def test_mpi_fraction(self):
        c = VirtualClock()
        c.advance_compute(3.0)
        c.advance_mpi(4.0)
        assert c.mpi_fraction == pytest.approx(0.25)

    def test_fraction_zero_at_start(self):
        assert VirtualClock().mpi_fraction == 0.0

    def test_rejects_negative(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            c.advance_compute(-1.0)
        with pytest.raises(ValueError):
            c.charge_mpi(-1.0)


class TestDefaultPlacement:
    def test_full_machine_pure_mpi(self):
        p = XEON_MAX_9480
        pl = default_placement(p, p.total_cores)
        assert pl == list(range(p.total_cores))

    def test_ht_placement_uses_sibling_threads(self):
        p = XEON_MAX_9480
        pl = default_placement(p, p.total_threads, hyperthreading=True)
        assert len(pl) == 224
        assert max(pl) == p.total_threads - 1

    def test_spread_placement_one_rank_per_numa(self):
        p = XEON_MAX_9480  # 8 NUMA domains, 14 cores each
        pl = default_placement(p, 8)
        assert pl == [i * 14 for i in range(8)]
        numas = {p.numa_of_core(c) for c in pl}
        assert len(numas) == 8

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            default_placement(XEON_8360Y, 1000)


class TestMachineCostModel:
    def model(self, platform=XEON_MAX_9480, nranks=8):
        return MachineCostModel(platform, default_placement(platform, nranks))

    def test_transfer_time_grows_with_size(self):
        m = self.model()
        assert m.transfer_time(0, 1, 1 << 20) > m.transfer_time(0, 1, 1 << 10)

    def test_cross_socket_slower_than_intra_numa(self):
        p = XEON_MAX_9480
        m = MachineCostModel(p, [0, 1, p.cores_per_socket])
        nbytes = 1 << 16
        assert m.transfer_time(0, 2, nbytes) > m.transfer_time(0, 1, nbytes)

    def test_latency_floor_for_empty_message(self):
        m = self.model()
        assert m.transfer_time(0, 1, 0) > 0.0

    def test_collective_scales_with_log_ranks(self):
        m = self.model()
        t2 = m.collective_time(2, 8)
        t64 = m.collective_time(64, 8)
        assert t64 == pytest.approx(6 * t2, rel=0.01)

    def test_collective_free_for_single_rank(self):
        assert self.model().collective_time(1, 8) == 0.0

    def test_unplaced_rank_rejected(self):
        m = self.model(nranks=2)
        with pytest.raises(ValueError, match="placement"):
            m.transfer_time(0, 5, 10)

    def test_memoized_pricing_equals_reference_rule(self):
        """Every pair kind prices bit-identically to the pricing rule
        evaluated from scratch, on first and repeated calls."""
        p = XEON_MAX_9480
        placement = [0, p.total_cores, 1, 14, p.cores_per_socket, p.total_threads - 1]
        assert {classify_pair(p, a, b) for a in placement for b in placement} == (
            set(PairKind) - {PairKind.CROSS_NODE})
        m = MachineCostModel(p, placement, sharing_ranks=8)

        def reference(src, dst, nbytes):
            a, b = placement[src], placement[dst]
            hop = pair_latency(p, a, b)
            if hop.kind in (PairKind.SELF, PairKind.SMT_SIBLING, PairKind.SAME_NUMA):
                bw = m.intra_numa_bw
            elif hop.kind is PairKind.SAME_SOCKET:
                bw = m.intra_socket_bw
            else:
                bw = m.cross_socket_bw
            share = p.stream_bandwidth / (2.0 * m.sharing_ranks)
            return 2.0 * hop.latency + m.sw_overhead + nbytes / min(bw, share)

        pairs = [(s, d) for s in range(len(placement)) for d in range(len(placement))]
        for _ in range(2):
            for s, d in pairs:
                for nbytes in (0, 4096, 1 << 20):
                    assert m.transfer_time(s, d, nbytes) == reference(s, d, nbytes)

    def test_fields_cannot_be_assigned(self):
        """Memoized prices stay valid because no field can change."""
        m = MachineCostModel(XEON_MAX_9480, [0, 1])
        before = m.transfer_time(0, 1, 4096)
        for name, value in (("sharing_ranks", 8), ("sw_overhead", 1e-6),
                            ("intra_numa_bw", 1e9), ("placement", [1, 0])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, value)
        assert m.transfer_time(0, 1, 4096) == before


class TestTimeAccountingInWorld:
    def test_receiver_waits_for_slow_sender(self):
        """A receiver that posts early accumulates MPI wait time until the
        sender's (later) send time plus wire time."""

        def program(comm):
            if comm.rank == 0:
                comm.compute(1.0)  # sender is busy for 1 simulated second
                comm.isend(np.zeros(1000), 1)
                return comm.clock.now
            comm.recv(0)
            return (comm.clock.now, comm.clock.mpi_time)

        p = XEON_MAX_9480
        w = World(2, MachineCostModel(p, [0, 1]))
        results = w.run(program)
        t_recv, wait = results[1]
        assert t_recv > 1.0  # had to wait for the sender
        assert wait == pytest.approx(t_recv, rel=1e-6)  # rank 1 did no compute

    def test_prearrived_message_causes_no_wait(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend(np.zeros(8), 1)
                return None
            comm.compute(1.0)  # message long since arrived
            comm.recv(0)
            return comm.clock.mpi_time

        w = World(2, MachineCostModel(XEON_MAX_9480, [0, 1]))
        results = w.run(program)
        # Only the per-message software overhead remains.
        assert results[1] < 1e-5

    def test_barrier_synchronizes_clocks(self):
        def program(comm):
            comm.compute(float(comm.rank))  # ranks finish at 0,1,2
            comm.barrier()
            return comm.clock.now

        w = World(3, MachineCostModel(XEON_MAX_9480, [0, 1, 2]))
        results = w.run(program)
        assert max(results) - min(results) < 1e-12
        assert results[0] >= 2.0

    def test_zero_cost_model_keeps_clocks_at_compute(self):
        def program(comm):
            comm.compute(0.5)
            comm.barrier()
            return comm.clock.now

        results = World(3, ZeroCostModel()).run(program)
        assert results == [pytest.approx(0.5)] * 3

    def test_world_mpi_fraction(self):
        def program(comm):
            comm.compute(1.0 if comm.rank == 0 else 0.0)
            comm.barrier()

        w = World(2, MachineCostModel(XEON_8360Y, [0, 1]))
        w.run(program)
        assert 0.0 < w.mpi_fraction() < 1.0
        # Rank 1 waited ~1s of its ~1s total; rank 0 waited ~0.
        assert w.clocks[1].mpi_fraction > 0.9
        assert w.clocks[0].mpi_fraction < 0.1

    def test_stats_counters(self):
        def program(comm):
            if comm.rank == 0:
                comm.isend(np.zeros(100), 1)
            elif comm.rank == 1:
                comm.recv(0)
            comm.barrier()

        w = World(2)
        w.run(program)
        assert w.stats[0].messages_sent == 1
        assert w.stats[0].bytes_sent == 800
        assert w.stats[1].messages_received == 1
        assert w.stats[1].bytes_received == 800
        assert all(s.collectives == 1 for s in w.stats)
