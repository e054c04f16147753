"""Tests for multi-node cluster topology: ClusterSpec, NetworkSpec, and
cross-node pair classification."""

import pytest

from repro.machine import (
    XEON_8360Y,
    XEON_MAX_9480,
    ClusterSpec,
    NetworkSpec,
    PairKind,
    classify_cluster_pair,
    classify_pair,
)


class TestNetworkSpec:
    def test_defaults_are_hdr200_class(self):
        net = NetworkSpec()
        assert net.latency > 0
        assert net.bandwidth > 10e9

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(latency=-1.0)
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(message_overhead=-1e-6)

    def test_frozen(self):
        with pytest.raises(Exception):
            NetworkSpec().latency = 1.0


class TestClusterSpec:
    def test_totals_scale_with_nodes(self):
        c = ClusterSpec(XEON_MAX_9480, 4)
        assert c.total_cores == 4 * XEON_MAX_9480.total_cores
        assert c.total_threads == 4 * XEON_MAX_9480.total_threads
        assert c.short_name == f"{XEON_MAX_9480.short_name}x4"

    def test_single_node_allowed(self):
        assert ClusterSpec(XEON_8360Y, 1).nodes == 1

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(ValueError):
            ClusterSpec(XEON_MAX_9480, 0)

    def test_thread_numbering_is_node_major(self):
        c = ClusterSpec(XEON_MAX_9480, 3)
        per = XEON_MAX_9480.total_threads
        assert c.node_of_thread(0) == 0
        assert c.node_of_thread(per - 1) == 0
        assert c.node_of_thread(per) == 1
        assert c.node_of_thread(2 * per + 5) == 2
        assert c.local_thread(2 * per + 5) == 5

    def test_thread_range_checked(self):
        c = ClusterSpec(XEON_MAX_9480, 2)
        with pytest.raises(ValueError):
            c.node_of_thread(c.total_threads)
        with pytest.raises(ValueError):
            c.local_thread(-1)


class TestClusterClassification:
    def test_cross_node(self):
        c = ClusterSpec(XEON_MAX_9480, 2)
        per = XEON_MAX_9480.total_threads
        assert classify_cluster_pair(c, 0, per) is PairKind.CROSS_NODE

    def test_same_node_delegates_to_platform_rules(self):
        c = ClusterSpec(XEON_MAX_9480, 2)
        per = XEON_MAX_9480.total_threads
        # Same local pair on node 1 classifies as on a single machine.
        for a, b in [(0, 0), (0, 1), (0, XEON_MAX_9480.cores_per_socket)]:
            assert (classify_cluster_pair(c, per + a, per + b)
                    is classify_pair(XEON_MAX_9480, a, b))

    def test_cross_node_enum_value(self):
        assert PairKind.CROSS_NODE.value == "cross-node"


class TestClusterCostOrdering:
    """Handshake costs must rank intra-socket < cross-socket < inter-node;
    this is the pricing hierarchy behind fig7x."""

    def test_zero_byte_transfer_ordering(self):
        from repro.simmpi import ClusterCostModel

        p = XEON_MAX_9480
        cluster = ClusterSpec(p, 2)
        # Ranks 0/1 on node 0 (sockets 0 and 1), ranks 2/3 on node 1.
        placement = [0, p.cores_per_socket,
                     p.total_threads, p.total_threads + p.cores_per_socket]
        cm = ClusterCostModel(cluster, placement)
        intra = cm.transfer_time(0, 0, 0)  # self — lower bound
        # Use ranks on distinct sockets of node 0 for cross-socket.
        cross_socket = cm.transfer_time(0, 1, 0)
        inter_node = cm.transfer_time(0, 2, 0)
        assert intra < cross_socket < inter_node
        assert cm.is_internode(0, 2)
        assert not cm.is_internode(0, 1)

    def test_placement_helper_blocks_by_node(self):
        from repro.simmpi import cluster_placement

        p = XEON_8360Y
        cluster = ClusterSpec(p, 2)
        placement = cluster_placement(cluster, 2 * p.total_cores)
        nodes = [t // p.total_threads for t in placement]
        assert nodes == [0] * p.total_cores + [1] * p.total_cores
        with pytest.raises(ValueError):
            cluster_placement(cluster, 4 * p.total_cores + 1)

    def test_placement_uneven_split_is_compact_per_node(self):
        from repro.simmpi import cluster_placement, default_placement

        p = XEON_8360Y  # 72 cores, 144 threads per node
        cluster = ClusterSpec(p, 3)
        # Two of three nodes take one extra rank; with hyperthreading
        # the counts exceed the cores and fill SMT siblings.
        for counts, ht in (((50, 50, 49), False), ((100, 100, 99), True)):
            expected = [node * p.total_threads + t
                        for node, count in enumerate(counts)
                        for t in default_placement(p, count, ht)]
            assert cluster_placement(cluster, sum(counts), ht) == expected

    def test_nic_sharing_divides_bandwidth(self):
        from repro.simmpi import ClusterCostModel

        p = XEON_8360Y
        cluster = ClusterSpec(p, 2)
        placement = [0, p.total_threads]
        fair = ClusterCostModel(cluster, placement, nic_sharing=1)
        shared = ClusterCostModel(cluster, placement, nic_sharing=8)
        nbytes = 1 << 20
        assert shared.transfer_time(0, 1, nbytes) > fair.transfer_time(0, 1, nbytes)
        # Handshake-only cost does not depend on NIC sharing.
        assert shared.transfer_time(0, 1, 0) == fair.transfer_time(0, 1, 0)

    def test_collective_time_grows_with_nodes(self):
        from repro.simmpi import ClusterCostModel

        p = XEON_8360Y
        one = ClusterCostModel(ClusterSpec(p, 1), [0, 1])
        four = ClusterCostModel(
            ClusterSpec(p, 4), [n * p.total_threads for n in range(4)])
        assert four.collective_time(4, 64) > one.collective_time(2, 64)


class TestClusterPricingStability:
    """Per-rank node tables and memoized pair prices: every ordered pair
    of a 2-node Xeon MAX placement covering every pair kind prices the
    same on a first call, a repeat call and a fresh model."""

    P = XEON_MAX_9480

    def placement(self):
        p = self.P
        local = [0, p.total_cores, 1, 2, 14, 15, 28, 42, p.cores_per_socket,
                 57, 70, 84, 98, p.total_cores - 1, p.total_cores + 14,
                 p.total_threads - 1]
        return [n * p.total_threads + t for n in range(2) for t in local]

    def test_every_pair_prices_identically(self):
        from repro.simmpi import ClusterCostModel

        cluster = ClusterSpec(self.P, 2)
        placement = self.placement()
        assert len(placement) == 32
        kinds = {classify_cluster_pair(cluster, a, b)
                 for a in placement for b in placement}
        assert kinds == set(PairKind)

        def prices(cm):
            return [
                (cm.transfer_time(s, d, 0), cm.transfer_time(s, d, 4096),
                 cm.message_overhead(s, d), cm.transfer_breakdown(s, d, 4096),
                 cm.is_internode(s, d))
                for s in range(32) for d in range(32)
            ]

        cm = ClusterCostModel(cluster, placement)
        first = prices(cm)
        assert prices(cm) == first
        assert prices(ClusterCostModel(cluster, placement)) == first

    def test_unplaced_rank_rejected(self):
        from repro.simmpi import ClusterCostModel

        cm = ClusterCostModel(ClusterSpec(self.P, 2), self.placement())
        for call in (lambda: cm.is_internode(0, 32),
                     lambda: cm.message_overhead(40, 1),
                     lambda: cm.transfer_time(0, 99, 8),
                     lambda: cm.transfer_breakdown(32, 0, 8)):
            with pytest.raises(ValueError, match="placement"):
                call()

    def test_tables_equal_the_per_rank_methods(self):
        from repro.simmpi import ClusterCostModel

        cluster = ClusterSpec(self.P, 2)
        placement = self.placement()
        cm = ClusterCostModel(cluster, placement)
        assert cm._nodes == [cluster.node_of_thread(t) for t in placement]
        assert cm._node_model.placement == [
            cluster.local_thread(t) for t in placement]

    @pytest.mark.parametrize("bad", [-1, 2 * XEON_MAX_9480.total_threads])
    def test_out_of_range_thread_raises_as_before(self, bad):
        from repro.simmpi import ClusterCostModel

        cluster = ClusterSpec(self.P, 2)
        with pytest.raises(ValueError) as want:
            cluster.node_of_thread(bad)
        for placement in ([bad], [0, bad, 1], [1, 0, bad]):
            with pytest.raises(ValueError) as got:
                ClusterCostModel(cluster, placement)
            assert str(got.value) == str(want.value)

    def test_empty_placement(self):
        from repro.simmpi import ClusterCostModel

        cm = ClusterCostModel(ClusterSpec(self.P, 2), [])
        assert cm._nodes == [] and cm._node_model.placement == []
