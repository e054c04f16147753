"""Message cost models and per-rank virtual time accounting.

Every rank in the simulated MPI world owns a :class:`VirtualClock`: compute
phases advance it explicitly (the DSLs do this with modeled kernel times),
and communication operations advance it through a :class:`CostModel` that
prices a message between two ranks.  The split between "busy" time and
"waiting in MPI" time is what Figure 7 plots.

Three cost models are provided:

* :class:`ZeroCostModel` — free communication; used by correctness tests
  where only data movement matters.
* :class:`MachineCostModel` — prices messages from the platform's
  core-to-core latency classes and link bandwidths, given a rank→core
  placement.  An MPI message costs a software per-message overhead, a
  rendezvous handshake at the core-to-core latency, and a serialization
  term at the link bandwidth of the narrowest hop.
* :class:`ClusterCostModel` — the multi-node extension: same-node pairs
  delegate to an internal :class:`MachineCostModel`, cross-node pairs
  pay the cluster's :class:`~repro.machine.topology.NetworkSpec`
  latency/bandwidth, so intra-socket, inter-socket and inter-node hops
  are priced distinctly (the 1k–10k rank scaling regime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.spec import PlatformSpec
from ..machine.topology import ClusterSpec, PairKind, pair_latency

__all__ = [
    "VirtualClock",
    "CostModel",
    "ZeroCostModel",
    "MachineCostModel",
    "ClusterCostModel",
    "default_placement",
    "cluster_placement",
]


@dataclass
class VirtualClock:
    """Per-rank simulated time, split into busy and MPI-wait components.

    ``tracer``/``track`` are observability wiring (set by
    :meth:`repro.simmpi.comm.World.run` when a tracer is active): each
    MPI-wait gap the clock absorbs is then recorded as a span — the raw
    material of the paper's Figure 7 per-rank wait accounting.  They are
    excluded from equality so traced and untraced clocks compare equal.
    """

    now: float = 0.0
    compute_time: float = 0.0
    mpi_time: float = 0.0
    tracer: object = field(default=None, compare=False, repr=False)
    track: tuple = field(default=None, compare=False, repr=False)

    def advance_compute(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        self.now += dt
        self.compute_time += dt

    def advance_mpi(self, until: float) -> None:
        """Move the clock forward to ``until``, charging the gap to MPI."""
        if until > self.now:
            if self.tracer is not None:
                self.tracer.span(
                    "mpi", "wait", self.now, until,
                    track=self.track or ("rank", 0),
                )
            self.mpi_time += until - self.now
            self.now = until

    def charge_mpi(self, dt: float) -> None:
        """Charge ``dt`` of unavoidable MPI software overhead."""
        if dt < 0:
            raise ValueError("negative MPI charge")
        self.now += dt
        self.mpi_time += dt

    @property
    def mpi_fraction(self) -> float:
        return self.mpi_time / self.now if self.now > 0 else 0.0


class CostModel:
    """Interface: price point-to-point messages and collectives."""

    def message_overhead(self, src: int, dst: int) -> float:
        """Software cost charged to both endpoints per message."""
        raise NotImplementedError

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Wire time: handshake latency + serialization."""
        raise NotImplementedError

    def transfer_breakdown(
        self, src: int, dst: int, nbytes: int
    ) -> tuple[float, float]:
        """``(handshake_seconds, wire_seconds)`` of one transfer.

        The handshake term is the zero-byte cost (rendezvous latency +
        software overhead); the wire term is the size-dependent
        serialization remainder, so the two recompose
        :meth:`transfer_time` to float epsilon.  The attribution layer
        (``repro.obs.attribution``) uses this split to separate
        latency-bound from bandwidth-bound MPI seconds.
        """
        handshake = self.transfer_time(src, dst, 0)
        return handshake, self.transfer_time(src, dst, nbytes) - handshake

    def collective_time(self, nranks: int, nbytes: int) -> float:
        """Cost of a reduction/broadcast style collective."""
        raise NotImplementedError


class ZeroCostModel(CostModel):
    """Free communication — pure semantics, for correctness tests."""

    def message_overhead(self, src: int, dst: int) -> float:
        return 0.0

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        return 0.0

    def collective_time(self, nranks: int, nbytes: int) -> float:
        return 0.0


def default_placement(platform: PlatformSpec, nranks: int, hyperthreading: bool = False) -> list[int]:
    """Map ranks to hardware threads the way ``I_MPI_PIN`` compact
    placement does: fill physical cores first, then SMT siblings."""
    cores = platform.total_cores
    limit = cores * (2 if hyperthreading else 1)
    if nranks > limit:
        raise ValueError(
            f"{nranks} ranks exceed {limit} available hardware threads on {platform.name}"
        )
    if nranks <= cores:
        # Spread across the whole machine so rank i sits on core
        # floor(i * cores / nranks) — matches block placement per NUMA.
        return [i * cores // nranks for i in range(nranks)]
    return list(range(nranks))


@dataclass(frozen=True)
class MachineCostModel(CostModel):
    """Message costs on a concrete platform with a rank→core placement.

    Parameters
    ----------
    platform:
        Machine model supplying latencies.
    placement:
        ``placement[rank]`` is the hardware thread the rank is pinned to.
    sw_overhead:
        Per-message MPI library cost (matching, progress engine) charged
        to each endpoint.  Intel MPI intra-node is ~0.3 us per message.
    intra_numa_bw / intra_socket_bw / cross_socket_bw:
        Per-pair copy bandwidth *caps* for shared-memory transport.
        Intra-NUMA messages move at cache/memory copy speed; cross-socket
        ones cross UPI/xGMI.
    sharing_ranks:
        Shared-memory message transfer is a memory copy: when many ranks
        exchange simultaneously the achievable per-pair bandwidth is the
        node's memory bandwidth divided among them (send+receive sides).
        The effective rate is ``min(cap, stream_bw / (2 * sharing_ranks))``
        — this is why MPI+OpenMP's few large messages are cheap while
        224-rank pure MPI contends.

    The model is frozen, so each thread pair's ``(handshake, rate)`` is
    computed once and memoized.
    """

    platform: PlatformSpec
    placement: list[int]
    sw_overhead: float = 0.3e-6
    intra_numa_bw: float = 25e9
    intra_socket_bw: float = 20e9
    cross_socket_bw: float = 10e9
    sharing_ranks: int = 1
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _threads(self, src: int, dst: int) -> tuple[int, int]:
        try:
            return self.placement[src], self.placement[dst]
        except IndexError:
            raise ValueError(f"rank {max(src, dst)} not in placement") from None

    def message_overhead(self, src: int, dst: int) -> float:
        return self.sw_overhead

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        a, b = self._threads(src, dst)
        pair = self._pairs.get((a, b))
        if pair is None:
            hop = pair_latency(self.platform, a, b)
            # Handshake: one core-to-core round trip (rendezvous protocol).
            lat = 2.0 * hop.latency + self.sw_overhead
            if hop.kind in (PairKind.SELF, PairKind.SMT_SIBLING, PairKind.SAME_NUMA):
                bw = self.intra_numa_bw
            elif hop.kind is PairKind.SAME_SOCKET:
                bw = self.intra_socket_bw
            else:
                bw = self.cross_socket_bw
            share = self.platform.stream_bandwidth / (2.0 * max(self.sharing_ranks, 1))
            pair = self._pairs[a, b] = (lat, min(bw, share))
        lat, rate = pair
        return lat + nbytes / rate

    def collective_time(self, nranks: int, nbytes: int) -> float:
        """Binomial-tree collective: log2(P) stages of the worst hop."""
        if nranks <= 1:
            return 0.0
        stages = max(1, (nranks - 1).bit_length())
        worst = 2.0 * self.platform.latency_cross_socket + self.sw_overhead
        return stages * (worst + nbytes / self.cross_socket_bw)


def cluster_placement(
    cluster: ClusterSpec, nranks: int, hyperthreading: bool = False
) -> list[int]:
    """Block-distribute ranks over the cluster's nodes, compactly within
    each node.

    Ranks are laid out node-major (rank blocks fill node 0, then node 1,
    …) with :func:`default_placement` inside every node — the layout
    ``I_MPI_PIN`` produces under a block rank distribution, and the one
    that keeps Cartesian halo neighbors mostly on-node.  Returned ids are
    the cluster's *global* hardware threads.
    """
    per_node = cluster.platform.total_cores * (2 if hyperthreading else 1)
    if nranks > per_node * cluster.nodes:
        raise ValueError(
            f"{nranks} ranks exceed {per_node * cluster.nodes} available "
            f"hardware threads on {cluster.short_name}"
        )
    base, extra = divmod(nranks, cluster.nodes)
    threads = cluster.platform.total_threads
    # Every node holds ``base`` or ``base + 1`` ranks: place each count
    # once.
    counts = (base, base + 1) if extra else (base,)
    local = {
        count: default_placement(cluster.platform, count, hyperthreading)
        for count in counts
        if count
    }
    out: list[int] = []
    for node in range(cluster.nodes):
        count = base + (1 if node < extra else 0)
        if count:
            offset = node * threads
            out.extend(offset + t for t in local[count])
    return out


class ClusterCostModel(CostModel):
    """Message costs on a multi-node cluster with a rank→thread placement.

    Same-node pairs are priced by an internal :class:`MachineCostModel`
    over the local thread ids (so intra-NUMA / intra-socket /
    cross-socket hops keep their single-node costs); pairs on different
    nodes pay the cluster network instead: a rendezvous round-trip at the
    network latency, the library software overhead plus the network
    stack's per-message cost, and serialization at the NIC bandwidth
    shared among ``nic_sharing`` concurrently-communicating ranks per
    node.

    Nothing assigns the attributes after construction: the node and the
    local thread of every rank are tabulated once, after one range check
    of the whole placement.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        placement: list[int],
        sw_overhead: float = 0.3e-6,
        nic_sharing: int = 1,
        **node_kwargs,
    ) -> None:
        self.cluster = cluster
        self.placement = placement
        self.sw_overhead = sw_overhead
        self.nic_sharing = nic_sharing
        if placement:
            # The per-thread checks of ClusterSpec.node_of_thread /
            # local_thread, done once for the whole placement.
            for t in (min(placement), max(placement)):
                cluster.node_of_thread(t)
        per_node = cluster.platform.total_threads
        self._node_model = MachineCostModel(
            cluster.platform,
            [t % per_node for t in placement],
            sw_overhead=sw_overhead,
            **node_kwargs,
        )
        self._nodes = [t // per_node for t in placement]

    def is_internode(self, src: int, dst: int) -> bool:
        """True when the two ranks are placed on different nodes."""
        try:
            return self._nodes[src] != self._nodes[dst]
        except IndexError:
            raise ValueError(f"rank {max(src, dst)} not in placement") from None

    def message_overhead(self, src: int, dst: int) -> float:
        if self.is_internode(src, dst):
            return self.sw_overhead + self.cluster.network.message_overhead
        return self._node_model.message_overhead(src, dst)

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        if not self.is_internode(src, dst):
            return self._node_model.transfer_time(src, dst, nbytes)
        net = self.cluster.network
        lat = 2.0 * net.latency + self.sw_overhead + net.message_overhead
        bw = net.bandwidth / max(self.nic_sharing, 1)
        return lat + nbytes / bw

    def collective_time(self, nranks: int, nbytes: int) -> float:
        """Hierarchical collective: an in-node binomial tree over this
        node's share of the ranks, then log2(nodes) network stages."""
        if nranks <= 1:
            return 0.0
        nodes = min(self.cluster.nodes, nranks)
        local = -(-nranks // self.cluster.nodes)  # ceil: ranks per node
        t = self._node_model.collective_time(local, nbytes)
        if nodes > 1:
            net = self.cluster.network
            stages = max(1, (nodes - 1).bit_length())
            t += stages * (
                2.0 * net.latency + self.sw_overhead + net.message_overhead
                + nbytes / net.bandwidth
            )
        return t
