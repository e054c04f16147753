"""Simulated MPI: deterministic in-process SPMD runtime with virtual time.

- :class:`~repro.simmpi.comm.World` — run an SPMD program on N ranks with
  real data transfer and deterministic scheduling.
- :class:`~repro.simmpi.comm.Communicator` — per-rank MPI-like API
  (send/recv/isend/irecv/wait, barrier, bcast, reduce/allreduce,
  gather/allgather/scatter, sendrecv, probe) for blocking programs.
- :mod:`~repro.simmpi.clock` — virtual clocks and message cost models
  (the MPI-wait accounting behind Figure 7).
- :mod:`~repro.simmpi.cart` — Cartesian grids and ghost-layer exchange.
- :mod:`~repro.simmpi.events` — the one scheduler, a virtual-clock event
  loop.  It drives generator programs that yield
  :class:`~repro.simmpi.events.MpiOp` descriptors built with
  :data:`~repro.simmpi.events.op`, and blocking programs on rank
  threads whose calls are the same ops (see docs/SIMMPI.md).

Layer role (docs/ARCHITECTURE.md): the communication substrate the
DSLs' distributed contexts run on; prices messages with the machine
models and feeds per-rank wait accounting to the tracer.
"""

from .cart import (
    CartGrid,
    dims_create,
    exchange_halos,
    exchange_halos_co,
    local_range,
    neighbor_table,
    prime_factors,
)
from .clock import (
    ClusterCostModel,
    CostModel,
    MachineCostModel,
    VirtualClock,
    ZeroCostModel,
    cluster_placement,
    default_placement,
)
from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    CollectiveMismatchError,
    Communicator,
    DeadlockError,
    RankFailedError,
    RankStats,
    Request,
    Status,
    World,
)
from .events import EventLoop, MpiOp, drive_blocking, op

__all__ = [
    "World",
    "Communicator",
    "Request",
    "Status",
    "RankStats",
    "ANY_SOURCE",
    "ANY_TAG",
    "DeadlockError",
    "CollectiveMismatchError",
    "RankFailedError",
    "VirtualClock",
    "CostModel",
    "ZeroCostModel",
    "MachineCostModel",
    "ClusterCostModel",
    "default_placement",
    "cluster_placement",
    "CartGrid",
    "dims_create",
    "prime_factors",
    "local_range",
    "neighbor_table",
    "exchange_halos",
    "exchange_halos_co",
    "MpiOp",
    "op",
    "EventLoop",
    "drive_blocking",
]
