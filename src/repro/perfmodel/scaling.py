"""Intra-node scaling studies: runtime vs. resources used.

The paper's configuration sweeps vary *how* the node is used (ranks vs.
threads, HT on/off); this module generalizes that into classic scaling
curves on the machine models:

- :func:`strong_scaling` — fix the problem, grow the rank count (by
  scaling a platform clone's core count), reporting time, speedup and
  parallel efficiency;
- :func:`comm_share_curve` — how the MPI fraction grows as compute
  shrinks per rank (the strong-scaling limit the Xeon MAX reaches
  earlier than DDR machines, because its kernels finish 4x sooner while
  message latencies stay put — the paper's bottleneck-shift story as a
  curve);
- :func:`cluster_strong_scaling` / :func:`cluster_weak_scaling` — the
  multi-node extension (Fig 7x): the same apps spread over 1k–10k ranks
  on clusters of identical nodes, with inter-node messages priced by a
  :class:`~repro.machine.topology.NetworkSpec` (docs/SIMMPI.md).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..machine.config import RunConfig
from ..machine.spec import PlatformSpec
from ..machine.topology import ClusterSpec, NetworkSpec
from . import calibration as cal
from .commmodel import cluster_comm
from .kernelmodel import AppSpec
from .roofline import AppEstimate, estimate_app

__all__ = [
    "ScalingPoint",
    "strong_scaling",
    "comm_share_curve",
    "ClusterScalingPoint",
    "cluster_strong_scaling",
    "cluster_weak_scaling",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    cores: int
    time: float
    speedup: float
    efficiency: float
    mpi_fraction: float


def _clone_with_cores(platform: PlatformSpec, cores_per_socket: int) -> PlatformSpec:
    """A platform clone using only ``cores_per_socket`` cores per socket
    (memory system unchanged — cores are disabled, not removed, exactly
    like running a job on a subset of cores)."""
    if cores_per_socket < 1 or cores_per_socket > platform.cores_per_socket:
        raise ValueError("cores_per_socket out of range")
    numa = min(platform.numa_per_socket, cores_per_socket)
    while cores_per_socket % numa:
        numa -= 1
    return dataclasses.replace(
        platform,
        cores_per_socket=cores_per_socket,
        numa_per_socket=numa,
        short_name=f"{platform.short_name}-{cores_per_socket}c",
    )


def strong_scaling(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    core_counts: list[int] | None = None,
) -> list[ScalingPoint]:
    """Fixed problem, growing core count (per socket).

    Efficiency is measured against the smallest core count evaluated.
    Bandwidth-bound apps stop scaling once the cores saturate memory —
    much earlier on DDR platforms than on the HBM part.
    """
    if core_counts is None:
        base = platform.cores_per_socket
        core_counts = sorted({max(1, base // k) for k in (8, 4, 2, 1)})
    pts: list[ScalingPoint] = []
    base_time = None
    base_cores = None
    for cps in core_counts:
        clone = _clone_with_cores(platform, cps)
        est = estimate_app(app, clone, config)
        if base_time is None:
            base_time, base_cores = est.total_time, clone.total_cores
        speedup = base_time / est.total_time
        ideal = clone.total_cores / base_cores
        pts.append(
            ScalingPoint(
                cores=clone.total_cores,
                time=est.total_time,
                speedup=speedup,
                efficiency=speedup / ideal,
                mpi_fraction=est.mpi_fraction,
            )
        )
    return pts


def comm_share_curve(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    shrink_factors: list[float] = (1.0, 4.0, 16.0, 64.0),
) -> list[tuple[float, float]]:
    """MPI fraction as the per-rank problem shrinks (strong-scaling limit).

    Returns ``(shrink, mpi_fraction)`` pairs: shrinking the domain by a
    factor leaves message latencies fixed while compute falls, so the
    fraction rises — faster on the Xeon MAX, whose compute is already 4x
    cheaper per byte.
    """
    out = []
    for f in shrink_factors:
        if f < 1.0:
            raise ValueError("shrink factors must be >= 1")
        shrunk = dataclasses.replace(
            app,
            loops=tuple(l.scaled(1.0 / f) for l in app.loops),
            domain=tuple(max(1, int(round(d / f ** (1 / app.ndims))))
                         for d in app.domain),
            state_bytes=app.state_bytes / f,
        )
        est = estimate_app(shrunk, platform, config)
        out.append((f, est.mpi_fraction))
    return out


@dataclass(frozen=True)
class ClusterScalingPoint:
    """One point of a multi-node scaling curve."""

    nodes: int
    ranks: int
    time: float
    speedup: float
    efficiency: float
    mpi_fraction: float


def _cluster_point(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    nodes: int,
    per_node: int,
    network: NetworkSpec | None,
    compute_per_iter: float,
) -> tuple[int, float, float]:
    """(ranks, time, mpi_fraction) for one node count, given the
    per-iteration compute share each node performs."""
    nranks = per_node * nodes
    cluster = ClusterSpec(platform, nodes, network or NetworkSpec())
    comm = cluster_comm(app, cluster, nranks, config.hyperthreading)
    imbalance = (
        compute_per_iter * cal.IMBALANCE_PER_LOG2_RANKS * math.log2(nranks)
        if nranks > 1
        else 0.0
    )
    t_iter = compute_per_iter + comm.time_per_iter + imbalance
    mpi_fraction = (comm.time_per_iter + imbalance) / t_iter if t_iter else 0.0
    return nranks, t_iter * app.iterations, mpi_fraction


def cluster_strong_scaling(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    base: AppEstimate,
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    network: NetworkSpec | None = None,
    ranks_per_node: int | None = None,
) -> list[ClusterScalingPoint]:
    """Fixed problem, growing node count.

    ``base`` is the single-node estimate of ``app`` on ``platform``
    under ``config`` (from the sweep engine, so a warm store serves it);
    it supplies the compute time.  Spreading over ``nodes`` nodes
    divides that ideally while the halo surfaces, network hops and
    log-rank imbalance grow — the race Fig 7x plots.  Speedup and
    efficiency are measured against the smallest node count.
    """
    if not node_counts or any(n < 1 for n in node_counts):
        raise ValueError(f"node_counts must be non-empty positive ints, got {node_counts!r}")
    if (base.app, base.platform, base.config_label) != (
            app.name, platform.short_name, config.label()):
        raise ValueError(
            f"base estimate is for {base.app}@{base.platform} "
            f"[{base.config_label}], not {app.name}@{platform.short_name} "
            f"[{config.label()}]"
        )
    per_node = ranks_per_node or config.ranks(platform)
    compute_per_iter = base.compute_time / app.iterations
    pts: list[ClusterScalingPoint] = []
    base_time = base_nodes = None
    for nodes in node_counts:
        nranks, time, frac = _cluster_point(
            app, platform, config, nodes, per_node, network,
            compute_per_iter / nodes,
        )
        if base_time is None:
            base_time, base_nodes = time, nodes
        speedup = base_time / time if time else 0.0
        ideal = nodes / base_nodes
        pts.append(
            ClusterScalingPoint(
                nodes=nodes,
                ranks=nranks,
                time=time,
                speedup=speedup,
                efficiency=speedup / ideal,
                mpi_fraction=frac,
            )
        )
    return pts


def cluster_weak_scaling(
    app: AppSpec,
    platform: PlatformSpec,
    config: RunConfig,
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    network: NetworkSpec | None = None,
    ranks_per_node: int | None = None,
) -> list[ClusterScalingPoint]:
    """Problem grows with the node count (constant work per node).

    Each dimension of the domain is stretched by ``nodes**(1/ndims)`` so
    per-rank subdomains stay fixed; efficiency is ``t(1)/t(N)`` and only
    erodes through communication and imbalance.
    """
    if not node_counts or any(n < 1 for n in node_counts):
        raise ValueError(f"node_counts must be non-empty positive ints, got {node_counts!r}")
    per_node = ranks_per_node or config.ranks(platform)
    base = estimate_app(app, platform, config)
    compute_per_iter = base.compute_time / app.iterations
    pts: list[ClusterScalingPoint] = []
    t1 = None
    for nodes in node_counts:
        grow = nodes ** (1.0 / app.ndims)
        scaled = dataclasses.replace(
            app,
            domain=tuple(max(1, int(round(d * grow))) for d in app.domain),
        )
        nranks, time, frac = _cluster_point(
            scaled, platform, config, nodes, per_node, network,
            compute_per_iter,
        )
        if t1 is None:
            t1 = time
        eff = t1 / time if time else 0.0
        pts.append(
            ClusterScalingPoint(
                nodes=nodes,
                ranks=nranks,
                time=time,
                speedup=nodes * eff,
                efficiency=eff,
                mpi_fraction=frac,
            )
        )
    return pts
