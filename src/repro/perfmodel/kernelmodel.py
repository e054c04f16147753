"""Kernel and application descriptors consumed by the performance model.

A :class:`LoopSpec` describes one parallel loop's per-iteration resource
profile — points processed, memory traffic, flops, stencil radius,
indirect accesses.  The DSLs (:mod:`repro.ops`, :mod:`repro.op2`) produce
these automatically from their access descriptors when an application
runs; the numbers are *measured from the real numpy kernels*, then scaled
analytically to the paper's problem sizes.

An :class:`AppSpec` aggregates the loops plus the application-level facts
the model needs: problem size, halo depth and exchanged fields (for the
communication model), iteration count, and the compiler affinity factors
from the paper's Section 5 discussion.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum

from ..machine.config import Compiler
from ..machine.spec import PlatformSpec

__all__ = ["AppClass", "LoopSpec", "AppSpec", "stencil_traffic_factor"]


class AppClass(Enum):
    """Coarse application behaviour class (paper Section 3)."""

    STRUCTURED_BW = "structured-bandwidth"  # CloverLeaf, OpenSBLI SA, miniWeather
    STRUCTURED_COMPUTE = "structured-compute"  # Acoustic, OpenSBLI SN
    UNSTRUCTURED = "unstructured"  # MG-CFD, Volna
    COMPUTE_BOUND = "compute"  # miniBUDE

    @property
    def is_structured(self) -> bool:
        return self in (AppClass.STRUCTURED_BW, AppClass.STRUCTURED_COMPUTE)


@dataclass(frozen=True)
class LoopSpec:
    """Per-iteration resource profile of one parallel loop.

    Attributes
    ----------
    name:
        Kernel name (for per-loop breakdowns).
    points:
        Elements processed per application iteration (grid points, mesh
        edges, poses x atoms, ...), at the scale being modeled.
    bytes_per_point:
        Main-memory traffic per point, from the DSL access descriptors
        (reads + writes, read-modify-write counted twice), i.e. the same
        accounting OPS uses for the paper's Figure 8.
    flops_per_point:
        Floating-point operations per point (declared by each kernel).
    radius:
        Stencil radius for structured kernels (0 = pointwise); drives the
        cache-pressure traffic amplification for high-order stencils.
    indirect_per_point:
        Irregular (gather/scatter) accesses per point for unstructured
        kernels; drives the latency bottleneck term.
    indirect_bytes_per_point:
        Share of ``bytes_per_point`` moved through indirect accesses —
        served from cache when the gathered field is LLC-resident (the
        EPYC V-cache effect of Sec. 6).
    vectorizable:
        Whether compilers auto-vectorize the kernel in its natural form
        (unstructured kernels with race conditions are not, unless the
        explicit "MPI vec" packing scheme is used).
    dtype_bytes:
        Element size (4 = single precision, 8 = double).
    streams:
        Number of distinct arrays the kernel reads/writes concurrently
        (from the DSL's dat arguments); dilutes per-core memory
        concurrency — see ``calibration.CONCURRENCY_STREAMS_REF``.
    invocations:
        Times the loop launches per application iteration (``points`` is
        the per-iteration total across them); each launch pays the
        per-loop runtime overhead — many small boundary kernels are what
        hurt SYCL on CloverLeaf (Sec. 5.1).
    """

    name: str
    points: float
    bytes_per_point: float
    flops_per_point: float
    radius: int = 0
    indirect_per_point: float = 0.0
    indirect_bytes_per_point: float = 0.0
    vectorizable: bool = True
    dtype_bytes: int = 8
    streams: int = 4
    invocations: float = 1.0

    def __post_init__(self) -> None:
        if self.points < 0 or self.bytes_per_point < 0 or self.flops_per_point < 0:
            raise ValueError(f"loop {self.name}: negative resource counts")
        if self.dtype_bytes not in (4, 8):
            raise ValueError(f"loop {self.name}: dtype_bytes must be 4 or 8")

    @property
    def bytes_total(self) -> float:
        return self.points * self.bytes_per_point

    @property
    def flops_total(self) -> float:
        return self.points * self.flops_per_point

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of memory traffic."""
        if self.bytes_total == 0:
            return math.inf
        return self.flops_total / self.bytes_total

    def trace_attrs(self) -> dict:
        """The span/event attributes the observability layer attaches to
        this loop's perfmodel records (a stable, JSON-friendly subset)."""
        return {
            "points": self.points,
            "bytes_per_point": self.bytes_per_point,
            "flops_per_point": self.flops_per_point,
            "radius": self.radius,
            "indirect_per_point": self.indirect_per_point,
            "streams": self.streams,
            "invocations": self.invocations,
            "vectorizable": self.vectorizable,
        }

    @classmethod
    def from_traffic(cls, rec, iterations: int = 1, scale: float = 1.0) -> "LoopSpec":
        """Build the per-iteration spec of one accumulated loop profile.

        ``rec`` is a :class:`~repro.ir.ledger.LoopTraffic` record (duck-
        typed — anything with the same counters works): whole-run totals
        divided by ``iterations`` and extrapolated by ``scale``.
        Structured records carry their stencil radius; unstructured ones
        their indirect-access profile and the non-vectorizable flag for
        racing increments.
        """
        return cls(
            name=rec.name,
            points=rec.points / iterations * scale,
            bytes_per_point=rec.bytes_per_point,
            flops_per_point=rec.flops_per_point,
            radius=rec.radius,
            indirect_per_point=rec.indirect_per_elem,
            indirect_bytes_per_point=(
                rec.indirect_bytes / rec.points if rec.points else 0.0
            ),
            vectorizable=not rec.has_indirect_inc,
            dtype_bytes=rec.dtype_bytes,
            streams=max(rec.streams, 1),
            invocations=rec.calls / iterations,
        )

    def scaled(self, factor: float) -> "LoopSpec":
        """Same loop with ``points`` scaled by ``factor`` (used to
        extrapolate a scaled-down run to the paper's problem size)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return LoopSpec(
            self.name,
            self.points * factor,
            self.bytes_per_point,
            self.flops_per_point,
            self.radius,
            self.indirect_per_point,
            self.indirect_bytes_per_point,
            self.vectorizable,
            self.dtype_bytes,
            self.streams,
            self.invocations,
        )


#: LoopSpec's field names, in declaration order.  Every value is a str,
#: a number or a bool, so a loop's fingerprint dict is built from these
#: names directly rather than through ``dataclasses.asdict``'s deep copy.
_LOOP_SPEC_NAMES = tuple(f.name for f in fields(LoopSpec))


@dataclass(frozen=True)
class AppSpec:
    """Application-level model input.

    ``compiler_affinity`` maps a compiler to a relative *performance*
    factor (1.0 = reference).  These encode the paper's Section 5 codegen
    observations (e.g. Classic 34% slower on miniWeather, Classic stalls
    on miniBUDE -> factor 0); they are software-quality inputs the model
    cannot derive from hardware specs.
    """

    name: str
    klass: AppClass
    dtype_bytes: int
    iterations: int
    loops: tuple[LoopSpec, ...]
    domain: tuple[int, ...]  # global grid (structured) / (cells,) (unstructured)
    halo_depth: int = 1
    fields_exchanged: float = 1.0  # dats exchanged per halo exchange
    exchanges_per_iter: float = 1.0
    reductions_per_iter: float = 0.0
    compiler_affinity: dict[Compiler, float] = field(default_factory=dict)
    mesh_neighbors: float = 6.0  # avg partition neighbors (unstructured)
    #: Total field storage (bytes) — the reuse footprint one iteration
    #: sweeps through; residency decisions use this, not per-loop traffic.
    state_bytes: float = 0.0
    #: Cache hit rate of this mesh's gathers (None = calibration default).
    gather_hit: float | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.loops:
            raise ValueError("an application must have at least one loop")
        if any(d < 1 for d in self.domain):
            raise ValueError("domain extents must be positive")

    @property
    def ndims(self) -> int:
        return len(self.domain)

    @property
    def gridpoints(self) -> float:
        p = 1.0
        for d in self.domain:
            p *= d
        return p

    def affinity(self, compiler: Compiler) -> float:
        return self.compiler_affinity.get(compiler, 1.0)

    def fingerprint(self) -> str:
        """Deterministic 16-hex-digit digest of the complete spec.

        Stable across processes (keys are sorted, floats serialize via
        their shortest round-trip repr) and sensitive to every modeled
        quantity — adding a loop, changing an iteration count or a
        measured bytes-per-point all produce a new fingerprint.  The
        sweep engine's result store uses this as the application part of
        its cache key; it is also handy for spotting profiling drift.
        """
        payload = {
            "name": self.name,
            "klass": self.klass.value,
            "dtype_bytes": self.dtype_bytes,
            "iterations": self.iterations,
            "loops": [{n: getattr(l, n) for n in _LOOP_SPEC_NAMES}
                      for l in self.loops],
            "domain": list(self.domain),
            "halo_depth": self.halo_depth,
            "fields_exchanged": self.fields_exchanged,
            "exchanges_per_iter": self.exchanges_per_iter,
            "reductions_per_iter": self.reductions_per_iter,
            "compiler_affinity": {c.value: v for c, v in self.compiler_affinity.items()},
            "mesh_neighbors": self.mesh_neighbors,
            "state_bytes": self.state_bytes,
            "gather_hit": self.gather_hit,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def bytes_per_iteration(self) -> float:
        return sum(l.bytes_total for l in self.loops)

    def flops_per_iteration(self) -> float:
        return sum(l.flops_total for l in self.loops)


def stencil_traffic_factor(
    loop: LoopSpec,
    platform: PlatformSpec,
    points_per_core: float,
    ndims: int,
) -> float:
    """Cache-pressure amplification of a structured stencil's traffic.

    A radius-``r`` stencil in the slowest dimension revisits ``2r+1``
    planes of its input; if a core's share of those planes exceeds its
    private cache, neighbor accesses miss and each sweep re-fetches parts
    of the field.  The model charges one extra fetch of the read traffic
    for every plane-set overflow factor, which is what makes the 8th-order
    Acoustic solver "bandwidth and cache locality bound" (Sec. 3) and
    drops its achieved effective bandwidth to ~41% of STREAM on the Xeon
    MAX (Figure 8) while CloverLeaf 2D's radius-1 kernels stay near 75%.
    """
    if loop.radius <= 0 or ndims < 2:
        return 1.0
    # Per-core plane working set: (2r+1) planes of the core's subdomain.
    plane_points = points_per_core ** ((ndims - 1) / ndims)
    window_bytes = (2 * loop.radius + 1) * plane_points * loop.dtype_bytes
    l2 = platform.cache("L2").capacity if _has_cache(platform, "L2") else platform.caches[0].capacity
    overflow = window_bytes / l2
    if overflow <= 1.0:
        return 1.0
    # Amplification saturates at the no-reuse bound: every one of the
    # 2r+1 neighbour planes fetched from memory.
    return float(min(1.0 + math.log2(overflow), 2 * loop.radius + 1.0))


def _has_cache(platform: PlatformSpec, name: str) -> bool:
    try:
        platform.cache(name)
        return True
    except KeyError:
        return False
