"""Calibration constants of the performance model, with justifications.

Policy (DESIGN.md §1): platform numbers come from the paper's Section 2 /
spec sheets and live in :mod:`repro.machine.platforms`.  The constants here
describe *software* mechanisms — runtime overheads, vectorization success,
protocol costs — that the paper names qualitatively; each is set to a
value in the range published for the software stack in question, and each
entry documents the mechanism and the paper statement it supports.  None
of them encodes a figure's result directly; the figure shapes must emerge
from the interaction of these mechanisms with the machine models.
"""

from __future__ import annotations

import contextlib
import operator

__all__ = [
    "override",
    "constants",
    "snapshot",
    "BOTTLENECK_PNORM",
    "LOOP_OVERHEAD_MPI",
    "OMP_FORK_BASE",
    "OMP_BARRIER_PER_THREAD",
    "SYCL_LAUNCH_OVERHEAD",
    "CUDA_LAUNCH_OVERHEAD",
    "SYCL_NDRANGE_EXTRA",
    "HT_CONCURRENCY_BOOST",
    "HT_BANDWIDTH_PENALTY",
    "HT_COMPUTE_PENALTY",
    "HT_OMP_SCHED_PENALTY",
    "SCALAR_ILP_FLOPS_FRACTION",
    "VEC_PACK_OVERHEAD_512",
    "VEC_PACK_OVERHEAD_256",
    "UNSTRUCT_OMP_LOCALITY_LOSS",
    "UNSTRUCT_GATHER_MLP",
    "GPU_BW_EFFICIENCY",
    "GPU_SMT_LATENCY_FACTOR",
    "MPI_RANK_IMBALANCE",
    "EAGER_LIMIT_BYTES",
]

#: Exponent of the p-norm that blends the bandwidth / compute / latency
#: bottleneck times of a kernel: t = (t_bw^p + t_fl^p + t_lat^p)^(1/p).
#: p -> infinity is the hard roofline max(); finite p models the imperfect
#: overlap observed in practice (a kernel at the roofline ridge achieves
#: ~84% of either bound for p=4, consistent with measured STREAM-vs-peak
#: behaviour of real stencil codes).
BOTTLENECK_PNORM = 4.0

#: Per-parallel-loop startup cost for pure-MPI execution (a function call
#: and loop setup; no thread coordination).
LOOP_OVERHEAD_MPI = 0.4e-6

#: OpenMP parallel-for fork/join base cost (icx's libiomp, measured by
#: EPCC-style microbenchmarks at 1-2 us)...
OMP_FORK_BASE = 1.5e-6

#: ...plus a per-thread term for the barrier tree.  28 threads/NUMA on the
#: Xeon MAX with HT adds ~2 us over 14 threads — the mechanism behind
#: "Hyperthreading disabled leads to marginally (2%) better performance
#: with the MPI+OpenMP codes" (Sec. 5).
OMP_BARRIER_PER_THREAD = 0.07e-6

#: SYCL kernel submission through the OpenCL CPU driver.  The paper:
#: "MPI+SYCL at this point does not match the performance of MPI+OpenMP
#: due to the higher scheduling overheads (having to go through the OpenCL
#: drivers): this is more pronounced on CloverLeaf 2D/3D due to the higher
#: number of small boundary kernels" (Sec. 5.1).
SYCL_LAUNCH_OVERHEAD = 13.0e-6

#: CUDA kernel launch latency on an A100 (PCIe).
CUDA_LAUNCH_OVERHEAD = 5.0e-6

#: The user-specified-workgroup "ndrange" SYCL variant uses one workgroup
#: shape for all kernels of an application; relative to the runtime-chosen
#: "flat" sizes this costs a small granularity/prefetch mismatch on most
#: kernels (Sec. 5.1: a hand-tuned per-kernel shape was only 2% faster
#: than flat; one app-wide shape is slightly worse than flat on average).
SYCL_NDRANGE_EXTRA = 0.02

#: SMT-2 raises the number of outstanding misses a core sustains; for
#: latency-bound indirect (gather) access this converts to throughput.
#: "Hyperthreading enabled also improves performance by 13% on average"
#: for the unstructured apps (Sec. 5).
HT_CONCURRENCY_BOOST = 1.45

#: For bandwidth-saturated streaming kernels a second thread per core only
#: adds contention; a ~1% penalty reproduces the "within 3%" HT spread the
#: paper reports for structured codes under pure MPI.
HT_BANDWIDTH_PENALTY = 0.99

#: For fully pipelined compute-bound kernels (miniBUDE) one thread per
#: core saturates the FMA pipes; the second thread thrashes L1/uop cache:
#: "HT enabled reduces performance by 28%" (Sec. 5).
HT_COMPUTE_PENALTY = 0.72

#: MPI+OpenMP with HT doubles the threads the runtime must fork/join and
#: schedule over the same cores; beyond the barrier term this costs a
#: little scheduling efficiency on memory-bound loops.
HT_OMP_SCHED_PENALTY = 0.995

#: Scalar (non-vectorized) code still extracts instruction-level
#: parallelism, but branchy flux kernels with gathers sustain well under
#: one FMA per pipe per cycle — this is most of why the explicitly
#: vectorized "MPI vec" unstructured variants win by ~66% (Sec. 5).
SCALAR_ILP_FLOPS_FRACTION = 0.5

#: Vector gather/scatter instructions keep more loads in flight than the
#: scalar dependent-load chains they replace: MLP multiplier for
#: vectorized irregular kernels (the other half of the "MPI vec" win).
VEC_GATHER_MLP_BOOST = 1.4

#: "MPI vec" generates explicitly vectorized unstructured kernels whose
#: "overhead of packing and unpacking vector registers" (Sec. 6) shows up
#: as extra data movement; wider registers pack more.  The EPYC's AVX2
#: "overhead is smaller" (Sec. 6).
VEC_PACK_OVERHEAD_512 = 1.18
VEC_PACK_OVERHEAD_256 = 1.08

#: OpenMP colored execution of unstructured loops destroys spatial
#: locality between consecutively executed elements ("pure MPI variants
#: are still on average faster than MPI+OpenMP due to the further loss in
#: data locality", Sec. 5) — effective bandwidth multiplier.
UNSTRUCT_OMP_LOCALITY_LOSS = 0.78

#: Memory-level parallelism per core for irregular gathers: sustained
#: outstanding misses an indirect CFD kernel keeps in flight (dependent
#: address chains and branchy flux code leave most fill buffers idle).
UNSTRUCT_GATHER_MLP = 6.5

#: Fraction of its STREAM bandwidth a GPU achieves on real stencil
#: kernels — higher than CPUs thanks to massive SMT: "better bandwidth
#: utilization (thanks to the massive SMT capabilities of GPUs), and no
#: MPI communications overheads" (Sec. 6).
GPU_BW_EFFICIENCY = 0.93

#: GPUs hide irregular-access latency with warp oversubscription; the
#: effective concurrency multiplier vs. a CPU core's MLP.
GPU_SMT_LATENCY_FACTOR = 12.0

#: Load imbalance between ranks of a block-decomposed mesh (surface
#: effects, OS noise, stragglers): grows with the rank count, so pure MPI
#: (112-224 ranks) pays more than MPI+OpenMP (8 ranks) — one half of why
#: the hybrid wins on structured meshes (fewer, larger messages is the
#: other).  Imbalance fraction = this coefficient x log2(nranks).
IMBALANCE_PER_LOG2_RANKS = 0.006

#: Messages at or below this size use the eager protocol (no rendezvous
#: handshake) in Intel MPI's shared-memory transport.
EAGER_LIMIT_BYTES = 16384

# ---------------------------------------------------------------------------
# Concurrency-limited application bandwidth (the Figure 8 mechanism).
#
# A core sustains at most C cache lines in flight; its memory throughput is
# C * 64 B / memory_latency.  Saturating the Xeon MAX's HBM needs ~13 GB/s
# from every core (26+ lines at 130 ns), while the DDR systems need only
# 3-4 GB/s — so kernel complexity that reduces per-core concurrency
# (many concurrent array streams dilute the prefetchers; wide stencils
# thrash L2) starves HBM long before it hurts DDR.  This is the published
# explanation of the platform's sub-peak behaviour (McCalpin, ISC'23 IXPUG
# — the paper's own reference [12]) and produces Figure 8's contrast:
# 41-75% of STREAM on the Xeon MAX vs 75-96% on the DDR platforms.
# ---------------------------------------------------------------------------

#: In-flight lines per core for a simple unit-stride streaming kernel with
#: hardware prefetch (L2 stream prefetchers cover ~2 pages ahead) in an
#: application context (TLB walks and short inner loops included).
MEM_CONCURRENCY_BASE = 22.0

#: Concurrency dilution per *squared* stencil radius: wide stencils spend
#: fill buffers on neighbour planes and conflict in L2 superlinearly (a
#: radius-4 FD kernel sustains a third of a radius-1 kernel's in-flight
#: misses) — this is what pins the 8th-order Acoustic solver at ~41% of
#: STREAM on the Xeon MAX (Figure 8) while radius-1 CloverLeaf kernels
#: stay near 75%.
CONCURRENCY_RADIUS_DILUTION = 0.08

#: Reference number of concurrent array streams a core's prefetchers
#: track at full efficiency; beyond it, concurrency per stream drops
#: (SPR has 16 L2 stream prefetch trackers shared across hyperthreads;
#: real multi-field kernels with read+write streams exceed them quickly).
CONCURRENCY_STREAMS_REF = 4.0

#: Exponent of the stream-dilution law.
CONCURRENCY_STREAMS_EXP = 0.45

#: SMT-2 lets the second thread contribute additional outstanding misses
#: for bandwidth (smaller than the latency-hiding gather boost).
CONCURRENCY_HT_BOOST = 1.08

#: Fraction of its STREAM bandwidth a CPU achieves on real application
#: kernels even without a concurrency limit — boundary loops, TLB misses,
#: and non-streaming stores that the tuned benchmark avoids.  Matches the
#: 75-85% (8360Y) / 79-96% (EPYC) Figure 8 ranges where concurrency is
#: not binding.
APP_STREAM_DERATE = 0.82

#: Fraction of a cache level's capacity usable by an application's reuse
#: footprint before streaming evictions dominate (conflict misses, other
#: ranks' data, victim-cache behaviour).  Residency decisions compare the
#: *whole application state* (the reuse distance of a loop chain) against
#: capacity x this factor — which is why the EPYC's 1.5 GB V-cache does
#: not turn multi-hundred-MB working sets cache-resident in practice.
CACHE_UTILIZATION = 0.4

#: Default fraction of irregular (gather) accesses that hit on-chip
#: caches on a bandwidth-minimizing renumbered mesh (consecutive edges
#: share nodes); the remainder pays full memory latency.  Apps override
#: per mesh: 2-D triangulations renumber better than 3-D multigrid
#: hierarchies (AppSpec.gather_hit).
GATHER_CACHE_HIT_RATE = 0.35

#: Actual memory traffic per counted byte (write-allocate RFOs, TLB
#: walks): scales the reuse-distance estimate used for residency.
REUSE_TRAFFIC_FACTOR = 1.3

#: Gather hit rate when the gathered field itself fits the LLC — the
#: EPYC's V-cache "significantly improved" MG-CFD's locality (Sec. 6),
#: which is why its speedup vs the Xeon MAX is the smallest.
GATHER_LLC_HIT = 0.85

#: Compute-kernel sensitivity to SIMD width: halving the vector width
#: does not halve throughput — non-FMA work (sqrt, compares, shuffles)
#: and dependency chains are width-insensitive.  Relative throughput =
#: (width_used / full_width) ** this exponent; 0.54 reproduces
#: miniBUDE's "+45% from ZMM high" (Sec. 5) and the small 4-6% ZMM
#: effect on Acoustic/OpenSBLI SN.
VECTOR_WIDTH_EXPONENT = 0.54

#: Achieved fraction of peak FMA throughput per application class: real
#: kernels mix adds, compares, sqrt/div and shuffles with FMAs.  The
#: COMPUTE value reproduces miniBUDE's 6 TFLOPS/s out of the 18.6 FP32
#: peak (Sec. 5); stencil kernels sustain a higher FMA fraction.
FLOP_MIX = {
    "structured-bandwidth": 0.60,
    "structured-compute": 0.60,
    "unstructured": 0.45,
    "compute": 0.33,
}


@contextlib.contextmanager
def override(**values):
    """Temporarily override calibration constants (ablation studies).

    ::

        with calibration.override(MEM_CONCURRENCY_BASE=1e9):
            ...  # concurrency ceiling effectively disabled

    The constants are read at call time throughout the model, so the
    override takes effect immediately and is restored on exit.
    """
    saved = {}
    g = globals()
    for key, val in values.items():
        if key not in _KEYS:
            raise KeyError(f"unknown calibration constant {key!r}")
        saved[key] = g[key]
        g[key] = val
    try:
        yield
    finally:
        g.update(saved)


#: Names of every calibration constant, sorted: the one key list of
#: :func:`snapshot`, :func:`constants` and :func:`override`.  Built last,
#: from the upper-case module globals above.
_KEYS = tuple(sorted(k for k in globals() if k.isupper() and not k.startswith("_")))
_values = operator.itemgetter(*_KEYS)


def constants() -> dict:
    """The live value of every calibration constant, by name."""
    return dict(zip(_KEYS, _values(globals())))


def snapshot() -> tuple:
    """Hashable snapshot of every calibration constant as it is now.

    Values that are read at call time throughout the model can change
    under :func:`override` or a plain ``setattr`` on this module, so
    anything derived from them — the vectorized evaluator's lowered
    blocks, :func:`repro.engine.store.model_version` — is valid exactly
    as long as the snapshot is unchanged.  Dict constants enter as their
    sorted items (an in-place edit changes the snapshot), and each
    value's type is part of it: ``4`` and ``4.0`` compare equal but
    serialize differently.
    """
    vals = [tuple(sorted(v.items())) if type(v) is dict else v
            for v in _values(globals())]
    return (*vals, *map(type, vals))
