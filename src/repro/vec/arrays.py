"""The array IR: per-platform, per-app and per-pair constant tables.

One evaluation batch is a matrix with **one row per (job, loop)**,
grouped by platform (platform parameters are scalars within a group).
The containers here hold the row constants that do not depend on the
:class:`~repro.machine.config.RunConfig`:

- :class:`PlatformTable` — the platform scalars and the cache-hierarchy
  threshold/bandwidth vectors (from the
  :class:`~repro.mem.hierarchy.HierarchyModel`);
- :class:`AppBlock` — the per-loop columns of one application spec
  (bytes, flops, indirect counts, invocation counts, masks) plus the
  representative loops the config-dependent scalar helpers are probed
  with;
- :class:`PairBlock` — the (app, platform) columns: the stencil traffic
  factors, which depend on the platform's L2 but not on the config or
  on any calibration constant.

Column dtypes are ``float64`` throughout (plus boolean masks and an
integer memory-level code vector); float64 elementwise arithmetic is
bit-identical to the scalar model's IEEE-754 double operations, which
is what the golden-equivalence gate relies on.  Quantities whose scalar
evaluation is *not* elementwise-reproducible in numpy (``**``,
``math.log2``, ordered Python ``sum``) are deliberately kept out of the
arrays — the evaluator computes those row-wise in Python (see
``docs/VECTOR.md``).

Calibration constants are mutable (:func:`repro.perfmodel.calibration.
override`), so every cache of lowered blocks must be keyed by
:func:`repro.perfmodel.calibration.snapshot` — the one snapshot of all
calibration values, which the result store's ``model_version()`` is
memoized on too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.spec import DeviceKind, PlatformSpec
from ..mem.hierarchy import HierarchyModel, Scope
from ..perfmodel.kernelmodel import AppSpec, LoopSpec

__all__ = ["PlatformTable", "AppBlock", "PairBlock"]

F64 = np.float64


@dataclass(frozen=True)
class PlatformTable:
    """Platform scalars + hierarchy vectors for one evaluation group.

    ``thresholds[i]``/``level_bws[i]`` reproduce
    :meth:`HierarchyModel.serving_level` at node scope: a working set is
    served by the innermost level ``i`` with ``ws <= thresholds[i]``
    (capacity x utilization), at ``min(bandwidth, core-throughput
    ceiling)``; past the last level it is served at ``memory_bw``.
    ``level_names`` appends ``"memory"`` so a level code of
    ``len(thresholds)`` indexes the memory name directly.
    """

    platform: PlatformSpec
    level_names: tuple[str, ...]  # innermost-first cache names + "memory"
    thresholds: np.ndarray  # float64: aggregate capacity * utilization
    level_bws: np.ndarray  # float64: min(aggregate bw, core ceiling)
    memory_bw: float  # min(STREAM bw, core ceiling)
    cache_cutoff: float  # stream_bandwidth * 1.01 (cache-resident test)
    llc_capacity_total: float  # platform.cache_capacity_total(LLC)
    line_size: float  # innermost cache line (bytes)
    mem_latency: float  # platform.memory.latency (seconds)
    total_cores: int
    is_gpu: bool

    @classmethod
    def from_hierarchy(cls, hm: HierarchyModel) -> "PlatformTable":
        p = hm.platform
        levels = hm.aggregate_levels(Scope.NODE)
        ceiling = hm.core_throughput_ceiling(Scope.NODE)
        return cls(
            platform=p,
            level_names=tuple(lvl.name for lvl in p.caches) + ("memory",),
            thresholds=np.array(
                [cap * hm.utilization for cap, _ in levels], dtype=F64
            ),
            level_bws=np.array(
                [min(bw, ceiling) for _, bw in levels], dtype=F64
            ),
            memory_bw=min(hm.memory_bandwidth(Scope.NODE), ceiling),
            cache_cutoff=p.stream_bandwidth * 1.01,
            llc_capacity_total=p.cache_capacity_total(
                p.last_level_cache.name
            ),
            line_size=p.caches[0].line_size,
            mem_latency=p.memory.latency,
            total_cores=p.total_cores,
            is_gpu=p.kind is DeviceKind.GPU,
        )


@dataclass
class AppBlock:
    """Per-loop column block of one application spec (config-free).

    ``bytes_raw``/``flops_raw`` keep the *original* Python values of
    ``loop.bytes_total``/``loop.flops_total`` — the structured dialect
    reports integral byte counts and the int-vs-float distinction is
    part of the observable surface (store bytes, golden baseline), so
    the assembled :class:`~repro.perfmodel.roofline.LoopTime` and the
    ``counted_bytes``/``flops`` totals are built from these, never from
    the float64 columns.

    ``combos``/``combo_codes`` index the distinct (dtype_bytes,
    vectorizable) classes: :func:`~repro.perfmodel.configmodel.
    effective_flops` depends on the loop only through that pair, so the
    evaluator probes the scalar function once per class per job and
    scatters the values by code.  ``gather_reps`` does the same for
    :func:`~repro.perfmodel.configmodel.gather_throughput` (loop
    dependence: ``vectorizable`` only), over the loops that actually
    have indirect accesses.  ``indirect_rep`` is any loop with
    ``indirect_per_point > 0`` — the probe for
    :func:`~repro.perfmodel.configmodel.traffic_multiplier`, which is
    uniform across such loops for a given config.

    ``needs_scalar`` marks a spec the vectorized path refuses (it would
    diverge from — or fail differently than — the scalar path); the
    engine then evaluates those jobs per-loop as before.
    """

    spec: AppSpec
    n: int
    names: list[str]
    bytes_raw: list  # loop.bytes_total, original int/float objects
    flops_raw: list  # loop.flops_total, original int/float objects
    bytes_f: np.ndarray  # float64 copy of bytes_raw
    flops_f: np.ndarray  # float64 copy of flops_raw
    indirect_count: np.ndarray  # float64: points * indirect_per_point
    has_indirect: np.ndarray  # bool: indirect_per_point > 0
    has_indirect_bytes: np.ndarray  # bool: indirect_bytes_per_point > 0
    ind_frac: np.ndarray  # float64: min(ind_bytes/bytes_per_point, 1.0)
    invocations: np.ndarray  # float64: max(loop.invocations, 1.0)
    vec_mask: np.ndarray  # bool: loop.vectorizable
    combo_codes: np.ndarray  # intp index into combos, per loop
    combos: list[LoopSpec]  # representative per (dtype, vectorizable)
    gather_reps: dict[bool, LoopSpec]  # representative per vectorizable
    indirect_rep: LoopSpec | None
    bytes_per_iter: float  # spec.bytes_per_iteration() (may be int)
    state_bytes: float
    gathered_bytes: float  # gridpoints * 4.0 * dtype_bytes
    any_indirect_bytes: bool
    needs_scalar: bool

    @classmethod
    def from_spec(cls, spec: AppSpec) -> "AppBlock":
        loops = spec.loops
        bytes_raw = [l.bytes_total for l in loops]
        flops_raw = [l.flops_total for l in loops]
        combos: list[LoopSpec] = []
        combo_key: dict[tuple, int] = {}
        codes = []
        gather_reps: dict[bool, LoopSpec] = {}
        indirect_rep = None
        needs_scalar = False
        ind_frac = []
        for loop in loops:
            key = (loop.dtype_bytes, loop.vectorizable)
            if key not in combo_key:
                combo_key[key] = len(combos)
                combos.append(loop)
            codes.append(combo_key[key])
            if loop.indirect_per_point > 0:
                if indirect_rep is None:
                    indirect_rep = loop
                gather_reps.setdefault(bool(loop.vectorizable), loop)
            if loop.indirect_bytes_per_point > 0:
                if loop.bytes_per_point == 0:
                    # The scalar gathered-residency branch divides by
                    # bytes_per_point; let the scalar path raise (or
                    # not) exactly as it always did.
                    needs_scalar = True
                    ind_frac.append(0.0)
                else:
                    ind_frac.append(
                        min(
                            loop.indirect_bytes_per_point
                            / loop.bytes_per_point,
                            1.0,
                        )
                    )
            else:
                ind_frac.append(0.0)
        return cls(
            spec=spec,
            n=len(loops),
            names=[l.name for l in loops],
            bytes_raw=bytes_raw,
            flops_raw=flops_raw,
            bytes_f=np.array(bytes_raw, dtype=F64),
            flops_f=np.array(flops_raw, dtype=F64),
            indirect_count=np.array(
                [l.points * l.indirect_per_point for l in loops], dtype=F64
            ),
            has_indirect=np.array(
                [l.indirect_per_point > 0 for l in loops], dtype=bool
            ),
            has_indirect_bytes=np.array(
                [l.indirect_bytes_per_point > 0 for l in loops], dtype=bool
            ),
            ind_frac=np.array(ind_frac, dtype=F64),
            invocations=np.array(
                [max(l.invocations, 1.0) for l in loops], dtype=F64
            ),
            vec_mask=np.array([l.vectorizable for l in loops], dtype=bool),
            combo_codes=np.array(codes, dtype=np.intp),
            combos=combos,
            gather_reps=gather_reps,
            indirect_rep=indirect_rep,
            bytes_per_iter=spec.bytes_per_iteration(),
            state_bytes=spec.state_bytes,
            gathered_bytes=spec.gridpoints * 4.0 * spec.dtype_bytes,
            any_indirect_bytes=any(
                l.indirect_bytes_per_point > 0 for l in loops
            ),
            needs_scalar=needs_scalar,
        )


@dataclass(frozen=True)
class PairBlock:
    """(app, platform) columns: the per-loop stencil traffic factors.

    :func:`~repro.perfmodel.kernelmodel.stencil_traffic_factor` reads
    the loop, the platform's L2 capacity and the app's dimensionality —
    no config, no calibration constant — so the factor vector is pure
    per pair and computed once with the scalar function itself
    (``math.log2`` inside it is not numpy-reproducible bit-for-bit).
    """

    stencil: np.ndarray  # float64, one factor per loop

    @classmethod
    def from_pair(cls, spec: AppSpec, platform: PlatformSpec) -> "PairBlock":
        from ..perfmodel.kernelmodel import stencil_traffic_factor

        return cls(
            stencil=np.array(
                [
                    stencil_traffic_factor(
                        loop,
                        platform,
                        loop.points / platform.total_cores,
                        spec.ndims,
                    )
                    for loop in spec.loops
                ],
                dtype=F64,
            )
        )
