"""Batched evaluation of whole job batches over the array IR.

:class:`VecEvaluator` takes a batch of ``(spec, platform, config,
hierarchy)`` points, lowers them onto the containers in
:mod:`repro.vec.arrays` (cached per spec / pair / platform, guarded by
the calibration snapshot token), groups rows by platform, and runs the
roofline model as elementwise float64 array passes — producing
:class:`~repro.perfmodel.roofline.AppEstimate` objects bit-for-bit
identical to :func:`~repro.perfmodel.roofline.estimate_app`.

Exact-equivalence rules (see ``docs/VECTOR.md`` for the full table):

- elementwise ``* / + -``, ``np.minimum``/``np.maximum``/``np.where``
  on float64 match scalar IEEE-754 doubles bit-for-bit, so the traffic,
  working-set, bandwidth and limb-term passes run in numpy;
- ``x ** p`` and ``math.log2`` do **not** (numpy's SIMD pow/log differ
  in the last ulp), so the p-norm blend runs row-wise in Python via
  ``math.pow`` — the same C ``pow`` that ``float.__pow__`` calls;
- numpy reductions use pairwise summation while the scalar model sums
  left-to-right, so all per-job totals use Python ``sum`` over list
  slices;
- config-scalar helpers whose loop dependence collapses to a small
  class (``effective_flops``: (dtype, vectorizable);
  ``gather_throughput``: vectorizable; ``traffic_multiplier``: has
  indirect accesses) are probed once per class with the *scalar*
  functions and scattered by code, so their internal arithmetic is the
  scalar arithmetic by construction;
- the communication model is memoized on its true dependency key
  (spec identity, platform, rank count, hyperthreading) and always
  computed by the scalar :func:`~repro.perfmodel.commmodel.
  estimate_comm`.

A point the vectorized path cannot reproduce faithfully (zero
``bytes_per_point`` under the gathered-residency branch, a failing
config, an affinity the scalar path rejects with ``ValueError``)
returns ``None`` in its slot; the engine falls back to the per-job
scalar path for exactly those jobs, preserving error messages and
metric counts.

Batch-aware instrumentation: each platform group's phases are the
``vec`` stages ``lower``, ``pass`` and ``scatter`` of the stage recorder
(:mod:`repro.obs.stages`).  When a session metrics registry is active
the evaluator also observes each batch's size into ``vec_batch_jobs``
and *synthesizes* the scalar path's attribution from the batch columns —
``perfmodel_loops_total`` / ``perfmodel_loop_seconds_total`` per
winning limb and ``mem_hierarchy_lookups_total`` per serving level are
tallied by array reductions (no per-row Python), and one ``perfmodel``
``estimate:<app>`` trace event is emitted per job.  Per-*loop* trace
events stay on the scalar path (``repro trace`` / ``estimate_app``),
whose single-app depth is where that granularity belongs; a batched
sweep traces at job granularity so instrumentation cannot drag the
fast path back to scalar speeds.  Instrumented runs therefore no
longer need the scalar fallback: the observed path *is* the fast path,
and the golden-equivalence suite pins that results stay bit-for-bit
identical with observability on.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..machine.config import RunConfig
from ..machine.spec import DeviceKind, PlatformSpec
from ..mem.hierarchy import HierarchyModel
from ..obs.metrics import active_metrics
from ..obs.stages import stage
from ..obs.tracer import active_tracer
from ..perfmodel import calibration as cal
from ..perfmodel.commmodel import estimate_comm
from ..perfmodel.configmodel import (
    bandwidth_multiplier,
    effective_flops,
    gather_throughput,
    kernel_concurrency,
    loop_overhead,
    sycl_time_multiplier,
    traffic_multiplier,
)
from ..perfmodel.kernelmodel import AppSpec
from ..perfmodel.roofline import AppEstimate, LoopTime
from .arrays import F64, AppBlock, PairBlock, PlatformTable

__all__ = ["VecEvaluator"]

#: Batch-size histogram bounds (jobs per ``evaluate_many`` call):
#: powers of two up to the serve layer's largest merged plans.
BATCH_JOB_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class _JobScalars:
    """The config-dependent scalars of one job, probed once per job."""

    __slots__ = (
        "affinity", "sycl", "overhead", "mult", "tm_ind", "eff_vals",
        "gather_true", "gather_false", "reuse", "resident", "cache_hbw",
        "comm", "nranks",
    )


class VecEvaluator:
    """Caching, thread-safe batched evaluator of model points.

    All lowered-block caches are invalidated together whenever the
    calibration snapshot changes; per-spec entries are keyed by object
    identity and pin the spec (``AppSpec`` carries a dict field and is
    unhashable), so a key can never be reused while its entry lives.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._token: tuple | None = None
        self._tables: dict[int, tuple[HierarchyModel, PlatformTable]] = {}
        self._apps: dict[int, AppBlock] = {}
        self._pairs: dict[tuple[int, str], PairBlock] = {}
        self._conc: dict[tuple[int, bool], np.ndarray] = {}
        # Keyed by the full decomposition shape — (ranks, nodes) — so a
        # future cluster-aware vec path can never alias a single-node
        # estimate (today every batched job is single-node: nodes == 1).
        self._comm: dict[tuple[int, str, int, int, bool], object] = {}

    # ---- cached lowering -------------------------------------------------

    def _check_token(self) -> None:
        token = cal.snapshot()
        if token != self._token:
            self._token = token
            self._tables.clear()
            self._apps.clear()
            self._pairs.clear()
            self._conc.clear()
            self._comm.clear()

    def _table(self, hm: HierarchyModel) -> PlatformTable:
        entry = self._tables.get(id(hm))
        if entry is None:
            entry = self._tables[id(hm)] = (hm, PlatformTable.from_hierarchy(hm))
        return entry[1]

    def _app_block(self, spec: AppSpec) -> AppBlock:
        block = self._apps.get(id(spec))
        if block is None:
            block = self._apps[id(spec)] = AppBlock.from_spec(spec)
        return block

    def _pair_block(self, spec: AppSpec, platform: PlatformSpec) -> PairBlock:
        key = (id(spec), platform.short_name)
        block = self._pairs.get(key)
        if block is None:
            block = self._pairs[key] = PairBlock.from_pair(spec, platform)
        return block

    def _conc_column(
        self, spec: AppSpec, platform: PlatformSpec, config: RunConfig
    ) -> np.ndarray:
        # kernel_concurrency reads the loop, the calibration constants,
        # and whether SMT is active on a CPU — one column per (spec,
        # effective-HT) covers every config.
        ht = bool(config.hyperthreading and platform.kind is DeviceKind.CPU)
        key = (id(spec), ht)
        col = self._conc.get(key)
        if col is None:
            col = self._conc[key] = np.array(
                [kernel_concurrency(platform, config, l) for l in spec.loops],
                dtype=F64,
            )
        return col

    def _comm_estimate(
        self, spec: AppSpec, platform: PlatformSpec, config: RunConfig,
        nranks: int, nodes: int = 1,
    ):
        # estimate_comm reads the config only through ranks() and the
        # hyperthreading flag (which picks the rank placement).
        key = (
            id(spec), platform.short_name, nranks, nodes,
            bool(config.hyperthreading),
        )
        comm = self._comm.get(key)
        if comm is None:
            comm = self._comm[key] = estimate_comm(
                spec, platform, config, nodes=nodes,
            )
        return comm

    # ---- per-job scalar stage --------------------------------------------

    def _job_scalars(
        self,
        spec: AppSpec,
        platform: PlatformSpec,
        config: RunConfig,
        hm: HierarchyModel,
        pt: PlatformTable,
        ab: AppBlock,
    ) -> _JobScalars | None:
        js = _JobScalars()
        js.affinity = spec.affinity(config.compiler)
        if js.affinity <= 0.0:
            return None  # the scalar path raises its documented ValueError
        loop0 = spec.loops[0]
        js.sycl = sycl_time_multiplier(config)
        js.overhead = loop_overhead(platform, config)
        js.mult = bandwidth_multiplier(platform, config, spec, loop0)
        js.tm_ind = (
            traffic_multiplier(platform, config, spec, ab.indirect_rep)
            if ab.indirect_rep is not None
            else 1.0
        )
        js.eff_vals = np.array(
            [effective_flops(platform, config, spec, rep) for rep in ab.combos],
            dtype=F64,
        )
        js.gather_true = ab.gather_reps.get(True)
        js.gather_false = ab.gather_reps.get(False)
        if js.gather_true is not None:
            js.gather_true = gather_throughput(
                platform, config, spec, js.gather_true
            )
        if js.gather_false is not None:
            js.gather_false = gather_throughput(
                platform, config, spec, js.gather_false
            )
        js.reuse = ab.bytes_per_iter * cal.REUSE_TRAFFIC_FACTOR
        js.resident = (
            ab.any_indirect_bytes
            and platform.kind is DeviceKind.CPU
            and ab.gathered_bytes
            <= pt.llc_capacity_total * cal.CACHE_UTILIZATION
        )
        js.cache_hbw = (
            hm.effective_bandwidth(ab.gathered_bytes) if js.resident else 1.0
        )
        js.nranks = config.ranks(platform)
        js.comm = self._comm_estimate(spec, platform, config, js.nranks)
        return js

    # ---- batch evaluation ------------------------------------------------

    def evaluate_many(
        self,
        items: list[tuple[AppSpec, PlatformSpec, RunConfig, HierarchyModel]],
    ) -> list[AppEstimate | None]:
        """Evaluate a batch of points; ``None`` per point that must take
        the scalar path (fallback or failure)."""
        m = active_metrics()
        if m is not None:
            m.observe("vec_batch_jobs", float(len(items)),
                      buckets=BATCH_JOB_BUCKETS)
        with self._lock:
            self._check_token()
            out: list[AppEstimate | None] = [None] * len(items)
            groups: dict[str, list[int]] = {}
            for i, (_spec, platform, _config, _hm) in enumerate(items):
                groups.setdefault(platform.short_name, []).append(i)
            for indices in groups.values():
                try:
                    self._evaluate_group(items, indices, out)
                except Exception:
                    # Safety net: any surprise in the batched math sends
                    # the whole group to the scalar path, which either
                    # produces the number or the documented error.
                    for i in indices:
                        out[i] = None
            return out

    def _evaluate_group(
        self, items: list, indices: list[int], out: list
    ) -> None:
        _spec0, platform, _config0, hm0 = items[indices[0]]
        pt = self._table(hm0)
        is_cpu = platform.kind is DeviceKind.CPU
        pname = platform.short_name
        m = active_metrics()
        tracer = active_tracer()

        with stage("vec", "lower", platform=pname):
            # (out index, spec, config, app block, scalars, row offset)
            jobs = []
            total = 0
            for i in indices:
                spec, _p, config, hm = items[i]
                ab = self._app_block(spec)
                if ab.needs_scalar:
                    continue
                try:
                    js = self._job_scalars(spec, platform, config, hm, pt, ab)
                except Exception:
                    continue  # infeasible/failing point: scalar path decides
                if js is None:
                    continue
                jobs.append((i, spec, config, ab, js, total))
                total += ab.n
            if not jobs:
                return

            R = total
            bytes_c = np.empty(R, dtype=F64)
            tm_c = np.empty(R, dtype=F64)
            sf_c = np.empty(R, dtype=F64)
            state_c = np.empty(R, dtype=F64)
            reuse_c = np.empty(R, dtype=F64)
            eff_c = np.empty(R, dtype=F64)
            flops_c = np.empty(R, dtype=F64)
            gth_c = np.ones(R, dtype=F64)
            ind_c = np.empty(R, dtype=F64)
            indf_c = np.empty(R, dtype=F64)
            inv_c = np.empty(R, dtype=F64)
            aff_c = np.empty(R, dtype=F64)
            sycl_c = np.empty(R, dtype=F64)
            ovh_c = np.empty(R, dtype=F64)
            mult_c = np.empty(R, dtype=F64)
            res_c = np.zeros(R, dtype=bool)
            chbw_c = np.ones(R, dtype=F64)
            conc_c = np.empty(R, dtype=F64) if is_cpu else None

            for i, spec, config, ab, js, s in jobs:
                e = s + ab.n
                bytes_c[s:e] = ab.bytes_f
                flops_c[s:e] = ab.flops_f
                pb = self._pair_block(spec, platform)
                sf_c[s:e] = pb.stencil
                if ab.indirect_rep is None or js.tm_ind == 1.0:
                    tm_c[s:e] = 1.0
                else:
                    tm_c[s:e] = np.where(ab.has_indirect, js.tm_ind, 1.0)
                state_c[s:e] = ab.state_bytes
                reuse_c[s:e] = js.reuse
                eff_c[s:e] = js.eff_vals[ab.combo_codes]
                if ab.gather_reps:
                    gth_c[s:e] = np.where(
                        ab.vec_mask,
                        1.0 if js.gather_true is None else js.gather_true,
                        1.0 if js.gather_false is None else js.gather_false,
                    )
                ind_c[s:e] = ab.indirect_count
                indf_c[s:e] = ab.ind_frac
                inv_c[s:e] = ab.invocations
                aff_c[s:e] = js.affinity
                sycl_c[s:e] = js.sycl
                ovh_c[s:e] = js.overhead
                mult_c[s:e] = js.mult
                if js.resident:
                    res_c[s:e] = ab.has_indirect_bytes
                    chbw_c[s:e] = js.cache_hbw
                if is_cpu:
                    conc_c[s:e] = self._conc_column(spec, platform, config)

        with stage("vec", "pass", platform=pname, rows=R):
            # traffic = (bytes * traffic_multiplier) * stencil_factor
            traffic = bytes_c * tm_c
            traffic *= sf_c
            # working set: max(traffic, state, reuse traffic, 1.0), then the
            # innermost hierarchy level with room decides hbw and the level
            # code (outermost applied first so the innermost match wins).
            ws = np.maximum(
                np.maximum(np.maximum(traffic, state_c), reuse_c), 1.0
            )
            nlev = len(pt.thresholds)
            hbw = np.full(R, pt.memory_bw, dtype=F64)
            lvl = np.full(R, nlev, dtype=np.intp)
            for li in range(nlev - 1, -1, -1):
                mask = ws <= pt.thresholds[li]
                hbw[mask] = pt.level_bws[li]
                lvl[mask] = li

            if pt.is_gpu:
                bw = hbw * mult_c
                t_bw = traffic / bw
            else:
                derate = cal.APP_STREAM_DERATE
                hd = hbw * derate
                per_core = (conc_c * pt.line_size) / pt.mem_latency
                ceiling = per_core * pt.total_cores
                bw = np.where(
                    hbw > pt.cache_cutoff,
                    hd * mult_c,
                    np.minimum(hd, ceiling) * mult_c,
                )
                t_bw = traffic / bw
                if res_c.any():
                    # Gathered-field LLC residency: re-price the indirect
                    # share at the cache-working-set bandwidth.
                    chd = chbw_c * derate
                    cbw = np.where(
                        chbw_c > pt.cache_cutoff,
                        chd * mult_c,
                        np.minimum(chd, ceiling) * mult_c,
                    )
                    alt = (traffic * (1.0 - indf_c)) / bw + (
                        traffic * indf_c
                    ) / cbw
                    t_bw = np.where(res_c, alt, t_bw)

            t_fl = flops_c / eff_c
            t_lat = ind_c / gth_c

            # p-norm blend, row-wise in Python: t**p and the 1/p root must
            # be the scalar path's C pow, and the term sum its ordered sum.
            tb_l = t_bw.tolist()
            tf_l = t_fl.tolist()
            tl_l = t_lat.tolist()
            p = cal.BOTTLENECK_PNORM
            ip = 1.0 / p
            pw = math.pow
            core0 = []
            push = core0.append
            for a, b, c in zip(tb_l, tf_l, tl_l):
                s = 0.0
                if a > 0.0:
                    s = pw(a, p)
                if b > 0.0:
                    s = s + pw(b, p)
                if c > 0.0:
                    s = s + pw(c, p)
                push(pw(s, ip) if s > 0.0 else 0.0)

            core = (np.asarray(core0, dtype=F64) * sycl_c) / aff_c
            ovh_row = ovh_c * inv_c
            time_c = core + ovh_row

        with stage("vec", "scatter", platform=pname, jobs=len(jobs)):
            if m is not None:
                # Attribution synthesized from the batch columns: winning-
                # limb and serving-level tallies are array reductions, so a
                # metered batch pays a handful of registry increments and
                # zero per-row Python.  The >=-chain is LoopTime.bottleneck's
                # first-maximum tie-break in bandwidth/compute/latency order.
                bw_win = (t_bw >= t_fl) & (t_bw >= t_lat)
                cp_win = ~bw_win & (t_fl >= t_lat)
                for limb, mask in (
                    ("bandwidth", bw_win),
                    ("compute", cp_win),
                    ("latency", ~bw_win & ~cp_win),
                ):
                    count = int(np.count_nonzero(mask))
                    if count:
                        m.inc("perfmodel_loops_total", count,
                              limb=limb, platform=pname)
                        m.inc("perfmodel_loop_seconds_total",
                              float(time_c[mask].sum()), limb=limb,
                              platform=pname)
                for li, count in enumerate(
                    np.bincount(lvl, minlength=nlev + 1).tolist()
                ):
                    if count:
                        m.inc("mem_hierarchy_lookups_total", count,
                              platform=pname, level=pt.level_names[li])
                app_tally: dict[str, int] = {}  # app -> estimates

            time_l = time_c.tolist()
            ovh_l = ovh_row.tolist()
            lvl_l = lvl.tolist()
            names = pt.level_names
            new = LoopTime.__new__

            for i, spec, config, ab, js, s in jobs:
                e = s + ab.n
                times = time_l[s:e]
                lts = []
                push_lt = lts.append
                for nm, t, tb, tf, tl, ov, cb, fl, lv in zip(
                    ab.names, times, tb_l[s:e], tf_l[s:e], tl_l[s:e],
                    ovh_l[s:e], ab.bytes_raw, ab.flops_raw, lvl_l[s:e],
                ):
                    lt = new(LoopTime)
                    lt.__dict__.update(
                        name=nm, time=t, t_bandwidth=tb, t_compute=tf,
                        t_latency=tl, overhead=ov, counted_bytes=cb, flops=fl,
                        mem_level=names[lv],
                    )
                    push_lt(lt)
                compute_per_iter = sum(times)
                imbalance = (
                    compute_per_iter
                    * cal.IMBALANCE_PER_LOG2_RANKS
                    * math.log2(js.nranks)
                    if is_cpu and js.nranks > 1
                    else 0.0
                )
                mpi_per_iter = js.comm.time_per_iter + imbalance
                n = spec.iterations
                out[i] = AppEstimate(
                    app=spec.name,
                    platform=platform.short_name,
                    config_label=config.label(),
                    total_time=(compute_per_iter + mpi_per_iter) * n,
                    compute_time=compute_per_iter * n,
                    mpi_time=mpi_per_iter * n,
                    per_loop=tuple(lts),
                    counted_bytes=sum(ab.bytes_raw) * n,
                    flops=sum(ab.flops_raw) * n,
                    comm=js.comm,
                )
                if m is not None:
                    app_tally[spec.name] = app_tally.get(spec.name, 0) + 1
                if tracer is not None:
                    tracer.event(
                        "perfmodel", f"estimate:{spec.name}", 0.0,
                        track=("perfmodel", 0),
                        platform=platform.short_name, config=config.label(),
                        compute_per_iter=compute_per_iter,
                        mpi_per_iter=mpi_per_iter,
                        comm_per_iter=js.comm.time_per_iter,
                        imbalance=imbalance, iterations=n, loops=len(lts),
                    )

            if m is not None:
                for app_name in sorted(app_tally):
                    m.inc("perfmodel_estimates_total", app_tally[app_name],
                          app=app_name, platform=pname)
