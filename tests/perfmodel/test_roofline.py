"""Unit tests for the roofline+latency estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import default_engine
from repro.machine import (
    A100_40GB,
    XEON_8360Y,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
    ZmmUsage,
)
from repro.perfmodel import (
    AppClass,
    AppSpec,
    LoopSpec,
    estimate_app,
    loop_time,
)
from repro.ops.tiling import TiledChainModel

CFG = RunConfig(Compiler.ONEAPI, Parallelization.MPI, ZmmUsage.HIGH)


def mk_app(loops, klass=AppClass.STRUCTURED_BW, **kw):
    base = dict(name="a", klass=klass, dtype_bytes=8, iterations=10,
                loops=tuple(loops), domain=(2048, 2048),
                state_bytes=4e9)
    base.update(kw)
    return AppSpec(**base)


def bw_loop(**kw):
    base = dict(name="bw", points=4e6, bytes_per_point=160.0, flops_per_point=10.0)
    base.update(kw)
    return LoopSpec(**base)


def fl_loop(**kw):
    base = dict(name="fl", points=4e6, bytes_per_point=8.0, flops_per_point=5000.0,
                dtype_bytes=4)
    base.update(kw)
    return LoopSpec(**base)


class TestLoopTime:
    def test_bandwidth_bound_kernel(self):
        l = bw_loop()
        lt = loop_time(l, mk_app([l]), XEON_MAX_9480, CFG)
        assert lt.bottleneck == "bandwidth"
        # Within the derated STREAM envelope:
        assert lt.t_bandwidth >= l.bytes_total / XEON_MAX_9480.stream_bandwidth

    def test_compute_bound_kernel(self):
        l = fl_loop()
        lt = loop_time(l, mk_app([l], klass=AppClass.COMPUTE_BOUND, dtype_bytes=4),
                       XEON_MAX_9480, CFG)
        assert lt.bottleneck == "compute"

    def test_latency_bound_kernel(self):
        l = bw_loop(bytes_per_point=16.0, indirect_per_point=50.0,
                    indirect_bytes_per_point=8.0, vectorizable=False)
        lt = loop_time(l, mk_app([l], klass=AppClass.UNSTRUCTURED,
                                 domain=(10**9,), gather_hit=0.05),
                       XEON_MAX_9480, CFG)
        assert lt.t_latency > 0

    def test_time_at_least_each_bottleneck(self):
        l = bw_loop()
        lt = loop_time(l, mk_app([l]), XEON_MAX_9480, CFG)
        assert lt.time >= max(lt.t_bandwidth, lt.t_compute, lt.t_latency)

    def test_invocations_multiply_overhead(self):
        l1 = bw_loop(invocations=1.0)
        l9 = bw_loop(invocations=9.0)
        app = mk_app([l1])
        a = loop_time(l1, app, XEON_MAX_9480, CFG)
        b = loop_time(l9, app, XEON_MAX_9480, CFG)
        assert b.overhead == pytest.approx(9 * a.overhead)

    def test_stalling_compiler_rejected(self):
        l = bw_loop()
        app = mk_app([l], compiler_affinity={Compiler.CLASSIC: 0.0})
        with pytest.raises(ValueError, match="stalls"):
            loop_time(l, app, XEON_MAX_9480, CFG.with_(compiler=Compiler.CLASSIC))

    def test_working_set_override_uses_cache(self):
        l = bw_loop()
        app = mk_app([l])
        mem = loop_time(l, app, XEON_MAX_9480, CFG)
        cached = loop_time(l, app, XEON_MAX_9480, CFG, working_set=8 * 2**20)
        assert cached.t_bandwidth < mem.t_bandwidth / 2


class TestEstimateApp:
    def test_totals_scale_with_iterations(self):
        l = bw_loop()
        e10 = estimate_app(mk_app([l], iterations=10), XEON_MAX_9480, CFG)
        e20 = estimate_app(mk_app([l], iterations=20), XEON_MAX_9480, CFG)
        assert e20.total_time == pytest.approx(2 * e10.total_time)
        assert e20.counted_bytes == pytest.approx(2 * e10.counted_bytes)

    def test_split_sums_to_total(self):
        est = estimate_app(mk_app([bw_loop()]), XEON_MAX_9480, CFG)
        assert est.compute_time + est.mpi_time == pytest.approx(est.total_time)
        assert 0 < est.mpi_fraction < 1

    def test_gpu_has_no_mpi_time(self):
        cfg = RunConfig(Compiler.NVCC, Parallelization.CUDA)
        est = estimate_app(mk_app([bw_loop()]), A100_40GB, cfg)
        assert est.mpi_time == 0.0

    def test_effective_bandwidth_definition(self):
        est = estimate_app(mk_app([bw_loop()]), XEON_MAX_9480, CFG)
        assert est.effective_bandwidth == pytest.approx(
            est.counted_bytes / est.compute_time
        )

    def test_bandwidth_bound_app_faster_on_hbm(self):
        app = mk_app([bw_loop()])
        t_max = estimate_app(app, XEON_MAX_9480, CFG).total_time
        t_icx = estimate_app(app, XEON_8360Y, CFG).total_time
        assert 3.0 < t_icx / t_max < 5.5

    @pytest.mark.parametrize("price", [
        lambda spec: estimate_app(spec, XEON_MAX_9480, CFG),
        lambda spec: TiledChainModel(spec, XEON_MAX_9480, CFG,
                                     unique_bytes_per_point=64.0
                                     ).untiled_time(),
    ], ids=["estimate_app", "untiled_time"])
    def test_app_traffic_is_summed_once_per_app(self, monkeypatch, price):
        # Summing every loop's traffic once per loop priced made pricing
        # an app quadratic in its loops (195 sums for cloverleaf2d).
        spec = default_engine().app_spec("cloverleaf2d")
        assert len(spec.loops) > 100
        calls = []
        unpatched = AppSpec.bytes_per_iteration

        def counting(app):
            calls.append(app.name)
            return unpatched(app)

        monkeypatch.setattr(AppSpec, "bytes_per_iteration", counting)
        price(spec)
        assert len(calls) <= 1

    @given(bpp=st.floats(min_value=8, max_value=1000),
           fpp=st.floats(min_value=1, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_work(self, bpp, fpp):
        small = mk_app([bw_loop(bytes_per_point=bpp, flops_per_point=fpp)])
        bigger = mk_app([bw_loop(bytes_per_point=bpp * 2, flops_per_point=fpp * 2)])
        t1 = estimate_app(small, XEON_MAX_9480, CFG).total_time
        t2 = estimate_app(bigger, XEON_MAX_9480, CFG).total_time
        assert t2 >= t1
