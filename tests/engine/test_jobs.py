"""Tests for job-plan construction: cross products, dedup, filtering."""

import dataclasses

import pytest

from repro.engine import SweepEngine
from repro.engine.jobs import (
    SKIP_COMPILER,
    SKIP_INFEASIBLE,
    build_plan,
    default_configs,
    sweep_plan,
)
from repro.machine import (
    A100_40GB,
    EPYC_7V73X,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
    structured_config_sweep,
)


class TestBuildPlan:
    def test_cross_product_counts(self):
        cfgs = structured_config_sweep(XEON_MAX_9480)
        plan = build_plan(["miniweather", "cloverleaf2d"], [XEON_MAX_9480], cfgs)
        assert len(plan) == 2 * len(cfgs)
        assert not plan.skipped

    def test_dedup_collapses_repeats(self):
        cfgs = structured_config_sweep(XEON_MAX_9480)
        plan = build_plan(["miniweather", "miniweather"], [XEON_MAX_9480], cfgs + cfgs)
        assert len(plan) == len(cfgs)

    def test_infeasible_jobs_set_aside_with_reason(self):
        # Classic is an Intel compiler: infeasible on the EPYC.
        cfg = RunConfig(Compiler.CLASSIC, Parallelization.MPI)
        plan = build_plan(["miniweather"], [EPYC_7V73X], [cfg])
        assert not plan.jobs
        assert plan.skipped == [(plan.skipped[0][0], SKIP_INFEASIBLE)]

    def test_compiler_stall_detected_without_profiling(self):
        # miniBUDE does not run under Classic (paper Sec. 5).
        cfg = RunConfig(Compiler.CLASSIC, Parallelization.MPI)
        plan = build_plan(["minibude"], [XEON_MAX_9480], [cfg])
        assert not plan.jobs
        assert plan.skipped[0][1] == SKIP_COMPILER

    def test_app_major_ordering(self):
        cfgs = structured_config_sweep(XEON_MAX_9480)
        plan = build_plan(["cloverleaf2d", "miniweather"], [XEON_MAX_9480], cfgs)
        apps_seen = [j.app for j in plan.jobs]
        # Spec-before-estimate grouping: all of app 1, then all of app 2.
        assert apps_seen == sorted(apps_seen, key=["cloverleaf2d", "miniweather"].index)
        assert plan.apps == ["cloverleaf2d", "miniweather"]

    def test_another_platform_under_a_short_name_raises(self):
        clone = dataclasses.replace(XEON_MAX_9480, cores_per_socket=8,
                                    name="clone8")
        with pytest.raises(ValueError) as plan_error:
            build_plan(["miniweather"], [XEON_MAX_9480, clone])
        engine = SweepEngine(use_cache=False)
        engine.hierarchy(XEON_MAX_9480)
        with pytest.raises(ValueError) as engine_error:
            engine.hierarchy(clone)
        assert str(plan_error.value) == str(engine_error.value) == (
            f"platform short name 'max9480' already names "
            f"{XEON_MAX_9480.name!r}; give 'clone8' a short name of its own")

    def test_equal_platform_copies_collapse(self):
        copy = dataclasses.replace(XEON_MAX_9480)
        assert copy is not XEON_MAX_9480
        plan = build_plan(["miniweather"], [XEON_MAX_9480, copy])
        assert len(plan) == 24 and not plan.skipped
        assert [p is XEON_MAX_9480 for p in plan.platforms] == [True]

    def test_platforms_enumerated(self):
        plan = build_plan(["miniweather"], [XEON_MAX_9480, EPYC_7V73X])
        names = [p.short_name for p in plan.platforms]
        assert names == ["max9480", "epyc7v73x"]


class TestDefaultConfigs:
    def test_structured_app_gets_fig3_sweep(self):
        assert len(default_configs("miniweather", XEON_MAX_9480)) == 24

    def test_unstructured_app_gets_fig4_sweep(self):
        assert len(default_configs("mgcfd", XEON_MAX_9480)) == 25

    def test_gpu_gets_single_cuda_config(self):
        cfgs = default_configs("miniweather", A100_40GB)
        assert len(cfgs) == 1
        assert cfgs[0].parallelization is Parallelization.CUDA


class TestSweepPlan:
    def test_covers_all_configs(self):
        cfgs = structured_config_sweep(XEON_MAX_9480)
        plan = sweep_plan("miniweather", XEON_MAX_9480, cfgs)
        assert len(plan.jobs) + len(plan.skipped) == len(cfgs)
