"""End-to-end tests of the sweep engine: caching, metrics, plans.

The acceptance properties from the engine's introduction live here:
a warm (fully cached) figure regeneration performs *zero* perf-model
evaluations, and cached estimates are bit-identical to fresh ones.
"""

import dataclasses
import runpy
import sys
import threading
from pathlib import Path

import pytest

import repro.engine.core as engine_core
from repro.apps.base import APP_ORDER
from repro.engine import (
    SweepEngine,
    build_plan,
    default_configs,
    default_engine,
    reset_engine,
)
from repro.machine import (
    ALL_PLATFORMS,
    EPYC_7V73X,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
    structured_config_sweep,
)
from repro.perfmodel import calibration

APP = "miniweather"
CFGS = structured_config_sweep(XEON_MAX_9480)


def fresh_engine(tmp_path, **kw):
    return SweepEngine(cache_dir=tmp_path / "cache", **kw)


class TestCaching:
    def test_cold_then_warm_same_engine(self, tmp_path):
        eng = fresh_engine(tmp_path)
        first = eng.sweep(APP, XEON_MAX_9480, CFGS)
        assert eng.metrics.evaluations == len(CFGS)
        assert eng.metrics.cache_hits == 0
        second = eng.sweep(APP, XEON_MAX_9480, CFGS)
        assert eng.metrics.evaluations == len(CFGS)  # unchanged
        assert eng.metrics.cache_hits == len(CFGS)
        assert [(c, e.total_time) for c, e in first] == [
            (c, e.total_time) for c, e in second
        ]

    def test_warm_across_engine_instances(self, tmp_path):
        fresh_engine(tmp_path).sweep(APP, XEON_MAX_9480, CFGS)
        warm = fresh_engine(tmp_path)  # same cache dir, new process-alike
        warm.sweep(APP, XEON_MAX_9480, CFGS)
        assert warm.metrics.evaluations == 0
        assert warm.metrics.cache_hits == len(CFGS)
        assert warm.metrics.hit_rate == 1.0

    def test_cached_estimates_bit_identical(self, tmp_path):
        cold = fresh_engine(tmp_path)
        a = cold.sweep(APP, XEON_MAX_9480, CFGS)
        warm = fresh_engine(tmp_path)
        b = warm.sweep(APP, XEON_MAX_9480, CFGS)
        for (_, ea), (_, eb) in zip(a, b):
            assert ea == eb  # dataclass equality: every float exact

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_cold_plan_derives_each_address_once(
            self, tmp_path, monkeypatch, vectorize):
        # The lookup's address is the one a miss is put under.
        derived = []
        derive = SweepEngine.result_address

        def counting(engine, *args):
            derived.append(args)
            return derive(engine, *args)

        monkeypatch.setattr(SweepEngine, "result_address", counting)
        cold = fresh_engine(tmp_path, vectorize=vectorize)
        cold.sweep(APP, XEON_MAX_9480, CFGS)
        assert cold.metrics.evaluations == len(CFGS)
        assert len(derived) == len(CFGS)
        warm = fresh_engine(tmp_path, vectorize=vectorize)
        warm.sweep(APP, XEON_MAX_9480, CFGS)
        assert warm.metrics.cache_hits == len(CFGS)
        assert warm.metrics.evaluations == 0

    def test_no_cache_bypasses_store(self, tmp_path):
        eng = fresh_engine(tmp_path, use_cache=False)
        eng.sweep(APP, XEON_MAX_9480, CFGS)
        eng.sweep(APP, XEON_MAX_9480, CFGS)
        assert eng.metrics.evaluations == 2 * len(CFGS)
        assert eng.metrics.cache_hits == 0
        assert len(eng.store) == 0

    def test_clear_wipes_store(self, tmp_path):
        eng = fresh_engine(tmp_path)
        eng.sweep(APP, XEON_MAX_9480, CFGS)
        assert len(eng.store) == len(CFGS)
        eng.clear()
        assert len(eng.store) == 0
        again = fresh_engine(tmp_path)
        again.sweep(APP, XEON_MAX_9480, CFGS)
        assert again.metrics.evaluations == len(CFGS)  # truly cold again

    def test_no_cache_clear_keeps_persistent_file(self, tmp_path,
                                                 monkeypatch):
        """``--no-cache`` installs ``configure_engine(use_cache=False)``;
        clearing that engine must not delete the store it bypasses."""
        from repro.engine import configure_engine
        from repro.harness.runner import clear_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        SweepEngine().sweep(APP, XEON_MAX_9480, CFGS)
        path = tmp_path / "results.jsonl"
        before = path.read_bytes()
        assert before
        try:
            engine = configure_engine(use_cache=False)
            clear_cache()
        finally:
            reset_engine()
        assert path.is_file() and path.read_bytes() == before
        assert not engine.store.persistent


class TestParallel:
    def test_parallel_plan_across_apps(self, tmp_path):
        eng = fresh_engine(tmp_path)
        plan = build_plan(["miniweather", "minibude"], [XEON_MAX_9480],
                          [RunConfig(Compiler.ONEAPI, Parallelization.MPI),
                           RunConfig(Compiler.CLASSIC, Parallelization.MPI)])
        results = eng.run_plan(plan)
        by_status: dict[str, int] = {}
        for r in results:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        # minibude + Classic is planned-infeasible; everything else runs.
        assert by_status.get("skipped") == 1
        assert by_status.get("ok") == len(results) - 1
        assert eng.metrics.jobs_skipped == 1


class TestFailingBatch:
    """A merged batch counts each estimate once its ``put`` returned."""

    COUNTERS = ("evaluations", "cache_misses", "jobs_executed", "vec_jobs")

    def test_put_failing_partway_counts_what_was_stored(self, tmp_path,
                                                        monkeypatch):
        eng = fresh_engine(tmp_path)
        plan = build_plan([APP], [XEON_MAX_9480])
        assert len(plan.jobs) == 24
        eng.app_spec(APP)
        put, calls = eng.store.put, []

        def third_put_fails(key, est):
            calls.append(key)
            if len(calls) == 3:
                raise OSError("disk full")
            put(key, est)

        monkeypatch.setattr(eng.store, "put", third_put_fails)
        with pytest.raises(OSError, match="disk full"):
            eng.run_plan(plan)
        assert len(fresh_engine(tmp_path).store) == 2
        assert [getattr(eng.metrics, name)
                for name in self.COUNTERS] == [2, 2, 2, 2]

    def test_plan_that_succeeds_keeps_its_totals(self, tmp_path):
        eng = fresh_engine(tmp_path)
        eng.run_plan(build_plan([APP], [XEON_MAX_9480]))
        assert [getattr(eng.metrics, name)
                for name in self.COUNTERS] == [24, 24, 24, 24]


class TestCompatibilityBehaviour:
    def test_run_raises_for_stalling_compiler(self, tmp_path):
        eng = fresh_engine(tmp_path)
        with pytest.raises(ValueError, match="does not run under"):
            eng.run("minibude", XEON_MAX_9480,
                    RunConfig(Compiler.CLASSIC, Parallelization.MPI))

    def test_run_raises_for_infeasible(self, tmp_path):
        eng = fresh_engine(tmp_path)
        with pytest.raises(ValueError):
            eng.run(APP, XEON_MAX_9480,
                    RunConfig(Compiler.GCC, Parallelization.MPI))

    def test_best_run_matches_sweep_minimum(self, tmp_path):
        eng = fresh_engine(tmp_path)
        _, best = eng.best_run(APP, XEON_MAX_9480, CFGS)
        times = [e.total_time for _, e in eng.sweep(APP, XEON_MAX_9480, CFGS) if e]
        assert best.total_time == min(times)


def count_plans(monkeypatch) -> list:
    """Record every plan the engine builds from here on."""
    built = []
    build = engine_core.build_plan

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(engine_core, "build_plan", counting)
    return built


def sweep_minimum(engine, name, platform, configs):
    return min(((c, e) for c, e in engine.sweep(name, platform, configs)
                if e is not None), key=lambda ce: ce[1].total_time)


class TestBestRunMemo:
    """``best_run`` remembers each full sweep's winning job and address:
    a repeat call is one store read and builds no plan."""

    def test_repeat_is_the_sweep_minimum_for_every_default_pair(
            self, tmp_path, monkeypatch):
        eng = fresh_engine(tmp_path)
        pairs = [(a, p, default_configs(a, p))
                 for p in ALL_PLATFORMS for a in APP_ORDER]
        assert len(pairs) == 36
        expected = []
        for a, p, cfgs in pairs:
            eng.best_run(a, p, cfgs)
            expected.append(sweep_minimum(eng, a, p, cfgs))
        hits, executed = eng.metrics.cache_hits, eng.metrics.jobs_executed
        evaluations = eng.metrics.evaluations
        built = count_plans(monkeypatch)
        for (a, p, cfgs), (want_cfg, want_est) in zip(pairs, expected):
            cfg, est = eng.best_run(a, p, cfgs)
            assert cfg == want_cfg
            assert est is want_est
        assert built == []
        # Each repeat counts as one cached job, as a plan's hit does.
        assert eng.metrics.cache_hits - hits == len(pairs)
        assert eng.metrics.jobs_executed - executed == len(pairs)
        assert eng.metrics.evaluations == evaluations

    def test_override_answers_under_its_own_key(self, tmp_path):
        eng = fresh_engine(tmp_path)
        before = eng.best_run(APP, XEON_MAX_9480, CFGS)
        with calibration.override(MEM_CONCURRENCY_BASE=1e9):
            inside = eng.best_run(APP, XEON_MAX_9480, CFGS)
            fresh = SweepEngine(use_cache=False).best_run(
                APP, XEON_MAX_9480, CFGS)
            assert inside == fresh
            assert inside[0] != before[0]  # the override moves the winner
            again = eng.best_run(APP, XEON_MAX_9480, CFGS)
            assert again[1] is inside[1]
        after = eng.best_run(APP, XEON_MAX_9480, CFGS)
        assert after[0] == before[0]
        assert after[1] is before[1]

    @pytest.mark.parametrize("forget, evaluated", [
        ("engine.clear", len(CFGS)),
        ("engine.clear(store=False)", 0),
        ("store.clear", len(CFGS)),
        ("winning record dropped", 1),
    ])
    def test_a_miss_sweeps_again(self, tmp_path, monkeypatch, forget,
                                 evaluated):
        eng = fresh_engine(tmp_path)
        cfg, est = eng.best_run(APP, XEON_MAX_9480, CFGS)
        if forget == "engine.clear":
            eng.clear()
        elif forget == "engine.clear(store=False)":
            eng.clear(store=False)
        elif forget == "store.clear":
            eng.store.clear()
        else:  # as a record dropped as corrupt leaves the store
            del eng.store._mem[eng.result_address(APP, XEON_MAX_9480, cfg)]
        evaluations = eng.metrics.evaluations
        built = count_plans(monkeypatch)
        again_cfg, again_est = eng.best_run(APP, XEON_MAX_9480, CFGS)
        assert len(built) == 1
        assert eng.metrics.evaluations - evaluations == evaluated
        assert again_cfg == cfg
        assert again_est == est
        # The sweep remembered its winner again.
        assert eng.best_run(APP, XEON_MAX_9480, CFGS)[1] is again_est
        assert len(built) == 1

    def test_no_cache_engine_evaluates_every_call(self, tmp_path):
        eng = fresh_engine(tmp_path, use_cache=False)
        evaluations = []
        for _ in range(3):
            eng.best_run(APP, XEON_MAX_9480, CFGS)
            evaluations.append(eng.metrics.evaluations)
        assert evaluations == [len(CFGS), 2 * len(CFGS), 3 * len(CFGS)]

    def test_threads_refilling_the_winners_agree(self, tmp_path):
        eng = fresh_engine(tmp_path)
        pairs = [(a, XEON_MAX_9480, default_configs(a, XEON_MAX_9480))
                 for a in APP_ORDER[:4]]
        expected = [eng.best_run(*pair) for pair in pairs]
        evaluations = eng.metrics.evaluations
        eng.clear(store=False)  # the threads race to remember them again
        wrong, errors = [], []

        def repeat():
            try:
                for _ in range(20):
                    for pair, (cfg, est) in zip(pairs, expected):
                        got_cfg, got_est = eng.best_run(*pair)
                        if got_cfg != cfg or got_est is not est:
                            wrong.append(pair[0])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=repeat) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (errors, wrong) == ([], [])
        assert eng.metrics.evaluations == evaluations

    def test_infeasible_pair_raises_every_call(self, tmp_path, monkeypatch):
        eng = fresh_engine(tmp_path)
        stall = [RunConfig(Compiler.CLASSIC, Parallelization.MPI)]
        built = count_plans(monkeypatch)
        for _ in range(3):
            with pytest.raises(ValueError, match="no feasible configuration"):
                eng.best_run("minibude", XEON_MAX_9480, stall)
        assert len(built) == 3


def _doubled(value):
    if isinstance(value, dict):
        return {k: 2 * v for k, v in value.items()}
    return 2 * value


class TestCalibrationOverride:
    """An engine that has already priced a plan prices it under an
    override exactly as a fresh engine does, for every constant: none of
    its caches outlives the constants it was built under."""

    # At twice its value, CACHE_UTILIZATION moves acoustic on the EPYC.
    PLAN = (["mgcfd", "acoustic"], [XEON_MAX_9480, EPYC_7V73X])

    @staticmethod
    def _totals(engine):
        return [r.estimate.total_time if r.ok else r.status
                for r in engine.run_plan(build_plan(*TestCalibrationOverride.PLAN))]

    @pytest.fixture(scope="class")
    def reused(self):
        engine = SweepEngine(use_cache=False)
        self._totals(engine)  # every cache filled outside any override
        return engine

    @pytest.mark.parametrize("name", sorted(calibration.constants()))
    def test_reused_engine_equals_fresh_at_doubled_constant(self, reused,
                                                            name):
        with calibration.override(
                **{name: _doubled(calibration.constants()[name])}):
            got = self._totals(reused)
            want = self._totals(SweepEngine(use_cache=False))
        assert got == want


class TestPlatformShortNames:
    """An engine binds each short name to one platform."""

    CLONE = dataclasses.replace(XEON_MAX_9480, cores_per_socket=8,
                                name="Xeon MAX 9480 with 8 cores")

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_another_platform_under_a_bound_name_raises(self, tmp_path,
                                                        use_cache):
        app, clone = "cloverleaf2d", self.CLONE
        cfgs = default_configs(app, clone)
        fresh = SweepEngine(use_cache=False).best_run(app, clone, cfgs)
        eng = fresh_engine(tmp_path, use_cache=use_cache)
        builtin = eng.best_run(app, XEON_MAX_9480, cfgs)
        assert builtin[1].total_time != fresh[1].total_time
        calls = [
            lambda: eng.best_run(app, clone, cfgs),
            lambda: eng.sweep(app, clone, cfgs),
            lambda: eng.run_plan(build_plan([app], [clone])),
            lambda: eng.run(app, clone, fresh[0]),
            lambda: eng.hierarchy(clone),
            lambda: eng.result_address(app, clone, fresh[0]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="'max9480'"):
                call()
        assert eng.best_run(app, XEON_MAX_9480, cfgs) == builtin

    def test_an_equal_copy_is_served(self, tmp_path):
        eng = fresh_engine(tmp_path)
        cfg, est = eng.best_run(APP, XEON_MAX_9480, CFGS)
        copy = dataclasses.replace(XEON_MAX_9480)
        assert copy is not XEON_MAX_9480
        again = eng.best_run(APP, copy, CFGS)
        assert again[0] == cfg
        assert again[1] is est
        assert eng.sweep(APP, copy, CFGS) == eng.sweep(APP, XEON_MAX_9480,
                                                       CFGS)

    def test_custom_platform_example_runs(self, capsys):
        example = (Path(__file__).resolve().parents[2] / "examples"
                   / "custom_platform.py")
        runpy.run_path(str(example), run_name="__main__")
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["app", "max9480", "spr-ddr5", "hbm-32c"]


class TestWarmFigures:
    """Acceptance: a fully warm figure run does zero model evaluations."""

    def test_warm_figures_run_evaluates_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "figcache"))
        reset_engine()
        try:
            assert main(["figures", "fig4"]) == 0  # cold: populates the store
            cold_evals = default_engine().metrics.evaluations
            assert cold_evals > 0

            reset_engine()  # simulate a brand-new process
            assert main(["figures", "fig4"]) == 0  # warm
            warm = default_engine().metrics
            assert warm.evaluations == 0
            assert warm.cache_hits > 0
            assert warm.cache_hits == cold_evals
        finally:
            reset_engine()
        capsys.readouterr()
