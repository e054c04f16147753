"""End-to-end tests of the sweep engine: caching, metrics, plans.

The acceptance properties from the engine's introduction live here:
a warm (fully cached) figure regeneration performs *zero* perf-model
evaluations, and cached estimates are bit-identical to fresh ones.
"""

import pytest

from repro.engine import (
    SweepEngine,
    build_plan,
    default_engine,
    reset_engine,
)
from repro.machine import (
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
    structured_config_sweep,
)

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

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        eng = fresh_engine(
            tmp_path,
            progress=lambda done, total, job, res: seen.append((done, total)),
        )
        eng.sweep(APP, XEON_MAX_9480, CFGS[:6])
        assert [d for d, _ in seen] == list(range(1, 7))


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
