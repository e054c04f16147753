"""Engine integration of the vectorized path: routing, counters, flags.

What must hold (``docs/VECTOR.md`` "When the scalar fallback is used"):
cold plans run as one batch through ``evaluate_batch``; only
``vectorize=False`` (the scalar reference) sends every job to the
per-job path — an active tracer or session metrics registry stays on
the vectorized path, which synthesizes the scalar span/metric taxonomy;
warm plans are served from the store without new batches; and both
settings produce identical results and identical pinned metrics.
"""

import json

import pytest

from repro.engine.core import SweepEngine
from repro.engine.jobs import build_plan
from repro.machine import get_platform
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracer import Tracer, tracing

APPS = ["cloverleaf2d", "mgcfd"]


def _plan():
    return build_plan(APPS, [get_platform("max9480")])


@pytest.fixture
def engine(tmp_path):
    return SweepEngine(cache_dir=tmp_path)


class TestRouting:
    def test_cold_plan_is_one_batch(self, engine):
        plan = _plan()
        results = engine.run_plan(plan)
        assert engine.last_evaluator == "vectorized"
        assert engine.metrics.vec_batches == 1
        assert engine.metrics.vec_jobs == len(plan.jobs)
        ok = [r for r in results if r.status == "ok"]
        assert len(ok) == len(plan.jobs)

    def test_warm_plan_adds_no_batches(self, engine):
        plan = _plan()
        engine.run_plan(plan)
        results = engine.run_plan(plan)
        assert engine.metrics.vec_batches == 1  # unchanged
        assert all(r.status in ("cached", "skipped") for r in results)
        assert engine.metrics.cache_hits == len(plan.jobs)

    def test_vectorize_false_forces_scalar(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path, vectorize=False)
        engine.run_plan(_plan())
        assert engine.last_evaluator == "scalar"
        assert engine.metrics.vec_batches == 0
        assert engine._vec is None  # no VecEvaluator was built

    def test_tracer_stays_vectorized(self, engine):
        plan = _plan()
        with tracing(Tracer()) as tr:
            engine.run_plan(plan)
        assert engine.last_evaluator == "vectorized"
        assert engine.metrics.vec_batches == 1
        # The batched evaluator records its own stage spans, and the
        # whole batch is one engine span.
        assert {s.name for s in tr.spans_of("vec")} == {
            "lower", "pass", "scatter"}
        (batch,) = tr.spans_of("engine", "batch")
        assert batch.attrs["jobs"] == len(plan.jobs)
        # The scalar perfmodel event taxonomy survives batching.
        assert tr.events_of("perfmodel")

    def test_session_metrics_stay_vectorized(self, engine):
        with collecting(MetricsRegistry()) as reg:
            engine.run_plan(_plan())
        assert engine.last_evaluator == "vectorized"
        assert engine.metrics.vec_batches == 1
        # Synthesized per-job attribution plus the batch families.
        assert reg.total("perfmodel_loops_total") > 0
        assert reg.total("perfmodel_estimates_total") > 0
        assert reg.total("mem_hierarchy_lookups_total") > 0
        assert reg.histogram("vec_batch_jobs").count == 1
        for name in ("lower", "pass", "scatter"):
            assert reg.histogram("stage_seconds", layer="vec",
                                 stage=name).count == 1


class TestEquivalenceThroughEngine:
    def test_both_paths_same_results_and_counters(self, tmp_path):
        plan_a, plan_b = _plan(), _plan()
        vec_engine = SweepEngine(cache_dir=tmp_path / "a", vectorize=True)
        scalar_engine = SweepEngine(cache_dir=tmp_path / "b", vectorize=False)
        ra = vec_engine.run_plan(plan_a)
        rb = scalar_engine.run_plan(plan_b)
        assert [r.status for r in ra] == [r.status for r in rb]
        assert [r.estimate for r in ra] == [r.estimate for r in rb]
        # Identical pinned metrics shape and counts (timings aside).
        da = vec_engine.metrics.as_dict()
        db = scalar_engine.metrics.as_dict()
        assert set(da) == set(db) and len(da) == 10
        for key in ("evaluations", "cache_hits", "cache_misses",
                    "jobs_executed", "jobs_skipped", "jobs_failed"):
            assert da[key] == db[key], key

    def test_store_bytes_identical(self, tmp_path):
        """The persisted records are byte-identical either way — the
        store contract the golden baseline pins."""
        vec_engine = SweepEngine(cache_dir=tmp_path / "a", vectorize=True)
        scalar_engine = SweepEngine(cache_dir=tmp_path / "b", vectorize=False)
        vec_engine.run_plan(_plan())
        scalar_engine.run_plan(_plan())
        log_a = (tmp_path / "a" / "results.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "results.jsonl").read_bytes()
        assert log_a and log_a == log_b


class TestCliSurface:
    def test_sweep_json_reports_evaluator(self, capsys):
        from repro.__main__ import main as cli_main
        from repro.engine import reset_engine

        try:
            rc = cli_main(["sweep", "mgcfd", "--platform", "max9480",
                           "--no-cache", "--json"])
            assert rc == 0
            assert json.loads(capsys.readouterr().out)["evaluator"] == \
                "vectorized"
        finally:
            reset_engine()  # the verbs configure the process default
