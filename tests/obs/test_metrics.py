"""Registry semantics, scoping, exporters, and the no-op guarantee."""

import pytest

from repro.engine import SweepEngine, build_plan
from repro.machine import XEON_MAX_9480, best_practice_config
from repro.obs.metrics import (
    MetricsRegistry,
    active_metrics,
    collecting,
    prometheus_text,
    snapshot,
)
from repro.perfmodel.roofline import estimate_app


class TestRegistry:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        r.inc("hits_total")
        r.inc("hits_total", 4)
        assert r.value("hits_total") == 5
        assert r.kind("hits_total") == "counter"

    def test_labels_separate_samples(self):
        r = MetricsRegistry()
        r.inc("hits_total", level="L1")
        r.inc("hits_total", 2, level="L2")
        assert r.value("hits_total", level="L1") == 1
        assert r.value("hits_total", level="L2") == 2
        assert r.total("hits_total") == 3

    def test_label_order_is_irrelevant(self):
        r = MetricsRegistry()
        r.inc("x_total", a="1", b="2")
        r.inc("x_total", b="2", a="1")
        assert r.value("x_total", a="1", b="2") == 2
        assert len(r) == 1

    def test_counter_rejects_negative(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            r.inc("hits_total", -1)

    def test_gauge_overwrites(self):
        r = MetricsRegistry()
        r.set("depth", 3.0)
        r.set("depth", 1.5)
        assert r.value("depth") == 1.5
        assert r.kind("depth") == "gauge"

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.inc("x_total")
        with pytest.raises(ValueError, match="is a counter"):
            r.set("x_total", 1.0)

    def test_histogram_buckets_and_sum(self):
        r = MetricsRegistry()
        for v in (0.5, 1.5, 200.0):
            r.observe("dur_seconds", v, buckets=(1.0, 10.0))
        h = r.histogram("dur_seconds")
        assert h.counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3
        assert h.total == pytest.approx(202.0)
        assert h.cumulative()[-1] == (float("inf"), 3)

    def test_value_on_missing_sample_returns_default(self):
        r = MetricsRegistry()
        assert r.value("never_total") == 0.0
        assert r.value("never_total", default=-1.0) == -1.0

    def test_samples_sorted_by_labels(self):
        r = MetricsRegistry()
        r.inc("x_total", level="b")
        r.inc("x_total", level="a")
        assert [lbl for lbl, _ in r.samples("x_total")] == [
            {"level": "a"}, {"level": "b"},
        ]

    def test_clear_and_len(self):
        r = MetricsRegistry()
        r.inc("a_total")
        r.set("b", 1.0, x="1")
        assert len(r) == 2
        r.clear()
        assert len(r) == 0
        assert r.names() == []


class TestExporters:
    def _registry(self):
        r = MetricsRegistry()
        r.inc("hits_total", 3, level="L1")
        r.set("depth", 2.0)
        r.observe("dur_seconds", 0.5, buckets=(1.0,))
        return r

    def test_prometheus_type_lines_and_samples(self):
        text = prometheus_text(self._registry())
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{level="L1"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text

    def test_prometheus_histogram_triplet(self):
        text = prometheus_text(self._registry())
        assert 'dur_seconds_bucket{le="1"} 1' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1' in text
        assert "dur_seconds_sum 0.5" in text
        assert "dur_seconds_count 1" in text

    def test_snapshot_is_json_able_and_deterministic(self):
        import json

        a = json.dumps(snapshot(self._registry()), sort_keys=True)
        b = json.dumps(snapshot(self._registry()), sort_keys=True)
        assert a == b
        doc = json.loads(a)
        assert doc["hits_total"]["type"] == "counter"
        assert doc["dur_seconds"]["samples"][0]["count"] == 1

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert snapshot(MetricsRegistry()) == {}


class TestScoping:
    def test_disabled_by_default(self):
        assert active_metrics() is None

    def test_collecting_installs_and_restores(self):
        with collecting() as r:
            assert active_metrics() is r
        assert active_metrics() is None

    def test_nested_scopes_shadow(self):
        with collecting() as outer:
            with collecting() as inner:
                assert active_metrics() is inner
            assert active_metrics() is outer

    def test_explicit_registry_is_used(self):
        r = MetricsRegistry()
        with collecting(r) as got:
            assert got is r

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert active_metrics() is None


def _fresh_engine(tmp_path, name):
    return SweepEngine(cache_dir=tmp_path / name)


class TestNoOpGuarantee:
    """With no registry installed, instrumented code paths must produce
    results and store contents bit-identical to the uninstrumented ones
    (the same contract the tracer pins down in test_tracer.py)."""

    def test_estimates_identical_with_and_without_registry(self, tmp_path):
        engine = _fresh_engine(tmp_path, "a")
        spec = engine.app_spec("miniweather")
        platform = XEON_MAX_9480
        config = best_practice_config(platform)
        plain = estimate_app(spec, platform, config, engine.hierarchy(platform))
        with collecting() as reg:
            metered = estimate_app(spec, platform, config,
                                   engine.hierarchy(platform))
        assert metered == plain
        assert reg.total("perfmodel_loops_total") > 0  # it did observe

    def test_store_bytes_identical_under_collection(self, tmp_path):
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        baseline = _fresh_engine(tmp_path, "baseline")
        baseline.run_plan(plan)
        metered = _fresh_engine(tmp_path, "metered")
        with collecting():
            metered.run_plan(plan)
        assert baseline.store.path.read_bytes() == metered.store.path.read_bytes()

    def test_pool_workers_see_the_registry(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path / "pool")
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        with collecting() as reg:
            engine.run_plan(plan)
        assert reg.total("perfmodel_estimates_total") > 0
        assert reg.total("engine_jobs_executed_total") > 0


class TestInstrumentationSites:
    def test_perfmodel_winning_limb_tally(self, tmp_path):
        engine = _fresh_engine(tmp_path, "limbs")
        spec = engine.app_spec("miniweather")
        platform = XEON_MAX_9480
        config = best_practice_config(platform)
        with collecting() as reg:
            est = estimate_app(spec, platform, config,
                               engine.hierarchy(platform))
        assert reg.total("perfmodel_loops_total") == len(est.per_loop)
        limbs = {lbl["limb"] for lbl, _ in reg.samples("perfmodel_loops_total")}
        assert limbs == {lt.bottleneck for lt in est.per_loop}

    def test_hierarchy_lookups_labeled_by_level(self):
        from repro.mem.hierarchy import HierarchyModel

        hm = HierarchyModel(XEON_MAX_9480)
        with collecting() as reg:
            hm.effective_bandwidth(1024.0)  # tiny: innermost level
            hm.effective_bandwidth(1e12)  # huge: memory
        levels = {lbl["level"] for lbl, _ in
                  reg.samples("mem_hierarchy_lookups_total")}
        assert "memory" in levels
        assert len(levels) == 2

    def test_store_read_write_accounting(self, tmp_path):
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        with collecting() as reg:
            engine = _fresh_engine(tmp_path, "s")
            engine.run_plan(plan)
            written = reg.value("store_writes_total")
            nbytes = reg.value("store_bytes_written_total")
            assert written == len(engine.store)
            assert nbytes == engine.store.path.stat().st_size

    def test_simmpi_rank_deltas(self):
        import numpy as np

        from repro.simmpi import World

        def rank_main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.isend(np.ones(16), right, tag=0)
            comm.recv(left, tag=0)
            comm.barrier()

        w = World(2)
        with collecting() as reg:
            w.run(rank_main)
        assert reg.total("simmpi_messages_total") == 4  # 2 sent + 2 received
        assert reg.value("simmpi_bytes_total", rank="0", direction="sent") \
            == w.comms[0].stats.bytes_sent > 0
        assert reg.value("simmpi_runs_total", ranks="2") == 1


class TestEngineMetricsDelegation:
    """EngineMetrics counters live in a registry but keep their exact
    attribute / as_dict / summary contract."""

    def test_attributes_read_from_registry(self):
        from repro.engine.metrics import EngineMetrics

        em = EngineMetrics()
        em.count("cache_hits", 3)
        assert em.cache_hits == 3
        assert isinstance(em.cache_hits, int)
        assert em.registry.value("engine_cache_hits_total") == 3

    def test_unknown_counter_rejected(self):
        from repro.engine.metrics import EngineMetrics

        with pytest.raises(KeyError):
            EngineMetrics().count("bogus")
        with pytest.raises(AttributeError):
            EngineMetrics().bogus_counter

    def test_as_dict_keys_are_byte_stable(self):
        from repro.engine.metrics import EngineMetrics

        d = EngineMetrics().as_dict()
        assert list(d) == [
            "spec_builds", "evaluations", "cache_hits", "cache_misses",
            "jobs_executed", "jobs_skipped", "jobs_failed",
            "wall_time", "job_time", "jobs_per_sec", "hit_rate",
        ]
        assert all(isinstance(d[k], int) for k in list(d)[:7])

    def test_summary_format_unchanged(self):
        from repro.engine.metrics import EngineMetrics

        em = EngineMetrics()
        em.count("jobs_executed", 2)
        em.count("cache_hits")
        em.count("cache_misses")
        assert em.summary() == (
            "engine: 2 jobs (1 cached, 0 evaluated, 0 skipped, 0 failed), "
            "0 specs profiled, hit rate 50%, 0.00 s wall (0.0 jobs/s)"
        )

    def test_counts_mirrored_into_session_registry(self):
        from repro.engine.metrics import EngineMetrics

        em = EngineMetrics()
        with collecting() as reg:
            em.count("evaluations", 5)
        assert em.evaluations == 5
        assert reg.value("engine_evaluations_total") == 5

    def test_reset_zeroes_counters(self):
        from repro.engine.metrics import EngineMetrics

        em = EngineMetrics()
        em.count("spec_builds", 7)
        em.reset()
        assert em.spec_builds == 0
        assert em.wall_time == 0.0
