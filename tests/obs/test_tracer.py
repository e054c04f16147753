"""Tracer scoping, the disabled-path no-op guarantee, and clock domains."""

import pytest

from repro.engine import SweepEngine, build_plan
from repro.machine import XEON_MAX_9480, best_practice_config
from repro.obs import Tracer, active_tracer, tracing
from repro.perfmodel.roofline import estimate_app


class TestScoping:
    def test_disabled_by_default(self):
        assert active_tracer() is None

    def test_tracing_installs_and_restores(self):
        with tracing() as tr:
            assert active_tracer() is tr
        assert active_tracer() is None

    def test_nested_scopes_shadow(self):
        with tracing() as outer:
            with tracing() as inner:
                assert active_tracer() is inner
            assert active_tracer() is outer

    def test_explicit_tracer_is_used(self):
        tr = Tracer()
        with tracing(tr) as got:
            assert got is tr
            assert active_tracer() is tr

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert active_tracer() is None


class TestRecording:
    def test_span_validates_direction(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="before start"):
            tr.span("cat", "bad", 2.0, 1.0)

    def test_span_and_event_attrs(self):
        tr = Tracer()
        tr.span("kernel", "k", 0.0, 1.0, track=("ops", 3), bytes=64)
        tr.event("mpi", "send", 0.5, track=("rank", 1), dst=2)
        (s,) = tr.spans_of("kernel")
        assert s.duration == 1.0
        assert s.attrs["bytes"] == 64
        assert s.track == ("ops", 3)
        (e,) = tr.events_of("mpi", "send")
        assert e.attrs["dst"] == 2
        assert tr.tracks() == [("ops", 3), ("rank", 1)]
        assert len(tr) == 2

    def test_wall_span_is_epoch_relative(self):
        tr = Tracer()
        s = tr.wall_span("engine", "job", tr.wall_epoch + 1.0, tr.wall_epoch + 3.0)
        assert s.start == pytest.approx(1.0)
        assert s.end == pytest.approx(3.0)
        assert s.is_wall

    def test_simulated_span_is_not_wall(self):
        tr = Tracer()
        s = tr.span("kernel", "k", 0.0, 1.0, track=("ops", 0))
        assert not s.is_wall


def _fresh_engine(tmp_path, name):
    return SweepEngine(cache_dir=tmp_path / name)


class TestNoOpGuarantee:
    """With no tracer installed, instrumented code paths must produce
    results and store contents bit-identical to the uninstrumented ones."""

    def test_estimates_identical_with_and_without_tracer(self, tmp_path):
        engine = _fresh_engine(tmp_path, "a")
        spec = engine.app_spec("miniweather")
        platform = XEON_MAX_9480
        config = best_practice_config(platform)
        plain = estimate_app(spec, platform, config, engine.hierarchy(platform))
        with tracing() as tr:
            traced = estimate_app(spec, platform, config, engine.hierarchy(platform))
        assert traced == plain
        assert tr.events_of("perfmodel")  # tracing actually observed the run

    def test_store_bytes_identical_under_tracing(self, tmp_path):
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        baseline = _fresh_engine(tmp_path, "baseline")
        baseline.run_plan(plan)
        traced = _fresh_engine(tmp_path, "traced")
        with tracing():
            traced.run_plan(plan)
        assert baseline.store.path.read_bytes() == traced.store.path.read_bytes()

    def test_pool_workers_see_the_tracer(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path / "pool")
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        with tracing() as tr:
            engine.run_plan(plan)
        jobs = tr.spans_of("engine")
        assert jobs, "engine job spans must be recorded"
        assert all(s.is_wall for s in jobs)
        assert {s.attrs["status"] for s in jobs} <= {"ok", "cached", "error"}
