"""The stage recorder: one clock reading per stage end, fed to every
live consumer (tracer span, ``stage_seconds`` histogram, the current
request's flight-record stages)."""

import contextvars
import threading

import pytest

from repro.obs import stages
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.stages import record, set_request, stage, stage_table
from repro.obs.tracer import Tracer, tracing
from repro.serve.flight import FlightRecorder, Inflight


@pytest.fixture
def readings(monkeypatch):
    """Replace the recorder's clock with a fixed sequence of readings;
    a stage that read it more than twice would exhaust the sequence."""

    def install(*values):
        it = iter(values)
        monkeypatch.setattr(stages, "clock", lambda: next(it))

    return install


def in_request(inf, fn):
    """Run ``fn`` in a fresh context whose current request is ``inf``."""

    def scoped():
        set_request(inf)
        return fn()

    return contextvars.copy_context().run(scoped)


class TestOneReading:
    def test_every_consumer_gets_the_same_interval(self, readings):
        readings(10.0, 10.5)
        inf = Inflight("/run", "POST")
        with tracing(Tracer()) as tr, collecting(MetricsRegistry()) as reg:
            def timed():
                with stage("engine", "store_io") as st:
                    pass
                return st

            st = in_request(inf, timed)
        (span,) = tr.spans
        assert (span.cat, span.name) == ("engine", "store_io")
        assert span.start == 10.0 - tr.wall_epoch
        assert span.end == 10.5 - tr.wall_epoch
        hist = reg.histogram("stage_seconds", layer="engine",
                             stage="store_io")
        assert hist.count == 1
        assert st.seconds == 0.5
        assert hist.total == st.seconds
        assert inf.stages == {("engine", "store_io"): st.seconds}
        record_ = FlightRecorder().complete(inf, 200, 1.0)
        assert record_["stages"] == {"store_io": 0.5}

    def test_no_consumer_still_times_the_block(self, readings):
        readings(1.0, 1.25)
        with stage("engine", "plan") as st:
            pass
        assert st.seconds == 0.25

    def test_attrs_ride_on_the_span_only(self, readings):
        readings(0.0, 2.0)
        with tracing(Tracer()) as tr, collecting(MetricsRegistry()) as reg:
            with stage("engine", "batch", jobs=3):
                pass
        (span,) = tr.spans
        assert span.attrs == {"jobs": 3}
        assert span.track == ("engine", "MainThread")
        assert [labels for labels, _ in reg.samples("stage_seconds")] == [
            {"layer": "engine", "stage": "batch"}]

    def test_exception_still_records_and_propagates(self, readings):
        readings(0.0, 1.0)
        with collecting(MetricsRegistry()) as reg:
            with pytest.raises(RuntimeError):
                with stage("engine", "evaluate"):
                    raise RuntimeError("boom")
        assert reg.histogram("stage_seconds", layer="engine",
                             stage="evaluate").count == 1


class TestRecord:
    def test_lane_names_the_track(self):
        """The span goes on the recording thread's lane."""
        tracer, out = Tracer(), []

        def handler():
            with tracing(tracer):
                out.append(record("engine", "batch_window", 5.0, 5.75))

        thread = threading.Thread(target=handler, name="handler-1")
        thread.start()
        thread.join()
        assert out == [0.75]
        (span,) = tracer.spans
        assert span.track == ("engine", "handler-1")

    def test_request_outside_any_scope_is_none(self):
        assert contextvars.copy_context().run(stages.current_request) is None


def test_stage_table_rows():
    reg = MetricsRegistry()
    with collecting(reg):
        record("vec", "pass", 0.0, 0.5)
        record("engine", "lookup", 0.0, 0.25)
        record("engine", "lookup", 1.0, 1.5)
    assert stage_table(reg) == [
        {"layer": "engine", "stage": "lookup", "count": 2, "seconds": 0.75},
        {"layer": "vec", "stage": "pass", "count": 1, "seconds": 0.5},
    ]
    assert stage_table(MetricsRegistry()) == []
