"""End-to-end checks of ``python -m repro trace``."""

import json

import pytest

from repro.__main__ import main
from repro.engine import default_engine


def _spans(doc, cat=None, name=None):
    out = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    if cat is not None:
        out = [e for e in out if e.get("cat") == cat]
    if name is not None:
        out = [e for e in out if e["name"] == name]
    return out


class TestTraceCommand:
    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        assert main(["trace", "cloverleaf", "--platform", "max9480",
                     "-o", str(path)]) == 0
        return json.loads(path.read_text())

    def test_one_span_per_kernel_loop(self, trace_doc):
        spec = default_engine().app_spec("cloverleaf2d")
        kernels = _spans(trace_doc, cat="kernel")
        timeline = [k for k in kernels
                    if {"t_bandwidth", "limb"} <= set(k["args"])]
        assert len(timeline) == len(spec.loops)
        assert [k["name"] for k in timeline] == [l.name for l in spec.loops]

    def test_halo_exchange_spans(self, trace_doc):
        assert len(_spans(trace_doc, name="halo-exchange")) >= 1

    def test_span_attributes(self, trace_doc):
        for k in _spans(trace_doc, cat="kernel"):
            assert "bytes" in k["args"]
            assert "flops" in k["args"]
        bulk = max(_spans(trace_doc, cat="kernel"), key=lambda k: k["dur"])
        assert bulk["args"]["limb"] in ("bandwidth", "compute", "latency")
        for h in _spans(trace_doc, name="halo-exchange"):
            assert h["args"]["bytes"] > 0
            assert h["args"]["messages"] > 0

    def test_csv_output(self, tmp_path, capsys):
        assert main(["trace", "miniweather", "--platform", "max9480",
                     "-o", str(tmp_path / "t.json"), "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("loop,")

    def test_iterations_repeat_the_timeline(self, tmp_path):
        path = tmp_path / "t3.json"
        assert main(["trace", "miniweather", "--platform", "max9480",
                     "-o", str(path), "--iterations", "3"]) == 0
        doc = json.loads(path.read_text())
        iters = [e for e in doc["traceEvents"]
                 if e["ph"] == "i" and e["name"] == "iteration"]
        assert len(iters) == 3

    def test_unknown_app_exits_2_listing_choices(self, tmp_path, capsys):
        assert main(["trace", "linpack", "-o", str(tmp_path / "t.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown application" in err
        assert "cloverleaf2d" in err

    def test_unknown_platform_exits_2_listing_choices(self, tmp_path, capsys):
        assert main(["trace", "miniweather", "--platform", "cray1",
                     "-o", str(tmp_path / "t.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown platform" in err
        assert "max9480" in err

    @pytest.mark.parametrize("iterations", ["0", "-2"])
    def test_nonpositive_iterations_exit_2_before_profiling(
            self, tmp_path, capsys, monkeypatch, iterations):
        import repro.harness

        def fail(*a, **kw):
            raise AssertionError("traced a run for a rejected --iterations")

        monkeypatch.setattr(repro.harness, "trace_application", fail)
        path = tmp_path / "t.json"
        assert main(["trace", "miniweather", "-o", str(path),
                     "--iterations", iterations]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--iterations must be at least 1" in err
        assert not path.exists()
