"""The ``/run`` body: ``render_json(run_payload(...))``, rendered once per
best estimate and kept with it.

What must hold (``docs/SERVE.md``, "Byte-equivalence with the CLI"):
for every (app, platform) pair, :func:`repro.serve.payloads.run_json`
is the text a fresh evaluation renders, whether the estimate was just
evaluated or read back from a warm store; a kept body is not a field
of its estimate; concurrent first renders publish one body; and each
render is one ``serve``/``render`` stage.
"""

import dataclasses
import io
import pickle
import threading
import time
from contextlib import redirect_stdout

import pytest

import repro.engine.core as engine_core
from repro.__main__ import main as cli_main
from repro.apps import APP_ORDER
from repro.engine import SweepEngine, build_plan, default_configs
from repro.engine.store import estimate_to_dict
from repro.machine import ALL_PLATFORMS, XEON_MAX_9480
from repro.obs.metrics import MetricsRegistry, collecting
from repro.serve import payloads
from repro.serve.payloads import render_json, run_json, run_payload

PAIRS = [(app, platform) for app in APP_ORDER for platform in ALL_PLATFORMS]


def request_payload(engine, name, platform) -> dict:
    """The run payload with ``app``, ``platform`` and ``config`` taken
    from the request and the chosen configuration, not the estimate."""
    cfg, est = engine.best_run(name, platform, default_configs(name, platform))
    return {
        "app": name,
        "platform": platform.short_name,
        "config": cfg.label(),
        "total_time_s": est.total_time,
        "compute_time_s": est.compute_time,
        "mpi_time_s": est.mpi_time,
        "mpi_fraction": est.mpi_fraction,
        "effective_bandwidth_gbs": est.effective_bandwidth / 1e9,
        "estimate": estimate_to_dict(est),
    }


def cli_text(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def reference():
    """Every pair's body from an engine that stores nothing."""
    engine = SweepEngine(None, use_cache=False)
    patch = pytest.MonkeyPatch()
    patch.setattr(engine_core, "_default", engine)
    try:
        bodies = {}
        for name, platform in PAIRS:
            body = render_json(run_payload(name, platform))
            assert body == render_json(request_payload(engine, name, platform))
            bodies[name, platform.short_name] = body
    finally:
        patch.undo()
    return bodies


def use(monkeypatch, engine) -> SweepEngine:
    monkeypatch.setattr(engine_core, "_default", engine)
    return engine


class TestSameBytes:
    def test_fresh_then_warm_store_match_a_fresh_evaluation(
            self, reference, tmp_path, monkeypatch):
        fresh = use(monkeypatch, SweepEngine(tmp_path))
        for name, platform in PAIRS:
            assert run_json(name, platform) == reference[
                name, platform.short_name], (name, platform.short_name)
        assert fresh.metrics.evaluations > 0
        # A new engine over the store: every best estimate is deferred.
        warm = use(monkeypatch, SweepEngine(tmp_path))
        for name, platform in PAIRS:
            body = run_json(name, platform)
            assert body == reference[name, platform.short_name]
            assert run_json(name, platform) is body
        assert warm.metrics.evaluations == 0
        text = cli_text(["run", "cloverleaf2d", "--platform", "max9480",
                         "--json"])
        assert text == reference["cloverleaf2d", "max9480"]

    def test_compare_json_nests_the_request_payloads(self, tmp_path,
                                                     monkeypatch):
        engine = use(monkeypatch, SweepEngine(tmp_path))
        run_json("miniweather", XEON_MAX_9480)  # one pair keeps a body
        text = cli_text(["run", "miniweather", "--compare", "--json"])
        assert text == render_json({
            "app": "miniweather",
            "runs": [request_payload(engine, "miniweather", p)
                     for p in ALL_PLATFORMS],
        })


@pytest.fixture
def carrier(tmp_path, monkeypatch):
    """miniweather@max9480's best estimate, read back from a store,
    with its body kept."""
    use(monkeypatch, SweepEngine(tmp_path)).run_plan(
        build_plan(["miniweather"], [XEON_MAX_9480]))
    engine = use(monkeypatch, SweepEngine(tmp_path))
    body = run_json("miniweather", XEON_MAX_9480)
    _, est = engine.best_run("miniweather", XEON_MAX_9480,
                             default_configs("miniweather", XEON_MAX_9480))
    assert vars(est)["_run_json"] is body
    return est


class TestKeptBody:
    @pytest.mark.parametrize("read", [
        lambda e: e, hash, repr, dataclasses.asdict,
        lambda e: pickle.loads(pickle.dumps(e)),
    ], ids=["eq", "hash", "repr", "asdict", "pickle"])
    def test_body_is_not_a_field(self, carrier, read):
        twin = dataclasses.replace(carrier)  # carries no body
        assert "_run_json" not in vars(twin)
        assert read(carrier) == read(twin)

    def test_concurrent_first_renders_publish_one_body(
            self, tmp_path, monkeypatch):
        use(monkeypatch, SweepEngine(tmp_path)).run_plan(
            build_plan(["miniweather"], [XEON_MAX_9480]))
        render = payloads.render_json
        renders = []

        def slow(payload):  # every caller renders before one publishes
            renders.append(1)
            time.sleep(0.05)
            return render(payload)

        monkeypatch.setattr(payloads, "render_json", slow)
        threads, barrier = 8, threading.Barrier(8)
        got, reg = [None] * threads, MetricsRegistry()

        def first_request(i):
            barrier.wait()
            with collecting(reg):  # a new thread starts with no registry
                got[i] = run_json("miniweather", XEON_MAX_9480)

        workers = [threading.Thread(target=first_request, args=(i,))
                   for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert all(g is got[0] for g in got)
        assert got[0] == render(run_payload("miniweather", XEON_MAX_9480))
        renders_seen = len(renders)
        assert 1 <= renders_seen <= threads
        hist = reg.histogram("stage_seconds", layer="serve", stage="render")
        assert hist.count == renders_seen
        with collecting() as again:
            assert run_json("miniweather", XEON_MAX_9480) is got[0]
        assert len(renders) == renders_seen
        assert again.histogram("stage_seconds", layer="serve",
                               stage="render") is None
