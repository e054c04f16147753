"""Tests for the content-addressed result store and its key scheme."""

import dataclasses
import json
import shutil

import pytest

from repro.engine import store as store_mod
from repro.engine.store import (
    ResultStore,
    estimate_from_dict,
    estimate_to_dict,
    fingerprint,
    model_version,
    result_key,
)
from repro.machine import XEON_MAX_9480, Compiler, Parallelization, RunConfig
from repro.perfmodel import calibration
from repro.perfmodel.commmodel import CommEstimate
from repro.perfmodel.roofline import AppEstimate, LoopTime


def make_estimate(total=1.25) -> AppEstimate:
    loops = (
        LoopTime("flux", 0.011, 0.009, 0.003, 0.0, 1e-6, 3.2e9, 1.1e9),
        LoopTime("update", 0.004, 0.0035, 0.001, 0.0002, 2e-6, 1.6e9, 0.4e9),
    )
    return AppEstimate(
        app="toy",
        platform="max9480",
        config_label="MPI w/o HT OneAPI (ZMM default)",
        total_time=total,
        compute_time=total * 0.8,
        mpi_time=total * 0.2,
        per_loop=loops,
        counted_bytes=4.8e9,
        flops=1.5e9,
        comm=CommEstimate(0.01, 12.0, 3.4e6),
    )


CFG = RunConfig(Compiler.ONEAPI, Parallelization.MPI)


class TestSerialization:
    def test_round_trip_is_exact(self):
        est = make_estimate(1.0 / 3.0)  # non-representable float
        back = estimate_from_dict(json.loads(json.dumps(estimate_to_dict(est))))
        assert back == est  # dataclass equality: every field bit-identical

    def test_round_trip_preserves_derived_metrics(self):
        est = make_estimate()
        back = estimate_from_dict(estimate_to_dict(est))
        assert back.mpi_fraction == est.mpi_fraction
        assert back.effective_bandwidth == est.effective_bandwidth
        assert back.per_loop[0].bottleneck == est.per_loop[0].bottleneck


class TestResultStore:
    def test_memory_roundtrip(self):
        store = ResultStore(None)
        est = make_estimate()
        store.put("k1", est)
        assert store.get("k1") == est
        assert store.get("other") is None
        assert len(store) == 1 and "k1" in store

    def test_persists_across_instances(self, tmp_path):
        ResultStore(tmp_path).put("k1", make_estimate(2.5))
        again = ResultStore(tmp_path)
        got = again.get("k1")
        assert got is not None and got.total_time == 2.5

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate(1.0))
        store.put("k1", make_estimate(2.0))
        assert ResultStore(tmp_path).get("k1").total_time == 2.0
        assert len(ResultStore(tmp_path)) == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        with store.path.open("a") as f:
            f.write("{torn-line\n")
        assert ResultStore(tmp_path).get("k1") is not None

    def test_corrupt_lines_are_counted_and_reported(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate(1.0))
        with store.path.open("a") as f:
            f.write("{torn-line\n")           # crash mid-append
            f.write('{"not": "a record"}\n')  # foreign but valid JSON
        store.put("k2", make_estimate(2.0))   # appended after the damage
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1").total_time == 1.0
        assert reloaded.get("k2").total_time == 2.0
        assert reloaded.corrupt_lines == 2
        assert len(reloaded) == 2

    def test_blank_lines_are_not_counted_as_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        with store.path.open("a") as f:
            f.write("\n\n")
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1") is not None
        assert reloaded.corrupt_lines == 0

    def test_clear_resets_corrupt_count(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        with store.path.open("a") as f:
            f.write("{torn\n")
        reloaded = ResultStore(tmp_path)
        reloaded.get("k1")
        assert reloaded.corrupt_lines == 1
        reloaded.clear()
        assert reloaded.corrupt_lines == 0

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        # Several store instances over one file (the multi-process
        # pattern: each append is a single O_APPEND write) racing puts;
        # every record must land whole.
        import threading

        writers, per_writer = 8, 20

        def write(w: int) -> None:
            store = ResultStore(tmp_path)
            for i in range(per_writer):
                store.put(f"w{w}-k{i}", make_estimate(w + i / 100))

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = ResultStore(tmp_path)
        assert merged.corrupt_lines == 0
        assert len(merged) == writers * per_writer
        for w in range(writers):
            for i in range(per_writer):
                got = merged.get(f"w{w}-k{i}")
                assert got is not None and got.total_time == w + i / 100

    def test_clear_removes_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        store.clear()
        assert len(store) == 0
        assert not store.path.exists()
        assert len(ResultStore(tmp_path)) == 0

    def test_compact_dedups_log(self, tmp_path):
        store = ResultStore(tmp_path)
        for t in (1.0, 2.0, 3.0):
            store.put("k1", make_estimate(t))
        assert len(store.path.read_text().splitlines()) == 3
        assert store.compact() == 1
        assert len(store.path.read_text().splitlines()) == 1
        assert ResultStore(tmp_path).get("k1").total_time == 3.0


def mixed_records(directory) -> list[str]:
    """A store file of six records over two apps and two platforms,
    with one key superseded; returns the live keys."""
    store = ResultStore(directory)
    keys = []
    for i, (app, platform) in enumerate(
        [("toy", "max9480"), ("toy", "icx8360y"), ("other", "max9480")] * 2
    ):
        key = f"k{i}"
        store.put(key, dataclasses.replace(
            make_estimate(1.0 + i / 7), app=app, platform=platform))
        keys.append(key)
    store.put("k0", make_estimate(9.5))  # superseded line stays in the log
    return keys


@pytest.fixture()
def decodes(monkeypatch):
    """Counts ``estimate_from_dict`` calls made by the store."""
    calls = []

    def counting(d):
        calls.append(1)
        return estimate_from_dict(d)

    monkeypatch.setattr(store_mod, "estimate_from_dict", counting)
    return calls


class TestDecodedMap:
    def test_repeated_get_decodes_once_and_shares_the_object(
            self, tmp_path, decodes):
        ResultStore(tmp_path).put("k1", make_estimate(2.5))
        store = ResultStore(tmp_path)
        first = store.get("k1")
        again = store.get("k1")
        assert len(decodes) == 1
        assert first is again
        assert first == make_estimate(2.5)

    def test_put_then_get_never_decodes(self, tmp_path, decodes):
        store = ResultStore(tmp_path)
        est = make_estimate()
        store.put("k1", est)
        assert store.get("k1") is est
        assert decodes == []

    def test_compact_after_reads_writes_the_untouched_bytes(self, tmp_path):
        keys = mixed_records(tmp_path / "read")
        shutil.copytree(tmp_path / "read", tmp_path / "untouched")
        read = ResultStore(tmp_path / "read")
        for key in keys[::2]:
            assert read.get(key) is not None
        read.compact()
        ResultStore(tmp_path / "untouched").compact()
        assert (read.path.read_bytes()
                == (tmp_path / "untouched" / ResultStore.FILENAME).read_bytes())

    def test_estimates_same_before_and_after_reads(self, tmp_path):
        keys = mixed_records(tmp_path)
        filters = [(None, None), ("toy", None), (None, "max9480"),
                   ("toy", "icx8360y"), ("absent", None)]
        before = [ResultStore(tmp_path).estimates(app=a, platform=p)
                  for a, p in filters]
        store = ResultStore(tmp_path)
        for key in keys[:3]:
            store.get(key)
        assert [store.estimates(app=a, platform=p)
                for a, p in filters] == before
        assert len(before[0]) == len(keys)


class TestKeys:
    def test_fingerprint_deterministic(self):
        assert fingerprint(CFG) == fingerprint(CFG)
        assert fingerprint(XEON_MAX_9480) == fingerprint(XEON_MAX_9480)

    def test_fingerprint_distinguishes_configs(self):
        assert fingerprint(CFG) != fingerprint(CFG.with_(hyperthreading=True))

    def test_key_depends_on_all_axes(self):
        base = result_key("a" * 16, XEON_MAX_9480, CFG)
        assert result_key("b" * 16, XEON_MAX_9480, CFG) != base
        assert result_key("a" * 16, XEON_MAX_9480,
                          CFG.with_(compiler=Compiler.CLASSIC)) != base
        assert result_key("a" * 16, XEON_MAX_9480, CFG) == base

    def test_model_version_bumps_on_calibration_change(self):
        v0 = model_version()
        with calibration.override(BOTTLENECK_PNORM=5.0):
            assert model_version() != v0
        assert model_version() == v0  # restored with the constant

    def test_calibration_change_invalidates_keys(self):
        base = result_key("a" * 16, XEON_MAX_9480, CFG)
        with calibration.override(MEM_CONCURRENCY_BASE=1e9):
            assert result_key("a" * 16, XEON_MAX_9480, CFG) != base
