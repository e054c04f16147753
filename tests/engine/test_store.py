"""Tests for the content-addressed result store and its key scheme."""

import base64
import dataclasses
import json
import pickle
import shutil
import struct
import sys
import tempfile
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_ORDER
from repro.engine import SweepEngine, build_plan, default_engine
from repro.engine import store as store_mod
from repro.engine.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical,
    estimate_from_dict,
    estimate_to_dict,
    fingerprint,
    model_version,
    result_key,
)
from repro.machine import (
    ALL_PLATFORMS,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
)
from repro.obs.metrics import collecting
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

    def test_decoded_loops_are_equal_hashable_and_frozen(self):
        est = make_estimate(1.0 / 3.0)
        back = estimate_from_dict(json.loads(json.dumps(estimate_to_dict(est))))
        for got, want in zip(back.per_loop, est.per_loop, strict=True):
            assert type(got) is LoopTime
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.time = 0.0
        assert hash(back) == hash(est)

    def test_loop_entry_without_a_defaulted_field_still_decodes(self):
        rec = estimate_to_dict(make_estimate())
        for lt in rec["per_loop"]:
            del lt["mem_level"]  # a default field: keyword init fills it
        assert estimate_from_dict(rec) == make_estimate()

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_loop_entry_with_other_fields_is_rejected(self, edit):
        rec = estimate_to_dict(make_estimate())
        if edit == "missing":
            del rec["per_loop"][1]["time"]
        else:
            rec["per_loop"][1]["speed"] = 1.0
        with pytest.raises(TypeError):
            estimate_from_dict(rec)

    def test_round_trip_preserves_derived_metrics(self):
        est = make_estimate()
        back = estimate_from_dict(estimate_to_dict(est))
        assert back.mpi_fraction == est.mpi_fraction
        assert back.effective_bandwidth == est.effective_bandwidth
        assert back.per_loop[0].bottleneck == est.per_loop[0].bottleneck


def dumps_line(rec) -> bytes:
    return (json.dumps(rec, separators=(",", ":")) + "\n").encode()


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


#: The float fields of a LoopTime, in declaration order.
LOOP_FLOATS = [name for name in field_names(LoopTime)
               if name not in ("name", "mem_level")]


def loop_columns(rows: list[dict]) -> dict:
    """The columns of a loop line, built from ``dataclasses.asdict``
    rows: names, mem_levels, and every row's floats packed as ``<7d``
    in base64."""
    packed = b"".join(struct.pack("<7d", *(row[name] for name in LOOP_FLOATS))
                      for row in rows)
    return {"name": [row["name"] for row in rows],
            "mem_level": [row["mem_level"] for row in rows],
            "f64": base64.b64encode(packed).decode()}


def record_lines(key: str, header, columns: dict) -> bytes:
    """An estimate record as the store documents it: a header line with
    the frame (byte length and CRC-32) of the loop line that follows."""
    loop_line = dumps_line({"key": key, **columns})
    frame = {"bytes": len(loop_line), "crc32": zlib.crc32(loop_line)}
    return dumps_line({"key": key, "estimate": header,
                       "loop_line": frame}) + loop_line


def asdict_line(key: str, est: AppEstimate) -> bytes:
    """The record of an estimate built from ``dataclasses.asdict``, with
    no store code: the header is ``asdict`` less ``per_loop``, and the
    loop line packs ``per_loop``'s rows.  What ``put`` and ``compact``
    write must match it byte for byte."""
    body = dataclasses.asdict(est)
    return record_lines(key, body, loop_columns(body.pop("per_loop")))


#: Every float a record can hold, the awkward ones always in the draw.
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2e-308])
names = st.text(max_size=6) | st.sampled_from(["flux", "ρ_update", "流量"])
loop_times = st.builds(
    LoopTime, name=names, time=any_float, t_bandwidth=any_float,
    t_compute=any_float, t_latency=any_float, overhead=any_float,
    counted_bytes=any_float, flops=any_float,
    mem_level=st.sampled_from(["memory", "L2", "L3", "hbm"]))


def estimates(n_loops: int):
    """Estimates with ``n_loops`` loops, cycled from up to eight drawn
    ones (so 200 loops stay a small draw)."""
    per_loop = st.just(()) if n_loops == 0 else st.lists(
        loop_times, min_size=1, max_size=8).map(
            lambda ls: tuple(ls[i % len(ls)] for i in range(n_loops)))
    return st.builds(
        AppEstimate, app=names, platform=names, config_label=names,
        total_time=any_float, compute_time=any_float, mpi_time=any_float,
        per_loop=per_loop,
        counted_bytes=any_float, flops=any_float,
        comm=st.builds(CommEstimate, any_float, any_float, any_float,
                       any_float, any_float, any_float))


class TestEncoding:
    """``put`` and ``compact`` write the record a reference built from
    ``dataclasses.asdict`` gives, byte for byte."""

    @staticmethod
    def assert_asdict_bytes(est: AppEstimate) -> None:
        with tempfile.TemporaryDirectory() as d:
            store = ResultStore(d)
            store.put("k1", est)
            assert store.path.read_bytes() == asdict_line("k1", est)
            store.put("k1", est)
            assert store.compact() == 1
            assert store.path.read_bytes() == asdict_line("k1", est)

    def test_put_and_compact_write_the_asdict_bytes(self):
        self.assert_asdict_bytes(make_estimate())

    def test_model_estimate_writes_the_asdict_bytes(self):
        est = default_engine().run("miniweather", XEON_MAX_9480, CFG)
        assert len(est.per_loop) > 1
        self.assert_asdict_bytes(est)

    @pytest.mark.parametrize("n_loops", [0, 1, 200])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_estimate_writes_the_asdict_bytes(self, n_loops, data):
        self.assert_asdict_bytes(data.draw(estimates(n_loops)))

    def test_keys_follow_field_order_at_every_level(self):
        rec = estimate_to_dict(make_estimate())
        assert list(rec) == field_names(AppEstimate)
        for loop in rec["per_loop"]:
            assert list(loop) == field_names(LoopTime)
        assert list(rec["comm"]) == field_names(CommEstimate)

    def test_written_lines_follow_field_order_at_every_level(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        pairs = lambda kv: kv  # keep each object's keys in file order
        header, loops = (json.loads(line, object_pairs_hook=pairs)
                         for line in store.path.read_text().splitlines())
        assert [k for k, _ in header] == ["key", "estimate", "loop_line"]
        estimate, frame = dict(header)["estimate"], dict(header)["loop_line"]
        assert [k for k, _ in estimate] == [
            n for n in field_names(AppEstimate) if n != "per_loop"]
        assert [k for k, _ in dict(estimate)["comm"]] == field_names(
            CommEstimate)
        assert [k for k, _ in frame] == ["bytes", "crc32"]
        assert [k for k, _ in loops] == ["key", "name", "mem_level", "f64"]
        assert LOOP_FLOATS == field_names(LoopTime)[1:-1]
        assert len(LOOP_FLOATS) == 7

    @pytest.mark.parametrize("value", [1, True, np.float64(0.5)],
                             ids=["int", "bool", "float64"])
    def test_a_loop_field_that_is_not_a_float_is_refused(self, tmp_path,
                                                         value):
        est = make_estimate()
        bad = dataclasses.replace(
            est, per_loop=(est.per_loop[0],
                           dataclasses.replace(est.per_loop[1], flops=value)))
        store = ResultStore(tmp_path)
        store.put("k1", est)
        size = store.path.stat().st_size
        with pytest.raises(TypeError, match="'update': flops is"):
            store.put("k2", bad)
        assert store.path.stat().st_size == size
        assert "k2" not in store and "k2" not in ResultStore(tmp_path)


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
        # Three records of two lines each.
        assert len(store.path.read_text().splitlines()) == 6
        assert store.compact() == 1
        assert len(store.path.read_text().splitlines()) == 2
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

    def counting(*args):
        calls.append(1)
        return estimate_from_dict(*args)

    monkeypatch.setattr(store_mod, "estimate_from_dict", counting)
    return calls


def good_and_bad_records(directory, bad_key: str) -> list[str]:
    """A store file whose three undecodable records, each well framed —
    a header with only an ``app`` field (under ``bad_key``), one missing
    a field and one with an extra field — each sit between two good
    records; returns the good keys."""
    good = ResultStore(directory)
    broken = []
    missing = estimate_to_dict(make_estimate())
    del missing["flops"]
    extra = estimate_to_dict(make_estimate())
    extra["speed"] = 2.0
    for key, body in ((bad_key, {"app": "x", "per_loop": []}),
                      ("missing", missing), ("extra", extra)):
        broken.append(
            record_lines(key, body, loop_columns(body.pop("per_loop"))))
    keys = []
    for i, lines in enumerate(broken):
        good.put(f"good{i}", make_estimate(1.0 + i))
        keys.append(f"good{i}")
        with good.path.open("ab") as f:
            f.write(lines)
    good.put("good3", make_estimate(4.0))
    return keys + ["good3"]


class TestUndecodableRecords:
    """A record that parses but does not decode is a miss: it is
    dropped, counted as corrupt, and the next ``put`` replaces it."""

    def test_get_drops_and_counts_each_one(self, tmp_path):
        good = good_and_bad_records(tmp_path, "bad")
        store = ResultStore(tmp_path)
        assert len(store) == 7
        assert store.corrupt_lines == 0  # all of them parse
        with collecting() as reg:
            for key in ("bad", "missing", "extra"):
                assert store.get(key) is None
                assert store.get(key) is None  # dropped, not re-decoded
        assert store.corrupt_lines == 3
        assert reg.value("store_corrupt_lines_total") == 3
        for i, key in enumerate(good):
            assert store.get(key) == make_estimate(1.0 + i)
        assert len(store) == 4

    def test_non_object_estimate_is_corrupt_at_load(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate())
        with store.path.open("a") as f:
            f.write('{"key":"k2","estimate":null}\n')
            f.write('{"key":"k3","estimate":[1,2]}\n')
        reloaded = ResultStore(tmp_path)
        assert "k2" not in reloaded and "k3" not in reloaded
        assert reloaded.corrupt_lines == 2
        assert reloaded.get("k1") == make_estimate()
        assert len(reloaded) == 1

    def test_engine_reevaluates_and_put_replaces(self, tmp_path):
        engine = SweepEngine(tmp_path)
        key = engine.result_address("miniweather", XEON_MAX_9480, CFG)
        good_and_bad_records(tmp_path, key)
        fresh = SweepEngine(tmp_path)
        est = fresh.run("miniweather", XEON_MAX_9480, CFG)
        assert fresh.metrics.evaluations == 1
        assert fresh.store.corrupt_lines == 1
        assert est == SweepEngine(None, use_cache=False).run(
            "miniweather", XEON_MAX_9480, CFG)
        # The put appended a good record under the same key, which wins
        # on the next load.
        again = SweepEngine(tmp_path)
        assert again.run("miniweather", XEON_MAX_9480, CFG) == est
        assert again.metrics.evaluations == 0


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

    def test_canonical_primitives_pass_through(self):
        for value in ("s", 3, 2.5, True, None):
            assert canonical(value) is value
        assert canonical(Compiler.ONEAPI) == Compiler.ONEAPI.value
        assert canonical({"a": (1, Compiler.ONEAPI)}) == {
            "a": [1, Compiler.ONEAPI.value]}


def unmemoized_version() -> str:
    """The model version as a plain digest of the live constants."""
    constants = {k: v for k, v in vars(calibration).items()
                 if k.isupper() and not k.startswith("_")}
    return fingerprint({
        "schema": STORE_SCHEMA_VERSION,
        "source": store_mod._source_hash(store_mod.MODEL_PACKAGES),
        "calibration": constants,
    })


class TestModelVersionMemo:
    """``model_version()`` is memoized on the calibration snapshot, so
    every way of changing a constant re-addresses the store."""

    def test_matches_the_unmemoized_digest(self):
        assert model_version() == unmemoized_version()

    def test_override(self):
        v0 = model_version()
        with calibration.override(BOTTLENECK_PNORM=5.0):
            assert model_version() == unmemoized_version() != v0
        assert model_version() == v0

    def test_plain_setattr(self, monkeypatch):
        v0 = model_version()
        monkeypatch.setattr(calibration, "BOTTLENECK_PNORM", 5.0)
        assert model_version() == unmemoized_version() != v0
        monkeypatch.undo()
        assert model_version() == v0

    def test_replaced_dict(self, monkeypatch):
        v0 = model_version()
        monkeypatch.setattr(calibration, "FLOP_MIX",
                            {**calibration.FLOP_MIX, "compute": 0.5})
        assert model_version() == unmemoized_version() != v0
        monkeypatch.undo()
        assert model_version() == v0

    def test_dict_edited_in_place(self, monkeypatch):
        v0 = model_version()
        monkeypatch.setitem(calibration.FLOP_MIX, "compute", 0.5)
        assert model_version() == unmemoized_version() != v0
        monkeypatch.undo()
        assert model_version() == v0

    def test_equal_value_of_another_type(self, monkeypatch):
        # 4 == 4.0, but the two serialize differently.
        v0 = model_version()
        monkeypatch.setattr(calibration, "BOTTLENECK_PNORM", 4)
        assert model_version() == unmemoized_version() != v0
        monkeypatch.undo()
        assert model_version() == v0

    def test_override_rejects_names_outside_the_snapshot(self):
        with pytest.raises(KeyError, match="contextlib"):
            with calibration.override(contextlib=None):
                pass

    def test_snapshot_and_constants_cover_the_same_names(self):
        names = sorted(calibration.constants())
        assert names == sorted(k for k in vars(calibration)
                               if k.isupper() and not k.startswith("_"))
        assert len(calibration.snapshot()) == 2 * len(names)

    def test_default_plan_addresses_match_the_reference_formula(self):
        engine = default_engine()
        plan = build_plan(APP_ORDER, ALL_PLATFORMS)
        assert len(plan.jobs) > 400
        version = unmemoized_version()
        for job in plan.jobs:
            reference = fingerprint({
                "app": engine.app_spec(job.app).fingerprint(),
                "platform": fingerprint(job.platform),
                "config": job.config,
                "model": version,
            })
            assert engine.result_address(
                job.app, job.platform, job.config) == reference


@pytest.fixture()
def loop_decodes(monkeypatch):
    """Counts the loop tables the store decodes."""
    calls = []
    decode = store_mod._decode_loop_line

    def counting(data):
        calls.append(1)
        return decode(data)

    monkeypatch.setattr(store_mod, "_decode_loop_line", counting)
    return calls


def reloaded_estimate(directory, est=None) -> AppEstimate:
    """``est`` put into a store, read back undecoded by a new store."""
    ResultStore(directory).put("k1", est or make_estimate(1.0 / 3.0))
    return ResultStore(directory).get("k1")


class TestLazyLoops:
    """A stored estimate's loop table is decoded on the first read of
    its ``per_loop``, once, and nothing else needs it."""

    def test_get_decodes_headers_only(self, tmp_path, loop_decodes):
        est = reloaded_estimate(tmp_path)
        assert "per_loop" not in vars(est)
        assert est.total_time == 1.0 / 3.0
        assert est.comm == make_estimate().comm
        assert est.mpi_fraction == make_estimate(1.0 / 3.0).mpi_fraction
        assert loop_decodes == []
        assert est.per_loop == make_estimate().per_loop
        assert est.per_loop is est.per_loop
        assert len(loop_decodes) == 1

    @pytest.mark.parametrize("read", [
        lambda e: e, hash, repr, dataclasses.asdict,
        lambda e: dataclasses.replace(e, app="toy"),
        lambda e: pickle.loads(pickle.dumps(e)),
    ], ids=["eq", "hash", "repr", "asdict", "replace", "pickle"])
    def test_undecoded_estimate_acts_as_a_fresh_one(self, tmp_path, read):
        est = reloaded_estimate(tmp_path)
        assert type(est) is AppEstimate and "per_loop" not in vars(est)
        assert read(est) == read(make_estimate(1.0 / 3.0))

    def test_other_missing_attributes_still_raise(self, tmp_path):
        est = reloaded_estimate(tmp_path)
        with pytest.raises(AttributeError, match="speed"):
            est.speed
        assert not hasattr(make_estimate(), "_load_per_loop")
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.per_loop = ()

    def test_concurrent_first_reads_share_one_table(self, tmp_path,
                                                    monkeypatch):
        want = default_engine().run("miniweather", XEON_MAX_9480, CFG)
        ResultStore(tmp_path).put("k1", want)
        decode = store_mod._decode_loop_line

        def slow(data):  # every reader arrives before the first publishes
            time.sleep(0.05)
            return decode(data)

        monkeypatch.setattr(store_mod, "_decode_loop_line", slow)
        est = ResultStore(tmp_path).get("k1")
        threads, barrier = 8, threading.Barrier(8)
        got, errors = [None] * threads, []

        def read(i):
            barrier.wait()
            try:
                got[i] = est.per_loop
            except Exception as exc:  # noqa: BLE001 - the test's subject
                errors.append(exc)

        workers = [threading.Thread(target=read, args=(i,))
                   for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert all(g is got[0] for g in got)
        assert got[0] == want.per_loop and est == want

    def test_model_estimates_read_back_bit_for_bit(self, tmp_path):
        """Every default-plan estimate read back from a store equals a
        fresh evaluation, and so does every loop field's ``float.hex``;
        every loop float reads back as a ``float``."""
        plan = build_plan(APP_ORDER, ALL_PLATFORMS)
        SweepEngine(tmp_path).run_plan(plan)
        warm = SweepEngine(tmp_path)
        stored = warm.run_plan(plan)
        fresh = SweepEngine(use_cache=False).run_plan(plan)
        assert warm.metrics.evaluations == 0
        assert warm.metrics.spec_builds == 0
        ok = [(s, f) for s, f in zip(stored, fresh, strict=True)
              if s.status != "skipped"]
        assert len(ok) > 400
        for s, f in ok:
            assert s.status == "cached" and s.estimate == f.estimate
            for got, want in zip(s.estimate.per_loop, f.estimate.per_loop,
                                 strict=True):
                for name in LOOP_FLOATS:
                    value = getattr(got, name)
                    assert type(value) is float
                    assert value.hex() == getattr(want, name).hex()

    def test_loop_floats_read_back_as_their_bytes(self, tmp_path):
        """A NaN's sign and payload, -0.0 and subnormals survive a loop
        table's trip through the file bit for bit."""
        nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_DEAD_BEEF))[0]
        floats = [nan, -0.0, 5e-324, -2.2e-308, float("inf"),
                  float("-inf"), 1.0 / 3.0]
        est = dataclasses.replace(make_estimate(),
                                  per_loop=(LoopTime("odd", *floats),))
        got = reloaded_estimate(tmp_path, est).per_loop[0]
        for name, want in zip(LOOP_FLOATS, floats, strict=True):
            assert struct.pack("<d", getattr(got, name)) == struct.pack(
                "<d", want)

    def test_warm_figures_and_fidelity_decode_no_loop_table(
            self, tmp_path, monkeypatch, loop_decodes):
        from repro.engine import reset_engine
        from repro.harness import figures
        from repro.obs import fidelity

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_engine()
        try:
            figures.all_figures()
            fidelity.scorecard()
            reset_engine()  # a new process over the warm store
            size = (tmp_path / ResultStore.FILENAME).stat().st_size
            figures.all_figures()
            fidelity.scorecard()
            engine = default_engine()
            assert engine.metrics.evaluations == 0
            assert engine.metrics.spec_builds == 0
            assert engine.metrics.cache_hits > 400
            assert loop_decodes == []
            assert (tmp_path / ResultStore.FILENAME).stat().st_size == size
        finally:
            reset_engine()


    def test_sweep_reads_headers_and_run_decodes_one_table(
            self, tmp_path, monkeypatch, loop_decodes):
        """``/sweep``'s body decodes no loop table; ``/run``'s decodes
        the best estimate's, which it renders once and keeps."""
        import repro.engine.core as engine_core
        from repro.serve.payloads import run_json, run_payload, sweep_payload

        SweepEngine(tmp_path).run_plan(
            build_plan(["miniweather"], [XEON_MAX_9480]))
        monkeypatch.setattr(engine_core, "_default", SweepEngine(tmp_path))
        sweep_payload(["miniweather"], [XEON_MAX_9480])
        assert loop_decodes == []
        body = run_json("miniweather", XEON_MAX_9480)
        assert len(loop_decodes) == 1 and '"per_loop": [' in body
        assert run_json("miniweather", XEON_MAX_9480) is body
        assert run_payload("miniweather", XEON_MAX_9480)["estimate"]["per_loop"]
        assert len(loop_decodes) == 1
        assert default_engine().metrics.evaluations == 0


def framed(directory) -> tuple[ResultStore, bytes, bytes]:
    """A store file holding one record under ``k1``: (store, its header
    line, its loop line)."""
    store = ResultStore(directory)
    store.put("k1", make_estimate(1.0))
    header, loops = store.path.read_bytes().splitlines(keepends=True)
    return store, header, loops


class TestFraming:
    """Each header frames its loop line by length and CRC-32; a record
    whose loop line fails the check is skipped and counted at load, and
    reads as a miss."""

    def test_torn_loop_line_with_the_next_record_appended(self, tmp_path):
        store, header, loops = framed(tmp_path)
        store.path.write_bytes(header + loops[: len(loops) // 2])
        store.put("k2", make_estimate(2.0))  # starts on a line of its own
        store.put("k3", make_estimate(3.0))
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1") is None
        assert reloaded.get("k2") == make_estimate(2.0)
        assert reloaded.get("k3") == make_estimate(3.0)
        # k1's header and the torn line.
        assert reloaded.corrupt_lines == 2

    def test_append_after_a_newline_writes_the_record_alone(self, tmp_path):
        """Only a torn last line gets a newline before the next record;
        a new file, and one that ends in a newline, get the record's
        bytes alone."""
        records = [store_mod._estimate_record(key, make_estimate(total))
                   for key, total in (("k1", 1.0), ("k2", 2.0))]
        store = ResultStore(tmp_path)
        store.put("k1", make_estimate(1.0))
        assert store.path.read_bytes() == records[0]
        store.put("k2", make_estimate(2.0))
        assert store.path.read_bytes() == records[0] + records[1]

    @pytest.mark.parametrize("at_end", [False, True])
    def test_header_without_its_loop_line(self, tmp_path, at_end):
        store, header, _ = framed(tmp_path)
        store.path.write_bytes(header)
        if not at_end:
            store.put("k2", make_estimate(2.0))
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1") is None
        assert reloaded.corrupt_lines == 1
        assert len(reloaded) == (0 if at_end else 1)

    def test_garbled_loop_line_of_the_right_length(self, tmp_path):
        store, header, loops = framed(tmp_path)
        i = loops.index(b'"f64":"') + 20  # one base64 character
        flipped = b"B" if loops[i:i + 1] == b"A" else b"A"
        garbled = loops[:i] + flipped + loops[i + 1:]
        assert len(garbled) == len(loops) and garbled != loops
        store.path.write_bytes(header + garbled)
        store.put("k2", make_estimate(2.0))
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k1") is None
        assert reloaded.get("k2") == make_estimate(2.0)
        # The header, then the garbled line read as a record of its own.
        assert reloaded.corrupt_lines == 2

    def test_schema_1_line_is_skipped_not_misread(self, tmp_path):
        """The one-line layout of schema 1 carries no frame."""
        old = json.dumps({"key": "k1",
                          "estimate": dataclasses.asdict(make_estimate())},
                         separators=(",", ":")) + "\n"
        (tmp_path / ResultStore.FILENAME).write_text(old)
        ResultStore(tmp_path).put("k2", make_estimate(2.0))
        reloaded = ResultStore(tmp_path)
        assert "k1" not in reloaded and reloaded.corrupt_lines == 1
        assert reloaded.get("k2") == make_estimate(2.0)
        assert reloaded.compact() == 1

    def test_loop_line_that_passes_its_frame_but_not_decode(self, tmp_path):
        """Only a writer other than ``put`` frames a bad table: columns of
        unequal length, text that is not base64, or a schema-2 loop list.
        Its first read raises ``ValueError``, not an ``AttributeError``."""
        rows = dataclasses.asdict(make_estimate())["per_loop"]
        good = loop_columns(rows)
        packed = base64.b64decode(good["f64"])
        bad_tables = {
            "one name short": {**good, "name": good["name"][:1]},
            "one mem_level more": {**good,
                                   "mem_level": good["mem_level"] * 2},
            "one row of floats short": {
                **good, "f64": base64.b64encode(packed[:56]).decode()},
            "a byte of floats short": {
                **good, "f64": base64.b64encode(packed[:-1]).decode()},
            "not base64": {**good, "f64": good["f64"][:-4] + "!!!="},
            "unpadded": {**good, "f64": good["f64"].rstrip("=")},
            "not text": {**good, "f64": 7},
            "no floats": {"name": good["name"],
                          "mem_level": good["mem_level"]},
            "schema 2": {"per_loop": rows},
        }
        assert len(packed) == 2 * 56 and good["f64"].endswith("=")
        for case, columns in bad_tables.items():
            directory = tmp_path / case.replace(" ", "_")
            directory.mkdir()
            body = estimate_to_dict(make_estimate())
            del body["per_loop"]
            (directory / ResultStore.FILENAME).write_bytes(
                record_lines("k1", body, columns))
            est = ResultStore(directory).get("k1")
            assert est.total_time == make_estimate().total_time, case
            with pytest.raises(ValueError, match="loop table"):
                est.per_loop

    def test_schema_2_record_is_never_served(self, tmp_path):
        """A store written in schema 2's layout (loop tables as lists of
        dicts) under schema 2's addresses: no record is found, every
        point is evaluated again, and the new records are served."""
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        fresh = SweepEngine(use_cache=False).run_plan(plan)
        spec = SweepEngine(use_cache=False).app_spec("miniweather")
        v2 = fingerprint({
            "schema": 2,
            "source": store_mod._source_hash(store_mod.MODEL_PACKAGES),
            "calibration": calibration.constants(),
        })
        path = tmp_path / ResultStore.FILENAME
        with path.open("wb") as f:
            for r in fresh:
                old = dataclasses.asdict(
                    dataclasses.replace(r.estimate, total_time=-1.0))
                key = fingerprint({
                    "app": spec.fingerprint(),
                    "platform": fingerprint(XEON_MAX_9480),
                    "config": r.job.config,
                    "model": v2,
                })
                f.write(record_lines(key, old,
                                     {"per_loop": old.pop("per_loop")}))
        engine = SweepEngine(tmp_path)
        results = engine.run_plan(plan)
        assert len(results) == 24
        assert [r.estimate for r in results] == [r.estimate for r in fresh]
        assert all(r.status == "ok" for r in results)
        assert engine.metrics.evaluations == 24
        assert engine.store.corrupt_lines == 0
        warm = SweepEngine(tmp_path)
        assert ([r.estimate for r in warm.run_plan(plan)]
                == [r.estimate for r in fresh])
        assert warm.metrics.evaluations == 0

    @pytest.mark.parametrize("damage,lost", [
        ("torn", 2), ("no_loop_line", 1), ("garbled", 1)])
    def test_engine_reevaluates_a_damaged_record(self, tmp_path, damage,
                                                 lost):
        """The damaged record (and, when its torn loop line has the next
        record appended onto it, that record too) is re-evaluated, and
        the re-evaluations are stored."""
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        fresh = SweepEngine(use_cache=False).run_plan(plan)
        SweepEngine(tmp_path).run_plan(plan)
        path = tmp_path / ResultStore.FILENAME
        lines = path.read_bytes().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if b'"estimate"' in line)
        loops = lines[i + 1]
        lines[i + 1] = {"torn": loops[:100],
                        "no_loop_line": b"",
                        "garbled": loops[:50] + b"#" + loops[51:]}[damage]
        path.write_bytes(b"".join(lines))
        engine = SweepEngine(tmp_path)
        results = engine.run_plan(plan)
        assert ([r.estimate for r in results]
                == [r.estimate for r in fresh])
        assert engine.metrics.evaluations == lost
        assert engine.store.corrupt_lines >= 1
        again = SweepEngine(tmp_path)
        again.run_plan(plan)
        assert again.metrics.evaluations == 0

    def test_compact_copies_loop_lines_undecoded(self, tmp_path,
                                                 loop_decodes):
        keys = mixed_records(tmp_path)
        read = ResultStore(tmp_path)
        written = set(read.path.read_bytes().splitlines(keepends=True))
        for key in keys:
            assert read.get(key).app in ("toy", "other")
        read.compact()
        assert loop_decodes == []
        after = read.path.read_bytes().splitlines(keepends=True)
        assert len(after) == 2 * len(keys) and set(after) <= written
