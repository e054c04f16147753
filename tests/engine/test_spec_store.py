"""Profiled AppSpecs persisted in the result store, and the source
digests that key specs and estimates."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.base import APP_ORDER, build_spec, get_app
from repro.engine import SweepEngine
from repro.engine import store as store_mod
from repro.engine.store import ResultStore, spec_key
from repro.machine import XEON_MAX_9480, Compiler, Parallelization, RunConfig
from repro.perfmodel import calibration, estimate_app

CFG = RunConfig(Compiler.ONEAPI, Parallelization.MPI)
FILENAME = ResultStore.FILENAME


@pytest.fixture(scope="module")
def built():
    """A fresh build of every application's spec."""
    return {name: build_spec(get_app(name)) for name in APP_ORDER}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """A store directory holding the nine specs an engine profiled."""
    directory = tmp_path_factory.mktemp("specs")
    engine = SweepEngine(directory)
    for name in APP_ORDER:
        engine.app_spec(name)
    assert engine.metrics.spec_builds == len(APP_ORDER)
    return directory


@pytest.fixture()
def store_copy(tmp_path, spec_dir):
    """A private copy of ``spec_dir`` a test may write to."""
    return Path(shutil.copytree(spec_dir, tmp_path / "copy"))


def value_types(obj):
    """The type of every value in a spec, recursively."""
    if dataclasses.is_dataclass(obj):
        return type(obj), tuple((f.name, value_types(getattr(obj, f.name)))
                                for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return type(obj), tuple(value_types(v) for v in obj)
    if isinstance(obj, dict):
        return type(obj), tuple((value_types(k), value_types(v))
                                for k, v in obj.items())
    return type(obj)


class TestStoredSpecs:
    def test_every_app_reads_back_as_a_fresh_build(self, store_copy, built):
        reader = SweepEngine(store_copy)
        for name in APP_ORDER:
            spec = reader.app_spec(name)
            assert spec == built[name]
            assert spec.fingerprint() == built[name].fingerprint()
            assert value_types(spec) == value_types(built[name])
        assert reader.metrics.spec_builds == 0

    def test_decoded_once_and_shared(self, spec_dir):
        store = ResultStore(spec_dir)
        key = spec_key("miniweather")
        assert store.get_spec(key) is store.get_spec(key)
        assert store.get_spec(spec_key("absent")) is None

    def test_estimates_len_and_in_see_no_spec(self, spec_dir):
        store = ResultStore(spec_dir)
        assert len(store) == 0
        assert spec_key("miniweather") not in store
        assert store.corrupt_lines == 0

    def test_use_cache_false_neither_reads_nor_writes(self, tmp_path,
                                                      store_copy):
        before = (store_copy / FILENAME).read_bytes()
        engine = SweepEngine(store_copy, use_cache=False)
        engine.app_spec("miniweather")
        assert engine.metrics.spec_builds == 1
        assert (store_copy / FILENAME).read_bytes() == before
        empty = SweepEngine(tmp_path / "empty", use_cache=False)
        empty.app_spec("miniweather")
        assert not (tmp_path / "empty" / FILENAME).exists()

    def test_clear_drops_them(self, store_copy):
        engine = SweepEngine(store_copy)
        engine.app_spec("miniweather")
        assert engine.metrics.spec_builds == 0
        engine.clear()
        assert not (store_copy / FILENAME).exists()
        assert engine.store.get_spec(spec_key("acoustic")) is None
        engine.app_spec("miniweather")
        assert engine.metrics.spec_builds == 1
        # The rebuilt spec was appended again.
        assert ResultStore(store_copy).get_spec(spec_key("miniweather"))

    def test_compact_keeps_them(self, store_copy, built):
        engine = SweepEngine(store_copy)
        est = engine.run("miniweather", XEON_MAX_9480, CFG)
        engine.store.put_spec(spec_key("acoustic"), built["acoustic"])
        # Nine specs, the estimate's two lines, and acoustic's spec again.
        assert len((store_copy / FILENAME).read_text().splitlines()) == 12
        assert engine.store.compact() == 1 + len(APP_ORDER)
        assert len((store_copy / FILENAME).read_text().splitlines()) == 11
        reader = SweepEngine(store_copy)
        assert reader.run("miniweather", XEON_MAX_9480, CFG) == est
        assert [reader.app_spec(n) for n in APP_ORDER] == [
            built[n] for n in APP_ORDER]
        assert reader.metrics.spec_builds == reader.metrics.evaluations == 0

    def test_compact_writes_the_same_bytes_read_or_not(self, tmp_path,
                                                       store_copy):
        untouched = Path(shutil.copytree(store_copy, tmp_path / "untouched"))
        read = ResultStore(store_copy)
        for name in APP_ORDER[::2]:
            assert read.get_spec(spec_key(name)) is not None
        before = (store_copy / FILENAME).read_bytes()
        read.compact()
        ResultStore(untouched).compact()
        # One record per key already, so compacting rewrites the file as
        # it was.
        assert (store_copy / FILENAME).read_bytes() == before
        assert (untouched / FILENAME).read_bytes() == before

    def test_bad_spec_lines_are_counted_and_reprofiled(self, tmp_path,
                                                       spec_dir, built):
        """A torn spec line, a foreign one and one whose spec is not an
        object, each between good records: all three are counted as
        corrupt, and their apps are re-profiled and appended again."""
        lines = {json.loads(line)["key"]: line for line in
                 (spec_dir / FILENAME).read_text().splitlines()}
        est = estimate_app(built["miniweather"], XEON_MAX_9480, CFG)
        good = ResultStore(tmp_path)
        good.put("est0", est)
        bad = {
            "miniweather": lines[spec_key("miniweather")][:500],  # torn
            "acoustic": json.dumps({"key": spec_key("acoustic"),
                                    "spec": {"name": "acoustic"}}),
            "volna": json.dumps({"key": spec_key("volna"), "spec": None}),
        }
        for i, name in enumerate(APP_ORDER):
            with good.path.open("a") as f:
                f.write(bad.get(name, lines[spec_key(name)]) + "\n")
            good.put(f"est{i + 1}", est)

        engine = SweepEngine(tmp_path)
        assert [engine.app_spec(n) for n in APP_ORDER] == [
            built[n] for n in APP_ORDER]
        assert engine.metrics.spec_builds == 3
        assert engine.store.corrupt_lines == 3
        assert len(engine.store) == len(APP_ORDER) + 1

        again = SweepEngine(tmp_path)
        assert [again.app_spec(n) for n in APP_ORDER] == [
            built[n] for n in APP_ORDER]
        assert again.metrics.spec_builds == 0
        # The good line appended after the foreign one wins on load; the
        # torn and null lines are still skipped.
        assert again.store.corrupt_lines == 2
        assert again.store.get("est3") == est


class TestSpecKey:
    @pytest.mark.parametrize("part", ["source", "numpy", "schema"])
    def test_rekeyed_when_an_input_changes(self, part, store_copy,
                                           monkeypatch):
        key = spec_key("miniweather")
        if part == "source":
            monkeypatch.setitem(store_mod._SOURCE_HASHES,
                                store_mod.SPEC_PACKAGES, "0" * 16)
        elif part == "numpy":
            monkeypatch.setattr(np, "__version__", "0.0.0")
        else:
            monkeypatch.setattr(store_mod, "STORE_SCHEMA_VERSION", 0)
        assert spec_key("miniweather") != key
        engine = SweepEngine(store_copy)
        engine.app_spec("miniweather")
        assert engine.metrics.spec_builds == 1
        assert ResultStore(store_copy).get_spec(spec_key("miniweather"))

    def test_one_key_per_app(self):
        assert len({spec_key(name) for name in APP_ORDER}) == len(APP_ORDER)

    def test_calibration_does_not_rekey(self):
        key = spec_key("miniweather")
        with calibration.override(BOTTLENECK_PNORM=5.0):
            assert spec_key("miniweather") == key

    def test_profiling_reads_no_calibration_constant(self, built):
        """Why the key may leave calibration out: building every spec
        reads no constant of the calibration module (only the tiled
        mode of ``ops.tiling`` would, and profiling never enables it)."""
        reads = set()

        class Recording(types.ModuleType):
            def __getattribute__(self, name):
                if name.isupper():
                    reads.add(name)
                return super().__getattribute__(name)

        plain = type(calibration)
        calibration.__class__ = Recording
        try:
            for name in APP_ORDER:
                assert build_spec(get_app(name)) == built[name]
            assert reads == set()
            estimate_app(built["miniweather"], XEON_MAX_9480, CFG)
            assert reads  # the recorder does see the model's reads
        finally:
            calibration.__class__ = plain


#: Python run in a fresh interpreter: import each digest's entry points,
#: then print every loaded ``repro.*`` module with its file.
ENTRY_POINTS = {
    "MODEL_PACKAGES": "import repro.perfmodel.roofline, repro.vec.evaluate",
    "SPEC_PACKAGES": (
        "from repro.apps.base import APP_ORDER, build_spec, get_app\n"
        "for name in APP_ORDER:\n"
        "    build_spec(get_app(name))"
    ),
}
LIST_MODULES = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted((name, mod.__file__) for name, mod in "
    "list(sys.modules.items()) if name.startswith('repro.'))))"
)


@pytest.mark.parametrize("digest", sorted(ENTRY_POINTS))
def test_every_imported_module_is_digested(digest):
    """A module outside a digest could change what it keys without
    re-keying the store, which would then serve stale records."""
    src = Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINTS[digest] + LIST_MODULES],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    modules = json.loads(proc.stdout.splitlines()[-1])
    packages = getattr(store_mod, digest)
    root = src / "repro"
    assert len(modules) > 20
    outside = [name for name, path in modules
               if Path(path).resolve().parent.parent != root
               or Path(path).parent.name not in packages]
    assert outside == []
