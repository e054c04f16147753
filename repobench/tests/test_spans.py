"""Spans wrapped from outside: self times add up to wall time."""

import gc
import sys
import time
import types

import pytest

import layers
from spans import Tracer

MOD = "repro._bench_span_fixture"


def _busy(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


@pytest.fixture
def fixture_module():
    """A throwaway module in the ``repro`` namespace whose functions call
    each other through module globals, as the program's do."""
    mod = types.ModuleType(MOD)
    src = '''
def decode(x):
    _busy(0.002)
    return x

def price(n):
    _busy(0.0002)
    return n * 2

def lookup(x):
    _busy(0.001)
    total = 0
    for i in range(5):
        total += price(i)
    return decode(x) + total

class Store:
    def __init__(self):
        self.n = 0
    @classmethod
    def make(cls):
        _busy(0.001)
        return cls()
    @property
    def group(self):
        _busy(0.0001)
        return (1, 2)
'''
    mod._busy = _busy
    exec(src, mod.__dict__)
    sys.modules[MOD] = mod
    yield mod
    del sys.modules[MOD]


def _install(tracer):
    tracer.wrap_function(MOD, "lookup", "engine.address")
    tracer.wrap_function(MOD, "decode", "engine.decode")
    tracer.wrap_function(MOD, "price", "simmpi.price", aggregate=True)
    tracer.wrap_method(MOD, "Store", "make", "vec.lower")
    tracer.wrap_method(MOD, "Store", "group", "simmpi.group", aggregate=True)


def test_self_times_add_up_to_wall_time(fixture_module):
    tracer = Tracer()
    _install(tracer)
    roots = []
    for _ in range(3):
        root = tracer.open("pass")
        fixture_module.lookup(1)
        fixture_module.Store.make().group
        _busy(0.001)
        tracer.close(root)
        roots.append(root)
    tracer.uninstall()

    wall = sum(tracer.spans[r][2] - tracer.spans[r][1] for r in roots)
    self_s = tracer.self_times(tracer.descendants(roots))
    aggregated = sum(secs for _, secs in tracer.aggregates.values())
    assert sum(self_s.values()) + aggregated == pytest.approx(wall, abs=1e-12)

    per_op = layers.root_metrics(tracer, roots)
    times = [per_op[k] for k in layers.SELF_TIME.values()]
    assert sum(times) + per_op["unattributed.s"] == pytest.approx(
        wall / 3, abs=1e-12)
    assert per_op["unattributed.s"] >= 0.001
    assert per_op["engine.decode.calls"] == 1
    assert per_op["simmpi.price.calls"] == 5
    assert per_op["simmpi.group.calls"] == 1
    assert per_op["vec.lower.calls"] == 1
    # lookup's self time excludes decode and the aggregated pricing.
    assert 0.001 <= per_op["engine.address.s"] < 0.002


def test_child_spans_name_their_parent(fixture_module):
    tracer = Tracer()
    _install(tracer)
    fixture_module.lookup(1)
    tracer.uninstall()
    names = {s[0]: s for s in tracer.spans}
    parent = names["engine.decode"][3]
    assert tracer.spans[parent][0] == "engine.address"
    assert names["engine.address"][3] == -1


def test_uninstall_restores_the_originals(fixture_module):
    lookup, make = fixture_module.lookup, fixture_module.Store.make
    group = fixture_module.Store.__dict__["group"]
    tracer = Tracer()
    _install(tracer)
    assert fixture_module.lookup is not lookup
    assert tracer.installed
    tracer.uninstall()
    assert not tracer.installed
    assert fixture_module.lookup is lookup
    assert fixture_module.Store.make == make
    assert fixture_module.Store.__dict__["group"] is group
    fixture_module.lookup(1)
    assert tracer.spans == []


def test_missing_targets_are_skipped(fixture_module):
    tracer = Tracer()
    assert not tracer.wrap_function(MOD, "gone", "engine.decode")
    assert not tracer.wrap_method(MOD, "Store", "gone", "engine.read")
    assert not tracer.wrap_method("repro._no_such_module", "X", "y", "z")
    assert layers.root_metrics(tracer, []) == layers.zeros()


def test_dump_and_load_round_trip(tmp_path, fixture_module):
    tracer = Tracer(request_id=lambda: "abc123")
    _install(tracer)
    fixture_module.lookup(2)
    tracer.count("engine.read.hits", 4)
    tracer.uninstall()
    path = tmp_path / "spans.json"
    tracer.dump(path)
    back = Tracer.load(path)
    assert back.spans == [list(s) for s in tracer.spans]
    assert back.covered == tracer.covered
    assert back.counts == tracer.counts
    assert dict(back.aggregates) == {k: list(v)
                                     for k, v in tracer.aggregates.items()}
    assert {s[5] for s in back.spans} == {"abc123"}


def test_benchmark_json_lists_every_per_layer_metric():
    import json
    from pathlib import Path

    spec = json.loads((Path(layers.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(layers.PER_LAYER)
    assert set(layers.as_metrics({})) == {m["name"] for m in spec["per_layer"]}


def test_memo_forgets_freed_objects():
    class Store:
        pass

    tracer = Tracer()
    store = Store()
    tracer.memo[store] = 123
    assert tracer.memo.get(store) == 123
    del store
    gc.collect()
    assert len(tracer.memo) == 0
    assert tracer.memo.get(Store(), 0) == 0
