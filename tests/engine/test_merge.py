"""Concurrent callers' cold misses merge into one evaluation, and no
address is evaluated twice.

What must hold (``docs/ENGINE.md`` "Concurrent callers"): while one
caller's evaluation runs, other callers of ``run_plan`` queue their
misses; the next evaluation covers every queued caller as one
vectorized pass, and each caller gets back exactly its own results, in
plan order, equal to a single-threaded run's.  A caller whose misses
another caller has queued, is evaluating or has stored since its lookup
rides on that evaluation: it reads the owner's estimates back from the
store and evaluates nothing, unless that evaluation failed, in which
case it evaluates the jobs itself.  A caller that waited records one
``engine``/``batch_window`` stage on its own thread's lane; an
uncontended caller records none.  An exception that escapes a merged
evaluation reaches every caller that queued jobs in it, no address
stays pending, and the engine stays usable.  Each concurrent test holds
the first evaluation on an event (its first store write blocks) until
the callers under test wait behind it.
"""

import json
import sys
import threading
import time

import pytest

from repro.engine import SweepEngine, build_plan
from repro.engine.store import estimate_to_dict
from repro.machine import get_platform
from repro.obs.tracer import Tracer, tracing

MAX9480, ICX8360Y = get_platform("max9480"), get_platform("icx8360y")
HELD = ("miniweather", MAX9480)
WAITERS = [("cloverleaf2d", MAX9480), ("mgcfd", MAX9480),
           ("volna", ICX8360Y)]


def plan_of(pair):
    app, platform = pair
    return build_plan([app], [platform])


def rows(results):
    """What a caller got back: job, status and every estimate field."""
    return [(r.job.key, r.status,
             estimate_to_dict(r.estimate) if r.estimate else None)
            for r in results]


def stored_once(engine) -> int:
    """How many estimate lines the store's file holds; each key must
    appear on one of them only."""
    lines = engine.store.path.read_text().splitlines()
    keys = [rec["key"] for rec in map(json.loads, lines)
            if "estimate" in rec]
    assert len(keys) == len(set(keys))
    return len(keys)


def assert_settled(engine):
    """Nothing queued, pending or evaluating."""
    assert engine._queued == [] and engine._pending == set()
    assert not engine._evaluating


class WatchedCondition(threading.Condition):
    """The engine's merge condition, counting the threads waiting on it
    (each count changes under the condition's lock)."""

    def __init__(self):
        super().__init__()
        self.waiting = 0

    def wait(self, timeout=None):
        self.waiting += 1
        try:
            return super().wait(timeout)
        finally:
            self.waiting -= 1


class Held:
    """An engine whose first evaluation, on the thread named ``held``,
    blocks in its first store write until every caller :meth:`run`
    started waits behind it.  ``fail_after`` makes every write from
    another thread raise ``OSError``; ``fail_held`` makes the held write
    raise it once released."""

    def __init__(self, tmp_path, monkeypatch, fail_after=False,
                 fail_held=False):
        self.engine = SweepEngine(cache_dir=tmp_path / "cache")
        self.engine._merge = WatchedCondition()
        self.started, self._release = threading.Event(), threading.Event()
        self.tracer = Tracer()
        #: thread name -> the pair it ran, its results or its error
        self.pairs, self.results, self.errors = {}, {}, {}
        put = self.engine.store.put

        def held_put(key, est):
            if threading.current_thread().name == "held":
                if not self.started.is_set():
                    self.started.set()
                    assert self._release.wait(60)
                    if fail_held:
                        raise OSError("disk full")
            elif fail_after:
                raise OSError("disk full")
            return put(key, est)

        monkeypatch.setattr(self.engine.store, "put", held_put)

    def _run(self, pair):
        name = threading.current_thread().name
        try:
            with tracing(self.tracer):
                self.results[name] = self.engine.run_plan(plan_of(pair))
        except Exception as exc:
            self.errors[name] = exc

    def run(self, waiters):
        """Start the held caller, start ``waiters`` and let them wait
        behind it, release it, and wait for everyone."""
        self.pairs = {"held": HELD, **{f"waiter-{i}": pair
                                       for i, pair in enumerate(waiters)}}
        threads = [threading.Thread(target=self._run, args=(pair,),
                                    name=name)
                   for name, pair in self.pairs.items()]
        threads[0].start()
        assert self.started.wait(60)
        self.batches_while_held = self.engine.metrics.vec_batches
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 60
        while self.engine._merge.waiting < len(waiters):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        self._release.set()
        for t in threads:
            t.join(60)
            assert not t.is_alive()


def test_waiters_merge_into_one_pass(tmp_path, monkeypatch):
    held = Held(tmp_path, monkeypatch)
    held.run(WAITERS)
    assert not held.errors
    assert held.batches_while_held == 1
    # Exactly one more pass covered every waiter; a build that
    # evaluated each caller's misses separately would read 1 + 3.
    assert held.engine.metrics.vec_batches == 2
    reference = SweepEngine(use_cache=False)
    for name, pair in held.pairs.items():
        assert rows(held.results[name]) == rows(
            reference.run_plan(plan_of(pair))), pair
    expected = sum(len(plan_of(p).jobs) for p in [HELD, *WAITERS])
    assert held.engine.metrics.evaluations == expected


def test_each_waiter_records_one_batch_window_on_its_lane(tmp_path,
                                                         monkeypatch):
    held = Held(tmp_path, monkeypatch)
    held.run(WAITERS)
    windows = held.tracer.spans_of("engine", "batch_window")
    lanes = sorted(s.track[1] for s in windows)
    assert lanes == [f"waiter-{i}" for i in range(len(WAITERS))]
    assert all(s.track[0] == "engine" for s in windows)
    # The merged pass ran on one waiter's thread, after the held one.
    batches = held.tracer.spans_of("engine", "batch")
    assert len(batches) == 2
    assert {s.track[1] for s in batches} - {"held"} <= set(lanes)


def test_uncontended_plan_records_no_batch_window(tmp_path):
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    with tracing(Tracer()) as tracer:
        engine.run_plan(plan_of(HELD))
    assert tracer.spans_of("engine", "batch")
    assert not tracer.spans_of("engine", "batch_window")


def test_escaping_error_reaches_every_merged_caller(tmp_path, monkeypatch):
    held = Held(tmp_path, monkeypatch, fail_after=True)
    held.run(WAITERS)
    assert set(held.results) == {"held"}
    assert set(held.errors) == set(held.pairs) - {"held"}
    assert len({id(e) for e in held.errors.values()}) == 1  # one raise
    assert all(isinstance(e, OSError) for e in held.errors.values())
    assert held.engine.metrics.vec_batches == 2
    # The queue and the evaluation lock are usable afterwards.
    monkeypatch.undo()
    assert_settled(held.engine)
    results = held.engine.run_plan(plan_of(WAITERS[0]))
    assert results and all(r.status == "ok" for r in results)
    assert held.engine.metrics.vec_batches == 3


def test_sequential_callers_evaluate_nothing_twice(tmp_path):
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    first = engine.run_plan(plan_of(HELD))
    evaluated = engine.metrics.evaluations
    assert evaluated == len(first)
    again = engine.run_plan(plan_of(HELD))
    assert engine.metrics.evaluations == evaluated
    assert [r.status for r in again] == ["cached"] * len(first)
    assert all(a.estimate is b.estimate for a, b in zip(first, again))
    wider = build_plan([HELD[0], WAITERS[0][0]], [MAX9480])
    engine.run_plan(wider)
    assert engine.metrics.evaluations == len(wider.jobs)
    assert stored_once(engine) == len(wider.jobs)


def test_addresses_stored_after_lookup_are_not_evaluated(tmp_path):
    """Two callers look the same jobs up before either evaluates; the
    second to reach ``evaluate_batch`` finds them stored and reads
    them."""
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    jobs = plan_of(HELD).jobs
    looked = [engine.lookup(job) for job in jobs]
    assert all(res is None for res, _ in looked)
    keys = [key for _, key in looked]
    first = engine.evaluate_batch(jobs, keys)
    second = engine.evaluate_batch(jobs, keys)
    assert engine.metrics.evaluations == len(jobs)
    assert [r.status for r in second] == ["cached"] * len(jobs)
    assert all(a.estimate is b.estimate for a, b in zip(first, second))
    assert stored_once(engine) == len(jobs)


def test_rider_gets_the_owners_estimate(tmp_path, monkeypatch):
    held = Held(tmp_path, monkeypatch)
    held.run([HELD, HELD])
    assert not held.errors
    jobs = plan_of(HELD).jobs
    owner = held.results["held"]
    assert held.engine.metrics.evaluations == len(jobs)
    assert held.engine.metrics.vec_batches == 1
    for name in ("waiter-0", "waiter-1"):
        rider = held.results[name]
        assert [r.job for r in rider] == jobs
        assert [r.status for r in rider] == ["cached"] * len(jobs)
        assert all(r.estimate is o.estimate for r, o in zip(rider, owner))
    # Each rider waited once, on its own lane, and evaluated nothing.
    windows = held.tracer.spans_of("engine", "batch_window")
    assert sorted(s.track[1] for s in windows) == ["waiter-0", "waiter-1"]
    assert {s.track[1] for s in held.tracer.spans_of("engine", "batch")} \
        == {"held"}
    assert stored_once(held.engine) == len(jobs)


def test_rider_of_a_failed_evaluation_evaluates_itself(tmp_path,
                                                        monkeypatch):
    """The owner's exception reaches the owner only; the rider finds
    its addresses unstored and evaluates each job itself."""
    held = Held(tmp_path, monkeypatch, fail_held=True)
    held.run([HELD])
    assert set(held.errors) == {"held"}
    assert isinstance(held.errors["held"], OSError)
    reference = SweepEngine(use_cache=False).run_plan(plan_of(HELD))
    assert rows(held.results["waiter-0"]) == rows(reference)
    assert_settled(held.engine)
    jobs = plan_of(HELD).jobs
    assert stored_once(held.engine) == len(jobs)


def test_nothing_stays_pending(tmp_path, monkeypatch):
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    engine.run_plan(plan_of(HELD))
    assert_settled(engine)

    def full(key, est):
        raise OSError("disk full")

    monkeypatch.setattr(engine.store, "put", full)
    with pytest.raises(OSError):
        engine.run_plan(plan_of(WAITERS[0]))
    assert_settled(engine)
    monkeypatch.undo()
    # The failed addresses are free again: the next caller owns them.
    results = engine.run_plan(plan_of(WAITERS[0]))
    assert [r.status for r in results] == ["ok"] * len(results)
    assert_settled(engine)



def test_many_callers_each_get_their_own_results(tmp_path):
    """More callers than cores, with a short switch interval, each pair
    asked for by two callers: every caller gets exactly its own plan's
    jobs back, in order, and no point is evaluated twice or lost."""
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    platforms = [get_platform(p) for p in ("max9480", "icx8360y")]
    apps = ["miniweather", "mgcfd", "volna", "acoustic"]
    pairs = [(app, platform) for app in apps for platform in platforms]
    callers = pairs * 2
    got, errors = [None] * len(callers), []

    def caller(i):
        try:
            got[i] = engine.run_plan(plan_of(callers[i]))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(i,))
               for i in range(len(callers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for pair, results in zip(callers, got):
        assert [r.job for r in results] == plan_of(pair).jobs, pair
        assert all(r.status in ("ok", "cached") for r in results), pair
    total = sum(len(plan_of(pair).jobs) for pair in pairs)
    assert engine.metrics.evaluations == total
    assert stored_once(engine) == total
    assert_settled(engine)
