"""Concurrent callers' cold misses merge into one evaluation.

What must hold (``docs/ENGINE.md`` "Concurrent callers"): while one
caller's evaluation runs, other callers of ``run_plan`` queue their
misses; the next evaluation covers every queued caller as one
vectorized pass, and each caller gets back exactly its own results, in
plan order, equal to a single-threaded run's.  A caller that waited
records one ``engine``/``batch_window`` stage on its own thread's lane;
an uncontended caller records none.  An exception that escapes a
merged evaluation reaches every caller in it, and the engine stays
usable.  Each test holds the first evaluation on an event (its first
store write blocks) so the callers under test queue behind it.
"""

import sys
import threading
import time

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


class Held:
    """An engine whose first evaluation, on the thread named ``held``,
    blocks in its first store write until :meth:`run` has queued the
    waiters; ``fail_after`` makes every write from another thread raise
    ``OSError``."""

    def __init__(self, tmp_path, monkeypatch, fail_after=False):
        self.engine = SweepEngine(cache_dir=tmp_path / "cache")
        self.started, self._release = threading.Event(), threading.Event()
        self.tracer = Tracer()
        self.results, self.errors = {}, {}
        put = self.engine.store.put

        def held_put(key, est):
            if threading.current_thread().name == "held":
                if not self.started.is_set():
                    self.started.set()
                    assert self._release.wait(60)
            elif fail_after:
                raise OSError("disk full")
            return put(key, est)

        monkeypatch.setattr(self.engine.store, "put", held_put)

    def _run(self, pair):
        try:
            with tracing(self.tracer):
                self.results[pair] = self.engine.run_plan(plan_of(pair))
        except Exception as exc:
            self.errors[pair] = exc

    def run(self, waiters):
        """Start the held caller, queue ``waiters`` behind it, release
        it, and wait for everyone."""
        held = threading.Thread(target=self._run, args=(HELD,), name="held")
        held.start()
        assert self.started.wait(60)
        self.batches_while_held = self.engine.metrics.vec_batches
        threads = [threading.Thread(target=self._run, args=(pair,),
                                    name=f"waiter-{i}")
                   for i, pair in enumerate(waiters)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        while len(self.engine._queued) < len(waiters):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        self._release.set()
        for t in [held, *threads]:
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
    for pair in [HELD, *WAITERS]:
        assert rows(held.results[pair]) == rows(
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
    assert set(held.results) == {HELD}
    assert set(held.errors) == set(WAITERS)
    assert len({id(e) for e in held.errors.values()}) == 1  # one raise
    assert all(isinstance(e, OSError) for e in held.errors.values())
    assert held.engine.metrics.vec_batches == 2
    # The queue and the evaluation lock are usable afterwards.
    monkeypatch.undo()
    assert held.engine._queued == [] and not held.engine._evaluating
    results = held.engine.run_plan(plan_of(WAITERS[0]))
    assert results and all(r.status == "ok" for r in results)
    assert held.engine.metrics.vec_batches == 3



def test_many_callers_each_get_their_own_results(tmp_path):
    """More callers than cores, with a short switch interval: every
    caller gets exactly its own plan's jobs back, in order, and no
    point is evaluated twice or lost."""
    engine = SweepEngine(cache_dir=tmp_path / "cache")
    platforms = [get_platform(p) for p in ("max9480", "icx8360y")]
    apps = ["miniweather", "mgcfd", "volna", "acoustic"]
    pairs = [(app, platform) for app in apps for platform in platforms]
    got, errors = {}, []

    def caller(pair):
        try:
            got[pair] = engine.run_plan(plan_of(pair))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(pair,))
               for pair in pairs]
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
    for pair in pairs:
        assert [r.job for r in got[pair]] == plan_of(pair).jobs, pair
        assert all(r.status == "ok" for r in got[pair]), pair
    total = sum(len(plan_of(pair).jobs) for pair in pairs)
    assert engine.metrics.evaluations == total
    assert len(engine.store) == total
    assert engine._queued == [] and not engine._evaluating
