"""Unit tests for the serve building blocks — no HTTP server involved."""

import threading
from contextlib import ExitStack

import pytest

from repro.engine import build_plan
from repro.engine.jobs import JobResult
from repro.machine import XEON_MAX_9480, XEON_8360Y
from repro.serve.backpressure import AdmissionGate, Saturated
from repro.serve.batch import BatchQueue, best_of
from repro.serve.coalesce import Coalescer

from tests.engine.test_store import make_estimate


class TestCoalescer:
    def test_sequential_calls_both_lead(self):
        calls = []
        c = Coalescer()
        r1, co1 = c.do("k", lambda: calls.append(1) or "x")
        r2, co2 = c.do("k", lambda: calls.append(2) or "x")
        assert (co1, co2) == (False, False)
        assert calls == [1, 2]

    def test_followers_share_the_leaders_result(self):
        c = Coalescer()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            release.wait(5)
            return "value"

        results = []

        def request():
            results.append(c.do("k", compute))

        leader = threading.Thread(target=request)
        leader.start()
        while c.inflight == 0:  # leader underway
            pass
        followers = [threading.Thread(target=request) for _ in range(3)]
        for t in followers:
            t.start()
        release.set()
        leader.join()
        for t in followers:
            t.join()
        assert calls == [1]  # one computation total
        assert sorted(co for _, co in results) == [False, True, True, True]
        assert all(r == "value" for r, _ in results)

    def test_leader_error_propagates_to_followers(self):
        c = Coalescer()
        release = threading.Event()

        def compute():
            release.wait(5)
            raise RuntimeError("boom")

        errors = []

        def request():
            try:
                c.do("k", compute)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=request) for _ in range(3)]
        threads[0].start()
        while c.inflight == 0:
            pass
        for t in threads[1:]:
            t.start()
        release.set()
        for t in threads:
            t.join()
        assert errors == ["boom"] * 3

    def test_flight_is_forgotten_after_completion(self):
        c = Coalescer()
        c.do("k", lambda: 1)
        assert c.inflight == 0


class TestAdmissionGate:
    def test_admits_until_capacity_then_saturates(self):
        gate = AdmissionGate(max_inflight=2, max_queue=0)
        with ExitStack() as stack:
            stack.enter_context(gate.admit())
            stack.enter_context(gate.admit())
            assert gate.depth == 2
            with pytest.raises(Saturated) as exc:
                with gate.admit():
                    pass
            assert exc.value.retry_after >= 1
        assert gate.depth == 0

    def test_queued_stage_admits_beyond_inflight(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with gate.admit():
                entered.set()
                release.wait(5)

        holder = threading.Thread(target=hold)
        holder.start()
        entered.wait(5)
        # One running; a second may queue (blocks for the slot)...
        queued_done = threading.Event()

        def queued():
            with gate.admit():
                pass
            queued_done.set()

        waiter = threading.Thread(target=queued)
        waiter.start()
        while gate.depth < 2:
            pass
        # ...and a third is over capacity.
        with pytest.raises(Saturated):
            with gate.admit():
                pass
        release.set()
        holder.join()
        waiter.join()
        assert queued_done.is_set()
        assert gate.depth == 0

    def test_slot_released_after_exception(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        with pytest.raises(RuntimeError):
            with gate.admit():
                raise RuntimeError("inside")
        with gate.admit():  # slot was released
            pass

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)


class TestBatchQueue:
    def fake_run_plan(self, captured):
        def run_plan(plan):
            captured.append(plan)
            return [
                JobResult(job, make_estimate(1.0 + i), "ok")
                for i, job in enumerate(plan.jobs)
            ]
        return run_plan

    def test_concurrent_requests_merge_pairwise(self):
        captured = []
        bq = BatchQueue(self.fake_run_plan(captured), window=0.25)
        try:
            f1 = bq.submit("miniweather", XEON_MAX_9480)
            f2 = bq.submit("mgcfd", XEON_8360Y)
            cfg1, est1 = f1.result(timeout=10)
            cfg2, est2 = f2.result(timeout=10)
        finally:
            bq.close()
        assert len(captured) == 1  # one merged flush
        pairs = {(j.app, j.platform.short_name) for j in captured[0].jobs}
        # Pair-wise union, not a cross product: no (miniweather,
        # icx8360y) or (mgcfd, max9480) jobs were dragged in.
        assert pairs == {("miniweather", "max9480"), ("mgcfd", "icx8360y")}
        assert est1.total_time <= est2.total_time or True  # both resolved
        assert cfg1 is not None and cfg2 is not None

    def test_duplicate_pairs_collapse_in_the_plan(self):
        captured = []
        bq = BatchQueue(self.fake_run_plan(captured), window=0.25)
        try:
            futures = [bq.submit("miniweather", XEON_MAX_9480) for _ in range(4)]
            results = [f.result(timeout=10) for f in futures]
        finally:
            bq.close()
        assert len(captured) == 1
        single = build_plan(["miniweather"], [XEON_MAX_9480])
        assert len(captured[0].jobs) == len(single.jobs)  # no duplication
        assert len({id(est) for _, est in results}) == 1  # same estimate out

    def test_no_feasible_configuration_rejects_only_that_future(self):
        def run_plan(plan):
            return [
                JobResult(job, make_estimate(), "ok")
                for job in plan.jobs
                if job.app != "mgcfd"
            ]

        bq = BatchQueue(run_plan, window=0.25)
        try:
            good = bq.submit("miniweather", XEON_MAX_9480)
            bad = bq.submit("mgcfd", XEON_MAX_9480)
            assert good.result(timeout=10) is not None
            with pytest.raises(ValueError, match="no feasible"):
                bad.result(timeout=10)
        finally:
            bq.close()

    def test_close_drains_pending_work(self):
        captured = []
        bq = BatchQueue(self.fake_run_plan(captured), window=5.0)
        future = bq.submit("miniweather", XEON_MAX_9480)
        bq.close()  # must flush the pending request, not drop it
        assert future.result(timeout=1) is not None


class TestBestOf:
    def test_picks_fastest_feasible(self):
        plan = build_plan(["miniweather"], [XEON_MAX_9480])
        results = [
            JobResult(job, make_estimate(10.0 - i), "ok")
            for i, job in enumerate(plan.jobs)
        ]
        cfg, est = best_of(results, "miniweather", "max9480")
        assert est.total_time == min(r.estimate.total_time for r in results)
        assert cfg == results[-1].job.config

    def test_raises_when_nothing_ran(self):
        with pytest.raises(ValueError, match="no feasible"):
            best_of([], "miniweather", "max9480")
