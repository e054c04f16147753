"""Unit tests for the serve building blocks — no HTTP server involved."""

import threading
from contextlib import ExitStack

import pytest

from repro.serve.backpressure import AdmissionGate, Saturated
from repro.serve.coalesce import Coalescer


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
