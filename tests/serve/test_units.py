"""Unit tests for the serve building blocks — no HTTP server involved."""

import threading
from contextlib import ExitStack

import pytest

from repro.serve.backpressure import AdmissionGate, Saturated


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
